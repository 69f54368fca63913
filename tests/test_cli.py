import json
import os

import numpy as np
import pytest

import pikrig
from pikrig import calibration, cli, design, flowlab, kernel, predictors, uq
from pikrig.design import ExtendedPoint, ObservationSet
from pikrig.kernel import SqExpKernel

import oracles
from util import ode_setup


def run(args):
    return cli.main(args)


def report_of(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"bogus": 1}))
    rc = run(["ode1d", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err
    # the nested blocks take only their own keys
    for raw, message in (({"kernel": {"nu": 1.5}}, "unknown kernel key 'nu'"),
                         ({"counts": {"theta": 1.0}}, "unknown counts key 'theta'")):
        cfgfile.write_text(json.dumps(raw))
        rc = run(["ode1d", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("{not json")
    rc = run(["ode1d", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"kernel": {"theta": 0.7, "sigma2": 2.0},
                                   "seed": 3, "method": "sk"}))
    out = tmp_path / "o"
    rc = run(["ode1d", "--config", str(cfgfile), "--theta", "1.3",
              "--seed", "5", "--out", str(out)])
    assert rc == cli.EXIT_OK
    rep = report_of(out)
    assert rep["config"]["theta"] == 1.3  # flag beats file
    assert rep["config"]["sigma2"] == 2.0  # file survives where no flag given
    assert rep["config"]["seed"] == 5
    assert rep["theta_hat"] == 1.3


def test_invalid_values_exit_2(tmp_path):
    out = str(tmp_path / "o")
    assert run(["scalar2d", "--n", "0", "--out", out]) == cli.EXIT_CONFIG
    assert run(["ode1d", "--theta", "-1", "--out", out]) == cli.EXIT_CONFIG
    assert run(["ode1d", "--theta", "maybe", "--out", out]) == cli.EXIT_CONFIG
    assert run(["ode1d", "--budget", "4", "--out", out]) == cli.EXIT_CONFIG
    assert run(["ode1d", "--nugget", "-0.5", "--out", out]) == cli.EXIT_CONFIG
    assert run(["flow", "--method", "sk", "--out", out]) == cli.EXIT_CONFIG


def test_missing_csv_exits_2_with_message(tmp_path, capsys):
    rc = run(["flow", "--csv", str(tmp_path / "nope.csv"),
              "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_numerical_failure_exits_3_and_reports(tmp_path):
    # duplicated boundary equations make the constraint block rank
    # deficient; the run must fail cleanly, not crash
    csv = tmp_path / "dup.csv"
    csv.write_text(
        "kind,x,y,a,b\n"
        "obs,2.0,0.0,1.0,0.0\n"
        "obs,0.0,2.0,1.2,0.1\n"
        "obs,-2.0,0.5,0.9,-0.2\n"
        "grid,2.5,0.5,0,0\n"
        "boundary,1.0,0.0,1,0\n"
        "boundary,1.0,0.0,1,0\n"
    )
    out = tmp_path / "o"
    rc = run(["flow", "--csv", str(csv), "--method", "lk",
              "--theta", "1.0", "--sigma2", "1.0", "--out", str(out)])
    assert rc == cli.EXIT_NUMERICAL
    rep = report_of(out)
    assert rep["status"] == "error"
    assert "rank" in rep["error"]
    assert not os.path.exists(os.path.join(out, "predictions.csv"))


def test_ode1d_smoke_with_fixed_kernel(tmp_path):
    out = tmp_path / "o"
    rc = run(["ode1d", "--method", "ck", "--theta", "1.0", "--sigma2", "1.0",
              "--n", "4", "--p", "8", "--q", "9", "--out", str(out)])
    assert rc == cli.EXIT_OK
    rep = report_of(out)
    assert rep["status"] == "ok"
    assert rep["theta_hat"] == 1.0
    assert rep["mse_vs_truth"] < 1e-3
    assert rep["constraint_residual_max"] < 1e-8
    assert rep["cov_eval_count"] > 0
    assert set(rep["timing"]) == {"construction_s", "inversion_s"}
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "x,m,mean,variance"
    assert len(lines) == 1 + 9


def test_predictions_parse_back_losslessly(tmp_path):
    out = tmp_path / "o"
    assert run(["ode1d", "--method", "sk", "--theta", "0.8", "--sigma2", "0.4",
                "--out", str(out)]) == cli.EXIT_OK
    rows = (out / "predictions.csv").read_text().splitlines()[1:]
    vals = np.array([float(r.split(",")[2]) for r in rows])
    rewritten = np.array([float(format(v, ".17g")) for v in vals])
    assert np.array_equal(vals, rewritten)
    assert np.all(np.isfinite(vals))


def test_reruns_are_bit_identical(tmp_path):
    args = ["ode1d", "--method", "ck", "--budget", "16", "--seed", "10"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(args + ["--out", out1]) == cli.EXIT_OK
    assert run(args + ["--out", out2]) == cli.EXIT_OK
    with open(os.path.join(out1, "predictions.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "predictions.csv"), "rb") as fh:
        second = fh.read()
    assert first == second


def test_seed_changes_predictions(tmp_path):
    base = ["ode1d", "--method", "sk", "--theta", "1.0", "--sigma2", "1.0"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(base + ["--seed", "1", "--out", out1]) == cli.EXIT_OK
    assert run(base + ["--seed", "2", "--out", out2]) == cli.EXIT_OK
    r1 = (tmp_path / "a" / "predictions.csv").read_text()
    r2 = (tmp_path / "b" / "predictions.csv").read_text()
    assert r1 != r2


def test_calibrate_writes_trace(tmp_path):
    out = tmp_path / "o"
    rc = run(["calibrate", "--method", "ck", "--budget", "16", "--out", str(out)])
    assert rc == cli.EXIT_OK
    rep = report_of(out)
    lo, hi = rep["extras"]["bounds"]
    assert lo <= rep["theta_hat"] <= hi
    assert rep["sigma2_hat"] > 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "theta,criterion"
    assert len(lines) > 8  # grid evaluations recorded


def test_bench_single_point(tmp_path):
    out = tmp_path / "o"
    rc = run(["bench", "--p", "100", "--q", "20", "--out", str(out)])
    assert rc == cli.EXIT_OK
    rep = report_of(out)
    rows = rep["extras"]["rows"]
    assert [r["method"] for r in rows] == ["ck", "lk"]
    assert rows[0]["p"] == 100 and rows[0]["q"] == 20
    assert rows[1]["cov_eval_count"] < rows[0]["cov_eval_count"]
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "method,p,q,construction_s,inversion_s,cov_eval_count"
    assert len(lines) == 3


def test_scalar2d_smoke_fixed_kernel(tmp_path):
    out = tmp_path / "o"
    rc = run(["scalar2d", "--method", "ck", "--theta", "0.8", "--sigma2", "1.0",
              "--q", "25", "--out", str(out)])
    assert rc == cli.EXIT_OK
    rep = report_of(out)
    assert rep["l2_rel_error"] < 1e-3
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "x,y,m,mean,variance"
    assert len(lines) == 1 + 25


def test_flow_csv_roundtrip_run(tmp_path):
    # a cylinder run emits its own input back out; feeding that file to
    # flow-csv reproduces the same observation set
    out1 = tmp_path / "a"
    rc = run(["flow", "--method", "ck", "--theta", "0.9", "--sigma2", "10.0",
              "--n", "8", "--q1", "8", "--out", str(out1)])
    assert rc == cli.EXIT_OK
    emitted = out1 / "field_input.csv"
    assert emitted.exists()
    out2 = tmp_path / "b"
    rc = run(["flow", "--csv", str(emitted), "--method", "ck", "--theta", "0.9",
              "--sigma2", "10.0", "--out", str(out2)])
    assert rc == cli.EXIT_OK
    rep = report_of(out2)
    assert rep["status"] == "ok"
    assert rep["constraint_residual_max"] is not None


def test_config_file_alone_drives_run(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "method": "sk",
        "kernel": {"theta": 1.0, "sigma2": 1.0},
        "counts": {"n": 5, "q": 7},
        "seed": 2,
        "output_dir": str(tmp_path / "o"),
    }))
    rc = run(["ode1d", "--config", str(cfgfile)])
    assert rc == cli.EXIT_OK
    rep = report_of(tmp_path / "o")
    assert rep["config"]["n"] == 5
    lines = (tmp_path / "o" / "predictions.csv").read_text().splitlines()
    assert len(lines) == 1 + 7


def _variance_column(outdir):
    lines = (outdir / "predictions.csv").read_text().splitlines()
    col = lines[0].split(",").index("variance")
    return np.array([float(line.split(",")[col]) for line in lines[1:]])


def _harmonic(locations):
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in locations]
    return design.encode_pointwise(rows, np.zeros(len(rows)))


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(ref)))


def test_ode1d_variances_match_full_covariance(tmp_path):
    # the runners read variances off the prediction solve; the oracles
    # build the full covariance as printed and serve as the reference
    k = SqExpKernel(sigma2=0.7, theta=1.1, dim=1)
    obs, colloc, grid = ode_setup()
    pred = [ExtendedPoint((float(x),), (0,)) for x in grid]
    with_obs = np.unique(np.concatenate([grid, [a.x[0] for a in obs.points]]))
    refs = {
        "sk": oracles.var_ck_full(k, obs, None, pred).variance,
        "ck": oracles.var_ck_full(k, obs, _harmonic(colloc), pred).variance,
        "lk": oracles.var_lk_full(k, obs, _harmonic(grid)).variance,
        "lk-interp": oracles.var_lk_full(k, obs, _harmonic(with_obs)).variance,
    }
    fixed = ["--theta", "1.1", "--sigma2", "0.7"]
    for method, ref in refs.items():
        out = tmp_path / method
        assert run(["ode1d", "--method", method, *fixed, "--out", str(out)]) == cli.EXIT_OK
        _assert_close(_variance_column(out), ref)

    # ordinary Kriging: the realized objective of its weights (criterion 10)
    out = tmp_path / "ok"
    assert run(["ode1d", "--method", "ok", *fixed, "--out", str(out)]) == cli.EXIT_OK
    obs_m = ObservationSet(obs.points, obs.values, mean=np.ones(obs.n))
    w = predictors.ordinary_kriging(k, obs_m, pred, np.ones(len(pred)))
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, pred)
    got = _variance_column(out)
    for j, atom in enumerate(pred):
        obj = predictors.mse_objective(w.alpha[:, [j]], K, H[:, [j]], design.gram(k, [atom]))
        assert abs(got[j] - max(obj, 0.0)) <= 1e-8 * max(1.0, abs(obj))


def test_scalar2d_variances_match_full_covariance(tmp_path):
    k = SqExpKernel(sigma2=1.0, theta=0.8, dim=2)
    obs, ops, pred, _ = cli._scalar2d_system(cli.RunConfig(q=16))
    lk_ops = design.extend_atoms(ops, pred)
    order0 = design.locate_atoms(lk_ops.colloc_points, pred)
    refs = {
        "sk": oracles.var_ck_full(k, obs, None, pred).variance,
        "ck": oracles.var_ck_full(k, obs, ops, pred).variance,
        "lk": oracles.var_lk_full(k, obs, lk_ops).variance[order0],
    }
    for method, ref in refs.items():
        out = tmp_path / method
        assert run(["scalar2d", "--method", method, "--theta", "0.8", "--sigma2", "1.0",
                    "--q", "16", "--out", str(out)]) == cli.EXIT_OK
        _assert_close(_variance_column(out), ref)


def test_one_factorization_per_solve(tmp_path, monkeypatch):
    # at a fixed theta and sigma2 each run assembles one system and factors
    # it once: predictions, residual and variances share the solve
    original = predictors.make_spd_solver
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in (pikrig, calibration, cli, design, flowlab, kernel, predictors, uq):
        for name, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, name, counted)
    flow_cfg = tmp_path / "flow.json"
    flow_cfg.write_text(json.dumps({"n": 8, "q1": 8, "cont_nx": 5, "cont_ny": 5,
                                    "pred_nx": 6, "pred_ny": 6}))
    fixed = ["--theta", "0.9", "--sigma2", "1.0"]
    runs = [["ode1d", "--method", m] for m in ("sk", "ok", "ck", "lk", "lk-interp")]
    runs += [["scalar2d", "--method", m, "--q", "16"] for m in ("sk", "ck")]
    runs += [["flow", "--method", "ck", "--config", str(flow_cfg)]]
    for i, args in enumerate(runs):
        calls.clear()
        assert run(args + fixed + ["--out", str(tmp_path / str(i))]) == cli.EXIT_OK
        assert len(calls) == 1, args


FLOW_LK_GRID60 = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "inputs", "flow_lk_grid60.json"
)


@pytest.mark.parametrize("args", [
    ["flow", "--config", FLOW_LK_GRID60],
    ["flow", "--method", "ck", "--theta", "0.9178758779662336",
     "--sigma2", "10.565115832855062"],
    ["ode1d", "--method", "lk"],
    ["ode1d", "--method", "ck"],
    ["scalar2d", "--method", "lk"],
], ids=["flow-lk-grid60", "flow-ck", "ode1d-lk", "ode1d-ck", "scalar2d-lk"])
def test_runs_build_no_atom_objects(tmp_path, monkeypatch, args):
    # atom sets stay arrays from layout to predictions.csv: no run builds
    # an ExtendedPoint, let alone one per atom
    original = ExtendedPoint.__post_init__
    made = []

    def counted(self):
        made.append(1)
        original(self)

    monkeypatch.setattr(ExtendedPoint, "__post_init__", counted)
    assert run(args + ["--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert len(made) == 0
