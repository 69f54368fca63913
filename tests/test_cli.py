import collections
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def strict_report_of(outdir):
    """report.json read as strict JSON: NaN and infinities raise."""
    def refuse(name):
        raise ValueError(f"report.json holds {name}, which is not JSON")

    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh, parse_constant=refuse)


def test_unknown_config_key_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
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
    # a value of the wrong type is a configuration error naming its field
    for raw, message in (({"method": ["ck"]}, "method: ['ck'] not one of"),
                         ({"kernel": 5}, "config: kernel must be an object"),
                         ({"nugget": [1]}, "nugget: expected a number, got [1]"),
                         ({"n": [1]}, "n: expected an integer, got [1]")):
        cfgfile.write_text(json.dumps(raw))
        rc = run(["ode1d", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
    # every field is checked, none truncated, read as a boolean or passed on;
    # no --out, so that output_dir comes from the file
    for command, raw, message in (
            ("ode1d", {"counts": {"n": 2.5}}, "n: expected an integer, got 2.5"),
            ("ode1d", {"budget": 10.7}, "budget: expected an integer, got 10.7"),
            ("ode1d", {"nugget": True}, "nugget: expected a number, got True"),
            ("ode1d", {"kernel": {"theta": True, "sigma2": 1}},
             "theta: expected a number or 'auto', got True"),
            ("ode1d", {"counts": {"n": True}}, "n: expected an integer, got True"),
            ("ode1d", {"radius": float("nan")}, "radius: expected a number, got nan"),
            ("ode1d", {"kernel": {"sigma2": None}}, "sigma2: expected a number or 'auto', got None"),
            ("flow", {"cont_nx": 2.5}, "cont_nx: expected an integer, got 2.5"),
            ("flow", {"with_cylinder": "no"}, "with_cylinder: expected a boolean, got 'no'"),
            ("flow", {"radius": "big"}, "radius: expected a number, got 'big'"),
            ("flow", {"cont_nx": "a"}, "cont_nx: expected an integer, got 'a'"),
            ("flow", {"output_dir": 5}, "output_dir: expected a string, got 5"),
            ("flow", {"csv_path": 5}, "csv_path: expected a string, got 5"),
            # layout counts and lengths that would be clamped or leave an empty grid
            ("flow", {"pred_ny": 0}, "pred_ny: must be at least 2, got 0"),
            ("flow", {"cont_nx": -1}, "cont_nx: must be at least 2, got -1"),
            ("flow", {"extent": -1}, "extent: must be positive, got -1.0"),
            ("flow", {"aspect": 0}, "aspect: must be positive, got 0.0")):
        cfgfile.write_text(json.dumps(raw))
        method = "sk" if command == "ode1d" else "ck"
        assert run([command, "--method", method, "--config", str(cfgfile)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err, raw
    assert not os.path.exists(tmp_path / "pikrig_out")


def test_malformed_json_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("{not json")
    rc = run(["ode1d", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_unreadable_or_non_object_config_exits_2(tmp_path, capsys):
    # the run never learns its output directory, so no report is written
    out = tmp_path / "o"
    rc = run(["ode1d", "--config", str(tmp_path / "missing.json"), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "config: cannot read" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("[1, 2]")
    assert run(["ode1d", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config: top level must be an object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["ok", "lk-interp"])
def test_scalar2d_rejects_a_method_it_does_not_run(tmp_path, capsys, method):
    out = tmp_path / "o"
    assert run(["scalar2d", "--method", method, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"method: scalar2d supports ('sk', 'ck', 'lk'), got {method!r}" in capsys.readouterr().err
    assert not out.exists()


def test_flow_csv_config_requires_csv_path():
    # flow picks flow-csv only when --csv is given, so this is the config
    # check itself
    with pytest.raises(cli.ConfigError, match="csv_path: required"):
        cli.validate_config(cli.RunConfig(experiment="flow-csv", method="ck"))


def test_q2_mismatch_exits_2_and_reports(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run(["flow", "--method", "ck", "--theta", "0.9", "--sigma2", "1.0", "--q2", "5",
              "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    message = "q2: layout produced 88 continuity points, expected 5"
    assert message in capsys.readouterr().err
    rep = report_of(out)
    assert (rep["status"], rep["error"]) == ("error", message)
    assert not (out / "predictions.csv").exists()


# one instance of every numerical failure, and an input error
_RUN_FAILURES = [
    predictors.ConditioningError("failure", nugget_last=1e-4),
    predictors.RankDeficiencyError("failure", dependent=[1]),
    predictors.DegenerateMeanError("failure"),
    predictors.DegenerateConstraintError("failure"),
    predictors.SingularSystemError("failure"),
    np.linalg.LinAlgError("failure"),
    cli.ConfigError("failure"),
]


def test_run_failures_cover_every_numerical_error():
    listed = {type(exc) for exc in _RUN_FAILURES}
    assert set(predictors.NumericalError.__subclasses__()) <= listed


@pytest.mark.parametrize("exc", _RUN_FAILURES, ids=lambda exc: type(exc).__name__)
def test_failure_inside_a_run_sets_the_exit_code_and_reports(tmp_path, monkeypatch, exc):
    # every NumericalError and LinAlgError is a numerical failure (exit 3),
    # whatever its ValueError or RuntimeError base; a ConfigError is an
    # input error (exit 2); either way the report says why
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "_calibrate", fail)
    out = tmp_path / "o"
    expected = cli.EXIT_CONFIG if isinstance(exc, cli.ConfigError) else cli.EXIT_NUMERICAL
    assert run(["ode1d", "--method", "sk", "--out", str(out)]) == expected
    rep = report_of(out)
    assert (rep["status"], rep["error"]) == ("error", "failure")
    assert not (out / "predictions.csv").exists()


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


def test_invalid_values_exit_2(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run(["scalar2d", "--n", "0", "--out", out]) == cli.EXIT_CONFIG
    assert run(["ode1d", "--theta", "-1", "--out", out]) == cli.EXIT_CONFIG
    assert run(["ode1d", "--theta", "maybe", "--out", out]) == cli.EXIT_CONFIG
    assert run(["ode1d", "--budget", "4", "--out", out]) == cli.EXIT_CONFIG
    assert run(["ode1d", "--nugget", "-0.5", "--out", out]) == cli.EXIT_CONFIG
    assert run(["flow", "--method", "sk", "--out", out]) == cli.EXIT_CONFIG
    # flag text goes through the same coercion as config-file values
    capsys.readouterr()
    assert run(["ode1d", "--seed", "2.5", "--out", out]) == cli.EXIT_CONFIG
    assert "seed: expected an integer, got '2.5'" in capsys.readouterr().err
    assert run(["ode1d", "--nugget", "abc", "--out", out]) == cli.EXIT_CONFIG
    assert "nugget: expected a number, got 'abc'" in capsys.readouterr().err


def test_integral_config_numbers_are_integers(tmp_path):
    # a JSON number without a fraction passes an integer field as that integer
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"method": "sk", "kernel": {"theta": 1, "sigma2": 1},
                                   "counts": {"n": 3.0, "q": 7.0}, "seed": 2.0}))
    out = tmp_path / "o"
    assert run(["ode1d", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_OK
    config = report_of(out)["config"]
    assert (config["n"], config["q"], config["seed"]) == (3, 7, 2)
    assert all(type(config[k]) is int for k in ("n", "q", "seed"))
    assert config["theta"] == config["sigma2"] == 1.0
    assert len((out / "predictions.csv").read_text().splitlines()) == 1 + 7


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


def test_search_without_a_finite_value_exits_3_and_reports(tmp_path, monkeypatch):
    # a criterion that is NaN at every theta ends the run as a numerical
    # failure, with the error report, not as a traceback
    def nan_criterion(*args):
        return (lambda theta: math.nan), (lambda theta: 1.0)

    monkeypatch.setattr(calibration, "loocv_ck_virtual", nan_criterion)
    out = tmp_path / "o"
    assert run(["ode1d", "--method", "ck", "--out", str(out)]) == cli.EXIT_NUMERICAL
    rep = report_of(out)
    assert rep["status"] == "error"
    assert "non-finite at every grid point" in rep["error"]
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


def test_scalar2d_f2_co_kriging_beats_plain_kriging(tmp_path):
    """On f2 = e^x sin y + 5 the gradient and Laplacian rows carry most of
    the field: calibrated co-Kriging lands far below simple Kriging."""
    mse = {}
    for method in ("ck", "sk"):
        out = tmp_path / method
        assert run(["scalar2d", "--method", method, "--target", "f2", "--seed", "10",
                    "--out", str(out)]) == cli.EXIT_OK
        rep = report_of(out)
        assert rep["status"] == "ok"
        mse[method] = rep["mse_vs_truth"]
    assert mse["ck"] < 1e-2 * mse["sk"]


def test_co_kriging_collocation_residuals_are_those_of_one_refined_solve(tmp_path):
    """The stacked route's predictions at the collocation atoms are H+^T a
    from one refined solve a of the data.  Formed as alpha^T y, with alpha
    solved over every prediction column, they missed their equations by up
    to 1.24e-8 (ode1d seed 6) and 7.1e-7 (scalar2d f2)."""
    for seed in [*range(21), 331]:
        out = tmp_path / f"ode1d-{seed}"
        assert run(["ode1d", "--method", "ck", "--seed", str(seed), "--out", str(out)]) == cli.EXIT_OK
        assert report_of(out)["constraint_residual_max"] <= 5e-10, seed
    out = tmp_path / "f2"
    assert run(["scalar2d", "--method", "ck", "--target", "f2", "--out", str(out)]) == cli.EXIT_OK
    assert report_of(out)["constraint_residual_max"] <= 5e-8


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


HELP = os.path.join(os.path.dirname(__file__), "help")


@pytest.mark.parametrize("command", ["pikrig", "ode1d", "scalar2d", "flow", "bench", "calibrate"])
def test_help_text(command, capsys, monkeypatch):
    # every flag and its help text, at a fixed terminal width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(([] if command == "pikrig" else [command]) + ["--help"])
    assert exc.value.code == 0
    with open(os.path.join(HELP, f"{command}.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("args, config", [
    (["ode1d", "--method", "ck", "--budget", "16"], None),
    (["flow", "--method", "ck"],
     {"kernel": {"theta": 0.9, "sigma2": 10}, "counts": {"n": 8, "q1": 8},
      "radius": 1, "center_x": 0.25, "freestream_y": 0.2, "extent": 3, "aspect": 1.5,
      "cont_nx": 5, "cont_ny": 4, "pred_nx": 6, "pred_ny": 5}),
], ids=["ode1d-ck", "flow-cylinder-ck"])
def test_report_config_runs_again(tmp_path, args, config):
    # a report's config block fed back as the config file of a run with
    # another --out reproduces its outputs: the coercion takes every value
    # the CLI writes ("auto", null, booleans, integers in float fields)
    first, second = tmp_path / "a", tmp_path / "b"
    if config is not None:
        (tmp_path / "in.json").write_text(json.dumps(config))
        args = args + ["--config", str(tmp_path / "in.json")]
    assert run(args + ["--out", str(first)]) == cli.EXIT_OK
    written = report_of(first)["config"]
    (tmp_path / "report_config.json").write_text(json.dumps(written))
    assert run([args[0], "--config", str(tmp_path / "report_config.json"),
                "--out", str(second)]) == cli.EXIT_OK
    assert sorted(os.listdir(first)) == sorted(os.listdir(second))
    for name in os.listdir(first):
        if name != "report.json":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert report_of(second)["config"] == dict(written, output_dir=str(second))


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


def test_no_run_forms_the_weights(tmp_path, monkeypatch):
    # every runner reads its variances off the factor, so no CLI run reads
    # KrigingWeights.alpha (the N x q weights) at all
    def forbidden(self):
        raise AssertionError("a CLI run formed the Kriging weights")

    monkeypatch.setattr(predictors.KrigingWeights, "alpha", property(forbidden))
    flow_cfg = tmp_path / "flow.json"
    flow_cfg.write_text(json.dumps({"n": 8, "q1": 8, "cont_nx": 5, "cont_ny": 5,
                                    "pred_nx": 6, "pred_ny": 6}))
    runs = [["ode1d", "--method", m] for m in cli._methods()]
    runs += [["scalar2d", "--method", m, "--q", "16"] for m in ("sk", "ck", "lk")]
    runs += [["flow", "--method", m, "--config", str(flow_cfg)] for m in ("ck", "lk")]
    runs += [["calibrate", "--method", "ck"], ["bench", "--p", "20", "--q", "10"]]
    for i, args in enumerate(runs):
        assert run(args + ["--out", str(tmp_path / str(i))]) == cli.EXIT_OK, args


def test_each_distinct_matrix_is_factored_once_per_run(tmp_path, monkeypatch):
    # a run factors each matrix once: a variance rule or a fit
    # at the argmin reuses the search's factorization there.  Only
    # scalar2d lk factors its observation gram twice, on purpose: the
    # simple-Kriging check behind order0_minus_sk_max must not reuse the
    # factor it checks
    factored = collections.Counter()
    for mod in (calibration, predictors):
        def recording(K, cfg, _solver=mod.make_spd_solver):
            K = np.ascontiguousarray(K, dtype=float)
            factored[K.shape, cfg.nugget, hashlib.sha256(K.tobytes()).digest()] += 1
            return _solver(K, cfg)

        monkeypatch.setattr(mod, "make_spd_solver", recording)
    runs = [["ode1d", "--method", m] for m in cli._methods()]
    runs += [["scalar2d", "--method", m] for m in ("sk", "ck", "lk")]
    runs += [["flow", "--method", "lk"],
             ["flow", "--method", "ck", "--theta", "0.9178758779662336",
              "--sigma2", "10.565115832855062"]]
    n = cli._scalar2d_system(cli.RunConfig())[0].n
    for i, args in enumerate(runs):
        factored.clear()
        assert run(args + ["--out", str(tmp_path / str(i))]) == cli.EXIT_OK
        again = sorted((shape, c) for (shape, _, _), c in factored.items() if c > 1)
        assert again == ([((n, n), 2)] if args[:3] == ["scalar2d", "--method", "lk"] else []), args


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


@pytest.mark.parametrize("args", [
    ["flow", "--config", FLOW_LK_GRID60],
    ["flow", "--method", "ck", "--theta", "0.9178758779662336",
     "--sigma2", "10.565115832855062"],
], ids=["flow-lk-grid60", "flow-ck"])
def test_flow_runs_call_the_oracle_on_whole_arrays(tmp_path, monkeypatch, args):
    # the analytic velocity is evaluated once on the ring and once on the
    # prediction grid for the truth, not once per point
    original = flowlab.cylinder_flow_oracle
    calls = []

    def counted(*a, **kw):
        calls.append(1)
        return original(*a, **kw)

    monkeypatch.setattr(flowlab, "cylinder_flow_oracle", counted)
    assert run(args + ["--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert len(calls) <= 2


def test_write_csv_matches_the_cell_writer(tmp_path):
    # column-wise text equals the per-cell writer byte for byte
    floats = np.array([-0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf,
                       0.1, 1.0, -2.5e-300])
    n = len(floats)
    columns = [
        floats,
        [float(v) for v in floats],
        np.arange(-4, n - 4, dtype=np.int64),
        np.arange(n, dtype=np.int32),
        np.arange(n, dtype=np.uint8),
        [3 ** 30 + i for i in range(n)],
        [f"s{i}|{i % 3}" for i in range(n)],
        np.array(["ck", "lk", "sk"] * 3),
        [True, False] * 4 + [True],
    ]
    header = [f"c{j}" for j in range(len(columns))]
    cli.write_csv(tmp_path / "new.csv", header, columns)
    oracles.write_csv_cells(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    cli.write_csv(tmp_path / "empty.csv", ["a", "b"], [[], []])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(st.floats(width=64), st.sampled_from([-0.0, 0.0, 5e-324, -5e-324,
                                                                          2.2250738585072009e-308])),
                       min_size=1, max_size=12))
def test_write_csv_matches_the_cell_writer_on_any_float(tmp_path_factory, values):
    # any float64, subnormals, signed zeros, nan and infinities included,
    # is written as the per-cell writer writes it, beside an int column
    path = tmp_path_factory.mktemp("csv")
    columns = [np.array(values), values[::-1], np.arange(len(values))]
    cli.write_csv(path / "new.csv", ["a", "b", "i"], columns)
    oracles.write_csv_cells(path / "old.csv", ["a", "b", "i"], zip(*columns))
    assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(pool=st.lists(st.one_of(st.floats(width=64), st.sampled_from(
           [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.nan, -np.nan])),
           min_size=1, max_size=5),
       picks=st.lists(st.integers(0, 4), min_size=1, max_size=40))
def test_write_csv_matches_the_cell_writer_on_repeated_values(tmp_path_factory, pool, picks):
    # a float column formats each distinct value once, keyed on its bits:
    # repeats of -0.0 and 0.0, nans, subnormals and infinities, in a
    # contiguous and a strided column, are written as the per-cell writer writes them
    path = tmp_path_factory.mktemp("csv")
    values = np.array([pool[i % len(pool)] for i in picks])
    pairs = np.column_stack([values, values[::-1]])
    columns = [values, pairs[:, 1], np.arange(len(values))]
    cli.write_csv(path / "new.csv", ["a", "b", "i"], columns)
    oracles.write_csv_cells(path / "old.csv", ["a", "b", "i"], zip(*columns))
    assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()


def test_calibrate_builds_no_criterion_without_a_search():
    # with theta and sigma2 both given nothing is searched, so the
    # criterion factory and the layouts it builds are skipped
    def criterion(*args):
        raise AssertionError("criterion built without a search")

    obs, _, _ = ode_setup()
    cfg = cli.RunConfig(theta="1.3", sigma2="2.5")
    k, search = cli._calibrate(cfg, criterion, obs, None, predictors.SolveConfig())
    assert (k.theta, k.sigma2, k.dim, search) == (1.3, 2.5, 1, None)


@pytest.mark.parametrize("field, flags, config", [
    ("theta", ["--theta", "2"], None),
    ("sigma2", ["--sigma2", "3"], None),
    ("theta", [], {"kernel": {"theta": 2.0, "sigma2": 3.0}}),
])
def test_calibrate_rejects_a_fixed_theta_or_sigma2(tmp_path, capsys, field, flags, config):
    # calibrate estimates both, so a fixed value would be searched over anyway
    out = tmp_path / "o"
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        flags = ["--config", str(tmp_path / "cfg.json")]
    capsys.readouterr()
    assert run(["calibrate", "--method", "ck", *flags, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"error: {field}: calibrate estimates it, so it must be 'auto'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", tuple(cli._methods()))
def test_calibrate_and_ode1d_share_one_search(tmp_path, method):
    # both subcommands estimate through cli._calibrate, so at one seed
    # and budget they report the same estimates bit for bit
    reports = []
    for command in ("calibrate", "ode1d"):
        out = tmp_path / command
        assert run([command, "--method", method, "--budget", "16", "--seed", "5",
                    "--out", str(out)]) == cli.EXIT_OK
        reports.append(report_of(out))
    calibrated, ode = reports
    assert (calibrated["theta_hat"], calibrated["sigma2_hat"]) == (ode["theta_hat"], ode["sigma2_hat"])


def test_ck_bracket_spans_the_collocation_locations(tmp_path):
    # ode1d seed 331: the four observations lie in [1.59, 2.16], so a
    # bracket over them alone caps theta at 0.576, though K+ spans the
    # collocation grid on [0, 2 pi]; over both, ck's mse is at most 1e-3
    # of sk's, as the benchmark's check asks
    mse = {}
    for method in ("ck", "sk"):
        out = tmp_path / method
        assert run(["ode1d", "--method", method, "--seed", "331", "--out", str(out)]) == cli.EXIT_OK
        mse[method] = report_of(out)["mse_vs_truth"]
    assert mse["ck"] <= 1e-3 * mse["sk"], mse


@pytest.mark.parametrize("method, flags, budgets", [
    ("ck", [], [128]),
    ("lk", [], [64, 32]),
    ("ck", ["--budget", "16"], [16]),
    ("lk", ["--budget", "16"], [16, 32]),
])
def test_flow_searches_take_their_methods_budgets(tmp_path, monkeypatch, method, flags, budgets):
    # flow ck's narrow basin takes 128 lengthscales; lk's step-1 virtual
    # LOOCV takes the usual 64 and its step 2 flowlab's own 32; --budget
    # sets flow ck's and step 1's, never step 2's
    seen, optimize_theta = [], calibration.optimize_theta

    def spy(criterion, bounds, budget=64):
        seen.append(budget)
        return optimize_theta(criterion, bounds, budget=budget)

    monkeypatch.setattr(calibration, "optimize_theta", spy)
    assert run(["flow", "--method", method, *flags, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert seen == budgets


def _success_report(tmp_path):
    out = tmp_path / "bench"
    assert run(["bench", "--p", "10", "--out", str(out)]) == cli.EXIT_OK
    report = cli.RunReport(**report_of(out))
    report.extras["nested"] = {"list": [1, 2.5, None], "tuple": (0.1, "x")}
    return report


@pytest.mark.parametrize("make", [
    _success_report,
    lambda tmp_path: cli.RunReport(config=dict(vars(cli.RunConfig())), status="error",
                                   error="covariance factorization failed"),
], ids=["success", "error"])
def test_report_json_is_the_asdict_serialization(tmp_path, make):
    # write_report serializes the fields in field order without asdict's
    # deep copies; the file is the one asdict would give, byte for byte
    report = make(tmp_path)
    cli.write_report(str(tmp_path), report)
    want = json.dumps(dataclasses.asdict(report), indent=2) + "\n"
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == want


def test_report_json_refuses_nan(tmp_path):
    # NaN is not JSON (RFC 8259): a report holding one raises, and no file
    # is written
    report = _success_report(tmp_path)
    report.extras["nested"]["nan"] = math.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.write_report(str(tmp_path), report)
    assert not (tmp_path / "report.json").exists()


def test_scalar2d_reports_null_where_the_truth_is_zero(tmp_path):
    # f1 = cos x sin y is 0 on a one-point grid at y = 0, so there is no
    # relative error: it is null, as in flow, not NaN
    out = tmp_path / "o"
    assert run(["scalar2d", "--method", "sk", "--q", "1", "--out", str(out)]) == cli.EXIT_OK
    assert strict_report_of(out)["l2_rel_error"] is None


@pytest.mark.parametrize("args", [
    ["ode1d", "--method", "ck", "--theta", "1e-200", "--sigma2", "1"],
    ["ode1d", "--method", "lk", "--theta", "1e-200"],
    ["bench", "--q", "3", "--theta", "1e-300"],
    ["ode1d", "--method", "ck", "--theta", "1e300", "--sigma2", "1"],
])
def test_theta_whose_square_leaves_the_doubles_exits_with_a_report(tmp_path, args):
    # the kernel divides by theta^2: a given theta whose square underflows to
    # 0 or overflows to inf, whether the kernel or a sigma2 rule meets it
    # first, ends the run with an error report, not a traceback
    out = tmp_path / "o"
    assert run(args + ["--out", str(out)]) in (cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
    rep = strict_report_of(out)
    assert rep["status"] == "error"
    assert "theta" in rep["error"]


def _outputs(outdir):
    """predictions.csv and report.json of a run, the report without its timing."""
    report = report_of(outdir)
    del report["timing"], report["config"]["output_dir"]
    return (outdir / "predictions.csv").read_bytes(), report


@pytest.mark.parametrize("args, kept", [
    (["ode1d", "--method", "lk"], [False, True]),
    (["ode1d", "--method", "lk-interp", "--seed", "5"], [True, True]),
    (["scalar2d", "--method", "lk"], [False, False]),
])
def test_noop_extension_changes_no_output(tmp_path, monkeypatch, args, kept):
    # design._extend returns the system itself when it lacks no atom (ode1d
    # lk's prediction atoms are its grid rows' atoms; lk-interp's rows
    # hold the observations too); a run is byte for byte the run that
    # rebuilds the system on every call
    extend, noops = design._extend, []

    def rebuilding(ops, atoms):
        out, rows = extend(ops, atoms)
        noops.append(out is ops)
        return design.OperatorSystem._make(out.colloc_points, out.terms, out.rhs), rows

    assert run(args + ["--out", str(tmp_path / "kept")]) == cli.EXIT_OK
    monkeypatch.setattr(design, "_extend", rebuilding)
    assert run(args + ["--out", str(tmp_path / "rebuilt")]) == cli.EXIT_OK
    assert noops == kept
    assert _outputs(tmp_path / "kept") == _outputs(tmp_path / "rebuilt")
