"""Tests of the benchmark itself: every output check passes a good output
and rejects a perturbed one; failed calls and checks are counted; the
tracer restores what it patched.

    python3 perfbench/selftest.py

The ode1d and sweep cases perturb real program output; the flow cases
use the analytic potential flow with a consistent made-up covariance,
because one flow ck prediction takes seconds.
"""

import contextlib
import copy
import io
import math
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from pikrig import calibration, cli, design, predictors  # noqa: E402


def run_ode1d(method, seed, outdir):
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["ode1d", "--method", method, "--seed", str(seed), "--out", outdir])
    return rc, checks.read_report(outdir), checks.read_csv(os.path.join(outdir, "predictions.csv"))


class Ode1dChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.out = {m: run_ode1d(m, 3, os.path.join(cls.tmp.name, m)) for m in ("sk", "ck", "lk")}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def rows(self, method):
        return copy.deepcopy(self.out[method][2])

    def test_status(self):
        rc, report, _ = self.out["lk"]
        self.assertEqual(rc, 0)
        self.assertEqual(checks.status_ok(report), [])
        self.assertTrue(checks.status_ok(dict(report, status="error")))

    def test_variances(self):
        rows = self.rows("ck")
        self.assertEqual(checks.ode_variances(rows), [])
        rows[3]["variance"] = "-1e-6"
        self.assertTrue(checks.ode_variances(rows))
        rows[3]["variance"] = "nan"
        self.assertTrue(checks.ode_variances(rows))

    def test_harmonic_residual(self):
        def triples(rows):
            return [(r["x"], r["m"], r["mean"]) for r in rows]

        rows = self.rows("lk")
        self.assertEqual(checks.harmonic_residual(triples(rows)), [])
        for bad in ("1e-6", "nan"):
            bumped = self.rows("lk")
            bumped[1]["mean"] = repr(float(bumped[1]["mean"]) + float(bad))
            self.assertTrue(checks.harmonic_residual(triples(bumped)), bad)
        self.assertTrue(checks.harmonic_residual(triples(rows[:1] + rows[2:])))

    def test_ck_beats_sk(self):
        ck, sk = self.rows("ck"), self.rows("sk")
        self.assertEqual(checks.ode_ck_beats_sk(ck, sk), [])
        for r in ck:
            r["mean"] = repr(float(r["mean"]) + 0.01)
        self.assertTrue(checks.ode_ck_beats_sk(ck, sk))


def flow_rows(grid, with_variance=True):
    """Potential-flow means with a PSD 2x2 covariance and exact moments."""
    rows = []
    for i, (x, y) in enumerate(grid):
        vx, vy = (float(v) for v in checks.potential_flow(x, y))
        if with_variance:
            a, b = 0.01 + 0.001 * (i % 7), 0.02 + 0.001 * (i % 5)
            c = 0.5 * math.sqrt(a * b)
            mm = vx * vx + vy * vy + a + b
            mv = 2 * (a * a + b * b + 2 * c * c) + 4 * (vx * vx * a + 2 * vx * vy * c + vy * vy * b)
        else:
            a = b = c = mv = float("nan")
            mm = vx * vx + vy * vy
        rows.append({k: repr(float(v)) for k, v in dict(
            x=x, y=y, vx=vx, vy=vy, var_vx=a, var_vy=b, cov_vxy=c, magsq_mean=mm, magsq_var=mv
        ).items()})
    return rows


class FlowChecks(unittest.TestCase):
    grid = checks.grid_outside(20, 20)

    def test_grid_count(self):
        # 400 points minus the 52 within 1.05 R of the centre
        self.assertEqual(len(self.grid), 348)
        rows = flow_rows(self.grid)
        self.assertEqual(checks.flow_grid_rows(rows, self.grid), [])
        self.assertTrue(checks.flow_grid_rows(rows[:-1], self.grid))
        rows[5]["x"] = repr(float(rows[5]["x"]) + 1e-6)
        self.assertTrue(checks.flow_grid_rows(rows, self.grid))

    def test_accuracy(self):
        rows = flow_rows(self.grid)
        self.assertEqual(checks.flow_ck_accuracy(rows), [])
        for r in rows:
            r["vx"] = repr(1.3 * float(r["vx"]))
        self.assertTrue(checks.flow_ck_accuracy(rows))

    def test_moments(self):
        good = flow_rows(self.grid)
        self.assertEqual(checks.flow_moments(good, with_variance=True), [])
        for col in ("magsq_mean", "magsq_var", "var_vx", "cov_vxy"):
            rows = flow_rows(self.grid)
            rows[10][col] = repr(float(rows[10][col]) * (1 + 1e-6))
            self.assertTrue(checks.flow_moments(rows, with_variance=True), col)
        lk = flow_rows(self.grid, with_variance=False)
        self.assertEqual(checks.flow_moments(lk, with_variance=False), [])
        lk[0]["magsq_mean"] = repr(float(lk[0]["magsq_mean"]) * (1 + 1e-7))
        self.assertTrue(checks.flow_moments(lk, with_variance=False))

    def test_psd(self):
        rows = flow_rows(self.grid)
        self.assertEqual(checks.flow_ck_psd(rows), [])
        a, b = float(rows[7]["var_vx"]), float(rows[7]["var_vy"])
        rows[7]["cov_vxy"] = repr(1.01 * math.sqrt(a * b))
        self.assertTrue(checks.flow_ck_psd(rows))

    def test_residuals(self):
        self.assertEqual(checks.flow_residual({"constraint_residual_max": 3e-13}, 1e-6, "ck"), [])
        self.assertTrue(checks.flow_residual({"constraint_residual_max": 2e-6}, 1e-6, "ck"))
        self.assertTrue(checks.flow_residual({"constraint_residual_max": None}, 1e-6, "ck"))

    def test_field_input(self):
        ring = [(3 * math.cos(t), 3 * math.sin(t)) for t in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
        rows = []
        for x, y in ring:
            vx, vy = (float(v) for v in checks.potential_flow(x, y))
            rows.append(dict(kind="obs", x=repr(x), y=repr(y), a=repr(vx), b=repr(vy)))
        rows += [dict(kind="grid", x=repr(x), y=repr(y), a="0", b="0") for x, y in self.grid]
        self.assertEqual(checks.flow_field_input(rows, self.grid), [])
        self.assertTrue(checks.flow_field_input(rows[:-1], self.grid))
        rows[2]["a"] = repr(float(rows[2]["a"]) + 1e-9)
        self.assertTrue(checks.flow_field_input(rows, self.grid))


class SweepChecks(unittest.TestCase):
    p = 20

    @classmethod
    def setUpClass(cls):
        k = workloads.SqExpKernel(1.0, 1.0, 1)
        xs = np.sort(np.random.default_rng(5).uniform(0, 2 * np.pi, workloads.SWEEP_N))
        cls.obs = design.ObservationSet([design.ExtendedPoint((float(x),), (0,)) for x in xs], np.sin(xs))
        cls.ops = workloads._harmonic_rows(cls.p)
        cls.grid = np.linspace(0, 2 * np.pi, workloads.SWEEP_Q)
        atoms = [design.ExtendedPoint((float(x),), (0,)) for x in cls.grid]
        cfg = predictors.SolveConfig()
        design.reset_cov_eval_count()
        blocks = predictors.assemble_co_kriging(k, cls.obs, cls.ops, atoms)
        cls.ck = predictors.solve_co_kriging(*blocks, cfg).predictions
        cls.ck_evals = design.reset_cov_eval_count()
        K, H = predictors.assemble_lagrangian(k, cls.obs, cls.ops)
        cls.lk = predictors.solve_lagrangian(K, H, cls.obs, cls.ops, cfg).predictions
        cls.lk_evals = design.reset_cov_eval_count()
        cls.atoms = [(a.x[0], a.m[0]) for a in cls.ops.colloc_points]

    def triples(self, values):
        return [(x, m, v) for (x, m), v in zip(self.atoms, values)]

    def test_counts(self):
        ck = checks.sweep_ck_evals(workloads.SWEEP_N, self.p, workloads.SWEEP_Q)
        lk = checks.sweep_lk_evals(workloads.SWEEP_N, self.p)
        self.assertEqual(checks.sweep_count(self.ck_evals, ck), [])
        self.assertEqual(checks.sweep_count(self.lk_evals, lk), [])
        self.assertTrue(checks.sweep_count(self.ck_evals + 1, ck))
        self.assertTrue(checks.sweep_count(self.lk_evals - 1, lk))

    def test_ck_accuracy(self):
        self.assertEqual(checks.sweep_ck_accuracy(self.grid, self.ck), [])
        bad = self.ck.copy()
        bad[40] += 1e-3
        self.assertTrue(checks.sweep_ck_accuracy(self.grid, bad))

    def test_lk_residual(self):
        self.assertEqual(checks.harmonic_residual(self.triples(self.lk)), [])
        bad = self.lk.copy()
        bad[3] += 1e-6
        self.assertTrue(checks.harmonic_residual(self.triples(bad)))
        self.assertTrue(checks.harmonic_residual(self.triples(self.lk)[:-1]))


class RoundAccounting(unittest.TestCase):
    """A failing call or check fails its operation; a raising check does not end the run."""

    class Counter:
        def reset_cov_eval_count(self):
            return 0

        def cov_eval_count(self):
            return 0

    def test_failures_counted(self):
        import run

        def boom():
            raise workloads.ExitCodeError("exit 1")

        def bad_check(value, evals):
            return float(value["missing"])

        ops = [workloads.Op("ok", "ck", lambda: 1, lambda v, e: []),
               workloads.Op("raises", "ck", boom, lambda v, e: []),
               workloads.Op("reports", "lk", lambda: 1, lambda v, e: ["wrong"]),
               workloads.Op("check-raises", "lk", lambda: {}, bad_check)]
        with contextlib.redirect_stderr(io.StringIO()):
            rnd = run.run_round(ops, self.Counter())
        self.assertEqual((rnd["attempted"], rnd["failed"], rnd["check_failures"]), (4, 3, 2))
        self.assertEqual(sorted(rnd["op_s"]), sorted(op.name for op in ops))

    def test_ck_needs_this_rounds_sk(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = {op.name.rsplit("/", 1)[1]: op for op in workloads.ode1d_calibrated(1, tmp)[:5]}
            with contextlib.redirect_stderr(io.StringIO()):
                ops["ck"].run()
                self.assertTrue(ops["ck"].check(None, 0))
                ops["sk"].run()
            self.assertEqual(ops["ck"].check(None, 0), [])


class TracerRestores(unittest.TestCase):
    def test_install_uninstall(self):
        import tracer

        originals = (predictors.make_spd_solver, calibration.make_spd_solver, predictors.cho_factor,
                     design.gram, cli.main)
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(calibration.make_spd_solver, originals[1])
            self.assertIs(calibration.make_spd_solver, predictors.make_spd_solver)
            with contextlib.redirect_stderr(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
                cli.main(["ode1d", "--method", "ck", "--seed", "3", "--out", tmp])
            m = t.round_metrics()
            self.assertEqual(m["cli.runs"], 1)
            self.assertEqual(m["design.entries"], m["kernel.deriv_calls"])
            self.assertEqual(m["calibration.searches"], 1)
            self.assertGreater(m["predictors.factorizations"], 0)
        finally:
            t.uninstall()
        self.assertEqual(originals, (predictors.make_spd_solver, calibration.make_spd_solver,
                                     predictors.cho_factor, design.gram, cli.main))


if __name__ == "__main__":
    unittest.main()
