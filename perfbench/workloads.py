"""The three benchmark workloads, built from the seed and run as operations.

A workload is a list of operations.  Each operation is one call into
pikrig's public entry points (``pikrig.cli.main`` for the experiments,
the ``predictors`` assemble/solve pairs for the sweep), tagged with the
route it exercises ("ck", "lk" or "other"), followed by a check of its
output that runs outside the timed call.  One round runs every operation
once, in order; the runner repeats whole rounds.
"""

import os

import numpy as np

import checks
from pikrig import cli, design
from pikrig import predictors as pred
from pikrig.design import ExtendedPoint
from pikrig.kernel import SqExpKernel

HERE = os.path.dirname(os.path.abspath(__file__))

ODE_METHODS = ("sk", "ok", "ck", "lk", "lk-interp")
ODE_SEEDS_PER_ROUND = 4

# The lengthscale and variance that `pikrig flow --method ck` calibrates
# on the default cylinder layout (report.json theta_hat / sigma2_hat).
# Fixing them keeps that calibration, over a minute alone, out of the workload.
FLOW_CK_THETA = "0.9178758779662336"
FLOW_CK_SIGMA2 = "10.565115832855062"
FLOW_LK_CONFIG = os.path.join(HERE, "inputs", "flow_lk_grid60.json")

SWEEP_N = 4
SWEEP_Q = 100
SWEEP_CK_P = (100, 250, 400)
SWEEP_LK_P = SWEEP_CK_P + (1000, 1500)


def ode_seeds(seed):
    """The ode1d seeds of one benchmark seed: 4 consecutive integers."""
    return [(seed * ODE_SEEDS_PER_ROUND + i) % 2 ** 32 for i in range(ODE_SEEDS_PER_ROUND)]


class Op:
    """One timed call: ``run()`` is timed, ``check(value, evals)`` is not.

    ``evals`` is the covariance-evaluation count of the call.
    """

    def __init__(self, name, route, run, check, outdir=None):
        self.name = name
        self.route = route
        self.run = run
        self.check = check
        self.outdir = outdir


class ExitCodeError(RuntimeError):
    """``pikrig`` exited with a code other than 0."""


def _cli_op(name, route, argv, outdir, check):
    def run():
        rc = cli.main(argv + ["--out", outdir])
        if rc != 0:
            raise ExitCodeError(f"pikrig {' '.join(argv)} exited with code {rc}")

    return Op(name, route, run, check, outdir)


def _outputs(outdir):
    return checks.read_report(outdir), checks.read_csv(os.path.join(outdir, "predictions.csv"))


# ---------------------------------------------------------------------------


def ode1d_calibrated(seed, workdir):
    ops = []
    for s in ode_seeds(seed):
        dirs = {m: os.path.join(workdir, f"ode1d-{s}-{m}") for m in ODE_METHODS}
        for method in ODE_METHODS:

            def check(_, evals, method=method, dirs=dirs):
                report, rows = _outputs(dirs[method])
                problems = checks.status_ok(report) + checks.ode_variances(rows)
                if method in ("lk", "lk-interp"):
                    problems += checks.harmonic_residual((r["x"], r["m"], r["mean"]) for r in rows)
                if method == "ck":
                    sk_csv = os.path.join(dirs["sk"], "predictions.csv")
                    if not os.path.isfile(sk_csv):
                        return problems + ["no sk predictions from this round to compare with"]
                    problems += checks.ode_ck_beats_sk(rows, checks.read_csv(sk_csv))
                return problems

            route = {"ck": "ck", "lk": "lk", "lk-interp": "lk"}.get(method, "other")
            argv = ["ode1d", "--method", method, "--seed", str(s)]
            ops.append(_cli_op(f"ode1d/{s}/{method}", route, argv, dirs[method], check))
    return ops


def flow_cylinder(seed, workdir):
    """Seed-independent: the cylinder layouts are fixed."""
    ck_grid = checks.grid_outside(20, 20)
    lk_grid = checks.grid_outside(60, 60)
    ck_dir = os.path.join(workdir, "flow-ck")
    lk_dir = os.path.join(workdir, "flow-lk")

    def check_ck(_, evals):
        report, rows = _outputs(ck_dir)
        field = checks.read_csv(os.path.join(ck_dir, "field_input.csv"))
        return (
            checks.status_ok(report)
            + checks.flow_grid_rows(rows, ck_grid)
            + checks.flow_ck_accuracy(rows)
            + checks.flow_moments(rows, with_variance=True)
            + checks.flow_ck_psd(rows)
            + checks.flow_residual(report, checks.CK_BOUNDARY_TOL, "ck boundary")
            + checks.flow_field_input(field, ck_grid)
        )

    def check_lk(_, evals):
        report, rows = _outputs(lk_dir)
        field = checks.read_csv(os.path.join(lk_dir, "field_input.csv"))
        return (
            checks.status_ok(report)
            + checks.flow_grid_rows(rows, lk_grid)
            + checks.flow_moments(rows, with_variance=False)
            + checks.flow_residual(report, checks.LK_TANGENCY_TOL, "lk tangency")
            + checks.flow_field_input(field, lk_grid)
        )

    ck_argv = ["flow", "--method", "ck", "--theta", FLOW_CK_THETA, "--sigma2", FLOW_CK_SIGMA2]
    lk_argv = ["flow", "--config", FLOW_LK_CONFIG]
    return [
        _cli_op("flow/ck", "ck", ck_argv, ck_dir, check_ck),
        _cli_op("flow/lk", "lk", lk_argv, lk_dir, check_lk),
    ]


def _harmonic_rows(p):
    xs = np.linspace(0.0, 2.0 * np.pi, p)
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in xs]
    return design.encode_pointwise(rows, np.zeros(p))


def constraint_sweep(seed, workdir):
    """n seeded observations of sin; f + f'' = 0 rows at p points; theta = sigma2 = 1."""
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    cfg = pred.SolveConfig()
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 2.0 * np.pi, SWEEP_N))
    obs = design.ObservationSet([ExtendedPoint((float(x),), (0,)) for x in xs], np.sin(xs))
    grid = np.linspace(0.0, 2.0 * np.pi, SWEEP_Q)
    grid_atoms = [ExtendedPoint((float(x),), (0,)) for x in grid]
    systems = {p: _harmonic_rows(p) for p in sorted(set(SWEEP_CK_P) | set(SWEEP_LK_P))}
    ops = []
    for p in SWEEP_CK_P:

        def run(ops_p=systems[p]):
            blocks = pred.assemble_co_kriging(k, obs, ops_p, grid_atoms)
            return pred.solve_co_kriging(*blocks, cfg).predictions

        def check(predictions, evals, p=p):
            return checks.sweep_count(evals, checks.sweep_ck_evals(SWEEP_N, p, SWEEP_Q)) + (
                checks.sweep_ck_accuracy(grid, predictions)
            )

        ops.append(Op(f"sweep/ck/{p}", "ck", run, check))
    for p in SWEEP_LK_P:

        def run(ops_p=systems[p]):
            K, H = pred.assemble_lagrangian(k, obs, ops_p)
            return pred.solve_lagrangian(K, H, obs, ops_p, cfg).predictions

        def check(predictions, evals, p=p):
            atoms = systems[p].colloc_points
            return checks.sweep_count(evals, checks.sweep_lk_evals(SWEEP_N, p)) + (
                checks.harmonic_residual((a.x[0], a.m[0], v) for a, v in zip(atoms, predictions))
            )

        ops.append(Op(f"sweep/lk/{p}", "lk", run, check))
    return ops


WORKLOADS = {
    "ode1d-calibrated": ode1d_calibrated,
    "flow-cylinder": flow_cylinder,
    "constraint-sweep": constraint_sweep,
}
