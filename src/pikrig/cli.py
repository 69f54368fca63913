"""Experiment harness: configure, run, and serialize the worked studies.

Subcommands: ode1d, scalar2d, flow, bench, calibrate.  Configuration is a
JSON file (--config) mirrored by command-line flags; flags win.  Every
run writes predictions.csv and report.json into the output directory
(atomically, temp + rename), with floats at 17 significant digits so the
files parse back losslessly.  Exit codes: 0 success, 2 configuration or
input error, 3 numerical failure; report.json is written with a status
field either way whenever the output directory is known.

Every --method value is one row of the method table (:func:`_methods`):
its calibration criterion and variance rule, and its post-calibration
solve.  That solve assembles its covariance blocks once and factors
once; the predictions, the constraint residual and the variances all
come from it.

The report's timing block has two entries.  For ode1d and scalar2d,
construction_s times the covariance assembly of the post-calibration
solve and inversion_s its factorization and solve; the bench sweep
splits each method the same way, to compare collocated co-Kriging with
the Lagrangian predictor as the constraint count grows.  For the flow
experiments construction_s times the one build of the flow system and
inversion_s the whole predictor, covariance assembly included.
Calibration and the variance pass are not timed.
"""

import argparse
import json
import logging
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from . import calibration as _cal
from . import design
from . import flowlab as _flow
from . import kernel as _kernel
from . import predictors as _pred
from . import uq as _uq
from .flowlab import CsvFormatError
from .predictors import SolveConfig

__all__ = ["RunConfig", "RunReport", "main"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    _pred.ConditioningError,
    _pred.RankDeficiencyError,
    _pred.DegenerateMeanError,
    _pred.DegenerateConstraintError,
    _pred.SingularSystemError,
    np.linalg.LinAlgError,
)

class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass
class RunConfig:
    """Flattened run configuration (config-file keys mirror these fields;
    the nested `kernel` and `counts` blocks of the file map onto them)."""

    experiment: str = "ode1d"
    method: str = "ck"
    theta: object = "auto"
    sigma2: object = "auto"
    n: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    q1: Optional[int] = None
    q2: Optional[int] = None
    seed: int = 10
    nugget: float = 0.0
    output_dir: str = "pikrig_out"
    budget: Optional[int] = None
    target: str = "f1"
    csv_path: Optional[str] = None
    with_cylinder: bool = True
    radius: float = 1.0
    center_x: float = 0.0
    center_y: float = 0.0
    freestream_x: float = 1.0
    freestream_y: float = 0.0
    extent: float = 2.5
    obs_radius_factor: float = 3.0
    margin: float = 0.05
    aspect: float = 1.0
    cont_nx: int = 10
    cont_ny: int = 10
    pred_nx: int = 20
    pred_ny: int = 20


@dataclass
class RunReport:
    """Everything a run reports; serialized as report.json."""

    config: dict
    status: str = "ok"
    error: Optional[str] = None
    theta_hat: Optional[float] = None
    sigma2_hat: Optional[float] = None
    mse_vs_truth: Optional[float] = None
    l2_rel_error: Optional[float] = None
    constraint_residual_max: Optional[float] = None
    timing: dict = field(default_factory=lambda: {"construction_s": 0.0, "inversion_s": 0.0})
    cov_eval_count: int = 0
    nugget_used: Optional[float] = None
    extras: dict = field(default_factory=dict)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_flow._g17(v))
        lines.append(",".join(cells))
    _flow.atomic_write_text(path, "\n".join(lines) + "\n")


def write_report(outdir, report):
    payload = asdict(report)
    _flow.atomic_write_text(
        os.path.join(outdir, "report.json"), json.dumps(payload, indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# configuration plumbing


_CONFIG_KEYS = set(RunConfig.__dataclass_fields__)


def load_config(path):
    """Read a JSON config file into a flat dict of RunConfig fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    flat = {}
    nested = {"kernel": ("theta", "sigma2"), "counts": ("n", "p", "q", "q1", "q2")}
    for key, val in raw.items():
        if key in nested:
            for sub in val:
                if sub not in nested[key]:
                    raise ConfigError(f"config: unknown {key} key {sub!r}")
                flat[sub] = val[sub]
        elif key in _CONFIG_KEYS:
            flat[key] = val
        else:
            raise ConfigError(f"config: unknown key {key!r}")
    return flat


def _parse_autoreal(value, name):
    if value is None:
        return None
    if isinstance(value, str):
        if value == "auto":
            return "auto"
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"{name}: expected a number or 'auto', got {value!r}") from None
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name}: must be positive and finite, got {value}")
    return value


def validate_config(cfg):
    methods = _methods()
    if cfg.method not in methods:
        raise ConfigError(f"method: {cfg.method!r} not one of {tuple(methods)}")
    cfg.theta = _parse_autoreal(cfg.theta, "theta")
    cfg.sigma2 = _parse_autoreal(cfg.sigma2, "sigma2")
    for name in ("n", "p", "q", "q1", "q2"):
        val = getattr(cfg, name)
        if val is not None:
            val = int(val)
            if val < 1:
                raise ConfigError(f"{name}: must be at least 1, got {val}")
            setattr(cfg, name, val)
    if not isinstance(cfg.seed, (int, np.integer)) or isinstance(cfg.seed, bool):
        raise ConfigError(f"seed: must be an integer, got {cfg.seed!r}")
    if not 0 <= int(cfg.seed) < 2 ** 64:
        raise ConfigError(f"seed: must fit in 64 unsigned bits, got {cfg.seed}")
    cfg.seed = int(cfg.seed)
    cfg.nugget = float(cfg.nugget)
    if not (math.isfinite(cfg.nugget) and cfg.nugget >= 0):
        raise ConfigError(f"nugget: must be non-negative, got {cfg.nugget}")
    if cfg.budget is not None:
        cfg.budget = int(cfg.budget)
        if cfg.budget < 8:
            raise ConfigError(f"budget: must be at least 8, got {cfg.budget}")
    if cfg.target not in ("f1", "f2"):
        raise ConfigError(f"target: {cfg.target!r} not one of ('f1', 'f2')")
    row = methods[cfg.method]
    if cfg.experiment == "scalar2d" and not row.scalar2d:
        supported = tuple(m for m, r in methods.items() if r.scalar2d)
        raise ConfigError(f"method: scalar2d supports {supported}, got {cfg.method!r}")
    if cfg.experiment in ("flow-cylinder", "flow-csv") and row.flow is None:
        supported = tuple(m for m, r in methods.items() if r.flow)
        raise ConfigError(f"method: flow experiments support {supported}, got {cfg.method!r}")
    if cfg.experiment == "flow-csv" and not cfg.csv_path:
        raise ConfigError("csv_path: required for the flow-csv experiment")
    return cfg


def _unit_kernel(dim):
    return _kernel.SqExpKernel(sigma2=1.0, theta=1.0, dim=dim)


def _search_bounds(points):
    """Default bounds with the upper end capped at the data diameter.

    Past the diameter every pair of observations is strongly correlated,
    the gram matrix is numerically singular long before Cholesky fails,
    and the LOOCV criteria reward that singularity instead of fit
    quality.  The lengthscale is not identifiable out there, so the
    experiment runners do not search it.
    """
    lo, hi = _cal.default_theta_bounds(points)
    return lo, min(hi, float(_cal._pairwise_distances(points).max()))


def _calibrate(cfg, criterion, obs, ops, scfg, default_budget=64):
    """Kernel with (theta, sigma2) from the config or by optimization.

    ``criterion`` is a method row's criterion.  The flow experiment passes
    a denser default budget: its filtered criterion has a narrow basin
    that a 32-point coarse grid can step across.
    """
    dim = obs.points.X.shape[1]
    crit, s2rule = criterion(_unit_kernel(dim), obs, ops, scfg)
    budget = cfg.budget if cfg.budget is not None else default_budget
    if cfg.theta == "auto":
        res = _cal.optimize_theta(crit, _search_bounds(obs.points), budget=budget)
        theta = res.theta_hat
    else:
        theta = float(cfg.theta)
    sigma2 = float(s2rule(theta)) if cfg.sigma2 == "auto" else float(cfg.sigma2)
    return _kernel.SqExpKernel(sigma2=sigma2, theta=theta, dim=dim)


# ---------------------------------------------------------------------------
# methods: one row of the method table per --method value


_NO_ROWS = design.OperatorSystem([], np.zeros((0, 0)), np.zeros(0))

# A post-calibration solve, read at its prediction atoms.
_Fit = namedtuple("_Fit", "atoms mean variance resid_max nugget_used timing")


def _timing(t0, t1, t2):
    return {"construction_s": round(t1 - t0, 3), "inversion_s": round(t2 - t1, 3)}


def _loocv_plain(k0, obs, ops, scfg):
    """Virtual LOOCV of plain Kriging; the operator rows play no part."""
    return _cal.loocv_ck_virtual(k0, obs, None, scfg)


def _interpolation(k0, obs, ops, scfg):
    """Deviation of the Lagrangian fit at the retained observations."""
    crit = lambda th: _cal.interpolation_error_criterion(
        replace(k0, theta=th), obs, ops, scfg
    )
    s2rule = lambda th: _cal.sigma2_interpolation(k0, obs, ops, th, scfg)
    return crit, s2rule


def _solve_stacked(k, obs, ops, pred, scfg, rows=True, ordinary=False):
    """Co-Kriging on [Z; v]; plain Kriging without ``rows``.

    The collocation atoms join the prediction columns, so the constraint
    residual comes out of the same factorization as the predictions.
    ``ordinary`` (used without rows) adds the unit-mean constraint.
    """
    ops = ops if rows else _NO_ROWS
    mu = np.ones(obs.n) if ordinary else None
    q = len(pred)
    t0 = time.monotonic()
    Kplus, Hplus, y = _pred.assemble_co_kriging(k, obs, ops, pred + ops.colloc_points)
    t1 = time.monotonic()
    mu_star = np.ones(q) if ordinary else None
    w = _pred.solve_co_kriging(Kplus, Hplus, y, scfg, mu_plus=mu, mu_star=mu_star)
    t2 = time.monotonic()
    variance, _ = _uq.mmse_variance(k, pred, w.alpha[:, :q], w.cross[:, :q])
    resid = ops.U.T @ w.predictions[q:] - ops.rhs
    resid_max = float(np.max(np.abs(resid))) if ops.p else None
    return _Fit(
        pred, w.predictions[:q], variance, resid_max, w.nugget_used, _timing(t0, t1, t2)
    )


def _solve_lk(k, obs, ops, pred, scfg):
    """Lagrangian Kriging over the constrained atoms plus ``pred``."""
    lk_ops = design.extend_atoms(ops, pred)
    t0 = time.monotonic()
    K, H = _pred.assemble_lagrangian(k, obs, lk_ops)
    t1 = time.monotonic()
    w = _pred.solve_lagrangian(K, H, obs, lk_ops, scfg)
    t2 = time.monotonic()
    atoms = lk_ops.colloc_points
    variance, _ = _uq.mmse_variance(k, atoms, w.alpha, w.cross)
    resid_max = float(np.max(np.abs(lk_ops.U.T @ w.predictions - lk_ops.rhs)))
    return _Fit(
        atoms, w.predictions, variance, resid_max, w.nugget_used, _timing(t0, t1, t2)
    )


_Method = namedtuple(
    "_Method", "criterion solve ode_rows scalar2d flow", defaults=(None, False, None)
)


def _methods():
    """The method table, one row per --method value.

    ``criterion(k0, obs, ops, scfg)`` gives the (criterion, sigma2 rule)
    pair of the lengthscale search at unit variance and ``solve(k, obs,
    ops, pred, scfg)`` the _Fit after calibration.  ``ode_rows`` places
    the ode1d rows (see :func:`_ode1d_data`), ``scalar2d`` says whether
    the 2-d study runs the method, and ``flow`` is the (criterion,
    predictor) pair of the flow experiments; the two-step route there
    calibrates the potential by plain virtual LOOCV.  The table is built
    on each call, so that it holds the calibration and flow functions as
    those modules export them at run time.
    """
    return {
        "sk": _Method(_loocv_plain, partial(_solve_stacked, rows=False), scalar2d=True),
        "ok": _Method(_loocv_plain, partial(_solve_stacked, rows=False, ordinary=True)),
        "ck": _Method(_cal.loocv_ck_virtual, _solve_stacked, "colloc", True,
                      (_cal.loocv_ck_virtual, _flow.predict_flow_ck)),
        "lk": _Method(_cal.loocv_lk_explicit, _solve_lk, "grid", True,
                      (_loocv_plain, _flow.predict_flow_lk_twostep)),
        "lk-interp": _Method(_interpolation, _solve_lk, "grid+obs"),
    }


def _finish(cfg, k, fit, sel, **fields):
    """Write predictions.csv for the fit's atoms ``sel``; return the report."""
    X, M = fit.atoms.X[sel], fit.atoms.M[sel]
    header = ["x", "y"][: X.shape[1]] + ["m", "mean", "variance"]
    mstr = ("|".join(map(str, m)) for m in M.tolist())
    rows = zip(*X.T, mstr, fit.mean[sel], fit.variance[sel])
    write_csv(os.path.join(cfg.output_dir, "predictions.csv"), header, rows)
    return RunReport(
        config=asdict(cfg),
        theta_hat=k.theta,
        sigma2_hat=k.sigma2,
        constraint_residual_max=fit.resid_max,
        timing=fit.timing,
        nugget_used=float(fit.nugget_used),
        cov_eval_count=design.cov_eval_count(),
        **fields,
    )


# ---------------------------------------------------------------------------
# ode1d experiment: f + f'' = 0 on [0, 2*pi], truth sin


def _ode1d_data(cfg, rows_at):
    """Observations, collocation rows and prediction grid of the 1-d study.

    ``rows_at`` places the rows f + f'' = 0: "colloc" on the p-point
    collocation grid, "grid" on the prediction grid (a Lagrangian method
    constrains its own predictions), "grid+obs" there and at the
    observations; None builds no rows.
    """
    n = cfg.n if cfg.n is not None else 4
    p = cfg.p if cfg.p is not None else 10
    q = cfg.q if cfg.q is not None else p
    rng = np.random.default_rng(cfg.seed)
    xs = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    obs = design.ObservationSet(design.Atoms(xs[:, None], (0,)), np.sin(xs))
    grid = np.linspace(0.0, 2.0 * np.pi, q)
    locations = {
        "colloc": np.linspace(0.0, 2.0 * np.pi, p),
        "grid": grid,
        "grid+obs": np.unique(np.concatenate([grid, xs])),
    }
    ops = _ode_rows(locations[rows_at]) if rows_at else None
    return obs, ops, grid


def _ode_rows(locations):
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in locations]
    return design.encode_pointwise(rows, np.zeros(len(rows)))


def run_ode1d(cfg):
    row = _methods()[cfg.method]
    obs, ops, grid = _ode1d_data(cfg, row.ode_rows)
    pred_atoms = design.Atoms(grid[:, None], (0,))
    scfg = SolveConfig(nugget=cfg.nugget)
    k = _calibrate(cfg, row.criterion, obs, ops, scfg)
    fit = row.solve(k, obs, ops, pred_atoms, scfg)
    on_grid = fit.mean[design.locate_atoms(fit.atoms, pred_atoms)]
    mse = float(np.mean((on_grid - np.sin(grid)) ** 2))
    return _finish(cfg, k, fit, slice(None), mse_vs_truth=mse)


# ---------------------------------------------------------------------------
# scalar2d experiment on [0, pi]^2


def _scalar2d_truth(target):
    if target == "f1":
        f = lambda x, y: np.cos(x) * np.sin(y)
        gradsum = lambda x, y: -np.sin(x) * np.sin(y) + np.cos(x) * np.cos(y)
        lap = lambda x, y: -2.0 * np.cos(x) * np.sin(y)
    else:
        f = lambda x, y: np.exp(x) * np.sin(y) + 5.0
        gradsum = lambda x, y: np.exp(x) * np.sin(y) + np.exp(x) * np.cos(y)
        lap = lambda x, y: 0.0 * x
    return f, gradsum, lap


def _scalar2d_system(cfg):
    n = cfg.n if cfg.n is not None else 10
    rng = np.random.default_rng(cfg.seed)
    f, gradsum, lap = _scalar2d_truth(cfg.target)
    L = np.pi
    locs = rng.uniform(0.0, L, size=(n, 2))
    obs = design.ObservationSet(design.Atoms(locs, (0, 0)), f(locs[:, 0], locs[:, 1]))
    grad_pts = _flow.uniform_grid((0.0, L), (0.0, L), 5, 10)
    lap_pts = _flow.uniform_grid((0.0, L), (0.0, L), 10, 10)
    rows = []
    rhs = []
    for x, y in grad_pts:
        rows.append(((x, y), [(1.0, (1, 0)), (1.0, (0, 1))]))
        rhs.append(float(gradsum(x, y)))
    for x, y in lap_pts:
        rows.append(((x, y), [(1.0, (2, 0)), (1.0, (0, 2))]))
        rhs.append(float(lap(np.asarray(x), np.asarray(y))))
    ops = design.encode_pointwise(rows, np.array(rhs))
    nq = int(round(math.sqrt(cfg.q))) if cfg.q is not None else 30
    grid = _flow.uniform_grid((0.0, L), (0.0, L), nq, nq)
    pred_atoms = design.Atoms(grid, (0, 0))
    truth = np.array([f(x, y) for x, y in grid])
    return obs, ops, pred_atoms, truth


def run_scalar2d(cfg):
    row = _methods()[cfg.method]
    obs, ops, pred_atoms, truth = _scalar2d_system(cfg)
    scfg = SolveConfig(nugget=cfg.nugget)
    k = _calibrate(cfg, row.criterion, obs, ops, scfg)
    fit = row.solve(k, obs, ops, pred_atoms, scfg)
    sel = design.locate_atoms(fit.atoms, pred_atoms)
    predictions = fit.mean[sel]
    extras = {}
    if row.solve is _solve_lk:
        # every constraint atom here is a derivative no observation
        # touches, so the order-0 predictions must match plain Kriging
        sk = _pred.simple_kriging(k, obs, pred_atoms, scfg)
        extras["order0_minus_sk_max"] = float(
            np.max(np.abs(predictions - sk.predictions))
        )
    err = predictions - truth
    denom = float(np.linalg.norm(truth))
    l2 = float(np.linalg.norm(err)) / denom if denom > 0 else float("nan")
    mse = float(np.mean(err ** 2))
    return _finish(cfg, k, fit, sel, mse_vs_truth=mse, l2_rel_error=l2, extras=extras)


# ---------------------------------------------------------------------------
# flow experiments


def _flow_problem(cfg):
    geom = _flow.CylinderGeometry((cfg.center_x, cfg.center_y), cfg.radius)
    freestream = (cfg.freestream_x, cfg.freestream_y)
    if cfg.experiment == "flow-cylinder":
        problem = _flow.cylinder_problem(
            geom,
            freestream,
            n_obs=cfg.n if cfg.n is not None else 12,
            obs_radius_factor=cfg.obs_radius_factor,
            q1=cfg.q1 if cfg.q1 is not None else 10,
            continuity_grid=(cfg.cont_nx, cfg.cont_ny),
            pred_counts=(cfg.pred_nx, cfg.pred_ny),
            extent=cfg.extent,
            margin=cfg.margin,
            aspect=cfg.aspect,
        )
        truth_geom = geom
    else:
        data = _flow.ingest_velocity_csv(cfg.csv_path)
        continuity = []
        truth_geom = None
        if cfg.with_cylinder:
            continuity = _flow.exterior_grid(
                geom, (cfg.cont_nx, cfg.cont_ny), cfg.extent, cfg.margin, cfg.aspect
            )
            truth_geom = geom
        problem = _flow.FlowProblem(
            velocity_obs=data.velocity_obs,
            continuity_points=continuity,
            boundary_points=data.boundary_points,
            pred_grid=data.pred_grid,
            freestream=freestream,
        )
    if cfg.q2 is not None and len(problem.continuity_points) != cfg.q2:
        raise ConfigError(
            f"q2: layout produced {len(problem.continuity_points)} continuity points, "
            f"expected {cfg.q2}"
        )
    return problem, truth_geom


def run_flow(cfg):
    criterion, predict = _methods()[cfg.method].flow
    problem, truth_geom = _flow_problem(cfg)
    scfg = SolveConfig(nugget=cfg.nugget)
    t0 = time.monotonic()
    system = _flow.build_flow_system(problem)
    t1 = time.monotonic()
    obs, ops, _ = system
    k = _calibrate(cfg, criterion, obs, ops, scfg, default_budget=128)
    t2 = time.monotonic()
    fieldr = predict(k, problem, scfg, system=system)
    t3 = time.monotonic()

    columns = ["vx", "vy", "var_vx", "var_vy", "cov_vxy", "magsq_mean", "magsq_var"]
    values = [getattr(fieldr, c) for c in columns]
    rows = [(*loc, *(v[i] for v in values)) for i, loc in enumerate(fieldr.locations)]
    write_csv(os.path.join(cfg.output_dir, "predictions.csv"), ["x", "y"] + columns, rows)
    if cfg.experiment == "flow-cylinder":
        _flow.emit_velocity_csv(
            os.path.join(cfg.output_dir, "field_input.csv"),
            problem.velocity_obs,
            problem.pred_grid,
            problem.boundary_points,
        )

    report = RunReport(
        config=asdict(cfg),
        theta_hat=k.theta,
        sigma2_hat=k.sigma2,
        timing={"construction_s": round(t1 - t0, 3), "inversion_s": round(t3 - t2, 3)},
        nugget_used=float(fieldr.nugget_used),
        cov_eval_count=design.cov_eval_count(),
    )
    if truth_geom is not None and len(problem.pred_grid):
        oracle = partial(_flow.cylinder_flow_oracle, truth_geom, problem.freestream)
        tv = np.array([oracle(loc) for loc in problem.pred_grid])
        dv = np.column_stack([fieldr.vx, fieldr.vy]) - tv
        report.mse_vs_truth = float(np.mean(np.sum(dv ** 2, axis=1)))
        denom = float(np.sqrt(np.sum(tv ** 2)))
        report.l2_rel_error = float(np.sqrt(np.sum(dv ** 2))) / denom if denom else None
    if len(fieldr.boundary_normal_residual):
        report.constraint_residual_max = float(
            np.max(np.abs(fieldr.boundary_normal_residual))
        )
    if fieldr.theta2_hat is not None:
        report.extras["theta2_hat"] = float(fieldr.theta2_hat)
    return report


# ---------------------------------------------------------------------------
# benchmark: construction vs inversion across the constraint count


def run_bench(cfg):
    q_ck = cfg.q if cfg.q is not None else 100
    sweep = (100, 250, 500, 1000) if cfg.p is None else (cfg.p,)
    theta = 1.0 if cfg.theta == "auto" else float(cfg.theta)
    sigma2 = 1.0 if cfg.sigma2 == "auto" else float(cfg.sigma2)
    k = _kernel.SqExpKernel(sigma2=sigma2, theta=theta, dim=1)
    scfg = SolveConfig(nugget=cfg.nugget)
    obs, _, _ = _ode1d_data(cfg, None)
    rows = []
    for p in sweep:
        colloc = np.linspace(0.0, 2.0 * np.pi, p)
        ops = _ode_rows(colloc)
        pred_atoms = design.Atoms(np.linspace(0.0, 2.0 * np.pi, q_ck)[:, None], (0,))
        design.reset_cov_eval_count()
        t0 = time.monotonic()
        Kplus, Hplus, y = _pred.assemble_co_kriging(k, obs, ops, pred_atoms)
        t1 = time.monotonic()
        _pred.solve_co_kriging(Kplus, Hplus, y, scfg)
        t2 = time.monotonic()
        rows.append(dict(method="ck", p=p, q=q_ck, **_timing(t0, t1, t2),
                         cov_eval_count=design.cov_eval_count()))
        design.reset_cov_eval_count()
        t0 = time.monotonic()
        K, H = _pred.assemble_lagrangian(k, obs, ops)
        t1 = time.monotonic()
        _pred.solve_lagrangian(K, H, obs, ops, scfg)
        t2 = time.monotonic()
        rows.append(dict(method="lk", p=p, q=p, **_timing(t0, t1, t2),
                         cov_eval_count=design.cov_eval_count()))
    write_csv(
        os.path.join(cfg.output_dir, "bench.csv"),
        ["method", "p", "q", "construction_s", "inversion_s", "cov_eval_count"],
        [
            (r["method"], r["p"], r["q"], r["construction_s"], r["inversion_s"], r["cov_eval_count"])
            for r in rows
        ],
    )
    report = RunReport(config=asdict(cfg))
    report.theta_hat = theta
    report.sigma2_hat = sigma2
    report.extras["rows"] = rows
    report.cov_eval_count = int(sum(r["cov_eval_count"] for r in rows))
    return report


# ---------------------------------------------------------------------------
# calibrate: search only, emit the trace


def run_calibrate(cfg):
    row = _methods()[cfg.method]
    obs, ops, _ = _ode1d_data(cfg, row.ode_rows)
    crit, s2rule = row.criterion(_unit_kernel(1), obs, ops, SolveConfig(nugget=cfg.nugget))
    bounds = _search_bounds(obs.points)
    budget = cfg.budget if cfg.budget is not None else 64
    res = _cal.optimize_theta(crit, bounds, budget=budget, sigma2_rule=s2rule)
    write_csv(os.path.join(cfg.output_dir, "trace.csv"), ["theta", "criterion"], res.trace)
    return RunReport(
        config=asdict(cfg),
        theta_hat=res.theta_hat,
        sigma2_hat=res.sigma2_hat,
        cov_eval_count=design.cov_eval_count(),
        extras={"criterion_value": res.criterion_value, "bounds": list(bounds)},
    )


_RUNNERS = {
    "ode1d": run_ode1d,
    "scalar2d": run_scalar2d,
    "flow-cylinder": run_flow,
    "flow-csv": run_flow,
    "bench": run_bench,
    "calibrate": run_calibrate,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--method", default=None, choices=tuple(_methods()))
    sub.add_argument("--theta", default=None, help="lengthscale or 'auto'")
    sub.add_argument("--sigma2", default=None, help="process variance or 'auto'")
    sub.add_argument("--nugget", type=float, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", dest="output_dir", default=None, help="output directory")
    sub.add_argument("--budget", type=int, default=None, help="calibration budget")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pikrig", description="physics-informed Kriging experiments"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    p_ode = subs.add_parser("ode1d", help="f + f'' = 0 on [0, 2pi], truth sin")
    _add_common(p_ode)
    p_ode.add_argument("--n", type=int, default=None)
    p_ode.add_argument("--p", type=int, default=None)
    p_ode.add_argument("--q", type=int, default=None)
    p_2d = subs.add_parser("scalar2d", help="2-d fields with gradient/Laplacian rows")
    _add_common(p_2d)
    p_2d.add_argument("--n", type=int, default=None)
    p_2d.add_argument("--q", type=int, default=None)
    p_2d.add_argument("--target", default=None, choices=("f1", "f2"))
    p_fl = subs.add_parser("flow", help="potential flow past a cylinder or from CSV")
    _add_common(p_fl)
    p_fl.add_argument("--csv", dest="csv_path", default=None,
                      help="velocity CSV input (flow-csv)")
    p_fl.add_argument("--n", type=int, default=None, help="observation count")
    p_fl.add_argument("--q1", type=int, default=None, help="boundary collocation count")
    p_fl.add_argument("--q2", type=int, default=None, help="expected continuity count")
    p_be = subs.add_parser("bench", help="construction/inversion sweep over p")
    _add_common(p_be)
    p_be.add_argument("--n", type=int, default=None)
    p_be.add_argument("--p", type=int, default=None,
                      help="single sweep point instead of the default sweep")
    p_be.add_argument("--q", type=int, default=None)
    p_ca = subs.add_parser("calibrate", help="lengthscale search only")
    _add_common(p_ca)
    p_ca.add_argument("--n", type=int, default=None)
    p_ca.add_argument("--p", type=int, default=None)
    p_ca.add_argument("--q", type=int, default=None)
    return parser


def resolve_config(args):
    cfg = RunConfig()
    if args.config:
        for key, val in load_config(args.config).items():
            setattr(cfg, key, val)
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if args.command == "flow":
        cfg.experiment = "flow-csv" if cfg.csv_path else "flow-cylinder"
    elif args.command == "bench":
        cfg.experiment = "bench"
    else:
        cfg.experiment = args.command
    return validate_config(cfg)


def main(argv=None):
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir = None
    try:
        cfg = resolve_config(args)
        outdir = cfg.output_dir
        os.makedirs(outdir, exist_ok=True)
        design.reset_cov_eval_count()
        report = _RUNNERS[cfg.experiment](cfg)
        write_report(outdir, report)
        return EXIT_OK
    except _NUMERICAL_ERRORS as exc:
        logger.error("numerical failure: %s", exc)
        if outdir is not None:
            write_report(
                outdir,
                RunReport(config=asdict(cfg), status="error", error=str(exc)),
            )
        return EXIT_NUMERICAL
    except (ConfigError, CsvFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if outdir is not None:
            try:
                cfg_dict = asdict(cfg)
            except Exception:
                cfg_dict = {}
            write_report(
                outdir,
                RunReport(config=cfg_dict, status="error", error=str(exc)),
            )
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
