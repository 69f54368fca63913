"""Experiment harness: configure, run, and serialize the worked studies.

Subcommands (one row each of ``_SUBCOMMANDS``): ode1d, scalar2d, flow,
bench, calibrate.  Configuration is a JSON file (--config) mirrored by
command-line flags; flags win.  The annotations of :class:`RunConfig`
type every field, file value or flag text alike (see :func:`_coerce`); a
wrong type exits 2 naming the field.  Every run writes predictions.csv
and report.json into the output directory (atomically, temp + rename),
with floats at 17 significant digits so the files parse back losslessly.
Exit codes: 0 success, 2 configuration or input error, 3 numerical
failure (a predictors.NumericalError or numpy's LinAlgError);
report.json is written with a status field either way whenever the
output directory is known.

Every --method value is one row of the method table (:func:`_methods`):
its calibration criterion and variance rule, and its post-calibration
solve, which assembles its covariance blocks once and factors once; the
predictions, the constraint residual, the variances and the rows of the
prediction atoms all come from it.  Every runner estimates through
:func:`_calibrate` and builds its report with :func:`_report`.

The report's timing block has two entries.  For ode1d and scalar2d,
construction_s times the covariance assembly of the post-calibration
solve and inversion_s its factorization and solve (:func:`_timed_ck`,
:func:`_timed_lk`); the bench sweep times both routes the same way, to
compare collocated co-Kriging with the Lagrangian predictor as the
constraint count grows.  For the flow
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
from contextlib import suppress
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from typing import Literal, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import calibration as _cal
from . import design
from . import flowlab as _flow
from . import kernel as _kernel
from . import predictors as _pred
from . import uq as _uq
from .predictors import SolveConfig

__all__ = ["RunConfig", "RunReport", "main"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (_pred.NumericalError, np.linalg.LinAlgError)


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass
class RunConfig:
    """Flattened run configuration (config-file keys mirror these fields;
    the nested `kernel` and `counts` blocks of the file map onto them)."""

    experiment: str = "ode1d"
    method: str = "ck"
    theta: Union[float, Literal["auto"]] = "auto"
    sigma2: Union[float, Literal["auto"]] = "auto"
    n: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    q1: Optional[int] = None
    q2: Optional[int] = None
    seed: int = 10
    nugget: float = 0.0
    output_dir: str = "pikrig_out"
    budget: Optional[int] = None
    target: Literal["f1", "f2"] = "f1"
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


def write_csv(path, header, columns):
    """Write ``columns`` (one sequence per column) under ``header``: strings
    as given, integers by str, other numbers at 17 significant digits."""
    _flow.atomic_write_text(path, _flow.csv_text(header, columns))


def write_report(outdir, report):
    payload = asdict(report)
    _flow.atomic_write_text(
        os.path.join(outdir, "report.json"), json.dumps(payload, indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# configuration plumbing


_FIELD_TYPES = get_type_hints(RunConfig)


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
            if not isinstance(val, dict):
                raise ConfigError(f"config: {key} must be an object, got {val!r}")
            for sub in val:
                if sub not in nested[key]:
                    raise ConfigError(f"config: unknown {key} key {sub!r}")
                flat[sub] = val[sub]
        elif key in _FIELD_TYPES:
            flat[key] = val
        else:
            raise ConfigError(f"config: unknown key {key!r}")
    return flat


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
# the value rules beyond the type, checked where the value is not None or "auto"
_RULES = {
    **dict.fromkeys(("n", "p", "q", "q1", "q2"), (lambda v: v >= 1, "must be at least 1")),
    "budget": (lambda v: v >= 8, "must be at least 8"),
    "seed": (lambda v: 0 <= v < 2 ** 64, "must fit in 64 unsigned bits"),
    "nugget": (lambda v: v >= 0, "must be non-negative"),
    **dict.fromkeys(("theta", "sigma2"), (lambda v: v > 0, "must be positive and finite")),
    **dict.fromkeys(("cont_nx", "cont_ny", "pred_nx", "pred_ny"),
                    (lambda v: v >= 2, "must be at least 2")),
    **dict.fromkeys(("extent", "aspect"), (lambda v: v > 0, "must be positive")),
}


def _coerce(name, value, annotation):
    """``value``, from JSON or from a flag's text, as config field ``name`` of
    type ``annotation``.  Text is read as a number of the field's kind; a bool
    is no number, an integer has no fraction and numbers are finite."""
    kinds = get_args(annotation) if get_origin(annotation) is Union else (annotation,)
    choices = [c for k in kinds if get_origin(k) is Literal for c in get_args(k)]
    if value in choices or value is None and type(None) in kinds:
        return value
    for kind in kinds:
        if kind in (bool, str) and isinstance(value, kind):
            return value
        if kind in (int, float) and not isinstance(value, bool):
            with suppress(TypeError, ValueError, OverflowError):
                number = kind(value)
                exact = isinstance(value, str) or number == value
                if exact and (kind is int or math.isfinite(number)):
                    return number
    expected = [_KINDS[k] for k in kinds if k in _KINDS] + [repr(c) for c in choices]
    raise ConfigError(f"{name}: expected {' or '.join(expected)}, got {value!r}")


def validate_config(cfg):
    """``cfg`` with every field coerced to its annotated type and checked."""
    methods = _methods()
    if cfg.method not in tuple(methods):
        raise ConfigError(f"method: {cfg.method!r} not one of {tuple(methods)}")
    for name, annotation in _FIELD_TYPES.items():
        setattr(cfg, name, _coerce(name, getattr(cfg, name), annotation))
    for name, (holds, rule) in _RULES.items():
        value = getattr(cfg, name)
        if value not in (None, "auto") and not holds(value):
            raise ConfigError(f"{name}: {rule}, got {value}")
    row = methods[cfg.method]
    if cfg.experiment == "scalar2d" and not row.scalar2d:
        supported = tuple(m for m, r in methods.items() if r.scalar2d)
        raise ConfigError(f"method: scalar2d supports {supported}, got {cfg.method!r}")
    if cfg.experiment in ("flow-cylinder", "flow-csv") and row.flow is None:
        supported = tuple(m for m, r in methods.items() if r.flow)
        raise ConfigError(f"method: flow experiments support {supported}, got {cfg.method!r}")
    if cfg.experiment == "flow-csv" and not cfg.csv_path:
        raise ConfigError("csv_path: required for the flow-csv experiment")
    for name in ("theta", "sigma2"):
        value = getattr(cfg, name)
        if cfg.experiment == "calibrate" and value != "auto":
            raise ConfigError(f"{name}: calibrate estimates it, so it must be 'auto', got {value}")
    return cfg


def _calibrate(cfg, criterion, obs, ops, scfg, default_budget=64):
    """(kernel, search): theta and sigma2 from the config or estimated.

    The runners' one lengthscale search: an "auto" theta is searched over
    :func:`pikrig.calibration.default_theta_bounds` of the locations of the
    matrix the criterion factors (for the ck criterion, the distinct
    observation and collocation locations of K+) and ``search`` is
    (bounds, CalibrationResult), else None; an "auto" sigma2 is the rule of
    ``criterion`` (a method row's) at theta, read off the search's own
    evaluation at a searched theta.  The flow experiment passes a
    denser default budget: its filtered criterion has a narrow basin that
    a 32-point coarse grid can step across.
    """
    k = _kernel.SqExpKernel(sigma2=1.0, theta=1.0, dim=obs.points.X.shape[1])
    if "auto" in (cfg.theta, cfg.sigma2):
        crit, s2rule = criterion(k, obs, ops, scfg)
    if cfg.theta == "auto":
        points = obs.points
        if criterion is _cal.loocv_ck_virtual:  # K+ spans the collocation locations too
            X = np.unique(np.concatenate([points.X, ops.colloc_points.X]), axis=0)
            points = design.Atoms(X, np.zeros(X.shape[1], dtype=int))
        bounds = _cal.default_theta_bounds(points)
        budget = cfg.budget if cfg.budget is not None else default_budget
        search = bounds, _cal.optimize_theta(crit, bounds, budget=budget)
        theta = search[1].theta_hat
    else:
        theta, search = float(cfg.theta), None
    sigma2 = float(s2rule(theta)) if cfg.sigma2 == "auto" else float(cfg.sigma2)
    return replace(k, sigma2=sigma2, theta=theta), search


# ---------------------------------------------------------------------------
# methods: one row of the method table per --method value


# A post-calibration solve, read at its atoms; ``rows`` of them are the prediction atoms.
_Fit = namedtuple("_Fit", "atoms rows mean variance resid_max nugget_used timing")


def _timing(construction_s, inversion_s):
    return {"construction_s": round(construction_s, 3), "inversion_s": round(inversion_s, 3)}


def _timed_ck(k, obs, ops, pred, scfg, mu=None, mu_star=None):
    """Assemble and solve co-Kriging on [Z; v]: (weights, timing)."""
    t0 = time.monotonic()
    Kplus, Hplus, y = _pred.assemble_co_kriging(k, obs, ops, pred)
    t1 = time.monotonic()
    w = _pred.solve_co_kriging(Kplus, Hplus, y, scfg, mu_plus=mu, mu_star=mu_star)
    return w, _timing(t1 - t0, time.monotonic() - t1)


def _timed_lk(k, obs, ops, scfg):
    """Assemble and solve Lagrangian Kriging at ``ops``' atoms: (weights, timing)."""
    t0 = time.monotonic()
    K, H = _pred.assemble_lagrangian(k, obs, ops)
    t1 = time.monotonic()
    w = _pred.solve_lagrangian(K, H, obs, ops, scfg)
    return w, _timing(t1 - t0, time.monotonic() - t1)


def _loocv_plain(k0, obs, ops, scfg):
    """Virtual LOOCV of plain Kriging; the operator rows play no part."""
    return _cal.loocv_ck_virtual(k0, obs, None, scfg)


def _solve_stacked(k, obs, ops, pred, scfg, rows=True, ordinary=False):
    """Co-Kriging on [Z; v]; plain Kriging without ``rows``.

    The collocation atoms join the prediction columns, so the constraint
    residual comes out of the same factorization as the predictions.
    ``ordinary`` (used without rows) adds the unit-mean constraint.
    """
    ops = ops if rows else design.OperatorSystem()
    q = len(pred)
    mu, mu_star = (np.ones(obs.n), np.ones(q)) if ordinary else (None, None)
    w, timing = _timed_ck(k, obs, ops, pred + ops.colloc_points, scfg, mu, mu_star)
    variance, _ = _uq.mmse_variance(k, pred, w.alpha[:, :q], w.cross[:, :q])
    resid = ops.tdot(w.predictions[q:]) - ops.rhs
    resid_max = float(np.max(np.abs(resid))) if ops.p else None
    return _Fit(pred, slice(None), w.predictions[:q], variance, resid_max, w.nugget_used, timing)


def _solve_lk(k, obs, ops, pred, scfg):
    """Lagrangian Kriging over the constrained atoms plus ``pred``."""
    lk_ops, rows = design._extend(ops, pred)
    w, timing = _timed_lk(k, obs, lk_ops, scfg)
    atoms = lk_ops.colloc_points
    variance, _ = _uq.mmse_variance(k, atoms, w.alpha, w.cross)
    resid_max = float(np.max(np.abs(lk_ops.tdot(w.predictions) - lk_ops.rhs)))
    return _Fit(atoms, rows, w.predictions, variance, resid_max, w.nugget_used, timing)


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
        "lk-interp": _Method(_cal.interpolation_criteria, _solve_lk, "grid+obs"),
    }


def _report(cfg, k, **fields):
    """The report of a successful run with kernel ``k`` and ``fields``;
    cov_eval_count defaults to the evaluations counted so far."""
    fields = {"cov_eval_count": design.cov_eval_count(), **fields}
    return RunReport(config=asdict(cfg), theta_hat=k.theta, sigma2_hat=k.sigma2, **fields)


def _finish(cfg, k, fit, sel, **fields):
    """Write predictions.csv for the fit's atoms ``sel``; return the report."""
    X, M = fit.atoms.X[sel], fit.atoms.M[sel]
    header = ["x", "y"][: X.shape[1]] + ["m", "mean", "variance"]
    mstr = ["|".join(map(str, m)) for m in M.tolist()]
    columns = [*X.T, mstr, fit.mean[sel], fit.variance[sel]]
    write_csv(os.path.join(cfg.output_dir, "predictions.csv"), header, columns)
    return _report(cfg, k, constraint_residual_max=fit.resid_max, timing=fit.timing,
                   nugget_used=float(fit.nugget_used), **fields)


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
    return design.encode_rows([(locations[:, None], ((0,), (2,)), 1.0)], np.zeros(len(locations)))


def run_ode1d(cfg):
    row = _methods()[cfg.method]
    obs, ops, grid = _ode1d_data(cfg, row.ode_rows)
    pred_atoms = design.Atoms(grid[:, None], (0,))
    scfg = SolveConfig(nugget=cfg.nugget)
    k, _ = _calibrate(cfg, row.criterion, obs, ops, scfg)
    fit = row.solve(k, obs, ops, pred_atoms, scfg)
    mse = float(np.mean((fit.mean[fit.rows] - np.sin(grid)) ** 2))
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
    ops = design.encode_rows(
        [(grad_pts, ((1, 0), (0, 1)), 1.0), (lap_pts, ((2, 0), (0, 2)), 1.0)],
        np.concatenate([gradsum(*grad_pts.T), lap(*lap_pts.T)]),
    )
    nq = int(round(math.sqrt(cfg.q))) if cfg.q is not None else 30
    grid = _flow.uniform_grid((0.0, L), (0.0, L), nq, nq)
    return obs, ops, design.Atoms(grid, (0, 0)), f(*grid.T)


def run_scalar2d(cfg):
    row = _methods()[cfg.method]
    obs, ops, pred_atoms, truth = _scalar2d_system(cfg)
    scfg = SolveConfig(nugget=cfg.nugget)
    k, _ = _calibrate(cfg, row.criterion, obs, ops, scfg)
    fit = row.solve(k, obs, ops, pred_atoms, scfg)
    predictions = fit.mean[fit.rows]
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
    return _finish(cfg, k, fit, fit.rows, mse_vs_truth=mse, l2_rel_error=l2, extras=extras)


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
        continuity = ()
        truth_geom = None
        if cfg.with_cylinder:
            continuity = _flow.exterior_grid(
                geom, (cfg.cont_nx, cfg.cont_ny), cfg.extent, cfg.margin, cfg.aspect
            )
            truth_geom = geom
        problem = replace(_flow.ingest_velocity_csv(cfg.csv_path),
                          continuity=continuity, freestream=freestream)
    if cfg.q2 is not None and len(problem.continuity) != cfg.q2:
        raise ConfigError(
            f"q2: layout produced {len(problem.continuity)} continuity points, "
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
    k, _ = _calibrate(cfg, criterion, obs, ops, scfg, default_budget=128)
    t2 = time.monotonic()
    fieldr = predict(k, problem, scfg, system=system)
    t3 = time.monotonic()

    names = ["vx", "vy", "var_vx", "var_vy", "cov_vxy", "magsq_mean", "magsq_var"]
    columns = [*fieldr.locations.T, *(getattr(fieldr, c) for c in names)]
    write_csv(os.path.join(cfg.output_dir, "predictions.csv"), ["x", "y"] + names, columns)
    if cfg.experiment == "flow-cylinder":
        _flow.emit_velocity_csv(os.path.join(cfg.output_dir, "field_input.csv"), problem)

    report = _report(cfg, k, timing=_timing(t1 - t0, t3 - t2),
                     nugget_used=float(fieldr.nugget_used))
    if truth_geom is not None and len(problem.pred_grid):
        tv = _flow.cylinder_flow_oracle(truth_geom, problem.freestream, problem.pred_grid)
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
    pred_atoms = design.Atoms(np.linspace(0.0, 2.0 * np.pi, q_ck)[:, None], (0,))
    rows = []
    for p in sweep:
        ops = _ode_rows(np.linspace(0.0, 2.0 * np.pi, p))
        routes = (("ck", q_ck, partial(_timed_ck, k, obs, ops, pred_atoms, scfg)),
                  ("lk", p, partial(_timed_lk, k, obs, ops, scfg)))
        for method, q, timed in routes:
            design.reset_cov_eval_count()
            _, timing = timed()
            rows.append(dict(method=method, p=p, q=q, **timing,
                             cov_eval_count=design.cov_eval_count()))
    header = ["method", "p", "q", "construction_s", "inversion_s", "cov_eval_count"]
    write_csv(os.path.join(cfg.output_dir, "bench.csv"), header,
              [[r[h] for r in rows] for h in header])
    return _report(cfg, k, cov_eval_count=int(sum(r["cov_eval_count"] for r in rows)),
                   extras={"rows": rows})


# ---------------------------------------------------------------------------
# calibrate: search only, emit the trace


def run_calibrate(cfg):
    row = _methods()[cfg.method]
    obs, ops, _ = _ode1d_data(cfg, row.ode_rows)
    k, (bounds, res) = _calibrate(cfg, row.criterion, obs, ops, SolveConfig(nugget=cfg.nugget))
    write_csv(os.path.join(cfg.output_dir, "trace.csv"), ["theta", "criterion"], zip(*res.trace))
    return _report(cfg, k, extras={"criterion_value": res.criterion_value, "bounds": list(bounds)})


# ---------------------------------------------------------------------------
# argument parsing: one row per subcommand


# flags every subcommand takes; untyped, as validate_config coerces their text
_COMMON_FLAGS = {
    "--config": {"help": "JSON config file"},
    "--method": {"choices": tuple(_methods())},
    "--theta": {"help": "lengthscale or 'auto'"},
    "--sigma2": {"help": "process variance or 'auto'"},
    "--nugget": {},
    "--seed": {},
    "--out": {"dest": "output_dir", "help": "output directory"},
    "--budget": {"help": "calibration budget"},
}

# command: (runner, help, {flag: add_argument keywords}) beyond _COMMON_FLAGS
_SUBCOMMANDS = {
    "ode1d": (run_ode1d, "f + f'' = 0 on [0, 2pi], truth sin",
              {"--n": {}, "--p": {}, "--q": {}}),
    "scalar2d": (run_scalar2d, "2-d fields with gradient/Laplacian rows",
                 {"--n": {}, "--q": {}, "--target": {"choices": get_args(_FIELD_TYPES["target"])}}),
    "flow": (run_flow, "potential flow past a cylinder or from CSV",
             {"--csv": {"dest": "csv_path", "help": "velocity CSV input (flow-csv)"},
              "--n": {"help": "observation count"},
              "--q1": {"help": "boundary collocation count"},
              "--q2": {"help": "expected continuity count"}}),
    "bench": (run_bench, "construction/inversion sweep over p",
              {"--n": {}, "--p": {"help": "single sweep point instead of the default sweep"},
               "--q": {}}),
    "calibrate": (run_calibrate, "lengthscale search only",
                  {"--n": {}, "--p": {}, "--q": {}}),
}


@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="pikrig", description="physics-informed Kriging experiments"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for flag, kwargs in {**_COMMON_FLAGS, **flags}.items():
            sub.add_argument(flag, **kwargs)
    return parser


def resolve_config(args):
    cfg = RunConfig()
    if args.config:
        for key, val in load_config(args.config).items():
            setattr(cfg, key, val)
    for key in _FIELD_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if args.command == "flow":
        cfg.experiment = "flow-csv" if cfg.csv_path else "flow-cylinder"
    else:
        cfg.experiment = args.command
    return validate_config(cfg)


def main(argv=None):
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    args = build_parser().parse_args(argv)
    outdir = None
    try:
        cfg = resolve_config(args)
        outdir = cfg.output_dir
        os.makedirs(outdir, exist_ok=True)
        design.reset_cov_eval_count()
        report = _SUBCOMMANDS[args.command][0](cfg)
        write_report(outdir, report)
        return EXIT_OK
    except (*_NUMERICAL_ERRORS, ValueError) as exc:  # other ValueErrors are input errors
        numerical = isinstance(exc, _NUMERICAL_ERRORS)
        if numerical:
            logger.error("numerical failure: %s", exc)
        else:
            print(f"error: {exc}", file=sys.stderr)
        if outdir is not None:
            write_report(outdir, RunReport(config=asdict(cfg), status="error", error=str(exc)))
        return EXIT_NUMERICAL if numerical else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
