"""Lengthscale and variance calibration by leave-one-out cross-validation.

For simple Kriging and co-Kriging the leave-one-out residuals come from
the virtual formulas (one factorization instead of n refits): with
a = K^-1 Z and d = diag(K^-1), the fold-i residual is a_i / d_i and the
fold-i predictive variance at unit process variance is 1 / d_i.  The MSE
criterion is then mean((a/d)^2) and the variance estimate solving
"mean standardized squared residual = 1" is sigma2 = mean(a^2 / d).

For co-Kriging the same quantities are computed on the stacked system
[Z; v] with the co-Kriging solve's K+, and only the primary n slots are
kept (a filter on the stack), normalized by n.  Values with one column
per field sharing the covariance sum the fields' criteria.

Constrained Lagrangian predictions have two criteria.  Leave-one-out
(:func:`loocv_lk_explicit`) gets every fold from one system by the same
downdate: column i of a 1^T - K^-1 diag(a/d) is fold i's K_{-i}^-1 Z_{-i},
and the Lagrangian prediction is one constraint projection of H^T of it,
so the folds share one factorization per theta.  The all-points-retained
interpolation deviation (:func:`interpolation_criteria`) exploits that
constrained predictions need not interpolate the observations.  Both
variance rules are Kriging's variance plus the projection's (U w)^2 /
gamma2, with no weights formed.  Every criterion is nan where the full
matrix needed escalated jitter, a rule :func:`_loo_criteria` alone applies.

Each criterion factory builds its theta-invariant state (atom sets, the
:class:`pikrig.design.Layout` of its covariance matrix, the rank check
of U) once per search and evaluates a vector of theta as one stack, bit
for bit as one theta at a time.  A Lagrangian search evaluates one layout,
H (observations against the extended atoms), and reads K off its columns.

The 1-d lengthscale search is a deterministic log-spaced grid scan
followed by golden-section refinement inside the best cell; ties shrink
the bracket symmetrically, so a flat criterion converges to the cell
midpoint (in log space).  A variance rule or flow's two-step fit at the
argmin reuses the search's evaluation there: one factorization per theta.
"""

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import design
from . import predictors as _pred
from .predictors import ConditioningError, SolveConfig, make_spd_solver

__all__ = [
    "CalibrationResult",
    "loocv_mse_virtual",
    "sigma2_virtual",
    "loocv_ck_virtual",
    "loocv_lk_explicit",
    "interpolation_criteria",
    "interpolation_error_criterion",
    "sigma2_interpolation",
    "optimize_theta",
    "default_theta_bounds",
]

logger = logging.getLogger(__name__)

_SIGMA2_FLOOR = 1e-12

# Most layout entries in one stack of theta (at least one theta): 16384 float64
# are 128 KiB, glibc's mmap threshold, as for _PANEL.  Stacking pays only where
# per-call overhead rules (n <= 32 or so); an ode1d grid is one stack.
_STACK = 16384


@dataclass
class CalibrationResult:
    """Search outcome: argmin lengthscale, criterion value there, history."""

    theta_hat: float
    criterion_value: float
    trace: list


def _require_unit_centered(k, obs):
    if abs(k.sigma2 - 1.0) > 1e-12:
        raise ValueError(
            f"LOOCV criteria are defined at unit process variance; got sigma2={k.sigma2}"
        )
    if obs.mean is not None:
        raise ValueError("LOOCV criteria expect a centered observation set")


def _solves(K, B, cfg):
    """(K^-1 B, make_spd_solver's (solve, eta)) per slice of the stack K (B a vector
    or a matrix), nan and (None, its ConditioningError) where factoring failed; K^-1 B
    in Fortran-ordered slices, as solve returns them, so products round as per slice."""
    X, solved = np.empty((len(K),) + B.shape[::-1]).swapaxes(1, -1), []
    for g in range(len(K)):
        try:
            solved.append(make_spd_solver(K[g], cfg))
        except ConditioningError as exc:
            solved.append((None, exc))
        X[g] = math.nan if solved[g][0] is None else solved[g][0](B)
    return X, solved


def _floored_sigma2(val):
    if val <= _SIGMA2_FLOOR:
        warnings.warn(
            f"degenerate variance estimate {val:.3e}; floored at {_SIGMA2_FLOOR}",
            RuntimeWarning,
            stacklevel=3,
        )
        return _SIGMA2_FLOOR
    return float(val)


class _Criterion:
    """A float at one theta (raising its ConditioningError), an array at a vector;
    ``grid(thetas, failed)`` the values, nan where factoring failed (appended to ``failed``)."""

    def __init__(self, grid):
        self.grid = grid

    def __call__(self, theta):
        vals = self.grid(np.array(theta, dtype=float, ndmin=1), failed := [])
        if np.ndim(theta) == 0 and failed:
            raise failed[0]
        return np.array(vals) if np.ndim(theta) else vals[0]


def _loo_criteria(parts, layout, cfg):
    """(mse, sigma2, parts_at) from ``parts(thetas)``, ``layout`` at a stack
    of theta: the residuals, the slices' (solve, eta) of :func:`_solves` and
    ``std2(i)``, slice i's squared residuals over the predictive variances.
    The mse (a :class:`_Criterion`, in stacks of at most ``_STACK`` layout
    entries, summed over columns) is nan where jitter escalated or factoring
    failed; sigma2, the mean std2 floored, warns if jitter escalated.
    parts_at gives (residuals, std2 of no argument, whether jitter escalated,
    (solve, eta)), kept at the theta of the smallest finite mse so far (the
    latest of equals: a search's argmin), else of a stack of one."""
    kept = [math.inf, None, None]  # mse, theta, (parts of its stack, its slice)
    step = max(1, _STACK // max(1, layout.shape[0] * layout.shape[1]))

    def grid(thetas, failed):
        vals = []
        for s in range(0, len(thetas), step):
            got = parts(thetas[s:s + step])
            r = got[0] if got[0].ndim == 2 else got[0].transpose(0, 2, 1)  # slots last
            mse = np.add.reduce(np.square(r, order="C"), axis=-1) / r.shape[-1]
            mse, best = (mse if mse.ndim == 1 else sum(mse.T)).tolist(), None
            for g, (val, (solve, eta)) in enumerate(zip(mse, got[1])):
                if solve is None:
                    failed.append(eta)  # its ConditioningError
                vals.append(math.nan if solve is None or eta > cfg.nugget else val)
                if vals[-1] <= kept[0] and math.isfinite(val):
                    kept[:2], best = (val, float(thetas[s + g])), g
            if best is not None:
                kept[2] = got, best
        return vals

    def parts_at(theta):
        (r, solved, std2), g = kept[2] if theta == kept[1] else (parts(np.array([float(theta)])), 0)
        if solved[g][0] is None:
            raise solved[g][1]
        return r[g], lambda: std2(g), solved[g][1] > cfg.nugget, solved[g]

    def sigma2(theta):
        _, std2, escalated, *_ = parts_at(theta)
        if escalated:
            warnings.warn(
                f"variance rule at theta={theta:.6g} used escalated jitter",
                RuntimeWarning,
                stacklevel=2,
            )
        return _floored_sigma2(float(np.mean(std2())))

    return _Criterion(grid), sigma2, parts_at


def loocv_mse_virtual(k_unit, obs, cfg=SolveConfig()):
    """Virtual LOOCV mean squared residual for centered simple Kriging.

    Returns nan when the gram factorization needed escalated jitter: the
    leave-one-out identity is only valid for the unregularized matrix,
    and returning a value there would let a lengthscale search exploit
    degenerate kernels.  The optimizer skips nan points.  This is
    :func:`loocv_ck_virtual` without operator rows, at ``k_unit.theta``.
    """
    return loocv_ck_virtual(k_unit, obs, None, cfg)[0](k_unit.theta)


def sigma2_virtual(k_unit, obs, theta_hat, cfg=SolveConfig()):
    """Variance making the standardized LOOCV criterion equal one at theta_hat."""
    return loocv_ck_virtual(k_unit, obs, None, cfg)[1](theta_hat)


def loocv_ck_virtual(k_unit, obs, ops, cfg=SolveConfig()):
    """Filtered virtual LOOCV for the co-Kriging stack; returns (mse, sigma2).

    mse takes a candidate theta or a vector of them, sigma2 a theta; the
    layout of K+ (the rows of :func:`pikrig.predictors.assemble_co_kriging`)
    is built once.
    Only the first n (primary) slots of the per-slot residual and variance
    of [Z; v] enter, normalized by n.  With an empty operator system
    (``ops`` None) they are the plain simple-Kriging criteria
    :func:`loocv_mse_virtual` / :func:`sigma2_virtual`.
    """
    _require_unit_centered(k_unit, obs)
    if obs.n < 2:
        raise ValueError("LOOCV needs at least 2 observations")
    ops = design.OperatorSystem() if ops is None else ops
    rows = design._stacked_rows(k_unit, obs.points, ops)
    return _virtual_criteria(k_unit, rows, np.concatenate([obs.values, ops.rhs]), cfg, obs.n)[:2]


def _virtual_criteria(k_unit, rows, y, cfg, n=None):
    """(mse, sigma2, parts_at) of theta: virtual LOOCV of ``y`` on the layout of
    ``rows`` (atoms or stacked rows) over its first ``n`` slots (all if None);
    each column of ``y``, a field sharing the covariance, adds its own mse.
    The parts end with make_spd_solver's ``(solve, eta)`` of the layout."""
    layout = design.Layout(k_unit, rows)

    def parts(thetas):
        Ki, solved = _solves(layout(k_unit, thetas), np.eye(len(y)), cfg)
        a, d = (Ki @ y)[:, :n], Ki.diagonal(0, 1, 2)[:, :n]
        d = d[..., None] if y.ndim > 1 else d
        return a / d, solved, lambda g: a[g] * a[g] / d[g]

    return _loo_criteria(parts, layout, cfg)


def _lagrangian_system(k_unit, obs, ops):
    """(``ops`` with the observation atoms it lacks appended constraint-free,
    the row of each, the layout of H (observations against those atoms), the
    projection of U as ``project()``, whose rank check is kept once it
    passes).  K is H's columns at their rows (it differs from
    ``gram(k, obs.points)`` at most in the sign of a zero)."""
    _require_unit_centered(k_unit, obs)
    ops, rows = design._extend(ops, obs.points)
    project = functools.cache(lambda: _pred._constraint_projector(ops))
    return ops, rows, design.Layout(k_unit, obs.points, ops.colloc_points), project


def loocv_lk_explicit(k_unit, obs, ops_at_predictions, cfg=SolveConfig()):
    """LOOCV for Lagrangian Kriging; returns (mse, sigma2).

    Fold i drops observation i, keeps the full constraint system, predicts
    the dropped atom (appended constraint-free if no equation touches it)
    and scores the residual; the variance rule standardizes by the fold's
    own predictive variance at unit process variance.  All folds at a theta
    come from one evaluation of the layout and one factorization: column i
    of A = a 1^T - K^-1 diag(a/d) (a = K^-1 Z, d = diag K^-1) is fold i's
    K_{-i}^-1 Z_{-i} with 0 in slot i, so gamma2 = Z^T A, one projection of
    H^T A predicts every fold, and fold i's variance is 1/d_i - eta +
    (U W)[j_i, i]^2 / gamma2_i (eta the nugget used, j_i the atom of
    observation i).  So the mse is nan (and sigma2 warns) when the full K
    needed escalated jitter, whatever the folds' own matrices would have needed.
    """
    ops, j, H_of, projector = _lagrangian_system(k_unit, obs, ops_at_predictions)
    if obs.n < 2:
        raise ValueError("LOOCV needs at least 2 observations")
    Z, cols, eye = obs.values, np.arange(obs.n), np.eye(obs.n)
    tiny = 1e-14 * np.maximum(1.0, Z @ Z - Z * Z)  # a fold's gamma2 at most this is zero

    def parts(thetas):
        H = H_of(k_unit, thetas)
        project = projector()
        Ki, solved = _solves(H[:, :, j], eye, cfg)
        a, d = Ki @ Z, Ki.diagonal(0, 1, 2)
        A = a[:, :, None] - Ki * (a / d)[:, None, :]
        A[:, cols, cols] = 0.0
        base = H.transpose(0, 2, 1) @ A
        if failed := [g for g, (solve, _) in enumerate(solved) if solve is None]:
            base[failed] = 0.0  # a finite stack to project (the QR route checks); nan anyway
        UW = project(base.transpose(1, 0, 2), ops.rhs[:, None, None])[0]
        UW = UW.take(j, 0).diagonal(0, 0, 2)  # fold i's at atom j_i, as its base below
        resid = Z - (base.take(j, 1).diagonal(0, 1, 2) + UW)
        if ops.p:
            g2 = Z @ A
            degenerate = np.abs(g2) <= tiny
            if degenerate.any():
                g, i = divmod(int(np.argmax(degenerate)), obs.n)
                raise _pred.DegenerateConstraintError(
                    f"Z^T K^-1 Z = {g2[g, i]} is zero in fold {i}; the Lagrangian closed form "
                    "assumes it non-zero")
        var = lambda g: 1.0 / d[g] - solved[g][1] + (UW[g] ** 2 / g2[g] if ops.p else 0.0)
        return resid, solved, lambda g: resid[g] ** 2 / np.maximum(var(g), _SIGMA2_FLOOR)

    return _loo_criteria(parts, H_of, cfg)[:2]


def interpolation_criteria(k_unit, obs, ops_at_predictions, cfg=SolveConfig()):
    """All-points-retained interpolation deviation; returns (crit, sigma2).

    The Lagrangian fit keeps every observation (no folds); constraints may
    pull predictions at the observation atoms away from the observed
    values, and the mean squared deviation is the criterion (0 with no
    constraints).  Observation atoms not in the collocation set are
    appended constraint-free.  sigma2 standardizes the deviations by the
    predictive variances there, as the LOOCV rule does: at observation i,
    eta diag((K + eta I)^-1 K)_i + (U w)_i^2 / gamma2 (eta the nugget used,
    U w the correction in the deviations, gamma2 = Z^T K^-1 Z), one solve
    of K where eta > 0 on top of a theta's one solve of Z.
    """
    ops, idx, H_of, projector = _lagrangian_system(k_unit, obs, ops_at_predictions)
    Z = obs.values

    def parts(thetas):
        H = H_of(k_unit, thetas)
        project = projector()
        a, solved = _solves(H[:, :, idx], Z, cfg)
        g2 = [_pred._gamma2(Z, a[g]) if s is not None and ops.p else math.inf  # no rows: no term
              for g, (s, _) in enumerate(solved)]
        pred = (H.transpose(0, 2, 1) @ a[:, :, None])[..., 0]  # H^T a, as solve_lagrangian
        pred[[solve is None for solve, _ in solved]] = 0.0  # as in loocv_lk_explicit
        Uw = project(pred.T, ops.rhs[:, None])[0].T  # the correction resid adds
        resid = (pred + Uw)[:, idx] - Z
        kriging = lambda g, solve, eta: eta * solve(H[g][:, idx]).diagonal() if eta else 0.0
        var = lambda g: kriging(g, *solved[g]) + Uw[g, idx] ** 2 / g2[g]
        return resid, solved, lambda g: resid[g] ** 2 / np.maximum(var(g), _SIGMA2_FLOOR)

    return _loo_criteria(parts, H_of, cfg)[:2]


def interpolation_error_criterion(k_unit, obs, ops_at_predictions, cfg=SolveConfig()):
    """The criterion of :func:`interpolation_criteria` at ``k_unit.theta``."""
    return interpolation_criteria(k_unit, obs, ops_at_predictions, cfg)[0](k_unit.theta)


def sigma2_interpolation(k_unit, obs, ops_at_predictions, theta_hat, cfg=SolveConfig()):
    """The variance rule of :func:`interpolation_criteria` at ``theta_hat``."""
    return interpolation_criteria(k_unit, obs, ops_at_predictions, cfg)[1](theta_hat)


def _pairwise_distances(points):
    """Euclidean distances of the locations, one per pair i < j."""
    xs = design.Atoms.of(points).X
    i, j = np.triu_indices(len(xs), 1)
    return np.sqrt(((xs[i] - xs[j]) ** 2).sum(-1))


def default_theta_bounds(points):
    """[1e-2, 1e2] times the median pairwise distance of the locations,
    capped at the data diameter: past it every pair is strongly correlated,
    the gram is numerically singular long before Cholesky fails, and LOOCV
    criteria reward that singularity instead of fit quality, so the
    lengthscale is not identifiable there.
    """
    dist = _pairwise_distances(points)
    if dist.size == 0:
        raise ValueError("need at least 2 locations to scale the search bounds")
    med = float(np.median(dist))
    if not np.isfinite(med) or med <= 0:
        raise ValueError(f"median pairwise distance {med} cannot scale bounds")
    return 1e-2 * med, min(1e2 * med, float(dist.max()))


def optimize_theta(criterion, bounds, budget=64):
    """Deterministic 1-d minimization of a lengthscale criterion.

    Log-spaced coarse grid (half the budget), then golden-section
    refinement in log space inside the cell around the grid argmin, then
    the midpoint of the final bracket: ``budget`` criterion evaluations in
    all, or fewer when the argmin's grid cell has zero width in floating
    point (bounds a few ulps apart), which skips the refinement.
    Non-finite values and factorization failures are skipped, kept as nan
    in the trace and logged once per search, with their count and theta
    range; exact ties shrink the bracket from both sides.
    A grid with no finite value raises ConditioningError.
    sigma2 is then the criterion factory's rule at ``theta_hat``.
    A criterion this module builds gets the grid as one vector, any other
    callable one theta a call, with the same trace, log and exceptions.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0 < lo < hi and np.isfinite(hi)):
        raise ValueError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    budget = int(budget)
    if budget < 8:
        raise ValueError(f"budget must be at least 8, got {budget}")
    trace, failed = [], []

    def one(theta):
        try:
            return criterion(theta)
        except ConditioningError as exc:
            failed.append(exc)
            return math.nan

    def ev(thetas):  # the criterion at each of thetas, nan if not finite, appended to the trace
        stacked = isinstance(criterion, _Criterion)
        vals = criterion.grid(thetas, failed) if stacked else [one(t) for t in thetas.tolist()]
        vals = [v if math.isfinite(v) else math.nan for v in map(float, vals)]
        trace.extend(zip(thetas.tolist(), vals))
        return vals

    ngrid = budget // 2
    grid = np.geomspace(lo, hi, ngrid)
    vals = ev(grid)
    finite = [i for i, v in enumerate(vals) if math.isfinite(v)]
    if not finite:
        last = failed[-1] if failed else None
        raise ConditioningError("criterion was non-finite at every grid point",
                                nugget_last=getattr(last, "nugget_last", None)) from last
    ib = min(finite, key=lambda i: vals[i])
    la = math.log(grid[ib - 1] if ib > 0 else grid[ib])
    lb = math.log(grid[ib + 1] if ib < ngrid - 1 else grid[ib])

    rho = (math.sqrt(5.0) - 1.0) / 2.0
    f1 = f2 = None  # None: that interior point is stale, to be re-placed and evaluated
    for _ in range(budget - ngrid - 1 if lb > la else 0):
        if f1 is not None and f2 is not None:
            v1, v2 = (v if math.isfinite(v) else math.inf for v in (f1, f2))
            if v1 < v2:
                lb, x2, f2, f1 = x2, x1, f1, None
            elif v2 < v1:
                la, x1, f1, f2 = x1, x2, f2, None
            else:
                la, lb, f1, f2 = x1, x2, None, None
        if f1 is None:
            x1 = lb - rho * (lb - la)
            (f1,) = ev(np.array([math.exp(x1)]))
        else:
            x2 = la + rho * (lb - la)
            (f2,) = ev(np.array([math.exp(x2)]))

    ev(np.array([math.exp(0.5 * (la + lb))]))
    # the final midpoint first, so that it wins ties
    theta_hat, crit_val = min((tv for tv in [trace[-1], *trace] if math.isfinite(tv[1])),
                              key=lambda tv: tv[1])
    bad = [t for t, v in trace if math.isnan(v)]
    if bad:
        failures = f"; {len(failed)} failed to factor: {failed[-1]}" if failed else ""
        logger.warning("criterion non-finite at %d of %d thetas in [%.6g, %.6g]%s",
                       len(bad), len(trace), min(bad), max(bad), failures)
    return CalibrationResult(
        theta_hat=float(theta_hat),
        criterion_value=float(crit_val),
        trace=trace,
    )
