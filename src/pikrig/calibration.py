"""Lengthscale and variance calibration by leave-one-out cross-validation.

For simple Kriging and co-Kriging the leave-one-out residuals come from
the virtual formulas (one factorization instead of n refits): with
a = K^-1 Z and d = diag(K^-1), the fold-i residual is a_i / d_i and the
fold-i predictive variance at unit process variance is 1 / d_i.  The MSE
criterion is then mean((a/d)^2) and the variance estimate solving
"mean standardized squared residual = 1" is sigma2 = mean(a^2 / d).

For co-Kriging the same quantities are computed on the stacked system
[Z; v] with the extended covariance, and only the primary n slots are
kept (a filter on the stack), normalized by n.

Constrained Lagrangian predictions have two criteria.  Leave-one-out
(:func:`loocv_lk_explicit`) gets every fold from one system by the same
downdate: column i of a 1^T - K^-1 diag(a/d) is fold i's K_{-i}^-1 Z_{-i},
and the Lagrangian prediction is one constraint projection of H^T of
it, so the folds share one assembly, rank check and factorization per
theta.  The all-points-retained interpolation deviation
(:func:`interpolation_error_criterion`) exploits that constrained
predictions need not interpolate the observations.  Every leave-one-out
criterion is nan where the full matrix needed escalated jitter.

The 1-d lengthscale search is a deterministic log-spaced grid scan
followed by golden-section refinement inside the best cell; ties shrink
the bracket symmetrically, so a flat criterion converges to the cell
midpoint (in log space).
"""

import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import design
from . import predictors as _pred
from . import uq as _uq
from .predictors import ConditioningError, SolveConfig, make_spd_solver

__all__ = [
    "CalibrationResult",
    "loocv_mse_virtual",
    "sigma2_virtual",
    "loocv_ck_virtual",
    "loocv_lk_explicit",
    "interpolation_error_criterion",
    "sigma2_interpolation",
    "optimize_theta",
    "default_theta_bounds",
]

logger = logging.getLogger(__name__)

_SIGMA2_FLOOR = 1e-12


@dataclass
class CalibrationResult:
    """Search outcome: argmin lengthscale, variance estimate, history."""

    theta_hat: float
    sigma2_hat: float
    criterion_value: float
    trace: list


def _require_unit_centered(k, obs):
    if abs(k.sigma2 - 1.0) > 1e-12:
        raise ValueError(
            f"LOOCV criteria are defined at unit process variance; got sigma2={k.sigma2}"
        )
    if obs.mean is not None:
        raise ValueError("LOOCV criteria expect a centered observation set")


def _virtual_parts(K, y, n, cfg):
    """a = K^-1 y, d = diag(K^-1) in the first ``n`` slots, and whether
    jitter escalated.

    The virtual identities hold for the covariance actually requested; if
    the factorization only succeeded with escalated jitter the returned
    flag is True and criteria built on these parts are undefined.
    """
    solve, eta = make_spd_solver(K, cfg)
    Ki = solve(np.eye(K.shape[0]))
    a = Ki @ y
    return a[:n], np.diag(Ki)[:n], eta > cfg.nugget


def _lagrangian_folds(k, obs, ops, j, cfg):
    """All Lagrangian leave-one-out folds from one system: (resid, var, escalated).

    ``ops`` holds every observation atom, observation i at row ``j[i]``.

    Column i of A = a 1^T - K^-1 diag(a/d) (a = K^-1 Z, d = diag K^-1) is
    fold i's K_{-i}^-1 Z_{-i} with 0 in slot i, so gamma2 = Z^T A and one
    constraint projection of the bases H^T A predicts every fold.  Fold
    i's variance at unit process variance is
    1/d_i - eta + (U W)[j_i, i]^2 / gamma2_i, with eta the nugget used and
    j_i the atom of observation i.
    """
    n = obs.n
    Z = obs.values
    K, H = _pred.assemble_lagrangian(k, obs, ops)
    project = _pred._constraint_projector(ops.U)
    solve, eta = make_spd_solver(K, cfg)
    Ki = solve(np.eye(n))
    a = Ki @ Z
    d = np.diag(Ki)
    A = a[:, None] - Ki * (a / d)
    np.fill_diagonal(A, 0.0)
    pred, W = project(H.T @ A, ops.rhs[:, None])
    resid = Z - pred[j, np.arange(n)]
    var = 1.0 / d - eta
    if ops.p:
        g2 = Z @ A
        degenerate = np.abs(g2) <= 1e-14 * np.maximum(1.0, Z @ Z - Z * Z)
        if degenerate.any():
            i = int(np.argmax(degenerate))
            raise _pred.DegenerateConstraintError(
                f"Z^T K^-1 Z = {g2[i]} is zero in fold {i}; the Lagrangian "
                "closed form assumes it non-zero"
            )
        var = var + np.sum(ops.U[j] * W.T, axis=1) ** 2 / g2
    return resid, var, eta > cfg.nugget


def _floored_sigma2(val):
    if val <= _SIGMA2_FLOOR:
        warnings.warn(
            f"degenerate variance estimate {val:.3e}; floored at {_SIGMA2_FLOOR}",
            RuntimeWarning,
            stacklevel=3,
        )
        return _SIGMA2_FLOOR
    return float(val)


def _loo_criteria(parts, kind):
    """(mse, sigma2) callables of theta from ``parts(theta)``, which gives
    the leave-one-out residuals, their squares standardized by the fold
    variances, and whether jitter escalated.

    The mse is nan when jitter escalated; sigma2 is the mean standardized
    square, floored, and warns when jitter escalated.
    """

    def mse(theta):
        resid, _, escalated = parts(theta)
        if escalated:
            logger.info("%s LOOCV undefined at theta=%.6g (escalated)", kind, theta)
            return math.nan
        return float(np.mean(resid ** 2))

    def sigma2(theta):
        _, std2, escalated = parts(theta)
        if escalated:
            warnings.warn(
                f"variance rule at theta={theta:.6g} used escalated jitter",
                RuntimeWarning,
                stacklevel=2,
            )
        return _floored_sigma2(float(np.mean(std2)))

    return mse, sigma2


def loocv_mse_virtual(k_unit, obs, cfg=None):
    """Virtual LOOCV mean squared residual for centered simple Kriging.

    Returns nan when the gram factorization needed escalated jitter: the
    leave-one-out identity is only valid for the unregularized matrix,
    and returning a value there would let a lengthscale search exploit
    degenerate kernels.  The optimizer skips nan points.  This is
    :func:`loocv_ck_virtual` without operator rows, at ``k_unit.theta``.
    """
    return loocv_ck_virtual(k_unit, obs, None, cfg)[0](k_unit.theta)


def sigma2_virtual(k_unit, obs, theta_hat, cfg=None):
    """Variance making the standardized LOOCV criterion equal one at theta_hat."""
    return loocv_ck_virtual(k_unit, obs, None, cfg)[1](theta_hat)


def loocv_ck_virtual(k_unit, obs, ops, cfg=None):
    """Filtered virtual LOOCV for the co-Kriging stack; returns (mse, sigma2).

    Both returned callables take a candidate theta.  The stacked system
    [Z; v] is re-assembled per theta; only the first n (primary) slots of
    the per-slot residual and variance enter, normalized by n.  With an
    empty operator system (``ops`` None) they are the plain simple-Kriging
    criteria :func:`loocv_mse_virtual` / :func:`sigma2_virtual`.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    _require_unit_centered(k_unit, obs)
    if obs.n < 2:
        raise ValueError("LOOCV needs at least 2 observations")
    if ops is None:
        ops = design.OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    n = obs.n

    def parts(theta):
        k = replace(k_unit, theta=float(theta))
        Kplus, _, y = _pred.assemble_co_kriging(k, obs, ops, [])
        a, d, escalated = _virtual_parts(Kplus, y, n, cfg)
        return a / d, a * a / d, escalated

    return _loo_criteria(parts, "virtual")


def _lagrangian_at(k, obs, ops, cfg, want_var=False):
    """Centered Lagrangian fit read at the observation atoms, which join
    ``ops`` constraint-free where it lacks them: (mean, variance, escalated).

    The variance (None unless ``want_var``) comes from the same solve as
    the mean; ``escalated`` says whether the factorization needed jitter
    above the requested nugget.
    """
    ops, idx = design._extend(ops, obs.points)
    K, H = _pred.assemble_lagrangian(k, obs, ops)
    w = _pred.solve_lagrangian(K, H, obs, ops, cfg)
    variance = None
    if want_var:
        variance, _ = _uq.mmse_variance(k, obs.points, w.alpha[:, idx], w.cross[:, idx])
    return w.predictions[idx], variance, w.nugget_used > cfg.nugget


def loocv_lk_explicit(k_unit, obs, ops_at_predictions, cfg=None):
    """LOOCV for Lagrangian Kriging; returns (mse, sigma2).

    Fold i drops observation i, keeps the full constraint system, predicts
    the dropped atom (appended constraint-free if no equation touches it)
    and scores the residual; the variance rule standardizes by the fold's
    own predictive variance at unit process variance.  All folds at a
    theta come from one assembly, rank check and factorization, by the
    downdate of :func:`_lagrangian_folds`; so the mse is nan (and sigma2
    warns) when the full K needed escalated jitter, whatever the folds'
    own matrices would have needed.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    _require_unit_centered(k_unit, obs)
    if obs.n < 2:
        raise ValueError("LOOCV needs at least 2 observations")
    ops, j = design._extend(ops_at_predictions, obs.points)

    def parts(theta):
        k = replace(k_unit, theta=float(theta))
        resid, var, escalated = _lagrangian_folds(k, obs, ops, j, cfg)
        return resid, resid ** 2 / np.maximum(var, _SIGMA2_FLOOR), escalated

    return _loo_criteria(parts, "fold")


def interpolation_error_criterion(k_unit, obs, ops_at_predictions, cfg=None):
    """Mean squared deviation of constrained predictions at the observations.

    The Lagrangian fit keeps every observation (no folds); constraints may
    pull predictions at the observation atoms away from the observed
    values, and that deviation is the criterion.  Observation atoms not in
    the collocation set are appended constraint-free.  With no constraints
    the fit interpolates and the value is 0.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    _require_unit_centered(k_unit, obs)
    mean, _, escalated = _lagrangian_at(k_unit, obs, ops_at_predictions, cfg)
    if escalated:
        logger.info(
            "interpolation criterion undefined at theta=%.6g (escalated)",
            k_unit.theta,
        )
        return math.nan
    return float(np.mean((mean - obs.values) ** 2))


def sigma2_interpolation(k_unit, obs, ops_at_predictions, theta_hat, cfg=None):
    """Variance rule matching the interpolation criterion, all points retained.

    Standardizes the all-points-retained deviations by the Lagrangian
    predictive variance at the observation atoms (unit process variance),
    mirroring the LOOCV variance rule without folds.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    _require_unit_centered(k_unit, obs)
    k = replace(k_unit, theta=float(theta_hat))
    mean, variance, escalated = _lagrangian_at(k, obs, ops_at_predictions, cfg, True)
    if escalated:
        warnings.warn(
            f"variance rule at theta={theta_hat:.6g} used escalated jitter",
            RuntimeWarning,
            stacklevel=2,
        )
    resid = mean - obs.values
    denom = np.maximum(variance, _SIGMA2_FLOOR)
    return _floored_sigma2(float(np.mean(resid ** 2 / denom)))


def _pairwise_distances(points):
    """Euclidean distances of the locations, one per pair i < j."""
    xs = design.Atoms.of(getattr(points, "points", points)).X
    i, j = np.triu_indices(len(xs), 1)
    return np.sqrt(((xs[i] - xs[j]) ** 2).sum(-1))


def default_theta_bounds(points):
    """[1e-2, 1e2] times the median pairwise distance of the locations."""
    dist = _pairwise_distances(points)
    if dist.size == 0:
        raise ValueError("need at least 2 locations to scale the search bounds")
    med = float(np.median(dist))
    if not np.isfinite(med) or med <= 0:
        raise ValueError(f"median pairwise distance {med} cannot scale bounds")
    return 1e-2 * med, 1e2 * med


def optimize_theta(criterion, bounds, budget=64, sigma2_rule=None):
    """Deterministic 1-d minimization of a lengthscale criterion.

    Log-spaced coarse grid (half the budget), then golden-section
    refinement in log space inside the cell around the grid argmin, then
    the midpoint of the final bracket: exactly ``budget`` criterion
    evaluations in all.  Non-finite criterion values are skipped and
    logged; exact ties shrink the bracket from both sides.
    ``sigma2_rule``, when given, is called at the optimum to fill
    ``sigma2_hat`` (default 1.0).
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0 < lo < hi and np.isfinite(hi)):
        raise ValueError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    budget = int(budget)
    if budget < 8:
        raise ValueError(f"budget must be at least 8, got {budget}")
    trace = []

    def ev(theta):
        theta = float(theta)
        try:
            val = float(criterion(theta))
        except ConditioningError as exc:
            logger.warning("criterion failed at theta=%.6g: %s", theta, exc)
            val = math.nan
        if not math.isfinite(val):
            logger.warning("criterion non-finite at theta=%.6g", theta)
            val = math.nan
        trace.append((theta, val))
        return val

    ngrid = max(4, budget // 2)
    grid = np.geomspace(lo, hi, ngrid)
    vals = [ev(t) for t in grid]
    finite = [i for i, v in enumerate(vals) if math.isfinite(v)]
    if not finite:
        raise RuntimeError("criterion was non-finite at every grid point")
    ib = min(finite, key=lambda i: vals[i])
    la = math.log(grid[ib - 1] if ib > 0 else grid[ib])
    lb = math.log(grid[ib + 1] if ib < ngrid - 1 else grid[ib])

    rho = (math.sqrt(5.0) - 1.0) / 2.0
    remaining = budget - ngrid - 1
    used = 0
    if lb > la and remaining >= 2:
        x1 = lb - rho * (lb - la)
        x2 = la + rho * (lb - la)
        f1 = ev(math.exp(x1))
        f2 = ev(math.exp(x2))
        used = 2
        while used < remaining:
            v1 = f1 if math.isfinite(f1) else math.inf
            v2 = f2 if math.isfinite(f2) else math.inf
            if v1 < v2:
                lb, x2, f2 = x2, x1, f1
                x1 = lb - rho * (lb - la)
                f1 = ev(math.exp(x1))
                used += 1
            elif v2 < v1:
                la, x1, f1 = x1, x2, f2
                x2 = la + rho * (lb - la)
                f2 = ev(math.exp(x2))
                used += 1
            else:
                la, lb = x1, x2
                x1 = lb - rho * (lb - la)
                x2 = la + rho * (lb - la)
                f1 = ev(math.exp(x1))
                used += 1
                if used < remaining:
                    f2 = ev(math.exp(x2))
                    used += 1

    mid = math.exp(0.5 * (la + lb))
    fmid = ev(mid)
    candidates = [(mid, fmid)] if math.isfinite(fmid) else []
    candidates += [(t, v) for t, v in trace if math.isfinite(v)]
    theta_hat, crit_val = min(candidates, key=lambda tv: tv[1])
    sigma2_hat = float(sigma2_rule(theta_hat)) if sigma2_rule is not None else 1.0
    return CalibrationResult(
        theta_hat=float(theta_hat),
        sigma2_hat=sigma2_hat,
        criterion_value=float(crit_val),
        trace=trace,
    )
