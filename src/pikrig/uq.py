"""Predictive uncertainty: MMSE covariances and squared-magnitude moments.

The minimal-MSE covariance of a linear predictor alpha^T Z is
K* - alpha^T H - H^T alpha + alpha^T K alpha.  At the optimal weights of
every predictor here, K alpha = H + M with a multiplier term M (0 for
simple and co-Kriging, mu lam^T for ordinary Kriging, Z (U lam')^T for
Lagrangian Kriging), and it collapses to K* - alpha^T (H - M).  Each
solver returns H - M as ``KrigingWeights.cross``, so the covariance is
read off the prediction solve: :func:`mmse_variance` forms its diagonal
blocks, :func:`var_ck` and :func:`var_lk` the full matrix.  These are
upper bounds on the conditional variance once PDE information is
conditioned on, not exact posteriors, and the +-2 sigma intervals here
inherit that conservatism.

For velocity fields the squared magnitude ||v||^2 = vx^2 + vy^2 of a
bivariate normal is a generalized chi-square variable;
:func:`quadform_moments` computes its first two moments in closed form.
"""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import design
from .predictors import SolveConfig
from . import predictors as _pred

__all__ = ["PredictiveUQ", "QuadFormMoments", "var_ck", "var_lk", "mmse_variance",
           "quadform_moments"]

logger = logging.getLogger(__name__)

# Diagonal entries below -1e-10 (relative to scale) break the documented
# invariant and are logged; anything negative is clamped to 0 regardless,
# with the raw minimum kept for inspection.
_NEG_VAR_TOL = 1e-10


@dataclass
class PredictiveUQ:
    """MMSE variance, full covariance, and +-2 sigma intervals.

    ``raw_min`` is the most negative pre-clamp diagonal entry and
    ``symmetry_defect`` the max-norm asymmetry of K* - alpha^T (H - M)
    before it is symmetrized.  For the Lagrangian form that is the printed
    expression K* - (H+W)^T K^-1 (H-W), whose antisymmetric part is not
    only rounding.
    """

    mean: np.ndarray
    variance: np.ndarray
    covariance: Optional[np.ndarray]
    interval_lo: np.ndarray
    interval_hi: np.ndarray
    raw_min: float = 0.0
    symmetry_defect: float = 0.0
    nugget_used: float = 0.0


@dataclass(frozen=True)
class QuadFormMoments:
    """Mean and variance of ||v||^2 for v ~ Normal(mu, Sigma).

    Floats for one point, arrays for stacked points.
    """

    mean: float
    variance: float


def _clamp(diag):
    """Clip a variance diagonal at 0; return it with its raw minimum."""
    raw_min = float(diag.min()) if diag.size else 0.0
    scale = max(1.0, float(np.max(np.abs(diag)))) if diag.size else 1.0
    if raw_min < -_NEG_VAR_TOL * scale:
        logger.warning(
            "MMSE diagonal has entries down to %.3e (clamped to 0)", raw_min
        )
    return np.clip(diag, 0.0, None), raw_min


def _full_covariance(k, atoms, w):
    """PredictiveUQ of a solve over ``atoms``: K* - alpha^T cross, symmetrized."""
    V = design.gram(k, atoms) - w.alpha.T @ w.cross
    defect = float(np.max(np.abs(V - V.T))) if V.size else 0.0
    V = 0.5 * (V + V.T)
    variance, raw_min = _clamp(np.diag(V).copy())
    half = 2.0 * np.sqrt(variance)
    mean = w.predictions
    return PredictiveUQ(
        mean=mean,
        variance=variance,
        covariance=V,
        interval_lo=mean - half,
        interval_hi=mean + half,
        raw_min=raw_min,
        symmetry_defect=defect,
        nugget_used=float(w.nugget_used),
    )


def var_ck(k, obs, ops, pred, cfg=SolveConfig()):
    """Co-Kriging MMSE covariance K* - (H+)^T (K+)^-1 H+ with intervals.

    Centered model.  With an empty operator system this is the plain
    simple-Kriging variance.  The diagonal equals the realized
    per-prediction :func:`pikrig.predictors.mse_objective` at the optimum.
    """
    if obs.mean is not None:
        raise ValueError("var_ck expects a centered model")
    pred = design.Atoms.of(pred)
    return _full_covariance(k, pred, _pred.co_kriging(k, obs, ops, pred, cfg=cfg))


def var_lk(k, obs, ops_at_predictions, cfg=SolveConfig()):
    """Lagrangian-Kriging MMSE covariance with intervals, symmetrized.

    Centered model; the atoms are ``ops_at_predictions.colloc_points``.
    With W = Z lam'^T U^T the covariance K* - (H+W)^T K^-1 (H-W) is not
    symmetric as printed; its antisymmetric part (zero on the diagonal,
    so the variances are unaffected) is removed by (V+V^T)/2 and reported
    as ``symmetry_defect``.  The solve is
    :func:`pikrig.predictors.lagrangian_kriging`, rank check included.
    """
    if obs.mean is not None:
        raise ValueError("var_lk expects a centered model")
    w = _pred.lagrangian_kriging(k, obs, ops_at_predictions, cfg=cfg)
    return _full_covariance(k, ops_at_predictions.colloc_points, w)


def mmse_variance(k, atoms, alpha, cross, block=1):
    """MMSE variance of optimal weights, read off the prediction solve.

    The covariance is K* - alpha^T cross, with ``cross`` = H - M as the
    solver returns it (:class:`pikrig.predictors.KrigingWeights`): the
    matrix :func:`var_ck` and :func:`var_lk` return, and for ordinary
    Kriging the realized :func:`pikrig.predictors.mse_objective` on its
    diagonal.

    Only the diagonal ``block`` x ``block`` blocks over consecutive
    ``atoms`` (the columns of ``alpha`` and ``cross``) are formed, one
    :func:`pikrig.design.cov_pairs` call per upper-triangle position, so
    K* itself is never built.  Returns the diagonal, clamped at 0 as in
    :class:`PredictiveUQ`, and the symmetrized blocks, shape
    (len(atoms) // block, block, block).
    """
    n, q = alpha.shape
    nb = q // block
    Kstar = np.empty((nb, block, block))
    for i in range(block):
        for j in range(i, block):
            Kstar[:, i, j] = Kstar[:, j, i] = design.cov_pairs(
                k, atoms[i:q:block], atoms[j:q:block]
            )
    AtR = np.einsum(
        "iga,igb->gab", alpha.reshape(n, nb, block), cross.reshape(n, nb, block)
    )
    V = Kstar - AtR
    V = 0.5 * (V + V.transpose(0, 2, 1))
    variance, _ = _clamp(np.diagonal(V, axis1=1, axis2=2).ravel())
    return variance, V


def quadform_moments(mean2, cov2):
    """First two moments of ||v||^2 for v ~ Normal(mean2, cov2).

    mean = mu^T mu + tr(Sigma); variance = 2 tr(Sigma^2) + 4 mu^T Sigma mu.
    With Sigma = I these are the chi-square moments (2 dof): central
    (mu=0) mean 2 / variance 4, noncentrality ||mu||^2 adds itself to the
    mean and 4||mu||^2 to the variance.  Stacked means (..., d) with
    covariances (..., d, d) give arrays of moments, one per point; each
    covariance is checked for symmetry and PSD against its own scale.
    """
    mu = np.asarray(mean2, dtype=float)
    S = np.asarray(cov2, dtype=float)
    if mu.ndim == 0 or S.shape != mu.shape + mu.shape[-1:]:
        raise ValueError(f"covariance shape {S.shape} does not match mean shape {mu.shape}")
    scale = np.maximum(1.0, np.max(np.abs(S), axis=(-2, -1)))
    St = np.swapaxes(S, -2, -1)
    if np.any(np.max(np.abs(S - St), axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("covariance must be symmetric")
    S = 0.5 * (S + St)
    wmin = np.linalg.eigvalsh(S)[..., 0]
    if np.any(wmin < -1e-10 * scale):
        raise ValueError(f"covariance is not PSD (min eigenvalue {np.min(wmin):.3e})")
    # stacked matmul reduces each point as np.dot does, bit for bit
    row, col = mu[..., None, :], mu[..., None]
    mean = (row @ col)[..., 0, 0] + np.trace(S, axis1=-2, axis2=-1)
    quad = (row @ (S @ col))[..., 0, 0]
    variance = np.maximum(2.0 * np.sum(S * S, axis=(-2, -1)) + 4.0 * quad, 0.0)
    if mu.ndim == 1:
        return QuadFormMoments(mean=float(mean), variance=float(variance))
    return QuadFormMoments(mean=mean, variance=variance)
