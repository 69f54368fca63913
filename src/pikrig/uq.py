"""Predictive uncertainty: MMSE covariances and squared-magnitude moments.

The minimal-MSE covariance of a linear predictor alpha^T Z is
K* - alpha^T H - H^T alpha + alpha^T K alpha.  At the optimal weights of
every predictor here, K alpha = H + sum m r^T over the solve's multiplier
terms (none for simple and co-Kriging, mu lam^T for ordinary Kriging,
z~ (U lam')^T for Lagrangian Kriging), and its symmetric part is
K* - V^T V + sum c r r^T, V = L^-1 H on the solve's factor K = L L^T
(GPML, Alg. 2.1), with c = gamma1 (ordinary) and denom (Lagrangian).
Every covariance here is read so, by one core (:func:`_mmse`) that never
forms alpha: the runners' diagonal blocks (:func:`mmse_variance`) and the
full matrix of :func:`var_ck` and :func:`var_lk` alike.  These are upper
bounds on the conditional variance once PDE information is conditioned
on, not exact posteriors, and the +-2 sigma intervals here inherit that
conservatism.

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
    """MMSE variance, full (exactly symmetric) covariance, and +-2 sigma
    intervals; ``raw_min`` is the most negative pre-clamp diagonal entry."""

    mean: np.ndarray
    variance: np.ndarray
    covariance: Optional[np.ndarray]
    interval_lo: np.ndarray
    interval_hi: np.ndarray
    raw_min: float = 0.0
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


def _mmse(w, S, cols=slice(None)):
    """The MMSE covariance of the solve ``w`` at its columns ``cols``, in
    blocks over consecutive columns: K* (the blocks ``S``, updated in place)
    minus V^T V, plus c r r^T per term (m, s, r, c) of ``w``, symmetrized."""
    nb, block, _ = S.shape
    V = w.whiten(cols).reshape(len(w.H), nb, block)
    S -= np.einsum("iga,igb->gab", V, V)
    for _, _, r, c in w.terms:
        r = r[cols].reshape(nb, block, 1)
        S += c * (r * r.transpose(0, 2, 1))
    return 0.5 * (S + S.transpose(0, 2, 1))


def _full_covariance(k, atoms, w):
    """PredictiveUQ of a solve over ``atoms``: its MMSE covariance as one block."""
    V = _mmse(w, design.gram(k, atoms)[None])[0]
    variance, raw_min = _clamp(np.diag(V).copy())
    mean, half = w.predictions, 2.0 * np.sqrt(variance)
    return PredictiveUQ(mean, variance, V, mean - half, mean + half, raw_min, float(w.nugget_used))


def var_ck(k, obs, ops, pred, cfg=SolveConfig()):
    """Co-Kriging MMSE covariance K* - (H+)^T (K+)^-1 H+ with intervals.

    Centered model; read off the factor of K+ as K* - V^T V, V = L^-1 H+.
    With an empty operator system this is the plain simple-Kriging
    variance.  The diagonal equals the realized per-prediction
    :func:`pikrig.predictors.mse_objective` at the optimum.
    """
    if obs.mean is not None:
        raise ValueError("var_ck expects a centered model")
    pred = design.Atoms.of(pred)
    return _full_covariance(k, pred, _pred.co_kriging(k, obs, ops, pred, cfg=cfg))


def var_lk(k, obs, ops_at_predictions, cfg=SolveConfig()):
    """Lagrangian-Kriging MMSE covariance with intervals, symmetrized.

    Centered model; the atoms are ``ops_at_predictions.colloc_points``.
    With W = Z lam'^T U^T the covariance K* - (H+W)^T K^-1 (H-W) is not
    symmetric as printed; this is its symmetric part (the antisymmetric
    part is zero on the diagonal, so the variances are those of the
    printed form), K* - V^T V + denom (U lam')(U lam')^T.  The solve is
    :func:`pikrig.predictors.lagrangian_kriging`, rank check included.
    """
    if obs.mean is not None:
        raise ValueError("var_lk expects a centered model")
    w = _pred.lagrangian_kriging(k, obs, ops_at_predictions, cfg=cfg)
    return _full_covariance(k, ops_at_predictions.colloc_points, w)


def mmse_variance(k, atoms, w, cols=slice(None), block=1):
    """MMSE variance of the solve ``w`` (a :class:`pikrig.predictors.KrigingWeights`)
    at its columns ``cols``, whose atoms are ``atoms``, read off its factor.

    Only the diagonal ``block`` x ``block`` blocks over consecutive
    ``atoms`` of the covariance that :func:`var_ck` and :func:`var_lk`
    return are formed (:func:`_mmse`), K* from one
    :func:`pikrig.design.cov_pairs` call per upper-triangle position.
    Returns the diagonal, clamped at 0 as in :class:`PredictiveUQ`, and the
    symmetric blocks, shape (len(atoms) // block, block, block).
    """
    q = len(atoms)
    S = np.empty((q // block, block, block))
    for i in range(block):
        for j in range(i, block):
            S[:, i, j] = S[:, j, i] = design.cov_pairs(k, atoms[i:q:block], atoms[j:q:block])
    S = _mmse(w, S, cols)
    variance, _ = _clamp(np.diagonal(S, axis1=1, axis2=2).ravel())
    return variance, S


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
