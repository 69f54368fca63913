"""Predictive uncertainty: MMSE covariances and squared-magnitude moments.

The minimal-MSE covariance of a linear predictor alpha^T Z is
K* - alpha^T H - H^T alpha + alpha^T K alpha; at the optimum it collapses
to the familiar K* - H^T K^-1 H shape (with the extended blocks for
co-Kriging, and an extra constraint term for Lagrangian Kriging).  These
are upper bounds on the conditional variance once PDE information is
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
from .predictors import SolveConfig, _schur_update, make_spd_solver
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
    """MMSE variance, optional full covariance, and +-2 sigma intervals.

    ``raw_min`` is the most negative pre-clamp diagonal entry.  For the
    Lagrangian form, ``symmetry_defect`` is the max-norm asymmetry of the
    covariance expression as printed, and ``alt_variance`` the diagonal of
    the symmetric-product variant (H+W)^T K^-1 (H+W), kept side by side.
    """

    mean: np.ndarray
    variance: np.ndarray
    covariance: Optional[np.ndarray]
    interval_lo: np.ndarray
    interval_hi: np.ndarray
    raw_min: float = 0.0
    symmetry_defect: float = 0.0
    alt_variance: Optional[np.ndarray] = None
    nugget_used: float = 0.0


@dataclass(frozen=True)
class QuadFormMoments:
    """Mean and variance of ||v||^2 for v ~ Normal(mu, Sigma)."""

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


def _finish(mean, V, defect=0.0, alt=None, nugget=0.0):
    variance, raw_min = _clamp(np.diag(V).copy())
    half = 2.0 * np.sqrt(variance)
    return PredictiveUQ(
        mean=np.asarray(mean, dtype=float),
        variance=variance,
        covariance=V,
        interval_lo=mean - half,
        interval_hi=mean + half,
        raw_min=raw_min,
        symmetry_defect=float(defect),
        alt_variance=alt,
        nugget_used=float(nugget),
    )


def var_ck(k, obs, ops, pred, cfg=None):
    """Co-Kriging MMSE covariance K* - (H+)^T (K+)^-1 H+ with intervals.

    Centered model.  With an empty operator system this is the plain
    simple-Kriging variance.  The diagonal equals the realized
    per-prediction :func:`pikrig.predictors.mse_objective` at the optimum.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    if obs.mean is not None:
        raise ValueError("var_ck expects a centered model")
    pred = list(pred)
    if ops is None:
        ops = design.OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    Kplus, Hplus, y = _pred.assemble_co_kriging(k, obs, ops, pred)
    Kstar = design.gram(k, pred)
    solve, eta = make_spd_solver(Kplus, cfg)
    KiH = solve(Hplus)
    V = Kstar - Hplus.T @ KiH
    V = 0.5 * (V + V.T)
    mean = KiH.T @ y
    return _finish(mean, V, nugget=eta)


def var_lk(k, obs, ops_at_predictions, cfg=None):
    """Lagrangian-Kriging MMSE covariance, computed as printed and symmetrized.

    The expression K* - (H+W)^T K^-1 (H-W) with W = Z lam'^T U^T is
    evaluated literally; its antisymmetric part (which has zero diagonal,
    so the diagonal is unaffected) is removed by (V+V^T)/2 and reported as
    ``symmetry_defect``.  The fully symmetric product variant
    K* - (H+W)^T K^-1 (H+W) is returned alongside in ``alt_variance``.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    if obs.mean is not None:
        raise ValueError("var_lk expects a centered model")
    ops = ops_at_predictions
    atoms = list(ops.colloc_points)
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, atoms)
    Kstar = design.gram(k, atoms)
    solve, eta = make_spd_solver(K, cfg)
    Z = obs.values
    KiZ = solve(Z)
    base = H.T @ KiZ
    if ops.p == 0:
        KiH = solve(H)
        V = 0.5 * ((Kstar - H.T @ KiH) + (Kstar - H.T @ KiH).T)
        return _finish(base, V, nugget=eta)
    g2 = float(Z @ KiZ)
    if abs(g2) <= 1e-14 * max(1.0, float(Z @ Z)):
        raise _pred.DegenerateConstraintError(
            f"Z^T K^-1 Z = {g2} is zero; the Lagrangian closed form needs it non-zero"
        )
    mean, w = _schur_update(base, None, ops.U, ops.rhs, 0.0)
    W = np.outer(Z, ops.U @ (w / g2))
    Vprinted = Kstar - (H + W).T @ solve(H - W)
    defect = float(np.max(np.abs(Vprinted - Vprinted.T)))
    V = 0.5 * (Vprinted + Vprinted.T)
    Valt = Kstar - (H + W).T @ solve(H + W)
    alt = np.clip(np.diag(Valt), 0.0, None)
    return _finish(mean, V, defect=defect, alt=alt, nugget=eta)


def mmse_variance(k, atoms, alpha, H, M=None, block=1):
    """MMSE variance of optimal weights, read off the prediction solve.

    At the optimum K alpha = H + M, where the multiplier term M is 0 for
    simple and co-Kriging, mu lam^T for ordinary Kriging and
    Z (U lam')^T for Lagrangian Kriging.  The covariance is then
    K* - alpha^T (H - M): the matrix :func:`var_ck` returns, the printed
    form of :func:`var_lk`, and for ordinary Kriging the realized
    :func:`pikrig.predictors.mse_objective` on its diagonal.

    Only the diagonal ``block`` x ``block`` blocks over consecutive
    ``atoms`` (the columns of ``alpha`` and ``H``) are formed, each from a
    small gram of K*, so K* itself is never built.  Returns the diagonal,
    clamped at 0 as in :class:`PredictiveUQ`, and the symmetrized blocks,
    shape (len(atoms) // block, block, block).
    """
    n, q = alpha.shape
    nb = q // block
    R = H if M is None else H - M
    Kstar = np.array(
        [design.gram(k, atoms[i : i + block]) for i in range(0, q, block)]
    ).reshape(nb, block, block)
    cross = np.einsum(
        "iga,igb->gab", alpha.reshape(n, nb, block), R.reshape(n, nb, block)
    )
    V = Kstar - cross
    V = 0.5 * (V + V.transpose(0, 2, 1))
    variance, _ = _clamp(np.diagonal(V, axis1=1, axis2=2).ravel())
    return variance, V


def quadform_moments(mean2, cov2):
    """First two moments of ||v||^2 for v ~ Normal(mean2, cov2).

    mean = mu^T mu + tr(Sigma); variance = 2 tr(Sigma^2) + 4 mu^T Sigma mu.
    With Sigma = I these are the chi-square moments (2 dof): central
    (mu=0) mean 2 / variance 4, noncentrality ||mu||^2 adds itself to the
    mean and 4||mu||^2 to the variance.
    """
    mu = np.asarray(mean2, dtype=float).ravel()
    S = np.asarray(cov2, dtype=float)
    if S.shape != (mu.size, mu.size):
        raise ValueError(f"covariance shape {S.shape} does not match mean size {mu.size}")
    scale = max(1.0, float(np.max(np.abs(S))))
    if np.max(np.abs(S - S.T)) > 1e-12 * scale:
        raise ValueError("covariance must be symmetric")
    S = 0.5 * (S + S.T)
    w = np.linalg.eigvalsh(S)
    if w.min() < -1e-10 * scale:
        raise ValueError(f"covariance is not PSD (min eigenvalue {w.min():.3e})")
    mean = float(mu @ mu + np.trace(S))
    variance = float(2.0 * np.sum(S * S) + 4.0 * mu @ (S @ mu))
    return QuadFormMoments(mean=mean, variance=max(variance, 0.0))
