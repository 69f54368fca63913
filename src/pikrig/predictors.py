"""Kriging predictors: simple/ordinary, collocated co-Kriging, Lagrangian.

All three share the same quadratic objective (the trace form of the
prediction MSE, :func:`mse_objective`); they differ in what is known and
what is constrained:

* simple Kriging: centered field, weights alpha = K^-1 H;
* ordinary Kriging: prior mean mu, unbiasedness constraint C1
  (alpha^T mu = mu*), one Lagrange multiplier vector lambda;
* collocated co-Kriging: PDE rows U^T Z+ = v join the observation stack
  as secondary data, same formulas with the extended blocks K+, H+;
* Lagrangian Kriging: the PDE rows constrain the predictions themselves
  (C2: U^T Z* = v*), with a second multiplier vector lambda'.

Schur-complement co-Kriging and both Lagrangian variants are one Schur
step (:func:`_schur_update`) applied to a Kriging prediction: the simple
one, or for the ordinary Lagrangian variant the ordinary one, so their
analytic relationship is also a code relationship.

Matrix inverses in the formulas are realized as factorize-once,
multi-solve Cholesky with a diagonal nugget; factorization failures
escalate through a jitter ladder and the nugget actually used is
reported on the result.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr

from . import design

__all__ = [
    "SolveConfig",
    "KrigingWeights",
    "ConditioningError",
    "RankDeficiencyError",
    "DegenerateMeanError",
    "DegenerateConstraintError",
    "SingularSystemError",
    "make_spd_solver",
    "simple_kriging",
    "ordinary_kriging",
    "co_kriging",
    "co_kriging_schur",
    "lagrangian_kriging",
    "assemble_co_kriging",
    "solve_co_kriging",
    "assemble_lagrangian",
    "solve_lagrangian",
    "mse_objective",
]


class ConditioningError(RuntimeError):
    """Covariance factorization failed even after jitter escalation."""

    def __init__(self, message, nugget_last):
        super().__init__(message)
        self.nugget_last = nugget_last


class RankDeficiencyError(ValueError):
    """Constraint matrix U has linearly dependent equations."""

    def __init__(self, message, dependent):
        super().__init__(message)
        self.dependent = list(dependent)


class DegenerateMeanError(ValueError):
    """mu^T K^-1 mu is numerically singular (ordinary variants)."""


class DegenerateConstraintError(ValueError):
    """A scalar hypothesis of the constrained closed form fails
    (Z^T K^-1 Z = 0, or gamma2 - gamma3^2/gamma1 = 0)."""


class SingularSystemError(RuntimeError):
    """The reduced constraint system (U^T K_{2|1} U or U^T U) is singular."""


@dataclass(frozen=True)
class SolveConfig:
    """Nugget policy for every inverted covariance matrix.

    ``nugget`` is added to the diagonal up front; if the factorization
    fails, the values of ``jitter_escalation`` larger than ``nugget`` are
    tried in order.  The nugget that finally worked is recorded on the
    result (``nugget_used``).
    """

    nugget: float = 0.0
    jitter_escalation: tuple = (1e-10, 1e-8, 1e-6, 1e-4)

    def __post_init__(self):
        if not (np.isfinite(self.nugget) and self.nugget >= 0):
            raise ValueError(f"nugget must be non-negative, got {self.nugget}")
        esc = tuple(float(e) for e in self.jitter_escalation)
        if any(b <= a for a, b in zip(esc, esc[1:])):
            raise ValueError(f"jitter escalation must be strictly increasing: {esc}")
        object.__setattr__(self, "jitter_escalation", esc)


@dataclass
class KrigingWeights:
    """Weights alpha (columns follow prediction atoms), multipliers, predictions.

    ``lam`` are the unbiasedness multipliers (ordinary variants), ``lam2``
    the differential-constraint multipliers (Lagrangian).  ``predictions``
    is alpha^T applied to the stacked observation vector as assembled.
    """

    alpha: np.ndarray
    predictions: np.ndarray
    lam: Optional[np.ndarray] = None
    lam2: Optional[np.ndarray] = None
    nugget_used: float = 0.0


def make_spd_solver(K, cfg):
    """Cholesky-factor ``K + eta I`` with escalating eta; return (solve, eta).

    ``solve(B)`` applies (K + eta I)^-1 to B.  Raises ConditioningError if
    every nugget in the ladder fails.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    ladder = [cfg.nugget] + [e for e in cfg.jitter_escalation if e > cfg.nugget]
    last = None
    for eta in ladder:
        last = eta
        Keta = K + eta * np.eye(n)
        try:
            factor = cho_factor(Keta, lower=True)
        except (np.linalg.LinAlgError, ValueError):
            continue

        def solve(B, _factor=factor, _K=Keta):
            # one step of iterative refinement; for the smooth kernels used
            # here cond(K) routinely reaches 1e12 and the raw backward error
            # would leak into constraint residuals
            X = cho_solve(_factor, B)
            R = B - _K @ X
            return X + cho_solve(_factor, R)

        return solve, eta
    raise ConditioningError(
        f"covariance factorization failed at every nugget up to {last}; "
        "the matrix is too ill-conditioned -- consider a larger nugget "
        "(severely mixed derivative systems have needed up to 1e-4)",
        nugget_last=last,
    )


def _check_constraint_rank(U):
    """rank(U) must equal the number of equations; name the dependent ones."""
    c, p = U.shape
    if p == 0:
        return
    r, piv = qr(U, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    # |R11| scales the tolerance as in LAPACK xGELSY: ||U||/sqrt(p) <= |R11| <= ||U||
    rank = int(np.sum(diag > 1e-10 * diag[0]))
    if rank < p:
        dependent = sorted(int(j) for j in piv[rank:])
        raise RankDeficiencyError(
            f"constraint matrix has rank {rank} < {p}; equations {dependent} "
            "are linear combinations of the others",
            dependent=dependent,
        )


def _schur_update(base, K2g1, U, vstar, reg):
    """base + K2g1 U w with w = (U^T K2g1 U + reg I)^-1 (vstar - U^T base).

    The single closed-form step shared by Schur-form co-Kriging
    (K2g1 = K22 - H^T K^-1 H, reg = nugget) and the Lagrangian predictors
    (K2g1 = identity, reg = 0: constraints are exact).  The identity is
    passed as ``K2g1=None`` and never built.  Returns (update, w); the
    Lagrangian multipliers lambda' are w scaled by a scalar.
    """
    p = U.shape[1]
    if p == 0:
        return base.copy(), np.zeros(0)
    # the copy keeps U^T U a general matrix product, bit for bit what an
    # explicit identity gives; numpy sends U.T @ U to a symmetric rank-k
    # update, which rounds differently
    KU = U.copy() if K2g1 is None else K2g1 @ U
    M = U.T @ KU + reg * np.eye(p)
    resid = vstar - U.T @ base
    try:
        w = cho_solve(cho_factor(M, lower=True), resid)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystemError(
            f"reduced constraint system is singular: {exc}"
        ) from exc
    return base + (U @ w if K2g1 is None else K2g1 @ (U @ w)), w


def simple_kriging(k, obs, pred, cfg=None):
    """Centered BLUP: alpha = K^-1 H, predictions = H^T K^-1 Z."""
    cfg = cfg if cfg is not None else SolveConfig()
    if obs.mean is not None:
        raise ValueError("simple_kriging expects a centered model (obs.mean=None)")
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, list(pred))
    return solve_co_kriging(K, H, obs.values, cfg)


def ordinary_kriging(k, obs, pred, mu_star, cfg=None):
    """BLUP under the unbiasedness constraint alpha^T mu = mu*."""
    cfg = cfg if cfg is not None else SolveConfig()
    if obs.mean is None:
        raise ValueError("ordinary_kriging needs obs.mean")
    mu_star = np.asarray(mu_star, dtype=float).ravel()
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, list(pred))
    if mu_star.size != H.shape[1]:
        raise ValueError(f"mu_star has size {mu_star.size}, expected {H.shape[1]}")
    return solve_co_kriging(K, H, obs.values, cfg, mu_plus=obs.mean, mu_star=mu_star)


def _extended_mean(obs, ops):
    """Stacked prior mean [mu; U^T mu+] for ordinary co-Kriging.

    The mean basis extends to derivative atoms as zero (the derivative of a
    constant); order-0 collocation atoms inherit the constant observation
    mean, which is therefore required to be constant.
    """
    mu = obs.mean
    if np.ptp(mu) > 1e-12 * max(1.0, np.max(np.abs(mu))):
        raise DegenerateMeanError(
            "ordinary co-Kriging requires a constant observation mean to "
            "extend it onto collocation atoms"
        )
    cbar = float(mu[0])
    colloc_mean = np.array(
        [cbar if a.order == 0 else 0.0 for a in ops.colloc_points]
    )
    return np.concatenate([mu, ops.U.T @ colloc_mean])


def assemble_co_kriging(k, obs, ops, pred):
    """Covariance blocks of the co-Kriging system: (K+, H+, stacked obs).

    The stacked observation vector puts the forcing values v in the
    secondary slots.
    """
    atoms = list(obs.points) + list(ops.colloc_points)
    n = obs.n
    U = ops.U
    Kfull = design.gram(k, atoms)
    Hfull = design.gram(k, atoms, list(pred))
    K12U = Kfull[:n, n:] @ U
    Kplus = np.block([[Kfull[:n, :n], K12U], [K12U.T, U.T @ Kfull[n:, n:] @ U]])
    Hplus = np.vstack([Hfull[:n], U.T @ Hfull[n:]])
    y = np.concatenate([obs.values, ops.rhs])
    return Kplus, Hplus, y


def solve_co_kriging(Kplus, Hplus, y, cfg, mu_plus=None, mu_star=None):
    """Factor K+ and apply the Prop.-2 formulas to preassembled blocks.

    With the plain gram K and cross block H this is simple (or, given
    ``mu_plus``/``mu_star``, ordinary) Kriging.
    """
    solve, eta = make_spd_solver(Kplus, cfg)
    if mu_plus is None:
        alpha = solve(Hplus)
        lam = None
    else:
        w = solve(mu_plus)
        g1 = float(mu_plus @ w)
        if not np.isfinite(g1) or abs(g1) <= 1e-14 * max(1.0, float(mu_plus @ mu_plus)):
            raise DegenerateMeanError(f"mu^T (K+)^-1 mu = {g1} is numerically singular")
        lam = (np.asarray(mu_star, dtype=float).ravel() - Hplus.T @ w) / g1
        alpha = solve(Hplus) + np.outer(w, lam)
    predictions = alpha.T @ y
    return KrigingWeights(
        alpha=alpha, predictions=predictions, lam=lam, nugget_used=eta
    )


def co_kriging(k, obs, ops, pred, mu_star=None, cfg=None):
    """Collocated co-Kriging: PDE rows as secondary observations (Prop.-2 form).

    With an empty operator system this reduces to plain simple/ordinary
    Kriging on the primary observations.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    pred = list(pred)
    if ops is None or ops.p == 0:
        if obs.mean is None:
            return simple_kriging(k, obs, pred, cfg)
        return ordinary_kriging(k, obs, pred, mu_star, cfg)
    Kplus, Hplus, y = assemble_co_kriging(k, obs, ops, pred)
    if obs.mean is None:
        return solve_co_kriging(Kplus, Hplus, y, cfg)
    if mu_star is None:
        raise ValueError("ordinary co-Kriging needs mu_star")
    mu_plus = _extended_mean(obs, ops)
    return solve_co_kriging(Kplus, Hplus, y, cfg, mu_plus=mu_plus, mu_star=mu_star)


def co_kriging_schur(k, obs, ops_at_predictions, cfg=None, conditional_cov="schur"):
    """Simplified centered co-Kriging with collocation = prediction atoms.

    Z*_CK = K_{2|1} U (U^T K_{2|1} U)^-1 (v* - U^T H^T K^-1 Z) + H^T K^-1 Z
    with K_{2|1} = K22 - H^T K^-1 H.  ``conditional_cov="identity"``
    replaces K_{2|1} by the identity (and drops the regularizer), which is
    exactly the simple Lagrangian predictor; the substitution shares all
    code with the default path.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    if obs.mean is not None:
        raise ValueError("co_kriging_schur expects a centered model")
    ops = ops_at_predictions
    atoms = list(ops.colloc_points)
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, atoms)
    solve, eta = make_spd_solver(K, cfg)
    base = H.T @ solve(obs.values)
    if conditional_cov == "identity":
        K2g1 = None
        reg = 0.0
    elif conditional_cov == "schur":
        K22 = design.gram(k, atoms)
        K2g1 = K22 - H.T @ solve(H)
        reg = eta
    else:
        raise ValueError(f"unknown conditional_cov {conditional_cov!r}")
    return _schur_update(base, K2g1, U=ops.U, vstar=ops.rhs, reg=reg)[0]


def assemble_lagrangian(k, obs, ops_at_predictions):
    """Covariance blocks of the Lagrangian system (K and H only -- no K22)."""
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, list(ops_at_predictions.colloc_points))
    return K, H


def solve_lagrangian(K, H, obs, ops_at_predictions, cfg, mu_star=None):
    """Factor K and apply the Prop.-3 closed form to preassembled blocks.

    A centered ``obs`` gives the simple variant, ``obs.mean`` with
    ``mu_star`` the ordinary one; both are the identity Schur step on that
    Kriging prediction.  With a = K^-1 Z, g1 = mu^T K^-1 mu, g2 = Z^T a,
    g3 = mu^T a, c1 = mu* - H^T K^-1 mu and w from :func:`_schur_update`:
    base = H^T a (+ (g3/g1) c1), lambda' = w / g2 (or w / (g2 - g3^2/g1)),
    lambda = (c1 - g3 U lambda') / g1 and
    alpha = K^-1 (H + mu lambda^T + Z (U lambda')^T).
    """
    ops = ops_at_predictions
    U = ops.U
    mu = obs.mean
    if mu is not None and mu_star is None:
        raise ValueError("ordinary Lagrangian Kriging needs mu_star")
    _check_constraint_rank(U)
    solve, eta = make_spd_solver(K, cfg)
    Z = obs.values
    a = solve(Z)
    lam = None
    if mu is not None:
        Kimu = solve(mu)
        g1 = float(mu @ Kimu)
        if not np.isfinite(g1) or abs(g1) <= 1e-14 * max(1.0, float(mu @ mu)):
            raise DegenerateMeanError(f"gamma1 = {g1} is numerically singular")
        c1 = np.asarray(mu_star, dtype=float).ravel() - H.T @ Kimu
    if ops.p == 0:
        alpha = solve(H)
        if mu is not None:
            lam = c1 / g1
            alpha = alpha + np.outer(Kimu, lam)
        return KrigingWeights(
            alpha=alpha, predictions=alpha.T @ Z, lam=lam, nugget_used=eta
        )
    g2 = float(Z @ a)
    if abs(g2) <= 1e-14 * max(1.0, float(Z @ Z)):
        raise DegenerateConstraintError(
            f"Z^T K^-1 Z = {g2} is zero; the Lagrangian closed form "
            "assumes it non-zero"
        )
    base = H.T @ a
    denom = g2
    if mu is not None:
        g3 = float(mu @ a)
        denom = g2 - g3 ** 2 / g1
        if abs(denom) <= 1e-12 * abs(g2):
            raise DegenerateConstraintError(
                f"gamma2 - gamma3^2/gamma1 = {denom} is degenerate "
                f"(gamma1={g1}, gamma2={g2}, gamma3={g3})"
            )
        base = base + (g3 / g1) * c1
    predictions, w = _schur_update(base, None, U, ops.rhs, 0.0)
    lam2 = w / denom
    Ulam2 = U @ lam2
    R = H
    if mu is not None:
        lam = (c1 - g3 * Ulam2) / g1
        R = H + np.outer(mu, lam)
    alpha = solve(R + np.outer(Z, Ulam2))
    return KrigingWeights(
        alpha=alpha, predictions=predictions, lam=lam, lam2=lam2, nugget_used=eta
    )


def lagrangian_kriging(k, obs, ops_at_predictions, mu_star=None, cfg=None):
    """BLUP constrained by U^T Z* = v* at the prediction atoms (Prop.-3 form).

    Prediction atoms are exactly ``ops_at_predictions.colloc_points``.  A
    centered ``obs`` gives the simple variant; with ``obs.mean`` and
    ``mu_star`` the full multiplier pair (lambda, lambda') is computed.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    K, H = assemble_lagrangian(k, obs, ops_at_predictions)
    return solve_lagrangian(K, H, obs, ops_at_predictions, cfg, mu_star)


def mse_objective(alpha, K, H, Kstar):
    """Prediction MSE in trace form: Tr(A^T K A) - 2 Tr(A^T H) + Tr(K*)."""
    alpha = np.asarray(alpha, dtype=float)
    return float(
        np.sum((K @ alpha) * alpha) - 2.0 * np.sum(alpha * H) + np.trace(Kstar)
    )
