"""Kriging predictors: simple/ordinary, collocated co-Kriging, Lagrangian.

All three share the same quadratic objective (the trace form of the
prediction MSE, :func:`mse_objective`); they differ in what is known and
what is constrained:

* simple Kriging: centered field, weights alpha = K^-1 H;
* ordinary Kriging: prior mean mu, unbiasedness constraint C1
  (alpha^T mu = mu*), one Lagrange multiplier vector lambda;
* collocated co-Kriging: PDE rows U^T Z+ = v join the observation stack
  as secondary data, same formulas with the extended blocks K+, H+;
  plain (simple or ordinary) Kriging is co-Kriging with no rows, and is
  computed as such (:func:`co_kriging`);
* Lagrangian Kriging: the PDE rows constrain the predictions themselves
  (C2: U^T Z* = v*), with a second multiplier vector lambda'.

Both Lagrangian variants are the matching Kriging prediction (simple, or
ordinary for the ordinary variant) plus one projection onto the
constraints (:func:`_constraint_projector`): in closed form when no atom
sits in two equations (U^T U diagonal), else with the R of the pivoted
QR that checks the rank of U; the identity variant of
Schur-complement co-Kriging is that same projection, so their analytic
relationship is also a code relationship.

Matrix inverses in the formulas are realized as factorize-once,
multi-solve Cholesky with a diagonal nugget; factorization failures
escalate through a jitter ladder and the nugget actually used is
reported on the result.  Predictions come from one refined solve of the
data, a = K^-1 Z, as H^T a, variances from L^-1 H on the factor K = L L^T
(:mod:`pikrig.uq`); the N x q weights are formed only when read.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lapack, qr

from . import design

__all__ = [
    "JITTER_LADDER",
    "SolveConfig",
    "KrigingWeights",
    "NumericalError",
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


class NumericalError(Exception):
    """A numerical failure of a solve, which the CLI ends with exit code 3.
    Each subclass keeps its ValueError or RuntimeError base as well."""


class ConditioningError(NumericalError, RuntimeError):
    """Covariance factorization failed even after jitter escalation."""

    def __init__(self, message, nugget_last):
        super().__init__(message)
        self.nugget_last = nugget_last


class RankDeficiencyError(NumericalError, ValueError):
    """Constraint matrix U has linearly dependent equations."""

    def __init__(self, message, dependent):
        super().__init__(message)
        self.dependent = list(dependent)


class DegenerateMeanError(NumericalError, ValueError):
    """mu^T K^-1 mu is numerically singular (ordinary variants)."""


class DegenerateConstraintError(NumericalError, ValueError):
    """A scalar hypothesis of the constrained closed form fails
    (Z^T K^-1 Z = 0, or gamma2 - gamma3^2/gamma1 = 0)."""


class SingularSystemError(NumericalError, RuntimeError):
    """The reduced Schur system U^T K_{2|1} U + eta I is singular."""


# Nuggets tried in order, those above the requested one, when a
# factorization fails.
JITTER_LADDER = (1e-10, 1e-8, 1e-6, 1e-4)


@dataclass(frozen=True)
class SolveConfig:
    """Nugget policy for every inverted covariance matrix.

    ``nugget`` is added to the diagonal up front; if the factorization
    fails, the values of :data:`JITTER_LADDER` larger than ``nugget`` are
    tried in order.  The nugget that finally worked is recorded on the
    result (``nugget_used``).
    """

    nugget: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.nugget) and self.nugget >= 0):
            raise ValueError(f"nugget must be non-negative, got {self.nugget}")


class KrigingWeights:
    """Weights alpha (columns follow prediction atoms), multipliers, predictions.

    A solve holds its factored K+ (``solve``, see :func:`make_spd_solver`),
    its cross block ``H`` = H+ and one term (m, s, r, c) per multiplier,
    s = (K+)^-1 m and c = m^T s: (mu, w, lam, gamma1) for ordinary Kriging,
    (z~, b, U lam', denom) for the Lagrangian projection, where
    K alpha = H + sum m r^T.  ``whiten(cols)`` is V = L^-1 H+ over those
    columns on the factor K+ = L L^T, from which :mod:`pikrig.uq` reads the
    MMSE covariance K* - V^T V + sum c r r^T; ``alpha`` =
    (K+)^-1 H+ + sum s r^T is formed on its first read only.
    ``predictions`` is alpha^T applied to the stacked observation vector as
    assembled, computed without alpha.  ``lam`` are the unbiasedness
    multipliers (ordinary variants), ``lam2`` the differential-constraint
    multipliers (Lagrangian).
    """

    def __init__(self, solve, H, predictions, terms=(), lam=None, lam2=None, nugget_used=0.0):
        self.solve, self.H, self.predictions, self.terms = solve, H, predictions, terms
        self.lam, self.lam2, self.nugget_used = lam, lam2, nugget_used

    @cached_property
    def alpha(self):
        return sum((np.outer(s, r) for _, s, r, _ in self.terms), self.solve(self.H))

    def whiten(self, cols=slice(None)):
        """V = L^-1 H+[:, cols], one triangular solve on the factor of K+."""
        return lapack.dtrtrs(self.solve.L, self.H[:, cols], lower=1)[0]


def make_spd_solver(K, cfg):
    """Cholesky-factor ``K + eta I`` with escalating eta; return (solve, eta).

    ``solve(B)`` applies (K + eta I)^-1 to B; ``solve.L`` holds L, K + eta I
    = L L^T, in its lower triangle.  Raises ConditioningError if every
    nugget in the ladder fails.  Each nugget goes onto the diagonal of
    one C-ordered copy of K, factored by LAPACK in one reused Fortran buffer.
    """
    K = np.asarray(K, dtype=float)
    ladder = [cfg.nugget] + [e for e in JITTER_LADDER if e > cfg.nugget]
    rungs = ladder if np.isfinite(K).all() else ()  # a non-finite K fails every rung
    Keta = np.add(K, 0.0, order="C")  # as K + eta I: no -0.0, C order (BLAS path of K @ X)
    factor = np.empty_like(Keta, order="F")
    for eta in rungs:
        if eta:  # K + 0.0 has its diagonal already
            Keta.reshape(-1)[::len(K) + 1] = K.diagonal() + eta
        factor[...] = Keta
        if lapack.dpotrf(factor, lower=1, clean=0, overwrite_a=1)[1]:
            continue

        def potrs(B):  # as cho_solve: ValueError on a non-finite B
            B = np.asarray_chkfinite(B)
            return lapack.dpotrs(factor, B, lower=1)[0] if B.size else np.empty_like(B, dtype=float)

        def solve(B):
            # one step of iterative refinement; for the smooth kernels used
            # here cond(K) routinely reaches 1e12 and the raw backward error
            # would leak into constraint residuals
            X = potrs(B)
            return X + potrs(B - Keta @ X)

        solve.L = factor
        return solve, eta
    raise ConditioningError(
        f"covariance factorization failed at every nugget up to {ladder[-1]}; "
        "the matrix is too ill-conditioned -- consider a larger nugget "
        "(severely mixed derivative systems have needed up to 1e-4)",
        nugget_last=ladder[-1],
    )


def _constraint_projector(ops):
    """Rank-check the U of ``ops``; return its projection ``project``.

    ``project(base, v)`` returns the correction (U w, w) with
    w = (U^T U)^-1 (v - U^T base), so that U^T (base + U w) = v; ``base``
    and ``v`` may carry one column per right-hand side, and U^T base and
    U w are the system's products.  When no atom has a nonzero coefficient
    in two equations (as in every :func:`pikrig.design.encode_pointwise`
    system), U^T U is diagonal and ``ops.normal_diagonal``, read off the
    terms, holds it (unless a squared norm underflows): no QR,
    w = (v - U^T base) / ||u_j||^2.  Otherwise the R of one pivoted QR of
    the dense U, U P = Q R, solves the semi-normal equations, as
    R^T R = P^T U^T U P.  Either way |R_jj| (the column
    norms, sorted, in the diagonal case) at most 1e-10 |R11| raises
    RankDeficiencyError naming the dependent equations.
    """
    p, sq = ops.p, ops.normal_diagonal
    if sq is not None:
        piv = np.argsort(-sq, kind="stable")
        diag = np.sqrt(sq[piv])
        solve = lambda resid: (resid.T / sq).T
    else:
        r, piv = qr(ops.U, mode="r", pivoting=True)
        diag = np.abs(np.diag(r))
        def solve(resid):  # any trailing shape, as one matrix of columns
            cols = cho_solve((r[:p], False), resid[piv].reshape(p, -1))
            return cols.reshape(resid.shape)[np.argsort(piv)]
    # |R11| scales the tolerance as in LAPACK xGELSY: ||U||/sqrt(p) <= |R11| <= ||U||
    rank = int(np.sum(diag > 1e-10 * diag[:1]))  # p = 0: rank 0
    if rank < p:
        dependent = sorted(int(j) for j in piv[rank:])
        raise RankDeficiencyError(
            f"constraint matrix has rank {rank} < {p}; equations {dependent} "
            "are linear combinations of the others",
            dependent=dependent,
        )

    def project(base, v):
        w = solve(v - ops.tdot(base))
        return ops.dot(w), w

    return project


def simple_kriging(k, obs, pred, cfg=SolveConfig()):
    """Centered BLUP: alpha = K^-1 H, predictions = H^T K^-1 Z.

    Co-Kriging with no operator rows (:func:`co_kriging`).
    """
    if obs.mean is not None:
        raise ValueError("simple_kriging expects a centered model (obs.mean=None)")
    return co_kriging(k, obs, None, pred, cfg=cfg)


def ordinary_kriging(k, obs, pred, mu_star, cfg=SolveConfig()):
    """BLUP under the unbiasedness constraint alpha^T mu = mu*.

    Ordinary co-Kriging with no operator rows (:func:`co_kriging`).
    """
    if obs.mean is None:
        raise ValueError("ordinary_kriging needs obs.mean")
    return co_kriging(k, obs, None, pred, mu_star, cfg)


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
    colloc_mean = np.where(ops.colloc_points.M.sum(1) == 0, cbar, 0.0)
    return np.concatenate([mu, ops.tdot(colloc_mean)])


def assemble_co_kriging(k, obs, ops, pred):
    """Covariance blocks of the co-Kriging system: (K+, H+, stacked obs).

    The stacked observation vector puts the forcing values v in the
    secondary slots.  K+ and H+ come per pair of row blocks
    (:func:`pikrig.design._stacked_rows`), one row per (equation,
    location), summed into the equations that sit at several locations.
    """
    rows = design._stacked_rows(k, obs.points, ops)
    return design.gram(k, rows), design.gram(k, rows, pred), np.concatenate([obs.values, ops.rhs])


def solve_co_kriging(Kplus, Hplus, y, cfg, mu_plus=None, mu_star=None):
    """Factor K+ and apply the Prop.-2 formulas to preassembled blocks.

    With the plain gram K and cross block H this is simple (or, given
    ``mu_plus``/``mu_star``, ordinary) Kriging.
    """
    solve, eta = make_spd_solver(Kplus, cfg)
    return _kriging_weights(solve, eta, Hplus, y, mu_plus, mu_star)


def _mean_solve(solve, mu_plus):
    """(w, gamma1): w = (K+)^-1 mu+ and gamma1 = mu+^T w, checked non-degenerate."""
    w = solve(mu_plus)
    g1 = float(mu_plus @ w)
    if not np.isfinite(g1) or abs(g1) <= 1e-14 * max(1.0, float(mu_plus @ mu_plus)):
        raise DegenerateMeanError(f"mu^T (K+)^-1 mu = {g1} is numerically singular")
    return w, g1


def _kriging_weights(solve, eta, Hplus, y, mu_plus=None, mu_star=None, a=None, mean=None):
    """The Prop.-2 formulas on a factored K+ (``solve``, nugget ``eta``): the
    predictions are H+^T a, a = (K+)^-1 y, plus lam (w^T y) when ordinary,
    (w, gamma1) = :func:`_mean_solve` (``a``, ``mean`` if the caller has
    solved them), which is the term (mu+, w, lam, gamma1) of the weights.  A
    non-finite H+ raises ValueError, as its solve would.  ``mu_star`` needs
    one entry per column of ``Hplus``."""
    Hplus = np.asarray_chkfinite(Hplus)
    a = solve(y) if a is None else a
    predictions = Hplus.T @ a
    if mu_plus is None:
        return KrigingWeights(solve, Hplus, predictions, nugget_used=eta)
    mu_star = np.asarray(mu_star, dtype=float).ravel()
    if mu_star.size != Hplus.shape[1]:
        raise ValueError(f"mu_star has size {mu_star.size}, expected {Hplus.shape[1]}")
    w, g1 = mean or _mean_solve(solve, mu_plus)
    lam = (mu_star - Hplus.T @ w) / g1
    return KrigingWeights(solve, Hplus, predictions + lam * (w @ y), ((mu_plus, w, lam, g1),),
                          lam, nugget_used=eta)


def co_kriging(k, obs, ops, pred, mu_star=None, cfg=SolveConfig()):
    """Collocated co-Kriging: PDE rows as secondary observations (Prop.-2 form).

    Plain Kriging is co-Kriging with no rows: ``ops`` None or with p = 0
    stacks nothing onto the primary observations (its atoms are dropped),
    and the ordinary variant then uses ``obs.mean`` as it is; with rows
    the mean must be constant to extend onto the collocation atoms
    (:func:`_extended_mean`).
    """
    if ops is None or ops.p == 0:
        ops = design.OperatorSystem()
    if obs.mean is not None and mu_star is None:
        raise ValueError("ordinary co-Kriging needs mu_star")
    Kplus, Hplus, y = assemble_co_kriging(k, obs, ops, pred)
    if obs.mean is None:
        return solve_co_kriging(Kplus, Hplus, y, cfg)
    mu_plus = _extended_mean(obs, ops) if ops.p else obs.mean
    return solve_co_kriging(Kplus, Hplus, y, cfg, mu_plus=mu_plus, mu_star=mu_star)


def co_kriging_schur(k, obs, ops_at_predictions, cfg=SolveConfig(), conditional_cov="schur"):
    """Simplified centered co-Kriging with collocation = prediction atoms.

    Z*_CK = K_{2|1} U (U^T K_{2|1} U)^-1 (v* - U^T H^T K^-1 Z) + H^T K^-1 Z
    with K_{2|1} = K22 - H^T K^-1 H.  ``conditional_cov="identity"``
    replaces K_{2|1} by the identity (and drops the regularizer), which is
    exactly the simple Lagrangian predictor: the same base H^T (K^-1 Z)
    and the same constraint projection.
    """
    if obs.mean is not None:
        raise ValueError("co_kriging_schur expects a centered model")
    if conditional_cov not in ("schur", "identity"):
        raise ValueError(f"unknown conditional_cov {conditional_cov!r}")
    ops = ops_at_predictions
    K, H = assemble_lagrangian(k, obs, ops)
    kriging = _kriging_weights(*make_spd_solver(K, cfg), H, obs.values)
    base = kriging.predictions
    if conditional_cov == "identity":
        return base + _constraint_projector(ops)(base, ops.rhs)[0]
    V = kriging.whiten()  # K_{2|1} = K22 - V^T V, symmetric
    K2g1U = ops.tdot(design.gram(k, ops.colloc_points) - V.T @ V).T
    try:
        factor = cho_factor(ops.tdot(K2g1U) + kriging.nugget_used * np.eye(ops.p), lower=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystemError(f"reduced constraint system is singular: {exc}") from exc
    return base + K2g1U @ cho_solve(factor, ops.rhs - ops.tdot(base))


def assemble_lagrangian(k, obs, ops_at_predictions):
    """Covariance blocks of the Lagrangian system (K and H only -- no K22)."""
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, ops_at_predictions.colloc_points)
    return K, H


def _gamma2(Z, a):
    """Z^T K^-1 Z from a = K^-1 Z, which the Lagrangian closed form needs non-zero."""
    g2 = float(Z @ a)
    if abs(g2) <= 1e-14 * max(1.0, float(Z @ Z)):
        raise DegenerateConstraintError(f"Z^T K^-1 Z = {g2} is zero; the Lagrangian closed form "
                                        "assumes it non-zero")
    return g2


def solve_lagrangian(K, H, obs, ops_at_predictions, cfg, mu_star=None):
    """Factor K; the Prop.-3 predictor is Kriging plus one constraint projection.

    A centered ``obs`` gives the simple variant, ``obs.mean`` with
    ``mu_star`` the ordinary one; the matching Kriging step (alpha_K,
    lambda_K, its predictions H^T a from a = K^-1 Z) comes from
    the same factorization and solves of Z and mu, and is returned as it
    is when there are no equations.  Otherwise, with
    z~ = Z - (mu^T K^-1 Z / mu^T K^-1 mu) mu (z~ = Z when centered),
    b = K^-1 z~ and denom = z~^T b (gamma2 = Z^T K^-1 Z, or
    gamma2 - gamma3^2/gamma1 with gamma1 = mu^T K^-1 mu,
    gamma3 = mu^T K^-1 Z): predictions = Kriging predictions + U w, with
    U w, w = project(Kriging predictions, v*) (:func:`_constraint_projector`),
    lambda' = w / denom, the weights gain the term (z~, b, U lambda', denom)
    (alpha = alpha_K + b (U lambda')^T) and lambda = lambda_K -
    (gamma3/gamma1) U lambda'.  The MMSE variance is the Kriging step's
    plus (U w)^2 / denom: the cross terms cancel.
    """
    ops, mu, Z = ops_at_predictions, obs.mean, obs.values
    if mu is not None and mu_star is None:
        raise ValueError("ordinary Lagrangian Kriging needs mu_star")
    project = _constraint_projector(ops)
    solve, eta = make_spd_solver(K, cfg)
    a = solve(Z)
    mean = None if mu is None else _mean_solve(solve, mu)
    kriging = _kriging_weights(solve, eta, H, Z, mu, mu_star, a, mean)
    if ops.p == 0:
        return kriging
    g2 = _gamma2(Z, a)
    zt, b, denom = Z, a, g2
    if mu is not None:
        (Kimu, g1), g3 = mean, float(mu @ a)
        denom = g2 - g3 ** 2 / g1
        if abs(denom) <= 1e-12 * abs(g2):
            raise DegenerateConstraintError(
                f"gamma2 - gamma3^2/gamma1 = {denom} is degenerate "
                f"(gamma1={g1}, gamma2={g2}, gamma3={g3})"
            )
        zt, b = Z - (g3 / g1) * mu, a - (g3 / g1) * Kimu
    Uw, w = project(kriging.predictions, ops.rhs)
    lam2 = w / denom
    Ulam2 = ops.dot(lam2)
    lam = None if mu is None else kriging.lam - (g3 / g1) * Ulam2
    return KrigingWeights(solve, kriging.H, kriging.predictions + Uw,
                          kriging.terms + ((zt, b, Ulam2, denom),), lam, lam2, eta)


def lagrangian_kriging(k, obs, ops_at_predictions, mu_star=None, cfg=SolveConfig()):
    """BLUP constrained by U^T Z* = v* at the prediction atoms (Prop.-3 form).

    Prediction atoms are exactly ``ops_at_predictions.colloc_points``.  A
    centered ``obs`` gives the simple variant; with ``obs.mean`` and
    ``mu_star`` the full multiplier pair (lambda, lambda') is computed.
    The projection is Euclidean in the atoms, so coordinate scaling leaves the
    predictions invariant only where each row's terms share one order (not f + f'' = 0).
    """
    K, H = assemble_lagrangian(k, obs, ops_at_predictions)
    return solve_lagrangian(K, H, obs, ops_at_predictions, cfg, mu_star)


def mse_objective(alpha, K, H, Kstar):
    """Prediction MSE in trace form: Tr(A^T K A) - 2 Tr(A^T H) + Tr(K*)."""
    alpha = np.asarray(alpha, dtype=float)
    return float(
        np.sum((K @ alpha) * alpha) - 2.0 * np.sum(alpha * H) + np.trace(Kstar)
    )
