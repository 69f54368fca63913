"""Independent reference implementations the fast paths are checked against.

Everything here is deliberately naive: covariance matrices filled one
entry per Python call, dense KKT systems assembled row by row and solved
with np.linalg.solve, leave-one-out loops that refit per fold, and MMSE
covariances built from the full K* as printed.  No code is shared with the
package's closed forms beyond the kernel's derivative polynomial
(``kernel._bracket``), the covariance assembly outside :func:`gram_loop`
and, for the MMSE covariances, the refined factorization
``make_spd_solver`` (dense solves would not reach its accuracy on the
ill-conditioned grams).  The Lagrangian leave-one-out loop refits each
fold with the package's full Lagrangian solve, the path its downdate
replaces.
"""

import math
from collections import namedtuple
from dataclasses import replace

import numpy as np

from pikrig import design
from pikrig import kernel as _kernel
from pikrig import predictors as _pred
from pikrig import uq as _uq


def deriv_scalar(k, x, x2, m, m2):
    """One mixed kernel derivative in scalar arithmetic, |r|^2 by np.dot."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    t = sum(m) + sum(m2)
    base = k.sigma2 * np.exp(
        -float(np.dot(x - x2, x - x2)) / (2.0 * k.theta ** 2)
    )
    if t == 0:
        return base
    h = (x - x2) / k.theta ** 2
    idx = []
    for c in range(k.dim):
        idx.extend([c] * (m[c] + m2[c]))
    sign = -1.0 if sum(m) % 2 else 1.0
    return sign * _kernel._bracket(idx, h, 1.0 / k.theta ** 2) * base


def find_duplicates_loop(points, tol=1e-12):
    """All duplicate pairs (i, j), i < j, by a double loop in row-major order."""
    dups = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            a, b = points[i], points[j]
            if a.m == b.m and max(abs(u - v) for u, v in zip(a.x, b.x)) <= tol:
                dups.append((i, j))
    return dups


def gram_loop(k, A, B=None):
    """Covariance matrix filled entry by entry, upper triangle mirrored if symmetric."""
    if B is None or B is A:
        n = len(A)
        G = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                G[i, j] = G[j, i] = deriv_scalar(k, A[i].x, A[j].x, A[i].m, A[j].m)
        return G
    G = np.empty((len(A), len(B)))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            G[i, j] = deriv_scalar(k, a.x, b.x, a.m, b.m)
    return G


def kkt_simple(K, H):
    """Unconstrained optimum alpha = K^-1 H by dense solve."""
    return np.linalg.solve(K, H)


def kkt_ordinary(K, H, mu, mu_star):
    """Per-column bordered KKT [[2K, mu], [mu^T, 0]] for the unbiased BLUP."""
    n, q = H.shape
    alpha = np.empty((n, q))
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = 2.0 * K
    A[:n, n] = mu
    A[n, :n] = mu
    for j in range(q):
        b = np.concatenate([2.0 * H[:, j], [float(mu_star[j])]])
        sol = np.linalg.solve(A, b)
        alpha[:, j] = sol[:n]
    return alpha


def kkt_lagrangian(K, H, Z, U, vstar, mu=None, mu_star=None):
    """Dense KKT for prediction-constrained weights, all columns coupled.

    Unknowns are vec(A) in column-major order plus one multiplier per
    differential equation (U columns) and, in the ordinary variant, one
    unbiasedness multiplier per prediction column.  Stationarity rows:
    2 K A[:, t] + lam_t mu + sum_j lam2_j U[t, j] Z = 2 H[:, t].
    """
    n, nat = H.shape
    p = U.shape[1]
    nv = n * nat
    extra = (nat if mu is not None else 0) + p
    A = np.zeros((nv + extra, nv + extra))
    b = np.zeros(nv + extra)
    for t in range(nat):
        sl = slice(t * n, (t + 1) * n)
        A[sl, sl] = 2.0 * K
        b[sl] = 2.0 * H[:, t]
    col = nv
    if mu is not None:
        for t in range(nat):
            sl = slice(t * n, (t + 1) * n)
            A[sl, col + t] = mu
            A[col + t, sl] = mu
            b[col + t] = float(mu_star[t])
        col += nat
    for j in range(p):
        for t in range(nat):
            sl = slice(t * n, (t + 1) * n)
            A[sl, col + j] = U[t, j] * Z
            A[col + j, sl] = U[t, j] * Z
        b[col + j] = float(vstar[j])
    sol = np.linalg.solve(A, b)
    return sol[:nv].reshape((nat, n)).T


def loocv_naive(k, obs, cfg=None):
    """Per-fold simple-Kriging LOOCV mean squared residual."""
    cfg = cfg if cfg is not None else _pred.SolveConfig()
    errs = []
    for i in range(obs.n):
        keep = [j for j in range(obs.n) if j != i]
        sub = design.ObservationSet([obs.points[j] for j in keep], obs.values[keep])
        w = _pred.simple_kriging(k, sub, [obs.points[i]], cfg)
        errs.append(obs.values[i] - w.predictions[0])
    return float(np.mean(np.square(errs)))


def loocv_naive_ck(k, obs, ops, cfg=None):
    """Per-fold LOOCV on the stacked co-Kriging system, primary slots only.

    Fold i removes primary slot i from the stacked vector [Z; v] and
    predicts it from the remaining slots with the stacked covariance.
    """
    cfg = cfg if cfg is not None else _pred.SolveConfig()
    Kplus, _, y = _pred.assemble_co_kriging(k, obs, ops, [])
    n = obs.n
    errs = []
    for i in range(n):
        keep = [j for j in range(Kplus.shape[0]) if j != i]
        Ksub = Kplus[np.ix_(keep, keep)]
        h = Kplus[keep, i]
        pred = h @ np.linalg.solve(Ksub, y[keep])
        errs.append(y[i] - pred)
    return float(np.mean(np.square(errs)))


def variance_dense(K, H, Kstar):
    """Simple-Kriging MMSE covariance K* - H^T K^-1 H by dense solve."""
    return Kstar - H.T @ np.linalg.solve(K, H)


# Symmetrized MMSE covariance with its clamped diagonal, the max-norm
# asymmetry of the expression as printed, and (Lagrangian only) the
# clamped diagonal of the symmetric-product variant.
FullCovariance = namedtuple(
    "FullCovariance", "mean covariance variance symmetry_defect alt_variance"
)


def _full(mean, printed, alt=None):
    V = 0.5 * (printed + printed.T)
    return FullCovariance(
        mean, V, np.clip(np.diag(V), 0.0, None),
        float(np.max(np.abs(printed - printed.T))), alt,
    )


def var_ck_full(k, obs, ops, pred, cfg=None):
    """Centered co-Kriging MMSE covariance K* - (H+)^T (K+)^-1 H+."""
    cfg = cfg if cfg is not None else _pred.SolveConfig()
    pred = list(pred)
    if ops is None:
        ops = design.OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    Kplus, Hplus, y = _pred.assemble_co_kriging(k, obs, ops, pred)
    solve, _ = _pred.make_spd_solver(Kplus, cfg)
    KiH = solve(Hplus)
    return _full(KiH.T @ y, design.gram(k, pred) - Hplus.T @ KiH)


def var_lk_full(k, obs, ops, cfg=None):
    """Centered Lagrangian MMSE covariance K* - (H+W)^T K^-1 (H-W) as printed.

    W = Z lam'^T U^T, with lam' = w / (Z^T K^-1 Z) and w the dense solve
    of U^T U w = v* - U^T H^T K^-1 Z.  ``alt_variance`` is the diagonal of
    the symmetric-product variant K* - (H+W)^T K^-1 (H+W).
    """
    cfg = cfg if cfg is not None else _pred.SolveConfig()
    atoms = list(ops.colloc_points)
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, atoms)
    Kstar = design.gram(k, atoms)
    solve, _ = _pred.make_spd_solver(K, cfg)
    Z = obs.values
    KiZ = solve(Z)
    base = H.T @ KiZ
    if ops.p == 0:
        return _full(base, Kstar - H.T @ solve(H))
    U = ops.U
    w = np.linalg.solve(U.T @ U, ops.rhs - U.T @ base)
    W = np.outer(Z, U @ (w / float(Z @ KiZ)))
    alt = np.clip(np.diag(Kstar - (H + W).T @ solve(H + W)), 0.0, None)
    return _full(base + U @ w, Kstar - (H + W).T @ solve(H - W), alt)


def loocv_lk_refit(k_unit, obs, ops, cfg=None):
    """Per-fold refit Lagrangian LOOCV; returns (mse, sigma2) callables of theta.

    Fold i builds the observation set without observation i, appends the
    dropped atom constraint-free when no equation touches it, and runs
    the full Lagrangian solve (assembly, rank check, factorization, Schur
    step).  The mse is nan when any fold's factorization escalated.
    """
    cfg = cfg if cfg is not None else _pred.SolveConfig()

    def folds(theta):
        k = replace(k_unit, theta=float(theta))
        res = []
        escalated = False
        for i in range(obs.n):
            keep = [j for j in range(obs.n) if j != i]
            sub = design.ObservationSet([obs.points[j] for j in keep], obs.values[keep])
            atom = [obs.points[i]]
            ops_i = design.extend_atoms(ops, atom)
            K, H = _pred.assemble_lagrangian(k, sub, ops_i)
            w = _pred.solve_lagrangian(K, H, sub, ops_i, cfg)
            j = design.locate_atoms(ops_i.colloc_points, atom)
            var, _ = _uq.mmse_variance(k, atom, w.alpha[:, j], w.cross[:, j])
            res.append((obs.values[i] - w.predictions[j[0]], var[0]))
            escalated = escalated or w.nugget_used > cfg.nugget
        return np.array(res), escalated

    def mse(theta):
        res, escalated = folds(theta)
        return math.nan if escalated else float(np.mean(res[:, 0] ** 2))

    def sigma2(theta):
        res, _ = folds(theta)
        return max(float(np.mean(res[:, 0] ** 2 / np.maximum(res[:, 1], 1e-12))), 1e-12)

    return mse, sigma2
