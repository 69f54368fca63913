"""Independent reference implementations the fast paths are checked against.

Everything here is deliberately naive: covariance matrices filled one
entry per Python call, dense KKT systems assembled row by row and solved
with np.linalg.solve, leave-one-out loops that refit per fold, MMSE
covariances built from the full K* as printed, the co-Kriging stack by
dense products of the atom gram with U, the Lagrangian step by the
normal equations of the formed U^T U, the constraint projection by one
dense pivoted QR of U whatever its structure, the flow experiment's
geometry and CSV text one point and one cell at a time, the
lengthscale search with its golden-section step written out per case
(bracket start, one-sided shrink, tie shrink), and the refined
factorization through scipy's ``cho_factor``/``cho_solve`` with a fresh
K + eta I per nugget (:func:`make_spd_solver_reference`), and each kernel
derivative from its polynomial in h = (x - x2) / theta^2 (:func:`_bracket`),
where the package evaluates one polynomial in 1/theta^2.  No code is shared
with the package's closed forms beyond the covariance assembly outside
:func:`gram_loop`, the search's result type and logger, the file replace
of the CSV writer (``flowlab.atomic_write_text``) and, for the MMSE
covariances and the Lagrangian normal equations, the refined
factorization ``make_spd_solver`` (dense solves would not reach its
accuracy on the ill-conditioned grams).  The Lagrangian leave-one-out
loop refits each fold with the package's full Lagrangian solve, the path
its downdate replaces, and flow's two-step fit lays out and factors its
gram afresh (:func:`flow_step2_refit`), the path the search's kept
factorization replaces, or forms its weights over every grid column
(:func:`flow_step2_alpha_route`), the path its two-column solve
replaces.  Kriging's predictions are also kept as alpha^T Z with the
weights formed first (:func:`kriging_alpha_route`), the path the one
refined solve of the data replaces, and the interpolation variance rule
from the fit's formed weights and K* (:func:`interpolation_sigma2_weights_route`),
the path its closed form replaces, and the MMSE variances from the
formed weights as K* - alpha^T (H - M) (:func:`mmse_variance_alpha_route`,
with the package's clamp ``uq._clamp``, and H - M read off a solve's terms
by :func:`cross`), the path K* - V^T V on the factor replaces in the
runners and in ``uq.var_ck``/``var_lk``.  The leave-one-out criteria are also
kept one theta per call (``*_per_theta``), the path the stacked criteria
replace, and the row grouping by one integer key (:func:`group_rows_ravel`).
"""

import math
from collections import namedtuple
from dataclasses import replace

import mpmath
import numpy as np

from scipy.linalg import cho_factor, cho_solve, qr

from pikrig import design
from pikrig import flowlab as _flow
from pikrig import predictors as _pred
from pikrig import uq as _uq
from pikrig.calibration import CalibrationResult, logger
from pikrig.predictors import ConditioningError


# Formed weights, with the attributes of ``predictors.KrigingWeights`` that
# the tests read.
Weights = namedtuple("Weights", "alpha predictions cross lam lam2 nugget_used")


def cross(w):
    """H - M = H+ - sum m r^T over the terms (m, s, r, c) of the solve ``w``
    (``predictors.KrigingWeights``), K alpha = H + M: the block its weights
    pair with in K* - alpha^T (H - M); H+ itself with no terms."""
    return sum((-np.outer(m, r) for m, _, r, _ in w.terms), w.H)


def _bracket(idx, h, it2):
    """Polynomial factor for the order-|idx| derivative, all on one argument.

    ``idx`` lists one coordinate per unit of derivative (length 1..4), ``h``
    is (x - x2)/theta^2 as one entry (a float or an array) per coordinate,
    and ``it2`` is 1/theta^2.  The order-4 pair set (6
    elements) and the pair partitions (3 elements) are written out in full.
    """
    t = len(idx)
    if t == 1:
        return h[idx[0]]
    if t == 2:
        i, j = idx
        return h[i] * h[j] - it2 * (i == j)
    if t == 3:
        i, j, l = idx
        return h[i] * h[j] * h[l] - it2 * (
            h[i] * (j == l) + h[j] * (i == l) + h[l] * (i == j)
        )
    i, j, l, o = idx
    pairs = (
        h[i] * h[j] * (l == o)
        + h[i] * h[l] * (j == o)
        + h[i] * h[o] * (j == l)
        + h[j] * h[l] * (i == o)
        + h[j] * h[o] * (i == l)
        + h[l] * h[o] * (i == j)
    )
    partitions = (i == j) * (l == o) + (i == l) * (j == o) + (i == o) * (j == l)
    return (
        h[i] * h[j] * h[l] * h[o] - it2 * pairs + it2 * it2 * partitions
    )


def deriv_scalar(k, x, x2, m, m2):
    """One mixed kernel derivative in scalar arithmetic, |r|^2 by np.dot, its
    polynomial by :func:`_bracket` in h = (x - x2) / theta^2."""
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
    return sign * _bracket(idx, h, 1.0 / k.theta ** 2) * base


def deriv_mp(k, r, m, m2):
    """The (m, m2) derivative at the difference ``r`` = x - x2 to 50 digits:
    (-1)^|m2| times the derivative in r of sigma2 exp(-|r|^2 / 2 theta^2),
    whose factor along coordinate c is (-1/theta)^n He_n(r_c / theta) for
    n = m_c + m2_c, He_n(u) = 2^(-n/2) H_n(u / sqrt 2) by mpmath's Hermite
    polynomial H_n; an mpf."""
    with mpmath.workdps(50):
        theta = mpmath.mpf(k.theta)
        value = k.sigma2 * mpmath.exp(-mpmath.fsum(mpmath.mpf(c) ** 2 for c in r) / (2 * theta ** 2))
        for c, n in zip(r, map(sum, zip(m, m2))):
            value *= ((-1 / theta) ** n * mpmath.mpf(2) ** (-mpmath.mpf(n) / 2)
                      * mpmath.hermite(n, mpmath.mpf(c) / theta / mpmath.sqrt(2)))
        return (-1) ** sum(m2) * value


def find_duplicates_loop(points, tol=1e-12):
    """All duplicate pairs (i, j), i < j, by a double loop in row-major order."""
    dups = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            a, b = points[i], points[j]
            if a.m == b.m and max(abs(u - v) for u, v in zip(a.x, b.x)) <= tol:
                dups.append((i, j))
    return dups


def gram_loop(k, A, B=None, entry=deriv_scalar):
    """Covariance matrix filled entry by entry, one ``entry(k, x, x2, m, m2)``
    call each, upper triangle mirrored if symmetric."""
    if B is None or B is A:
        n = len(A)
        G = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                G[i, j] = G[j, i] = entry(k, A[i].x, A[j].x, A[i].m, A[j].m)
        return G
    G = np.empty((len(A), len(B)))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            G[i, j] = entry(k, a.x, b.x, a.m, b.m)
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


def make_spd_solver_reference(K, cfg):
    """Cholesky-factor ``K + eta I`` with escalating eta; return (solve, eta).

    ``solve(B)`` applies (K + eta I)^-1 to B.  Raises ConditioningError if
    every nugget in the ladder fails.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    ladder = [cfg.nugget] + [e for e in _pred.JITTER_LADDER if e > cfg.nugget]
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


def constraint_projector_qr(U):
    """The constraint projection by one dense pivoted QR of any U.

    The general route of ``predictors._constraint_projector``, run here
    also where that function takes its closed form for diagonal U^T U:
    R^T R = P^T U^T U P, so w[piv] = R^-1 R^-T (v - U^T base)[piv], and
    equation j is dependent when |R_jj| <= 1e-10 |R11|.  ``project(base,
    v)`` returns (base + U w, w).
    """
    p = U.shape[1]
    if p == 0:
        return lambda base, v: (base.copy(), np.zeros((0,) + base.shape[1:]))
    r, piv = qr(U, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > 1e-10 * diag[0]))
    if rank < p:
        dependent = sorted(int(j) for j in piv[rank:])
        raise _pred.RankDeficiencyError(
            f"constraint matrix has rank {rank} < {p}", dependent=dependent
        )
    R = r[:p]

    def project(base, v):
        resid = v - U.T @ base
        w = np.empty_like(resid)
        w[piv] = cho_solve((R, False), resid[piv])
        return base + U @ w, w

    return project


def solve_lagrangian_normal(K, H, obs, ops, cfg, mu_star=None):
    """Lagrangian weights by the normal equations of the constraint step.

    The route the package's projection replaces: with a = K^-1 Z,
    g1 = mu^T K^-1 mu, g2 = Z^T a, g3 = mu^T a, c1 = mu* - H^T K^-1 mu,
    base = H^T a (+ (g3/g1) c1) and w = (U^T U)^-1 (v* - U^T base) by a
    Cholesky factorization of the formed U^T U: lambda' = w / g2 (or
    w / (g2 - g3^2/g1)), lambda = (c1 - g3 U lambda') / g1 and
    alpha = K^-1 (H + mu lambda^T + Z (U lambda')^T), solved afresh.
    No rank check and no degeneracy checks.
    """
    U = ops.U
    mu = obs.mean
    solve, eta = _pred.make_spd_solver(K, cfg)
    Z = obs.values
    a = solve(Z)
    lam = None
    if mu is not None:
        Kimu = solve(mu)
        g1 = float(mu @ Kimu)
        c1 = np.asarray(mu_star, dtype=float).ravel() - H.T @ Kimu
    if ops.p == 0:
        alpha = solve(H)
        cross = H
        if mu is not None:
            lam = c1 / g1
            alpha = alpha + np.outer(Kimu, lam)
            cross = H - np.outer(mu, lam)
        return Weights(alpha, alpha.T @ Z, cross, lam, None, eta)
    g2 = float(Z @ a)
    base = H.T @ a
    denom = g2
    if mu is not None:
        g3 = float(mu @ a)
        denom = g2 - g3 ** 2 / g1
        base = base + (g3 / g1) * c1
    w = cho_solve(cho_factor(U.T @ U, lower=True), ops.rhs - U.T @ base)
    lam2 = w / denom
    Ulam2 = U @ lam2
    M = np.outer(Z, Ulam2)
    if mu is not None:
        lam = (c1 - g3 * Ulam2) / g1
        M = M + np.outer(mu, lam)
    return Weights(solve(H + M), base + U @ w, H - M, lam, lam2, eta)


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


def assemble_co_kriging_dense(k, obs, ops, pred):
    """(K+, H+, [Z; v]) from the atom gram over [primary; collocation]
    atoms and dense products with U, whatever structure U has."""
    atoms = obs.points + ops.colloc_points
    n, U = obs.n, ops.U
    G = design.gram(k, atoms)
    H = design.gram(k, atoms, pred)
    Kplus = np.block([[G[:n, :n], G[:n, n:] @ U], [U.T @ G[n:, :n], U.T @ G[n:, n:] @ U]])
    return Kplus, np.vstack([H[:n], U.T @ H[n:]]), np.concatenate([obs.values, ops.rhs])


def loocv_naive_ck(k, obs, ops, cfg=None):
    """Per-fold LOOCV on the stacked co-Kriging system, primary slots only.

    Fold i removes primary slot i from the stacked vector [Z; v] and
    predicts it from the remaining slots with the stacked covariance.
    """
    cfg = cfg if cfg is not None else _pred.SolveConfig()
    Kplus, _, y = assemble_co_kriging_dense(k, obs, ops, [])
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


def mmse_variance_alpha_route(k, atoms, alpha, cross, block=1):
    """``uq.mmse_variance`` by the formed weights: the diagonal ``block`` x
    ``block`` blocks of K* - alpha^T cross over consecutive ``atoms`` (the
    columns of ``alpha`` and ``cross``), symmetrized, and their diagonal
    clamped by ``uq._clamp``; the route the factor's K* - V^T V replaces."""
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
    variance, _ = _uq._clamp(np.diagonal(V, axis1=1, axis2=2).ravel())
    return variance, V


def mmse_variance_mp(K, H, kstar, eta=0.0, dps=60):
    """k** - h^T (K + eta I)^-1 h per column h of ``H`` (``kstar`` its
    diagonal of K*) in ``dps``-digit arithmetic, the float entries taken
    as exact; returned as floats."""
    with mpmath.workdps(dps):
        A = mpmath.matrix(K.tolist()) + mpmath.mpf(eta) * mpmath.eye(len(K))
        X = mpmath.inverse(A) * mpmath.matrix(H.tolist())
        return np.array([float(mpmath.mpf(kstar[j]) - mpmath.fsum(
            mpmath.mpf(H[i, j]) * X[i, j] for i in range(len(K)))) for j in range(H.shape[1])])


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
    Kplus, Hplus, y = assemble_co_kriging_dense(k, obs, ops, pred)
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
            var, _ = mmse_variance_alpha_route(k, atom, w.alpha[:, j], cross(w)[:, j])
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


def write_csv_cells(path, header, rows):
    """CSV of ``rows`` one cell at a time: strings as given, integers by
    str(int), every other value at 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(format(float(v), ".17g"))
        lines.append(",".join(cells))
    _flow.atomic_write_text(path, "\n".join(lines) + "\n")


def flow_step2_refit(k2, pts, vals, grid, cfg):
    """Step 2 of ``flowlab.predict_flow_lk_twostep`` at its searched kernel
    ``k2``, by a fresh gram and a fresh factorization: the simple-Kriging
    (vx, vy) on ``grid`` of the two columns of ``vals`` at ``pts``, as
    H2^T (K2^-1 vals)."""
    solve, _ = _pred.make_spd_solver(design.gram(k2, pts), cfg)
    H2 = design.gram(k2, pts, design.Atoms(grid, (0, 0)))
    mean = H2.T @ solve(vals)
    return mean[:, 0], mean[:, 1]


def flow_step2_alpha_route(k2, pts, vals, grid, cfg):
    """Step 2 by the weights: alpha = K2^-1 H2 over every grid column, then
    alpha^T times each column of ``vals`` (the route the two-column solve
    of :func:`flow_step2_refit` replaces)."""
    K2 = design.gram(k2, pts)
    H2 = design.gram(k2, pts, design.Atoms(grid, (0, 0)))
    alpha = kriging_alpha_route(K2, H2, vals[:, 0], cfg).alpha
    return alpha.T @ vals[:, 0], alpha.T @ vals[:, 1]


def kriging_alpha_route(Kplus, Hplus, y, cfg, mu_plus=None, mu_star=None):
    """The Prop.-2 weights formed first, alpha = (K+)^-1 H+ (+ w lam^T with
    w = (K+)^-1 mu+ when ordinary), and the predictions alpha^T y: the route
    the package's H+^T (K+)^-1 y (+ lam (w^T y)) replaces.  No checks."""
    solve, eta = _pred.make_spd_solver(Kplus, cfg)
    alpha, lam, cross = solve(Hplus), None, Hplus
    if mu_plus is not None:
        w = solve(mu_plus)
        lam = (np.asarray(mu_star, dtype=float).ravel() - Hplus.T @ w) / float(mu_plus @ w)
        alpha, cross = alpha + np.outer(w, lam), Hplus - np.outer(mu_plus, lam)
    return Weights(alpha, alpha.T @ y, cross, lam, None, eta)


def cylinder_flow_point(geom, freestream, at):
    """Analytic cylinder-flow velocity (vx, vy) at one point, in Python
    complex arithmetic; raises DomainError inside the cylinder."""
    cx, cy = geom.center
    z = complex(float(at[0]) - cx, float(at[1]) - cy)
    r = abs(z)
    if r < geom.radius * (1.0 - 1e-12):
        raise _flow.DomainError(f"point {tuple(at)} lies inside the cylinder")
    vinf = complex(freestream[0], freestream[1])
    speed = abs(vinf)
    if speed == 0.0:
        return 0.0, 0.0
    phase = vinf / speed
    w = speed * (1.0 - (geom.radius / (z / phase)) ** 2)
    vel = phase * w.conjugate()
    return float(vel.real), float(vel.imag)


def exterior_grid_points(geom, counts, extent, margin, aspect=1.0):
    """The exterior grid as a list of (x, y), filtered point by point with
    math.hypot."""
    cx, cy = geom.center
    nx = max(2, int(round(counts[0] * aspect)))
    xs = np.linspace(cx - extent, cx + extent, nx)
    ys = np.linspace(cy - extent, cy + extent, int(counts[1]))
    cut = geom.radius * (1.0 + margin)
    pts = [(float(x), float(y)) for y in ys for x in xs]
    return [p for p in pts if math.hypot(p[0] - cx, p[1] - cy) >= cut]


def optimize_theta_reference(criterion, bounds, budget=64):
    """Deterministic 1-d minimization of a lengthscale criterion.

    Log-spaced coarse grid (half the budget), then golden-section
    refinement in log space inside the cell around the grid argmin, then
    the midpoint of the final bracket: exactly ``budget`` criterion
    evaluations in all.  Non-finite values and factorization failures are
    skipped, kept as nan in the trace and logged once per search, with
    their count and theta range; exact ties shrink the bracket from both sides.
    A grid with no finite value raises ConditioningError.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0 < lo < hi and np.isfinite(hi)):
        raise ValueError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    budget = int(budget)
    if budget < 8:
        raise ValueError(f"budget must be at least 8, got {budget}")
    trace, failed = [], []

    def ev(theta):
        theta = float(theta)
        try:
            val = float(criterion(theta))
        except ConditioningError as exc:
            failed.append(exc)
            val = math.nan
        trace.append((theta, val if math.isfinite(val) else math.nan))
        return trace[-1][1]

    ngrid = max(4, budget // 2)
    grid = np.geomspace(lo, hi, ngrid)
    vals = [ev(t) for t in grid]
    finite = [i for i, v in enumerate(vals) if math.isfinite(v)]
    if not finite:
        last = failed[-1] if failed else None
        raise ConditioningError("criterion was non-finite at every grid point",
                                nugget_last=getattr(last, "nugget_last", None)) from last
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


def _virtual_parts_per_theta(K, y, cfg):
    """(K^-1, a = K^-1 y, d = diag(K^-1), (solve, eta)) of one matrix."""
    solve, eta = _pred.make_spd_solver(K, cfg)
    Ki = solve(np.eye(K.shape[0]))
    return Ki, Ki @ y, np.diag(Ki), (solve, eta)


def _loo_criteria_per_theta(parts):
    """(mse, sigma2, parts_at) of theta from ``parts(theta)``, one theta
    per call: the rule of ``calibration._loo_criteria``."""
    kept = [math.inf, None, None]

    def mse(theta):
        got = parts(theta)
        if got[2]:
            return math.nan
        val = sum(float(np.mean(r ** 2)) for r in np.atleast_2d(got[0].T))
        if math.isfinite(val) and val <= kept[0]:
            kept[:] = val, theta, got
        return val

    parts_at = lambda theta: kept[2] if theta == kept[1] else parts(theta)

    def sigma2(theta):
        _, std2, *_ = parts_at(theta)
        return max(float(np.mean(std2())), 1e-12)

    return mse, sigma2, parts_at


def virtual_criteria_per_theta(k_unit, rows, y, cfg, n=None):
    """``calibration._virtual_criteria`` one theta at a time, each matrix the
    kept layout of ``rows`` (atoms or stacked rows) at one kernel."""
    layout = design.Layout(k_unit, rows)

    def parts(theta):
        K = layout(replace(k_unit, theta=float(theta)))
        _, a, d, solved = _virtual_parts_per_theta(K, y, cfg)
        a, d = a[:n], d[:n, None] if y.ndim > 1 else d[:n]
        return a / d, lambda: a * a / d, solved[1] > cfg.nugget, solved

    return _loo_criteria_per_theta(parts)


def loocv_ck_per_theta(k_unit, obs, ops, cfg):
    """``calibration.loocv_ck_virtual`` one theta at a time: (mse, sigma2)."""
    ops = design.OperatorSystem() if ops is None else ops
    rows = design._stacked_rows(k_unit, obs.points, ops)
    y = np.concatenate([obs.values, ops.rhs])
    return virtual_criteria_per_theta(k_unit, rows, y, cfg, obs.n)[:2]


def _lagrangian_per_theta(k_unit, obs, ops):
    """(extended ``ops``, the row of each observation, system(theta) ->
    (kernel, K, H, projection)), H the kept layout at one kernel."""
    ops, rows = design._extend(ops, obs.points)
    layout = design.Layout(k_unit, obs.points, ops.colloc_points)

    def system(theta):
        k = replace(k_unit, theta=float(theta))
        H = layout(k)
        return k, H[:, rows], H, _pred._constraint_projector(ops)

    return ops, rows, system


def loocv_lk_per_theta(k_unit, obs, ops_at_predictions, cfg):
    """``calibration.loocv_lk_explicit`` one theta at a time, each fold set
    by the downdate of one factorization: (mse, sigma2)."""
    ops, j, system = _lagrangian_per_theta(k_unit, obs, ops_at_predictions)

    def parts(theta):
        _, K, H, project = system(theta)
        n, Z = obs.n, obs.values
        Ki, a, d, (_, eta) = _virtual_parts_per_theta(K, Z, cfg)
        A = a[:, None] - Ki * (a / d)
        np.fill_diagonal(A, 0.0)
        base, cols = H.T @ A, np.arange(n)
        UW, _ = project(base, ops.rhs[:, None])
        resid = Z - (base[j, cols] + UW[j, cols])
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
            var = var + UW[j, cols] ** 2 / g2
        return resid, lambda: resid ** 2 / np.maximum(var, 1e-12), eta > cfg.nugget

    return _loo_criteria_per_theta(parts)[:2]


def interpolation_per_theta(k_unit, obs, ops_at_predictions, cfg):
    """``calibration.interpolation_criteria`` one theta at a time, each
    theta a full Lagrangian solve: (crit, sigma2).  The variance at
    observation i is eta diag((K + eta I)^-1 K)_i, Kriging's there, plus
    (U w)_i^2 / gamma2, U w the projection of H^T K^-1 Z (eta the nugget
    used, gamma2 = Z^T K^-1 Z)."""
    ops, idx, system = _lagrangian_per_theta(k_unit, obs, ops_at_predictions)

    def parts(theta):
        _, K, H, project = system(theta)
        w = _pred.solve_lagrangian(K, H, obs, ops, cfg)
        resid = w.predictions[idx] - obs.values
        solve, eta = _pred.make_spd_solver(K, cfg)
        a = solve(obs.values)
        Uw = project(H.T @ a, ops.rhs)[0][idx]
        kriging = eta * np.diag(solve(K)) if eta else 0.0

        def std2():
            var = kriging + (Uw ** 2 / float(obs.values @ a) if ops.p else 0.0)
            return resid ** 2 / np.maximum(var, 1e-12)

        return resid, std2, eta > cfg.nugget

    return _loo_criteria_per_theta(parts)[:2]


def interpolation_sigma2_weights_route(k_unit, obs, ops_at_predictions, theta, cfg):
    """The variance rule of ``calibration.interpolation_criteria`` at
    ``theta`` with each variance K* - alpha^T (H - M) of the Lagrangian
    fit's formed weights (K* entry by entry), the route the closed form
    replaces; floored as the rule is, without its warnings."""
    ops, idx, system = _lagrangian_per_theta(k_unit, obs, ops_at_predictions)
    k, K, H, _ = system(theta)
    w = _pred.solve_lagrangian(K, H, obs, ops, cfg)
    resid = w.predictions[idx] - obs.values
    var = mmse_variance_alpha_route(k, obs.points, w.alpha[:, idx], cross(w)[:, idx])[0]
    return max(float(np.mean(resid ** 2 / np.maximum(var, 1e-12))), 1e-12)


def group_rows_ravel(M):
    """``design._group_rows`` by one integer key per row (its index in the
    box of the column maxima), sorted stably: at most 64 columns and a box
    within int64."""
    if not len(M):
        return []
    key = np.ravel_multi_index(M.T, M.max(axis=0) + 1)
    order = np.argsort(key, kind="stable")
    key = key[order]
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(M)]
    return [(tuple(M[order[a]].tolist()), order[a:b]) for a, b in zip(cuts, cuts[1:])]
