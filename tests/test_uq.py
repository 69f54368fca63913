import itertools

import numpy as np
import pytest

from pikrig import cli, design
from pikrig import predictors as P
from pikrig import uq
from pikrig.design import ExtendedPoint, ObservationSet, OperatorSystem
from pikrig.kernel import SqExpKernel

import oracles
from util import obs_1d, well_spaced


def small_system(rng, n=5, n_eq=2, q=3):
    k = SqExpKernel(sigma2=float(rng.uniform(0.5, 2.0)),
                    theta=float(rng.uniform(0.7, 1.3)), dim=1)
    xs = well_spaced(rng, n, 0.0, 6.0, min_gap=0.5)
    obs = obs_1d(xs, rng.normal(size=n))
    rows = [((float(rng.uniform(0.2, 5.8)),), [(1.0, (0,)), (1.0, (2,))])
            for _ in range(n_eq)]
    ops = design.encode_pointwise(rows, rng.normal(size=n_eq))
    pred = [ExtendedPoint((float(x),), (0,))
            for x in well_spaced(rng, q, 0.4, 5.6, min_gap=0.4)]
    return k, obs, ops, pred


def test_var_ck_empty_ops_is_simple_variance(rng):
    k, obs, _, pred = small_system(rng)
    u = uq.var_ck(k, obs, None, pred)
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, pred)
    Kstar = design.gram(k, pred)
    ref = oracles.variance_dense(K, H, Kstar)
    assert np.allclose(u.covariance, 0.5 * (ref + ref.T), atol=1e-10)
    w = P.simple_kriging(k, obs, pred)
    assert np.allclose(u.mean, w.predictions, atol=1e-10)


def test_variance_vanishes_at_observations(rng):
    k, obs, _, _ = small_system(rng)
    u = uq.var_ck(k, obs, None, obs.points)
    assert np.max(u.variance) <= 1e-8
    assert np.all(u.variance >= 0.0)


def test_var_ck_diag_equals_mse_objective(rng):
    for _ in range(5):
        k, obs, ops, pred = small_system(rng)
        u = uq.var_ck(k, obs, ops, pred)
        Kplus, Hplus, _ = P.assemble_co_kriging(k, obs, ops, pred)
        w = P.solve_co_kriging(Kplus, Hplus, np.zeros(Kplus.shape[0]),
                               P.SolveConfig())
        for j, atom in enumerate(pred):
            Kstar_j = np.array([[design.cov(k, atom, atom)]])
            direct = P.mse_objective(
                w.alpha[:, [j]], Kplus, Hplus[:, [j]], Kstar_j
            )
            assert abs(u.variance[j] - direct) <= 1e-8 * max(1.0, abs(direct))


def test_conditioning_shrinks_variance(rng):
    # appending collocation rows can only reduce the MMSE variance
    k, obs, ops, pred = small_system(rng, n_eq=3)
    sub = OperatorSystem(ops.colloc_points, ops.U[:, :1], ops.rhs[:1])
    full = uq.var_ck(k, obs, ops, pred).variance
    less = uq.var_ck(k, obs, sub, pred).variance
    none = uq.var_ck(k, obs, None, pred).variance
    assert np.all(full <= less + 1e-8)
    assert np.all(less <= none + 1e-8)


def test_intervals_are_two_sigma(rng):
    k, obs, ops, pred = small_system(rng)
    u = uq.var_ck(k, obs, ops, pred)
    half = 2.0 * np.sqrt(u.variance)
    assert np.allclose(u.interval_hi - u.mean, half, atol=1e-13)
    assert np.allclose(u.mean - u.interval_lo, half, atol=1e-13)


def test_var_ck_rejects_mean(rng):
    k, obs, ops, pred = small_system(rng)
    with_mean = ObservationSet(obs.points, obs.values, mean=np.ones(obs.n))
    with pytest.raises(ValueError, match="var_ck expects a centered model"):
        uq.var_ck(k, with_mean, ops, pred)


def test_var_lk_rejects_mean(rng):
    k, obs, ops, _ = small_system(rng)
    with_mean = ObservationSet(obs.points, obs.values, mean=np.ones(obs.n))
    with pytest.raises(ValueError, match="var_lk expects a centered model"):
        uq.var_lk(k, with_mean, ops)


def test_negative_diagonal_is_clamped_with_a_warning(caplog):
    # with alpha = I and cross = c I on unit-variance atoms, K* - alpha^T
    # cross has the diagonal 1 - c: any negative entry is clamped to 0, and
    # one below -1e-10 is logged
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    atoms = design.Atoms(np.array([[0.0], [3.0]]), (0,))
    for c, logged in ((1.0 + 1e-13, False), (2.0, True)):
        caplog.clear()
        with caplog.at_level("WARNING", logger="pikrig.uq"):
            variance, blocks = oracles.mmse_variance_alpha_route(k, atoms, np.eye(2), c * np.eye(2))
        assert np.array_equal(variance, [0.0, 0.0])
        assert np.all(blocks[:, 0, 0] == 1.0 - c)  # the blocks keep the raw value
        assert ("clamped to 0" in caplog.text) == logged


@pytest.mark.parametrize("seed", (4, 6, 10))
def test_factor_variances_against_60_digits(seed):
    # the runners' k** - ||L^-1 h||^2 on the ode1d sk and ck systems (60 grid
    # atoms) against k** - h^T (K+ + eta I)^-1 h in 60 digits: no worse than
    # 4x the formed weights' K* - alpha^T H+, or within 1e-14 sigma2.  Seed 6
    # has two observations 2.5e-3 apart, and there both routes lose digits
    for theta, rows_at in itertools.product((0.8, 1.5, 2.5), (None, "colloc")):
        obs, ops, grid = cli._ode1d_data(cli.RunConfig(seed=seed, q=60), rows_at)
        pred = design.Atoms(grid[:, None], (0,))
        k = SqExpKernel(sigma2=1.0, theta=theta, dim=1)
        Kplus, Hplus, y = P.assemble_co_kriging(
            k, obs, ops if ops is not None else OperatorSystem(), pred)
        w = P.solve_co_kriging(Kplus, Hplus, y, P.SolveConfig())
        exact = oracles.mmse_variance_mp(Kplus, Hplus, np.full(len(pred), k.sigma2),
                                         w.nugget_used)
        got = uq.mmse_variance(k, pred, w)[1][:, 0, 0]
        ref = oracles.mmse_variance_alpha_route(k, pred, w.alpha, oracles.cross(w))[1][:, 0, 0]
        err, ref_err = np.max(np.abs(got - exact)), np.max(np.abs(ref - exact))
        assert err <= max(4.0 * ref_err, 1e-14 * k.sigma2), (theta, rows_at, err, ref_err)


def test_var_lk_mean_matches_predictor(rng):
    for _ in range(5):
        k, obs, _, pred = small_system(rng)
        U = np.zeros((len(pred), 1))
        U[:, 0] = 1.0
        ops = OperatorSystem(pred, U, [float(rng.normal())])
        u = uq.var_lk(k, obs, ops)
        w = P.lagrangian_kriging(k, obs, ops)
        assert np.allclose(u.mean, w.predictions, atol=1e-10)
        assert np.all(u.variance >= 0.0)
        ref = oracles.var_lk_full(k, obs, ops)
        assert np.all(ref.alt_variance >= 0.0)


def test_var_ck_var_lk_match_printed_forms(rng):
    # the wrappers read K* - V^T V (+ the multiplier terms) off the factor of
    # the prediction solve; the oracles build the covariance as printed from
    # the formed weights and the full K*, and symmetrize it
    for _ in range(5):
        k, obs, ops, pred = small_system(rng)
        lk_ops = OperatorSystem(pred, np.ones((len(pred), 1)), [float(rng.normal())])
        for got, ref in (
            (uq.var_ck(k, obs, None, pred), oracles.var_ck_full(k, obs, None, pred)),
            (uq.var_ck(k, obs, ops, pred), oracles.var_ck_full(k, obs, ops, pred)),
            (uq.var_lk(k, obs, lk_ops), oracles.var_lk_full(k, obs, lk_ops)),
        ):
            scale = max(1.0, float(np.max(np.abs(ref.covariance))))
            assert np.max(np.abs(got.covariance - ref.covariance)) <= 1e-10 * scale
            assert np.max(np.abs(got.variance - ref.variance)) <= 1e-10 * scale
            assert np.array_equal(got.covariance, got.covariance.T)
            assert np.allclose(got.mean, ref.mean, atol=1e-10)


@pytest.mark.parametrize("seed", (4, 5, 6, 10))
def test_full_covariance_is_the_runners_route(seed):
    # var_ck and var_lk read the runners' K* - V^T V off the same factor: on
    # the ode1d ck and lk systems (q = 60) their variances are the runners'
    # mmse_variance bit for bit, and the covariance is its own transpose
    k = SqExpKernel(sigma2=1.3, theta=1.1, dim=1)
    for rows_at in ("colloc", "grid"):
        obs, ops, grid = cli._ode1d_data(cli.RunConfig(seed=seed, q=60), rows_at)
        pred = design.Atoms(grid[:, None], (0,))
        if rows_at == "colloc":
            u = uq.var_ck(k, obs, ops, pred)
            w = P.co_kriging(k, obs, ops, pred + ops.colloc_points)
        else:
            ops, _ = design._extend(ops, pred)
            pred = ops.colloc_points  # the runner reads every atom of the system
            u, w = uq.var_lk(k, obs, ops), P.lagrangian_kriging(k, obs, ops)
            assert w.terms  # the projection's term is read too
        variance, blocks = uq.mmse_variance(k, pred, w, slice(0, len(pred)))
        assert np.array_equal(u.variance, variance), rows_at
        assert np.array_equal(np.diag(u.covariance), blocks[:, 0, 0]), rows_at
        assert np.array_equal(u.covariance, u.covariance.T), rows_at


def test_var_lk_p0_is_simple_variance(rng):
    k, obs, _, pred = small_system(rng)
    ops = OperatorSystem(pred, np.zeros((len(pred), 0)), np.zeros(0))
    u = uq.var_lk(k, obs, ops)
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, pred)
    Kstar = design.gram(k, pred)
    ref = oracles.variance_dense(K, H, Kstar)
    assert np.allclose(u.covariance, 0.5 * (ref + ref.T), atol=1e-10)


def test_quadform_central_chi2_exact():
    m = uq.quadform_moments((0.0, 0.0), np.eye(2))
    assert m.mean == 2.0
    assert m.variance == 4.0


def test_quadform_noncentral_chi2_exact():
    m = uq.quadform_moments((1.0, 0.0), np.eye(2))
    assert m.mean == 3.0
    assert m.variance == 8.0


def test_quadform_zero_covariance():
    m = uq.quadform_moments((0.3, -0.4), np.zeros((2, 2)))
    assert m.mean == pytest.approx(0.25, rel=1e-15)
    assert m.variance == 0.0


def test_quadform_monte_carlo():
    mu = np.array([0.3, -0.2])
    S = np.array([[0.5, 0.1], [0.1, 0.3]])
    m = uq.quadform_moments(mu, S)
    rng = np.random.default_rng(0)
    draws = rng.multivariate_normal(mu, S, size=1_000_000)
    mag = np.sum(draws ** 2, axis=1)
    assert abs(m.mean - mag.mean()) <= 0.02 * m.mean
    assert abs(m.variance - mag.var()) <= 0.02 * m.variance


def test_quadform_validation():
    with pytest.raises(ValueError, match="symmetric"):
        uq.quadform_moments((0.0, 0.0), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="PSD"):
        uq.quadform_moments((0.0, 0.0), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="shape"):
        uq.quadform_moments((0.0, 0.0, 0.0), np.eye(2))


def test_quadform_stacked_matches_per_point():
    rng = np.random.default_rng(4)
    mu = rng.normal(size=(50, 2)) * rng.uniform(0.1, 10.0, size=(50, 1))
    A = rng.normal(size=(50, 2, 2))
    S = A @ A.transpose(0, 2, 1)
    S = 0.5 * (S + S.transpose(0, 2, 1))
    m = uq.quadform_moments(mu, S)
    assert m.mean.shape == m.variance.shape == (50,)
    for i in range(50):
        one = uq.quadform_moments(mu[i], S[i])
        assert (m.mean[i], m.variance[i]) == (one.mean, one.variance)
    # each point is checked on its own scale
    bad = S.copy()
    bad[7] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(ValueError, match="symmetric"):
        uq.quadform_moments(mu, bad)
    bad[7] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(ValueError, match="PSD"):
        uq.quadform_moments(mu, bad)
    with pytest.raises(ValueError, match="shape"):
        uq.quadform_moments(mu[:3], S)


def test_interval_coverage_under_the_model():
    # joint draws of (observations, test values) from the prior; the +-2
    # sigma intervals should cover at least their nominal share
    rng = np.random.default_rng(42)
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    hits = 0
    total = 0
    for _ in range(200):
        xs = np.sort(rng.uniform(0.0, 5.0, 10))
        atoms = [ExtendedPoint((float(x),), (0,)) for x in xs]
        G = design.gram(k, atoms) + 1e-12 * np.eye(10)
        z = np.linalg.cholesky(G) @ rng.standard_normal(10)
        obs = ObservationSet(atoms[:6], z[:6])
        u = uq.var_ck(k, obs, None, atoms[6:])
        inside = (u.interval_lo <= z[6:]) & (z[6:] <= u.interval_hi)
        hits += int(inside.sum())
        total += 4
    assert hits / total >= 0.90
