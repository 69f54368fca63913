import numpy as np
import pytest

import pikrig
from pikrig import calibration, cli, design, flowlab, kernel, uq
from pikrig import predictors as P
from pikrig.design import ExtendedPoint, ObservationSet, OperatorSystem
from pikrig.kernel import SqExpKernel

import oracles
from util import obs_1d, ode_setup, well_spaced


def random_instance(rng, n=5, n_eq=2, q=3):
    """A centered 1-d system: value observations, pointwise operator rows
    at their own locations, and order-0 prediction atoms elsewhere."""
    k = SqExpKernel(sigma2=float(rng.uniform(0.5, 2.0)),
                    theta=float(rng.uniform(0.7, 1.5)), dim=1)
    xs = well_spaced(rng, n, 0.0, 6.0, min_gap=0.5)
    obs = obs_1d(xs, rng.normal(size=n))
    rows = []
    for _ in range(n_eq):
        loc = float(rng.uniform(0.0, 6.0))
        rows.append(((loc,), [(1.0, (0,)), (float(rng.uniform(0.5, 2.0)), (2,))]))
    ops = design.encode_pointwise(rows, rng.normal(size=n_eq))
    pred = [ExtendedPoint((float(x),), (0,))
            for x in well_spaced(rng, q, 0.3, 5.7, min_gap=0.4)]
    return k, obs, ops, pred


def test_simple_kriging_matches_dense(rng):
    for _ in range(10):
        k, obs, _, pred = random_instance(rng)
        w = P.simple_kriging(k, obs, pred)
        K = design.gram(k, obs.points)
        H = design.gram(k, obs.points, pred)
        ref = oracles.kkt_simple(K, H)
        assert np.allclose(w.alpha, ref, atol=1e-8)
        assert np.allclose(w.predictions, ref.T @ obs.values, atol=1e-8)


def test_simple_kriging_interpolates(rng):
    k, obs, _, _ = random_instance(rng)
    w = P.simple_kriging(k, obs, obs.points)
    assert np.max(np.abs(w.predictions - obs.values)) <= 1e-8


def test_simple_kriging_rejects_mean():
    obs = ObservationSet(
        [ExtendedPoint((0.0,), (0,)), ExtendedPoint((1.0,), (0,))],
        np.ones(2), mean=np.ones(2),
    )
    with pytest.raises(ValueError):
        P.simple_kriging(SqExpKernel(1.0, 1.0, 1), obs, obs.points)


def test_ordinary_kriging_matches_kkt(rng):
    for _ in range(10):
        k, obs, _, pred = random_instance(rng)
        mu = np.ones(obs.n)
        mu_star = np.ones(len(pred))
        obs_m = ObservationSet(obs.points, obs.values, mean=mu)
        w = P.ordinary_kriging(k, obs_m, pred, mu_star)
        K = design.gram(k, obs.points)
        H = design.gram(k, obs.points, pred)
        ref = oracles.kkt_ordinary(K, H, mu, mu_star)
        assert np.allclose(w.alpha, ref, atol=1e-8)
        # unbiasedness holds at the solution
        assert np.max(np.abs(w.alpha.T @ mu - mu_star)) <= 1e-10


def test_ordinary_kriging_requires_mean():
    obs = obs_1d([0.0, 1.0], np.ones(2))
    with pytest.raises(ValueError):
        P.ordinary_kriging(SqExpKernel(1.0, 1.0, 1), obs, obs.points, np.ones(2))


def test_ordinary_kriging_zero_mean_degenerate():
    obs = ObservationSet(
        [ExtendedPoint((0.0,), (0,)), ExtendedPoint((1.0,), (0,))],
        np.ones(2), mean=np.zeros(2),
    )
    with pytest.raises(P.DegenerateMeanError):
        P.ordinary_kriging(SqExpKernel(1.0, 1.0, 1), obs, obs.points, np.ones(2))


def test_co_kriging_matches_stacked_kkt(rng):
    for _ in range(10):
        k, obs, ops, pred = random_instance(rng)
        w = P.co_kriging(k, obs, ops, pred)
        Kplus, Hplus, y = P.assemble_co_kriging(k, obs, ops, pred)
        ref = oracles.kkt_simple(Kplus, Hplus)
        assert np.allclose(w.alpha, ref, atol=1e-8)
        assert np.allclose(w.predictions, ref.T @ y, atol=1e-8)


def test_ordinary_co_kriging_matches_kkt(rng):
    for _ in range(6):
        k, obs, ops, pred = random_instance(rng)
        mu = np.full(obs.n, 2.0)
        mu_star = np.full(len(pred), 2.0)
        obs_m = ObservationSet(obs.points, obs.values, mean=mu)
        w = P.co_kriging(k, obs_m, ops, pred, mu_star=mu_star)
        Kplus, Hplus, y = P.assemble_co_kriging(k, obs, ops, pred)
        mu_plus = P._extended_mean(obs_m, ops)
        ref = oracles.kkt_ordinary(Kplus, Hplus, mu_plus, mu_star)
        assert np.allclose(w.alpha, ref, atol=1e-8)
        assert np.max(np.abs(w.alpha.T @ mu_plus - mu_star)) <= 1e-10


def test_ordinary_co_kriging_guards(rng):
    k, obs, ops, pred = random_instance(rng)
    ramp = ObservationSet(obs.points, obs.values, mean=np.linspace(1, 2, obs.n))
    with pytest.raises(P.DegenerateMeanError):
        P.co_kriging(k, ramp, ops, pred, mu_star=np.ones(len(pred)))
    obs_m = ObservationSet(obs.points, obs.values, mean=np.ones(obs.n))
    with pytest.raises(ValueError, match="mu_star"):
        P.co_kriging(k, obs_m, ops, pred)


def test_co_kriging_empty_ops_delegates(rng):
    k, obs, _, pred = random_instance(rng)
    empty = OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    a = P.co_kriging(k, obs, empty, pred)
    b = P.simple_kriging(k, obs, pred)
    assert np.array_equal(a.predictions, b.predictions)
    c = P.co_kriging(k, obs, None, pred)
    assert np.array_equal(c.predictions, b.predictions)


def test_lagrangian_matches_dense_kkt(rng):
    for _ in range(10):
        k, obs, _, _ = random_instance(rng)
        atoms = [ExtendedPoint((float(x),), (0,))
                 for x in well_spaced(rng, 3, 0.4, 5.5, min_gap=0.5)]
        atoms.append(ExtendedPoint((float(atoms[0].x[0]),), (2,)))
        U = np.zeros((4, 2))
        U[0, 0] = 1.0
        U[3, 0] = 1.0
        U[1, 1] = 1.0
        U[2, 1] = -1.0
        ops = OperatorSystem(atoms, U, rng.normal(size=2))
        w = P.lagrangian_kriging(k, obs, ops)
        K = design.gram(k, obs.points)
        H = design.gram(k, obs.points, atoms)
        ref = oracles.kkt_lagrangian(K, H, obs.values, U, ops.rhs)
        assert np.allclose(w.alpha, ref, atol=1e-8)
        assert np.allclose(w.predictions, ref.T @ obs.values, atol=1e-8)
        # the constraints hold exactly at the returned predictions
        assert np.max(np.abs(U.T @ w.predictions - ops.rhs)) <= 1e-8


def test_ordinary_lagrangian_matches_dense_kkt(rng):
    for _ in range(6):
        k, obs, _, _ = random_instance(rng)
        atoms = [ExtendedPoint((float(x),), (0,))
                 for x in well_spaced(rng, 3, 0.4, 5.5, min_gap=0.5)]
        U = np.array([[1.0], [1.0], [1.0]])
        ops = OperatorSystem(atoms, U, [float(rng.normal())])
        mu = np.ones(obs.n)
        mu_star = np.ones(3)
        obs_m = ObservationSet(obs.points, obs.values, mean=mu)
        K = design.gram(k, obs.points)
        H = design.gram(k, obs.points, atoms)
        ref = oracles.kkt_lagrangian(
            K, H, obs.values, U, ops.rhs, mu=mu, mu_star=mu_star
        )
        # the public entry point and the solve on preassembled blocks
        for w in (P.lagrangian_kriging(k, obs_m, ops, mu_star=mu_star),
                  P.solve_lagrangian(K, H, obs_m, ops, P.SolveConfig(), mu_star)):
            assert np.allclose(w.alpha, ref, atol=1e-8)
            assert np.max(np.abs(U.T @ w.predictions - ops.rhs)) <= 1e-8
            assert np.max(np.abs(w.alpha.T @ mu - mu_star)) <= 1e-8


def test_lagrangian_p0_is_simple_kriging(rng):
    k, obs, _, pred = random_instance(rng)
    ops = OperatorSystem(pred, np.zeros((len(pred), 0)), np.zeros(0))
    a = P.lagrangian_kriging(k, obs, ops)
    b = P.simple_kriging(k, obs, pred)
    assert np.allclose(a.predictions, b.predictions, atol=1e-12)


def test_lagrangian_rank_deficiency_named(rng):
    k, obs, _, _ = random_instance(rng)
    atoms = [ExtendedPoint((1.0,), (0,)), ExtendedPoint((2.0,), (0,))]
    exact = np.array([[1.0, 2.0], [1.0, 2.0]])  # second column = 2 * first
    near = np.array([[1.0, 1.0 + 1e-13], [1.0, 1.0]])  # second = first + 1e-13 e_1
    named = []
    for U in (exact, near, 1e8 * near):
        ops = OperatorSystem(atoms, U, np.zeros(2))
        with pytest.raises(P.RankDeficiencyError) as err:
            P.lagrangian_kriging(k, obs, ops)
        # the offending equation index is reported, one of the pair
        assert len(err.value.dependent) == 1
        named.append(err.value.dependent)
    # the rank tolerance is relative to U: scaling it changes nothing
    assert named[2] == named[1]


def test_lagrangian_zero_observations_degenerate(rng):
    k, obs, _, _ = random_instance(rng)
    zeros = ObservationSet(obs.points, np.zeros(obs.n))
    atoms = [ExtendedPoint((0.5,), (0,))]
    ops = OperatorSystem(atoms, np.ones((1, 1)), [1.0])
    with pytest.raises(P.DegenerateConstraintError):
        P.lagrangian_kriging(k, zeros, ops)


def test_lagrangian_factors_k_and_utu_once(monkeypatch):
    # one Cholesky factorization of K and one of U^T U (in the Schur step)
    # per Lagrangian solve, for the predictor and the covariance alike
    original = P.cho_factor
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in (pikrig, calibration, cli, design, flowlab, kernel, P, uq):
        for name, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, name, counted)
    obs, colloc, _ = ode_setup()
    k = SqExpKernel(sigma2=1.0, theta=1.2, dim=1)
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in colloc]
    ops = design.encode_pointwise(rows, np.zeros(len(rows)))
    obs_m = ObservationSet(obs.points, obs.values, mean=np.ones(obs.n))
    mu_star = np.ones(len(ops.colloc_points))
    runs = {
        "simple": lambda: P.lagrangian_kriging(k, obs, ops),
        "var_lk": lambda: uq.var_lk(k, obs, ops),
        "ordinary": lambda: P.lagrangian_kriging(k, obs_m, ops, mu_star=mu_star),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert len(calls) == 2, name


def test_schur_equals_full_co_kriging():
    obs, colloc, _ = ode_setup()
    k = SqExpKernel(sigma2=1.0, theta=1.2, dim=1)
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in colloc]
    ops = design.encode_pointwise(rows, np.zeros(len(rows)))
    full = P.co_kriging(k, obs, ops, ops.colloc_points)
    fast = P.co_kriging_schur(k, obs, ops)
    assert np.max(np.abs(full.predictions - fast)) <= 1e-8


def test_identity_variant_is_lagrangian_bitexact():
    obs, colloc, _ = ode_setup()
    k = SqExpKernel(sigma2=1.0, theta=1.2, dim=1)
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in colloc]
    ops = design.encode_pointwise(rows, np.zeros(len(rows)))
    ident = P.co_kriging_schur(k, obs, ops, conditional_cov="identity")
    lk = P.lagrangian_kriging(k, obs, ops)
    assert np.array_equal(ident, lk.predictions)


def test_schur_unknown_variant_rejected():
    obs, colloc, _ = ode_setup()
    k = SqExpKernel(sigma2=1.0, theta=1.2, dim=1)
    ops = design.encode_pointwise(
        [((float(colloc[0]),), [(1.0, (0,))])], [0.0]
    )
    with pytest.raises(ValueError, match="conditional_cov"):
        P.co_kriging_schur(k, obs, ops, conditional_cov="exact")


def test_predictions_affine_in_observations(rng):
    # with locations and rhs fixed, predictions are affine in Z for all
    # three predictors (the Lagrangian weights are not, its mean still is),
    # so they commute with affine combinations of the observation vector
    k, obs, ops, pred = random_instance(rng)
    z1 = rng.normal(size=obs.n)
    z2 = rng.normal(size=obs.n)
    a = 0.7

    def with_values(z):
        return ObservationSet(obs.points, z)

    for predict in (
        lambda o: P.simple_kriging(k, o, pred).predictions,
        lambda o: P.co_kriging(k, o, ops, pred).predictions,
        lambda o: P.lagrangian_kriging(k, o, ops).predictions,
    ):
        mix = predict(with_values(a * z1 + (1.0 - a) * z2))
        parts = a * predict(with_values(z1)) + (1.0 - a) * predict(with_values(z2))
        assert np.allclose(mix, parts, atol=1e-9)


def test_make_spd_solver_escalates_and_reports():
    cfg = P.SolveConfig(nugget=0.0)
    solve, eta = P.make_spd_solver(np.zeros((3, 3)), cfg)
    assert eta == 1e-10
    out = solve(np.full(3, 2e-10))
    assert np.allclose(out, 2.0)


def test_make_spd_solver_exhausts_ladder():
    with pytest.raises(P.ConditioningError) as err:
        P.make_spd_solver(-np.eye(2), P.SolveConfig())
    assert err.value.nugget_last == 1e-4


def test_solve_config_validation():
    with pytest.raises(ValueError):
        P.SolveConfig(nugget=-1e-8)
    with pytest.raises(ValueError):
        P.SolveConfig(jitter_escalation=(1e-8, 1e-10))


def test_nugget_used_zero_on_clean_solve(rng):
    k, obs, _, pred = random_instance(rng)
    w = P.simple_kriging(k, obs, pred)
    assert w.nugget_used == 0.0


def test_mse_objective_trace_form(rng):
    k, obs, _, pred = random_instance(rng)
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, pred)
    Kstar = design.gram(k, pred)
    alpha = rng.normal(size=H.shape)
    want = (
        np.trace(alpha.T @ K @ alpha)
        - 2.0 * np.trace(alpha.T @ H)
        + np.trace(Kstar)
    )
    assert P.mse_objective(alpha, K, H, Kstar) == pytest.approx(want, rel=1e-12)
