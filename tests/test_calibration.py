import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pikrig import calibration as C
from pikrig import design
from pikrig import predictors as P
from pikrig.design import ExtendedPoint, ObservationSet, OperatorSystem
from pikrig.kernel import SqExpKernel

import oracles
from util import obs_1d, ode_setup, well_spaced

UNIT = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)


def harmonic_rows(locations):
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in locations]
    return design.encode_pointwise(rows, np.zeros(len(rows)))


def test_virtual_equals_naive_folds(rng):
    # the spacing and the theta range keep the gram condition moderate:
    # the identity is algebraic, the comparison is only as good as the
    # worse-conditioned of the two routes
    for _ in range(8):
        n = int(rng.integers(3, 13))
        xs = well_spaced(rng, n, 0.0, 10.0, min_gap=0.5)
        obs = obs_1d(xs, rng.normal(size=n))
        theta = float(rng.uniform(0.5, 1.1))
        k = replace(UNIT, theta=theta)
        fast = C.loocv_mse_virtual(k, obs)
        slow = oracles.loocv_naive(k, obs)
        assert abs(fast - slow) <= 1e-10 * max(abs(slow), 1e-12)


def test_virtual_loovar_is_one(rng):
    # the variance rule is defined by: standardized LOOCV residuals have
    # mean square exactly 1 under sigma2_hat
    for _ in range(5):
        n = int(rng.integers(4, 10))
        xs = well_spaced(rng, n, 0.0, 8.0, min_gap=0.5)
        obs = obs_1d(xs, rng.normal(size=n))
        theta = float(rng.uniform(0.7, 1.4))
        s2 = C.sigma2_virtual(UNIT, obs, theta)
        K = design.gram(replace(UNIT, theta=theta), obs.points)
        Ki = np.linalg.inv(K)
        a = Ki @ obs.values
        d = np.diag(Ki)
        loovar = float(np.mean((a / d) ** 2 * d / s2))
        assert abs(loovar - 1.0) <= 1e-8


def test_ck_virtual_equals_naive_stacked_drop(rng):
    xs = well_spaced(rng, 4, 0.0, 5.0, min_gap=0.6)
    obs = obs_1d(xs, rng.normal(size=4))
    ops = harmonic_rows([0.7, 2.9, 4.4])
    mse, _ = C.loocv_ck_virtual(UNIT, obs, ops)
    for theta in (0.8, 1.2):
        k = replace(UNIT, theta=theta)
        slow = oracles.loocv_naive_ck(k, obs, ops)
        fast = mse(theta)
        assert abs(fast - slow) <= 1e-10 * max(abs(slow), 1e-12)


def test_ck_virtual_empty_ops_matches_plain(rng):
    xs = well_spaced(rng, 5, 0.0, 5.0, min_gap=0.5)
    obs = obs_1d(xs, rng.normal(size=5))
    empty = OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    mse, s2 = C.loocv_ck_virtual(UNIT, obs, empty)
    for theta in (0.7, 1.3):
        assert mse(theta) == pytest.approx(
            C.loocv_mse_virtual(replace(UNIT, theta=theta), obs), rel=1e-12
        )
        assert s2(theta) == pytest.approx(
            C.sigma2_virtual(UNIT, obs, theta), rel=1e-12
        )


def test_lk_explicit_equals_virtual_on_harmonic_setup():
    # constraining the harmonic operator at grid points away from the
    # folds does not move the leave-one-out predictions: the explicit
    # Lagrangian criterion coincides with the plain virtual one here
    obs, _, grid = ode_setup()
    ops = harmonic_rows(grid)
    mse, _ = C.loocv_lk_explicit(UNIT, obs, ops)
    for theta in (0.7, 1.0, 1.5):
        a = mse(theta)
        b = C.loocv_mse_virtual(replace(UNIT, theta=theta), obs)
        assert abs(a - b) <= 1e-9 * abs(b)


def _assert_lk_folds_match_refit(obs, ops, thetas, cfg=None, unit=UNIT):
    # the one-system downdate against the per-fold refit loop: the mse is
    # nan (escalated) at the same thetas, and elsewhere mse and sigma2
    # agree; under escalation the two regularize different matrices
    fast = C.loocv_lk_explicit(unit, obs, ops, cfg)
    slow = oracles.loocv_lk_refit(unit, obs, ops, cfg)
    for theta in thetas:
        a, b = fast[0](theta), slow[0](theta)
        assert math.isnan(a) == math.isnan(b), theta
        if not math.isnan(b):
            assert abs(a - b) <= 1e-10 * abs(b), theta
            a, b = fast[1](theta), slow[1](theta)
            assert abs(a - b) <= 1e-10 * abs(b), theta


def _random_1d(rng, n_extra, rows_at_obs):
    # criterion-05 spacing; rows f + f'' = v with nonzero v at n_extra
    # locations, plus the first ``rows_at_obs`` observation atoms
    n = int(rng.integers(4, 13))
    xs = well_spaced(rng, n, 0.0, 10.0, min_gap=0.5)
    obs = obs_1d(xs, rng.normal(size=n))
    locs = list(xs[:rows_at_obs]) + list(
        well_spaced(rng, n_extra, 0.2, 9.8, min_gap=1.0)
    )
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in locs]
    return obs, design.encode_pointwise(rows, rng.normal(size=len(rows)))


def test_lk_folds_match_refit_untouched_atoms(rng):
    for _ in range(5):
        obs, ops = _random_1d(rng, 3, 0)
        _assert_lk_folds_match_refit(obs, ops, rng.uniform(0.5, 1.1, 3))


def test_lk_folds_match_refit_touched_atoms(rng):
    # rows with nonzero rhs at observation atoms move the fold predictions
    # away from plain Kriging's
    for _ in range(5):
        obs, ops = _random_1d(rng, 2, 2)
        thetas = rng.uniform(0.5, 1.1, 3)
        _assert_lk_folds_match_refit(obs, ops, thetas)
        lk = C.loocv_lk_explicit(UNIT, obs, ops)[0](thetas[0])
        plain = C.loocv_mse_virtual(replace(UNIT, theta=thetas[0]), obs)
        assert abs(lk - plain) > 1e-6 * plain


def test_lk_folds_match_refit_empty_system(rng):
    empty = OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    for _ in range(3):
        n = int(rng.integers(3, 13))
        obs = obs_1d(well_spaced(rng, n, 0.0, 10.0, min_gap=0.5), rng.normal(size=n))
        thetas = rng.uniform(0.5, 1.1, 3)
        _assert_lk_folds_match_refit(obs, empty, thetas)
        mse, _ = C.loocv_lk_explicit(UNIT, obs, empty)
        plain = C.loocv_mse_virtual(replace(UNIT, theta=thetas[0]), obs)
        assert mse(thetas[0]) == pytest.approx(plain, rel=1e-10)


def test_lk_folds_match_refit_nugget(rng):
    cfg = P.SolveConfig(nugget=1e-6)
    for _ in range(3):
        obs, ops = _random_1d(rng, 2, 2)
        _assert_lk_folds_match_refit(obs, ops, rng.uniform(0.5, 1.1, 3), cfg)


def test_lk_folds_match_refit_2d_derivative_rows(rng):
    # value observations on a jittered 3 x 3 lattice, gradient-sum and
    # Laplacian rows with nonzero rhs, one of them at an observation
    lattice = [(x, y) for y in (0.5, 2.0, 3.5) for x in (0.5, 2.0, 3.5)]
    locs = [(x + rng.uniform(-0.2, 0.2), y + rng.uniform(-0.2, 0.2)) for x, y in lattice]
    unit2 = SqExpKernel(sigma2=1.0, theta=1.0, dim=2)
    obs = ObservationSet(
        [ExtendedPoint(loc, (0, 0)) for loc in locs], rng.normal(size=len(locs))
    )
    rows = [(locs[4], [(1.0, (1, 0)), (1.0, (0, 1))])]
    rows += [((x, y), [(1.0, (2, 0)), (1.0, (0, 2))]) for x, y in [(1.2, 1.2), (2.8, 2.6)]]
    ops = design.encode_pointwise(rows, rng.normal(size=len(rows)))
    _assert_lk_folds_match_refit(obs, ops, rng.uniform(0.5, 1.1, 3), unit=unit2)


def test_lk_folds_match_refit_ode1d_search_grid():
    # the coarse grid of the ode1d lk search at seed 10
    obs, _, grid = ode_setup(seed=10)
    lo, hi = _capped_bounds(obs)
    _assert_lk_folds_match_refit(obs, harmonic_rows(grid), np.geomspace(lo, hi, 32))


def test_lk_folds_nan_where_refit_escalates():
    # two observations 1e-9 apart: K escalates at every theta here, and
    # so does every fold that keeps both
    obs = obs_1d([0.0, 1e-9, 2.0, 3.5], np.array([1.0, 1.0, -0.5, 0.3]))
    ops = harmonic_rows([1.0, 3.0])
    assert math.isnan(C.loocv_lk_explicit(UNIT, obs, ops)[0](1.0))
    _assert_lk_folds_match_refit(obs, ops, [0.6, 1.0, 1.7])


def test_lk_folds_raise_like_refit(rng):
    xs = well_spaced(rng, 5, 0.0, 10.0, min_gap=0.5)
    ops = harmonic_rows([1.0, 4.0])
    zeros = obs_1d(xs, np.zeros(5))
    for crit in (C.loocv_lk_explicit(UNIT, zeros, ops)[0],
                 oracles.loocv_lk_refit(UNIT, zeros, ops)[0]):
        with pytest.raises(P.DegenerateConstraintError):
            crit(0.8)
    obs = obs_1d(xs, rng.normal(size=5))
    U = np.hstack([ops.U, ops.U[:, :1]])
    dependent = OperatorSystem(ops.colloc_points, U, np.zeros(3))
    raised = []
    for crit in (C.loocv_lk_explicit(UNIT, obs, dependent)[0],
                 oracles.loocv_lk_refit(UNIT, obs, dependent)[0]):
        with pytest.raises(P.RankDeficiencyError) as err:
            crit(0.8)
        raised.append(err.value.dependent)
    assert raised[0] == raised[1] and len(raised[0]) == 1


def test_lk_criterion_factors_once(monkeypatch):
    # one assembly, one rank check (one pivoted QR) and one factorization
    # per criterion evaluation, whatever the number of folds
    counts = {"make_spd_solver": 0, "qr": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name, mod in (("make_spd_solver", C), ("make_spd_solver", P), ("qr", P)):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    obs, _, grid = ode_setup(seed=10, n=6)
    for crit in C.loocv_lk_explicit(UNIT, obs, harmonic_rows(grid)):
        for theta in (0.8, 1.2):
            counts.update(make_spd_solver=0, qr=0)
            crit(theta)
            assert counts == {"make_spd_solver": 1, "qr": 1}, theta


def test_sigma2_floor_and_warning():
    obs = obs_1d([0.0, 1.0, 2.0], np.zeros(3))
    with pytest.warns(RuntimeWarning, match="floored"):
        s2 = C.sigma2_virtual(UNIT, obs, 1.0)
    assert s2 == 1e-12


def test_scaling_moves_criterion_not_argmin(rng):
    xs = well_spaced(rng, 6, 0.0, 6.0, min_gap=0.5)
    z = rng.normal(size=6)
    obs1 = obs_1d(xs, z)
    obs2 = obs_1d(xs, 10.0 * z)
    crit1 = lambda th: C.loocv_mse_virtual(replace(UNIT, theta=th), obs1)
    crit2 = lambda th: C.loocv_mse_virtual(replace(UNIT, theta=th), obs2)
    r1 = C.optimize_theta(crit1, (0.1, 10.0), budget=32)
    r2 = C.optimize_theta(crit2, (0.1, 10.0), budget=32)
    assert r1.theta_hat == r2.theta_hat
    assert r2.criterion_value == pytest.approx(100.0 * r1.criterion_value, rel=1e-9)


def test_optimizer_quadratic_bowl():
    res = C.optimize_theta(lambda th: (th - 2.0) ** 2, (0.5, 8.0), budget=40)
    assert abs(res.theta_hat - 2.0) <= 1e-3
    assert res.sigma2_hat == 1.0


def test_optimizer_deterministic_trace():
    crit = lambda th: (math.log(th) - 0.3) ** 2
    a = C.optimize_theta(crit, (0.2, 5.0), budget=24)
    b = C.optimize_theta(crit, (0.2, 5.0), budget=24)
    assert a.trace == b.trace
    assert len(a.trace) == 24
    assert a.theta_hat == b.theta_hat


def test_optimizer_constant_criterion_stays_in_first_cell():
    res = C.optimize_theta(lambda th: 1.0, (1.0, 100.0), budget=16)
    assert len(res.trace) == 16
    grid = np.geomspace(1.0, 100.0, 8)
    assert grid[0] <= res.theta_hat <= grid[1]
    assert res.criterion_value == 1.0


def test_optimizer_skips_nan_region():
    crit = lambda th: math.nan if th < 1.0 else (th - 3.0) ** 2
    res = C.optimize_theta(crit, (0.1, 10.0), budget=48)
    assert len(res.trace) == 48
    assert res.theta_hat >= 1.0
    assert abs(res.theta_hat - 3.0) <= 0.05


def test_optimizer_all_nan_raises():
    with pytest.raises(RuntimeError, match="non-finite"):
        C.optimize_theta(lambda th: math.nan, (0.1, 10.0), budget=16)


def test_optimizer_validation():
    with pytest.raises(ValueError):
        C.optimize_theta(lambda th: th, (2.0, 1.0))
    with pytest.raises(ValueError):
        C.optimize_theta(lambda th: th, (0.0, 1.0))
    with pytest.raises(ValueError):
        C.optimize_theta(lambda th: th, (0.1, 1.0), budget=4)


def test_optimizer_calls_sigma2_rule_at_optimum():
    seen = []

    def rule(theta):
        seen.append(theta)
        return 7.5

    res = C.optimize_theta(lambda th: (th - 2.0) ** 2, (0.5, 8.0), budget=24,
                           sigma2_rule=rule)
    assert res.sigma2_hat == 7.5
    assert seen == [res.theta_hat]


def test_default_bounds_median_scaling():
    pts = [ExtendedPoint((0.0,), (0,)), ExtendedPoint((1.0,), (0,)),
           ExtendedPoint((3.0,), (0,))]
    lo, hi = C.default_theta_bounds(pts)
    # pairwise distances 1, 2, 3 -> median 2
    assert lo == pytest.approx(0.02)
    assert hi == pytest.approx(200.0)
    with pytest.raises(ValueError):
        C.default_theta_bounds(pts[:1])


def test_escalation_guard_returns_nan():
    # two observations 1e-9 apart: the gram is numerically singular, the
    # factorization escalates, and the virtual identity is declared
    # undefined rather than evaluated on the regularized matrix
    obs = ObservationSet(
        [ExtendedPoint((0.0,), (0,)), ExtendedPoint((1e-9,), (0,)),
         ExtendedPoint((2.0,), (0,))],
        np.array([1.0, 1.0, -0.5]),
    )
    val = C.loocv_mse_virtual(UNIT, obs)
    assert math.isnan(val)
    with pytest.warns(RuntimeWarning, match="escalated"):
        s2 = C.sigma2_virtual(UNIT, obs, 1.0)
    assert math.isfinite(s2)


def test_unit_variance_and_centering_required(rng):
    xs = well_spaced(rng, 4)
    obs = obs_1d(xs, rng.normal(size=4))
    with pytest.raises(ValueError, match="unit"):
        C.loocv_mse_virtual(SqExpKernel(2.0, 1.0, 1), obs)
    with_mean = ObservationSet(obs.points, obs.values, mean=np.ones(4))
    with pytest.raises(ValueError, match="centered"):
        C.loocv_mse_virtual(UNIT, with_mean)
    with pytest.raises(ValueError, match="at least 2"):
        C.loocv_mse_virtual(UNIT, obs_1d([0.0], np.ones(1)))


def test_interpolation_criterion_zero_without_constraints(rng):
    xs = well_spaced(rng, 4)
    obs = obs_1d(xs, rng.normal(size=4))
    empty = OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    assert C.interpolation_error_criterion(UNIT, obs, empty) <= 1e-18


# --- soft reproduction targets on the seeded harmonic setup ---------------


def _capped_bounds(obs):
    xs = np.array([p.x[0] for p in obs.points])
    lo, hi = C.default_theta_bounds(obs.points)
    return lo, min(hi, float(xs.max() - xs.min()))


def test_harmonic_sk_calibration_band():
    obs, _, _ = ode_setup()
    crit = lambda th: C.loocv_mse_virtual(replace(UNIT, theta=th), obs)
    res = C.optimize_theta(crit, _capped_bounds(obs), budget=64,
                           sigma2_rule=lambda th: C.sigma2_virtual(UNIT, obs, th))
    assert abs(res.theta_hat - 0.83) <= 0.1
    assert abs(math.sqrt(res.sigma2_hat) - 0.61) <= 0.12


def test_harmonic_ck_criterion_noise_floor():
    # the collocation-informed criterion is at numerical noise level near
    # the known good lengthscale, many orders below the short-theta value
    obs, colloc, _ = ode_setup()
    mse, _ = C.loocv_ck_virtual(UNIT, obs, harmonic_rows(colloc))
    at_good = mse(1.46)
    assert at_good <= 1e-9
    assert at_good <= 1e-8 * mse(0.4)


def test_harmonic_interp_basin():
    obs, _, grid = ode_setup()
    locs = np.unique(np.concatenate([grid, [p.x[0] for p in obs.points]]))
    ops = harmonic_rows(locs)
    crit = lambda th: C.interpolation_error_criterion(
        replace(UNIT, theta=th), obs, ops
    )
    assert crit(2.3684) < crit(2.0) < crit(1.12)
    assert crit(2.3684) < crit(5.0)
    res = C.optimize_theta(crit, _capped_bounds(obs), budget=64)
    assert 2.1 <= res.theta_hat <= 2.7
    s2 = C.sigma2_interpolation(UNIT, obs, ops, res.theta_hat)
    assert abs(math.sqrt(s2) - 3.91) <= 0.5
