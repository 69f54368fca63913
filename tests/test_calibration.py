import collections
import logging
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import pikrig
from pikrig import calibration as C
from pikrig import cli, design, flowlab
from pikrig import predictors as P
from pikrig.design import ExtendedPoint, ObservationSet, OperatorSystem
from pikrig.kernel import SqExpKernel

import oracles
from util import mixed_rows, obs_1d, ode_setup, well_spaced

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


def _assert_lk_folds_match_refit(obs, ops, thetas, cfg=P.SolveConfig(), unit=UNIT):
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
    lo, hi = C.default_theta_bounds(obs.points)
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


def _count_calls(monkeypatch, targets):
    """Counter of calls to each (module, name) of ``targets``, by name."""
    counts = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for mod, name in targets:
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return counts


def test_lk_criterion_factors_once(monkeypatch):
    # one factorization per criterion evaluation, whatever the number of
    # folds, and one rank check per search; the pointwise equations share
    # no atom, so the rank check and the projection need no QR
    counts = _count_calls(monkeypatch, ((C, "make_spd_solver"), (P, "make_spd_solver"),
                                        (P, "_constraint_projector"), (P, "qr")))
    obs, _, grid = ode_setup(seed=10, n=6)
    for which in (0, 1):
        crit = C.loocv_lk_explicit(UNIT, obs, harmonic_rows(grid))[which]
        counts.clear()
        for theta in (0.8, 1.2):
            crit(theta)
        assert counts == {"make_spd_solver": 2, "_constraint_projector": 1}, which


def test_criteria_build_theta_invariant_state_once(monkeypatch):
    # each criterion extends its system, builds its atom sets and layout
    # and checks the rank once per search: later evaluations only
    # evaluate one covariance matrix and factor once.  ck factors the K+
    # of the co-Kriging solve, bit for bit; a Lagrangian criterion
    # evaluates only H and factors its observation columns, which are the
    # observation gram
    counts = _count_calls(monkeypatch, ((C, "make_spd_solver"), (P, "make_spd_solver"),
                                        (design, "_extend"), (P, "_constraint_projector")))
    factored = []
    for mod in (C, P):
        def capturing(K, cfg, _solver=mod.make_spd_solver):
            factored.append(K)
            return _solver(K, cfg)

        monkeypatch.setattr(mod, "make_spd_solver", capturing)
    make = design.Atoms._make.__func__

    def counted_make(cls, *args, **kwargs):
        counts["Atoms"] += 1
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(design.Atoms, "_make", classmethod(counted_make))
    obs, colloc, grid = ode_setup(seed=4, n=6)
    n, c = obs.n, harmonic_rows(colloc).c
    c_ext = design.extend_atoms(harmonic_rows(grid), obs.points).c
    factories = {
        "lk": lambda: C.loocv_lk_explicit(UNIT, obs, harmonic_rows(grid)),
        "ck": lambda: C.loocv_ck_virtual(UNIT, obs, harmonic_rows(colloc)),
        "interpolation": lambda: C.interpolation_criteria(UNIT, obs, harmonic_rows(grid)),
    }
    evals = {"lk": n * c_ext, "ck": (n + c) * (n + c + 1) // 2, "interpolation": n * c_ext}
    for name, factory in factories.items():
        crit = factory()[0]
        crit(0.9)
        for theta in (1.1, 1.4, 0.9):
            counts.clear()
            factored.clear()
            before = design.cov_eval_count()
            crit(theta)
            assert design.cov_eval_count() - before == evals[name], (name, theta)
            assert counts == {"make_spd_solver": 1}, (name, theta)
            (K,) = factored
            k = replace(UNIT, theta=theta)
            ref = (P.assemble_co_kriging(k, obs, harmonic_rows(colloc), [])[0] if name == "ck"
                   else design.gram(k, obs.points))
            assert np.array_equal(K, ref), (name, theta)


@pytest.mark.parametrize("method", tuple(cli._methods()))
def test_search_with_variance_rule_factors_once_per_theta(monkeypatch, method):
    # the variance rule at theta_hat reuses the search's evaluation there,
    # bit for bit a fresh rule's value; at any other theta, or without a
    # search, it evaluates afresh
    counts = _count_calls(monkeypatch, ((C, "make_spd_solver"), (P, "make_spd_solver")))
    row, scfg = cli._methods()[method], P.SolveConfig()
    built = []

    def criterion(*args):
        built.append(row.criterion(*args))
        return built[-1]

    for seed in (4, 5, 6, 7):
        obs, ops, _ = cli._ode1d_data(cli.RunConfig(seed=seed), row.ode_rows)
        built.clear()
        counts.clear()
        k, (_, res) = cli._calibrate(cli.RunConfig(budget=16), criterion, obs, ops, scfg)
        assert counts["make_spd_solver"] == len(res.trace), seed
        assert k.sigma2 == row.criterion(UNIT, obs, ops, scfg)[1](res.theta_hat), seed

        counts.clear()
        fixed, _ = cli._calibrate(cli.RunConfig(theta=res.theta_hat), row.criterion, obs, ops, scfg)
        assert counts["make_spd_solver"] == 1 and fixed == k, seed

        other = next(t for t, v in res.trace if math.isfinite(v) and t != res.theta_hat)
        [(_, rule)] = built
        assert rule(other) == row.criterion(UNIT, obs, ops, scfg)[1](other), seed


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


def test_optimizer_deterministic_trace():
    crit = lambda th: (math.log(th) - 0.3) ** 2
    a = C.optimize_theta(crit, (0.2, 5.0), budget=24)
    b = C.optimize_theta(crit, (0.2, 5.0), budget=24)
    assert a.trace == b.trace
    assert len(a.trace) == 24
    assert a.theta_hat == b.theta_hat


@st.composite
def searches(draw):
    """(criterion, bounds, budget) of a search whose criterion of log theta
    is a bowl, a staircase of plateaus (ties), a flat line or a wave, with
    an optional interval where it is nan, inf or raises ConditioningError;
    the bounds are decades or a few ulps apart."""
    lo = draw(st.floats(1e-3, 1e2))
    if draw(st.booleans()):
        hi = lo * draw(st.floats(1.001, 1e4))
    else:
        hi = lo
        for _ in range(draw(st.integers(1, 6))):
            hi = math.nextafter(hi, math.inf)
    a, b = math.log(lo), math.log(hi)
    centre = draw(st.floats(a - 1.0, b + 1.0))
    shape = draw(st.sampled_from(["bowl", "stairs", "flat", "wave"]))
    step = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    bad = sorted(draw(st.lists(st.floats(a - 0.5 * (b - a), b + 0.5 * (b - a)),
                               min_size=2, max_size=2)))
    fault = draw(st.sampled_from([None, math.nan, math.inf, "raise"]))

    def criterion(theta):
        x = math.log(theta)
        if fault is not None and bad[0] <= x <= bad[1]:
            if fault == "raise":
                raise P.ConditioningError("no factor", 1e-4)
            return fault
        return {"bowl": (x - centre) ** 2, "stairs": math.floor((x - centre) ** 2 / step),
                "flat": 1.0, "wave": math.cos(7.0 * (x - centre)) + 0.1 * abs(x - centre)}[shape]

    return criterion, (lo, hi), draw(st.integers(8, 200))


def _outcome(search, criterion, bounds, budget):
    try:
        return repr(search(criterion, bounds, budget))
    except P.ConditioningError as exc:
        return f"ConditioningError({exc}, {exc.nugget_last})"


@settings(max_examples=400, deadline=None)
@given(drawn=searches())
def test_optimizer_matches_reference_search(drawn):
    # the one refinement loop evaluates the same thetas in the same order
    # as the reference's three cases, and picks the same argmin: traces,
    # theta_hat and criterion values compare equal by repr
    assert _outcome(C.optimize_theta, *drawn) == _outcome(oracles.optimize_theta_reference,
                                                          *drawn)


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


def test_optimizer_logs_one_summary_per_search(caplog):
    def crit(theta):
        if theta < 0.3:
            raise P.ConditioningError("no factor", 1e-4)
        return math.nan if theta < 1.0 else (theta - 3.0) ** 2

    with caplog.at_level(logging.INFO):
        res = C.optimize_theta(crit, (0.1, 10.0), budget=48)
    bad = [t for t, v in res.trace if math.isnan(v)]
    assert len(res.trace) == 48 and bad
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    message = record.getMessage()
    assert f"{len(bad)} of 48 thetas in [{min(bad):.6g}, {max(bad):.6g}]" in message
    assert "failed to factor" in message and "no factor" in message


def test_cli_search_logs_one_summary(caplog, tmp_path, monkeypatch):
    # the ode1d ck search escalates at a few thetas: one warning in all,
    # no line per theta, with the count of the search's own trace
    searches, optimize = [], C.optimize_theta
    monkeypatch.setattr(C, "optimize_theta", lambda *a, **kw: searches.append(optimize(*a, **kw))
                        or searches[-1])
    with caplog.at_level(logging.INFO):
        assert cli.main(["ode1d", "--method", "ck", "--seed", "4",
                         "--out", str(tmp_path)]) == 0
    (record,) = [r for r in caplog.records if r.name == C.__name__]
    assert record.levelno == logging.WARNING
    (res,) = searches
    nonfinite = sum(not math.isfinite(v) for _, v in res.trace)
    assert 0 < nonfinite < len(res.trace) == 64
    assert f"non-finite at {nonfinite} of 64 thetas" in record.getMessage()


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


def test_default_bounds_median_scaling():
    pts = [ExtendedPoint((0.0,), (0,)), ExtendedPoint((1.0,), (0,)),
           ExtendedPoint((3.0,), (0,))]
    lo, hi = C.default_theta_bounds(pts)
    # pairwise distances 1, 2, 3 -> median 2; the upper end is capped at
    # the diameter 3
    assert lo == pytest.approx(0.02)
    assert hi == 3.0
    with pytest.raises(ValueError):
        C.default_theta_bounds(pts[:1])
    # most pairs coincide: the median distance is 0, though the diameter is 1
    crowded = [ExtendedPoint((x,), (0,)) for x in (0.0, 0.0, 0.0, 0.0, 1.0)]
    with pytest.raises(ValueError, match="median pairwise distance 0.0 cannot scale bounds"):
        C.default_theta_bounds(crowded)


def _cli_layouts():
    """Observation layouts the CLI calibrates on: ode1d, scalar2d, flow."""
    for seed in (4, 5, 6, 7, 10):
        yield cli._ode1d_data(cli.RunConfig(seed=seed), None)[0].points
    yield cli._scalar2d_system(cli.RunConfig(experiment="scalar2d"))[0].points
    problem, _ = cli._flow_problem(cli.RunConfig(experiment="flow-cylinder"))
    yield flowlab.build_flow_system(problem)[0].points


def test_default_bounds_equal_pdist_bounds():
    # the numpy pairwise distances give the bounds scipy's pdist gave,
    # bit for bit, on every layout the CLI searches
    for points in _cli_layouts():
        dist = pdist(np.array([p.x for p in points]))
        med = float(np.median(dist))
        assert C.default_theta_bounds(points) == (1e-2 * med, min(1e2 * med, float(dist.max())))


def test_import_does_not_load_scipy_spatial():
    # scipy.spatial costs about 0.1 s of import time and serves no caller
    code = ("import sys, pikrig, pikrig.calibration, pikrig.cli; "
            "sys.exit('scipy.spatial' in sys.modules)")
    src = os.path.dirname(os.path.dirname(pikrig.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
    ops = design.encode_pointwise([((1.0,), [(1.0, (0,)), (1.0, (2,))])], [0.0])
    with pytest.raises(ValueError, match="at least 2"):
        C.loocv_lk_explicit(UNIT, obs_1d([0.0], np.ones(1)), ops)


def test_interpolation_criterion_zero_without_constraints(rng):
    xs = well_spaced(rng, 4)
    obs = obs_1d(xs, rng.normal(size=4))
    empty = OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    assert C.interpolation_error_criterion(UNIT, obs, empty) <= 1e-18


# --- soft reproduction targets on the seeded harmonic setup ---------------


def test_harmonic_sk_calibration_band():
    obs, _, _ = ode_setup()
    crit = lambda th: C.loocv_mse_virtual(replace(UNIT, theta=th), obs)
    res = C.optimize_theta(crit, C.default_theta_bounds(obs.points), budget=64)
    assert abs(res.theta_hat - 0.83) <= 0.1
    assert abs(math.sqrt(C.sigma2_virtual(UNIT, obs, res.theta_hat)) - 0.61) <= 0.12


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
    res = C.optimize_theta(crit, C.default_theta_bounds(obs.points), budget=64)
    assert 2.1 <= res.theta_hat <= 2.7
    s2 = C.sigma2_interpolation(UNIT, obs, ops, res.theta_hat)
    assert abs(math.sqrt(s2) - 3.91) <= 0.5


@pytest.mark.parametrize("nugget", [0.0, 1e-8])
def test_interpolation_sigma2_matches_weights_route(nugget):
    # the closed-form variance rule (Kriging's variance plus (U w)^2 / gamma2)
    # against the variances of the fit's formed weights, K* - alpha^T (H - M),
    # at each search's argmin: ode1d lk-interp data, and the QR projection
    # with rows at the same places (the grid and the observations)
    cfg, row = P.SolveConfig(nugget=nugget), cli._methods()["lk-interp"]
    cases = [cli._ode1d_data(cli.RunConfig(seed=seed), row.ode_rows)[:2]
             for seed in (4, 5, 6, 7, 10, 11, 331)]
    obs, _, grid = ode_setup(seed=5, n=6)
    locations = np.unique(np.concatenate([grid, obs.points.X[:, 0]]))
    for obs, ops in cases + [(obs, mixed_rows(locations))]:
        crit, s2 = C.interpolation_criteria(UNIT, obs, ops, cfg)
        theta = C.optimize_theta(crit, C.default_theta_bounds(obs.points)).theta_hat
        want = oracles.interpolation_sigma2_weights_route(UNIT, obs, ops, theta, cfg)
        assert abs(s2(theta) - want) <= 1e-9 * want, (theta, s2(theta), want)


# -- the grid as one stack ----------------------------------------------------


def _same_bits(a, b):
    """Equal arrays of floats, bit for bit where not nan, nan at the same places."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def _one_at_a_time(crit, thetas):
    """``crit`` at each theta in its own call, nan where the factorization failed."""
    out = []
    for t in thetas:
        try:
            out.append(crit(float(t)))
        except P.ConditioningError:
            out.append(math.nan)
    return out


def _ode1d_families(seed):
    """(name, factory, per-theta oracle) of each ode1d criterion at ``seed``:
    the criterion factories take (k_unit, cfg), as do the oracles."""
    out = []
    for method in ("sk", "ck", "lk", "lk-interp"):
        row = cli._methods()[method]
        obs, ops, _ = cli._ode1d_data(cli.RunConfig(seed=seed), row.ode_rows)
        oracle = {"sk": lambda k, c, o=obs: oracles.loocv_ck_per_theta(k, o, None, c),
                  "ck": lambda k, c, o=obs, s=ops: oracles.loocv_ck_per_theta(k, o, s, c),
                  "lk": lambda k, c, o=obs, s=ops: oracles.loocv_lk_per_theta(k, o, s, c),
                  "lk-interp": lambda k, c, o=obs, s=ops: oracles.interpolation_per_theta(k, o, s, c),
                  }[method]
        out.append((method, lambda k, c, r=row, o=obs, s=ops: r.criterion(k, o, s, c), oracle))
    return out


def _assert_stack_is_per_theta(factory, oracle, thetas, cfg=P.SolveConfig()):
    crit, s2 = factory(UNIT, cfg)
    stacked = crit(thetas)
    assert isinstance(stacked, np.ndarray) and stacked.shape == thetas.shape
    assert _same_bits(stacked, _one_at_a_time(factory(UNIT, cfg)[0], thetas))
    want, want_s2 = oracle(UNIT, cfg)
    assert _same_bits(stacked, _one_at_a_time(want, thetas))
    # the variance rule at the stack's argmin reads its kept slice, and at
    # another theta evaluates a stack of one: both as the oracle's rule
    finite = thetas[np.isfinite(stacked)]
    best = finite[np.argmin(stacked[np.isfinite(stacked)])]
    for theta in (float(best), float(finite[0])):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert s2(theta) == want_s2(theta)
    return stacked


STACK_GRID = np.concatenate([[1e-160], np.geomspace(0.05, 60.0, 29)])


@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")  # theta 1e-160
@pytest.mark.parametrize("stack", [C._STACK, 300], ids=["one-stack", "chunks"])
@pytest.mark.parametrize("seed", [4, 5, 6, 7, 10])
def test_stacked_criteria_are_the_per_theta_values(monkeypatch, seed, stack):
    # each ode1d criterion on a vector of theta gives, bit for bit, its own
    # value one theta at a time and the per-theta oracle's: over a grid with
    # a slice that fails to factor (nan) and escalated-jitter nans, as one
    # stack or split into several
    monkeypatch.setattr(C, "_STACK", stack)
    seen = collections.Counter()
    for name, factory, oracle in _ode1d_families(seed):
        vals = _assert_stack_is_per_theta(factory, oracle, STACK_GRID)
        seen[name] += bool(np.isnan(vals[1:]).any())
        if name != "sk":  # sk's gram has no derivative atoms: it factors even at 1e-160
            assert math.isnan(vals[0])
            with pytest.raises(P.ConditioningError, match="every nugget"):
                factory(UNIT, P.SolveConfig())[0](1e-160)
    assert seen["ck"] == 1, seen


@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")  # theta 1e-160
def test_stacked_criteria_on_summed_rows_and_qr_projection():
    # an equation over several locations (the layout sums its rows) and an
    # atom in two equations (the projection by QR), with a nugget, over a
    # grid with a slice that fails to factor: the others are projected
    obs, colloc, grid = ode_setup(seed=5, n=6)
    ops = mixed_rows(colloc)
    thetas = np.concatenate([[1e-160], np.geomspace(0.1, 8.0, 17)])
    for cfg in (P.SolveConfig(), P.SolveConfig(nugget=1e-8)):
        _assert_stack_is_per_theta(lambda k, c: C.loocv_ck_virtual(k, obs, ops, c),
                                   lambda k, c: oracles.loocv_ck_per_theta(k, obs, ops, c),
                                   thetas, cfg)
        for factory, oracle in ((C.loocv_lk_explicit, oracles.loocv_lk_per_theta),
                                (C.interpolation_criteria, oracles.interpolation_per_theta)):
            _assert_stack_is_per_theta(lambda k, c, f=factory: f(k, obs, mixed_rows(grid), c),
                                       lambda k, c, f=oracle: f(k, obs, mixed_rows(grid), c),
                                       thetas, cfg)


def test_stacked_flow_criteria_are_the_per_theta_values():
    # the default cylinder: flow ck's filtered criterion (one theta per
    # stack), flow lk's step 1 over the velocity observations and its
    # two-column step 2 over the observations and the boundary velocities
    p = flowlab.cylinder_problem(flowlab.CylinderGeometry((0.0, 0.0), 1.0))
    obs, ops, _ = flowlab.build_flow_system(p)
    k2 = SqExpKernel(1.0, 1.0, 2)
    _assert_stack_is_per_theta(lambda k, c: C.loocv_ck_virtual(k2, obs, ops, c),
                               lambda k, c: oracles.loocv_ck_per_theta(k2, obs, ops, c),
                               np.geomspace(0.3, 3.0, 4))
    bounds = C.default_theta_bounds(obs.points)
    _assert_stack_is_per_theta(lambda k, c: C.loocv_ck_virtual(k2, obs, None, c),
                               lambda k, c: oracles.loocv_ck_per_theta(k2, obs, None, c),
                               np.geomspace(*bounds, 32))
    w1 = P.lagrangian_kriging(k2, obs, design.encode_rows(
        [(p.boundary_locations, ((1, 0), (0, 1)), p.boundary_normals)],
        np.zeros(len(p.boundary_locations))))
    pts = design.Atoms(np.vstack([p.obs_locations, p.boundary_locations]), (0, 0))
    vals = np.vstack([p.obs_velocities, w1.predictions[:2 * len(p.boundary_locations)].reshape(-1, 2)])
    thetas = np.geomspace(*C.default_theta_bounds(pts), 40)
    crit, _, parts_at = C._virtual_criteria(k2, pts, vals, P.SolveConfig())
    want, _, _ = oracles.virtual_criteria_per_theta(k2, pts, vals, P.SolveConfig())
    stacked = crit(thetas)
    assert _same_bits(stacked, [crit(float(t)) for t in thetas])
    assert _same_bits(stacked, [want(float(t)) for t in thetas])
    best = float(thetas[np.nanargmin(stacked)])
    solve, eta = parts_at(best)[3]
    K = design.gram(replace(k2, theta=best), pts)
    assert np.array_equal(solve(np.eye(len(K))), P.make_spd_solver(K, P.SolveConfig())[0](np.eye(len(K))))


@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")  # theta 1e-160
@pytest.mark.parametrize("method", ["sk", "ck", "lk", "lk-interp"])
def test_search_is_the_same_through_a_plain_callable(caplog, method):
    # optimize_theta hands its grid to a criterion factory's criterion as
    # one stack and calls any other callable once per theta: the trace,
    # theta_hat and the log line are the same either way, failed
    # factorizations (the bracket starts at 1e-160) included
    row = cli._methods()[method]
    obs, ops, _ = cli._ode1d_data(cli.RunConfig(seed=6), row.ode_rows)
    for lo in (1e-160, 1e-3):
        got = []
        for wrap in (lambda c: c, lambda c: (lambda t: c(t))):
            crit = wrap(row.criterion(UNIT, obs, ops, P.SolveConfig())[0])
            caplog.clear()
            with caplog.at_level(logging.INFO):
                try:
                    res = C.optimize_theta(crit, (lo, 40.0), budget=40)
                except ValueError as exc:  # lk-interp: a non-finite H past a finite K
                    got.append((type(exc), str(exc)))
                    continue
            got.append((res.theta_hat, res.criterion_value,
                        [r.getMessage() for r in caplog.records], np.array(res.trace)))
        assert got[0][:3] == got[1][:3], lo
        if len(got[0]) > 2:
            assert _same_bits(got[0][3], got[1][3])
            if method != "sk" and lo < 1e-100:
                (message,) = got[0][2]
                assert "failed to factor" in message


@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")  # theta 1e-160
def test_stacked_lk_raises_for_the_first_theta_in_grid_order():
    # a degenerate fold raises the per-theta error, and a rank-deficient U
    # raises before any factorization, whatever the grid
    obs, _, grid = ode_setup(seed=10)
    zeros = ObservationSet(obs.points, np.zeros(obs.n))
    ops = harmonic_rows(grid)
    thetas = np.array([1e-160, 0.7, 1.3])
    for factory in (C.loocv_lk_explicit, C.interpolation_criteria):
        with pytest.raises(P.DegenerateConstraintError) as stacked:
            factory(UNIT, zeros, ops)[0](thetas)
        with pytest.raises(P.DegenerateConstraintError) as one:
            factory(UNIT, zeros, ops)[0](0.7)
        assert str(stacked.value) == str(one.value)
    dependent = OperatorSystem(ops.colloc_points, np.hstack([ops.U, ops.U[:, :1]]),
                               np.zeros(ops.p + 1))
    for factory in (C.loocv_lk_explicit, C.interpolation_criteria):
        with pytest.raises(P.RankDeficiencyError) as stacked:
            factory(UNIT, obs, dependent)[0](thetas)
        with pytest.raises(P.RankDeficiencyError) as one:
            factory(UNIT, obs, dependent)[0](1e-160)
        assert str(stacked.value) == str(one.value)


def test_theta_whose_square_leaves_the_doubles_is_refused():
    # the closed forms divide by theta^2: a theta whose square underflows to
    # 0 or overflows to inf is a ValueError, for a kernel, for every criterion
    # (a lone theta, a stack, a variance rule) and so for a search grid
    obs, ops, _ = cli._ode1d_data(cli.RunConfig(), "colloc")
    lk_obs, lk_ops, _ = cli._ode1d_data(cli.RunConfig(), "grid")
    refused = lambda: pytest.raises(ValueError, match="finite non-zero square")
    for bad in (1e-200, 1e200, 0.0, -1.0, math.nan, math.inf):
        with refused():
            SqExpKernel(1.0, bad, 1)
    for mse, sigma2 in (C.loocv_ck_virtual(UNIT, obs, ops),
                        C.loocv_lk_explicit(UNIT, lk_obs, lk_ops),
                        C.interpolation_criteria(UNIT, lk_obs, lk_ops)):
        for thetas in ([1e-200], [1.0, 1e-200], [1.0, 1e200]):
            with refused():
                mse.grid(np.array(thetas), [])
        with refused():
            sigma2(1e-170)
        with refused():
            C.optimize_theta(mse, (1e-170, 1.0))
