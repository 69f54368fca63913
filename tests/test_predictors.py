import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pikrig
from pikrig import calibration, cli, design, flowlab, kernel, uq
from pikrig import predictors as P
from pikrig.design import ExtendedPoint, ObservationSet, OperatorSystem
from pikrig.kernel import SqExpKernel

import oracles
from util import mixed_rows, obs_1d, ode_setup, well_spaced


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
    # one mu_star entry per prediction atom, never broadcast
    for rows in (ops, None):
        with pytest.raises(ValueError, match="mu_star has size 1, expected 3"):
            P.co_kriging(k, obs_m, rows, pred, mu_star=[5.0])
    with pytest.raises(ValueError, match=f"mu_star has size 1, expected {ops.c}"):
        P.lagrangian_kriging(k, obs_m, ops, mu_star=[5.0])


def test_co_kriging_empty_ops_delegates(rng):
    k, obs, ops, pred = random_instance(rng)
    empty = OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    a = P.co_kriging(k, obs, empty, pred)
    b = P.simple_kriging(k, obs, pred)
    assert np.array_equal(a.predictions, b.predictions)
    c = P.co_kriging(k, obs, None, pred)
    assert np.array_equal(c.predictions, b.predictions)
    # ordinary Kriging is ordinary co-Kriging with no rows, bit for bit,
    # and both are the bordered solve on the plain gram
    mu_star = np.full(len(pred), 2.0)
    obs_m = ObservationSet(obs.points, obs.values, mean=np.full(obs.n, 2.0))
    K, H = design.gram(k, obs.points), design.gram(k, obs.points, pred)
    gram_solve = P.solve_co_kriging(K, H, obs.values, P.SolveConfig(),
                                    mu_plus=obs_m.mean, mu_star=mu_star)
    ref = P.ordinary_kriging(k, obs_m, pred, mu_star)
    for w in (P.co_kriging(k, obs_m, None, pred, mu_star),
              P.co_kriging(k, obs_m, OperatorSystem(), pred, mu_star), gram_solve):
        for name in ("alpha", "lam", "cross", "predictions"):
            assert np.array_equal(getattr(w, name), getattr(ref, name)), name
    # without rows a non-constant mean is used as it is; with rows it
    # cannot extend onto the collocation atoms
    ramp = ObservationSet(obs.points, obs.values, mean=np.linspace(1.0, 2.0, obs.n))
    w = P.co_kriging(k, ramp, None, pred, mu_star)
    assert np.allclose(w.alpha, oracles.kkt_ordinary(K, H, ramp.mean, mu_star), atol=1e-8)
    assert np.max(np.abs(w.alpha.T @ ramp.mean - mu_star)) <= 1e-10
    with pytest.raises(P.DegenerateMeanError):
        P.co_kriging(k, ramp, ops, pred, mu_star)


def test_plain_kriging_counts_no_stacked_atoms(rng):
    """Plain Kriging counts n(n+1)/2 + n q evaluations, also through a
    system whose atoms sit in no equation (p = 0 stacks nothing)."""
    k, obs, _, pred = random_instance(rng)
    n, q = obs.n, len(pred)
    unused = design.extend_atoms(OperatorSystem(), design.Atoms([[0.2], [3.1]], (2,)))
    assert (unused.c, unused.p) == (2, 0)
    obs_m = ObservationSet(obs.points, obs.values, mean=np.ones(n))
    runs = [
        lambda: P.simple_kriging(k, obs, pred),
        lambda: P.co_kriging(k, obs, unused, pred),
        lambda: P.ordinary_kriging(k, obs_m, pred, np.ones(q)),
        lambda: P.co_kriging(k, obs_m, unused, pred, np.ones(q)),
    ]
    for run in runs:
        design.reset_cov_eval_count()
        run()
        assert design.cov_eval_count() == n * (n + 1) // 2 + n * q


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


def test_cross_is_h_minus_multiplier_term(rng):
    # every solver returns cross = H - M, with K alpha = H + M at its weights:
    # M = 0 (sk, ck), mu lam^T (ok), Z (U lam')^T (+ mu lam^T) (lk)
    k, obs, ops, pred = random_instance(rng)
    cfg = P.SolveConfig()
    Z = obs.values
    mu = np.ones(obs.n)
    obs_m = ObservationSet(obs.points, Z, mean=mu)
    K = design.gram(k, obs.points)
    H = design.gram(k, obs.points, pred)
    Kplus, Hplus, y = P.assemble_co_kriging(k, obs, ops, pred)
    lk_ops = OperatorSystem(pred, np.ones((len(pred), 1)), [float(rng.normal())])
    mu_star = np.ones(len(pred))
    cases = {
        "sk": (K, H, P.solve_co_kriging(K, H, Z, cfg)),
        "ok": (K, H, P.solve_co_kriging(K, H, Z, cfg, mu_plus=mu, mu_star=mu_star)),
        "ck": (Kplus, Hplus, P.solve_co_kriging(Kplus, Hplus, y, cfg)),
        "lk": (K, H, P.solve_lagrangian(K, H, obs, lk_ops, cfg)),
        "lk ordinary": (K, H, P.solve_lagrangian(K, H, obs_m, lk_ops, cfg, mu_star)),
    }
    assert cases["sk"][2].cross is H
    assert cases["ck"][2].cross is Hplus
    for name, (Kc, Hc, w) in cases.items():
        M = np.zeros_like(Hc)
        if w.lam is not None:
            M += np.outer(mu, w.lam)
        if w.lam2 is not None:
            M += np.outer(Z, lk_ops.U @ w.lam2)
        assert (w.lam is not None) == ("ok" in name or "ordinary" in name), name
        assert (w.lam2 is not None) == name.startswith("lk"), name
        scale = max(1.0, float(np.max(np.abs(Hc))))
        assert np.max(np.abs(w.cross - (Hc - M))) <= 1e-12 * scale, name
        assert np.max(np.abs(Kc @ w.alpha - (Hc + M))) <= 1e-8 * scale, name


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
        # the covariance runs the same solve, rank check included
        with pytest.raises(P.RankDeficiencyError) as err_var:
            uq.var_lk(k, obs, ops)
        assert err_var.value.dependent == err.value.dependent
        # and so does the identity Schur variant, the same projection
        with pytest.raises(P.RankDeficiencyError) as err_ident:
            P.co_kriging_schur(k, obs, ops, conditional_cov="identity")
        assert err_ident.value.dependent == err.value.dependent
    # the rank tolerance is relative to U: scaling it changes nothing
    assert named[2] == named[1]


def test_lagrangian_zero_observations_degenerate(rng):
    k, obs, _, _ = random_instance(rng)
    zeros = ObservationSet(obs.points, np.zeros(obs.n))
    atoms = [ExtendedPoint((0.5,), (0,))]
    ops = OperatorSystem(atoms, np.ones((1, 1)), [1.0])
    with pytest.raises(P.DegenerateConstraintError):
        P.lagrangian_kriging(k, zeros, ops)


def test_ordinary_lagrangian_guards(rng):
    k, obs, _, _ = random_instance(rng)
    ops = design.encode_pointwise([((1.0,), [(1.0, (0,)), (1.0, (2,))])], [0.0])
    K, H = P.assemble_lagrangian(k, obs, ops)
    with_mean = ObservationSet(obs.points, obs.values, mean=np.ones(obs.n))
    with pytest.raises(ValueError, match="needs mu_star"):
        P.solve_lagrangian(K, H, with_mean, ops, P.SolveConfig())
    # observations proportional to the mean leave nothing once the mean
    # is removed: gamma2 - gamma3^2/gamma1 is zero up to rounding
    on_mean = ObservationSet(obs.points, 2.0 * np.ones(obs.n), mean=np.ones(obs.n))
    with pytest.raises(P.DegenerateConstraintError, match="gamma2 - gamma3\\^2/gamma1"):
        P.lagrangian_kriging(k, on_mean, ops, mu_star=np.ones(len(ops.colloc_points)))


def _count_calls(monkeypatch, names):
    """Count calls of predictors' ``names`` wherever the package binds them."""
    counts = {}

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in names:
        original = getattr(P, name)
        counts[name] = 0
        wrapped = counting(name, original)
        for mod in (pikrig, calibration, cli, design, flowlab, kernel, P, uq):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, wrapped)
    return counts


def test_lagrangian_factors_k_and_utu_once(monkeypatch):
    # one Cholesky factorization of K (one make_spd_solver) per Lagrangian
    # solve, and U^T U is never factored.  Pointwise equations share no
    # atom, so U^T U is diagonal and the projection needs no QR at all; that
    # holds for the predictor, the covariance, the identity Schur variant
    # and one leave-one-out criterion evaluation (all folds).  Coupled
    # equations take one pivoted QR of U, whose R also solves the projection
    counts = _count_calls(monkeypatch, ("make_spd_solver", "cho_factor", "qr"))
    obs, colloc, _ = ode_setup()
    k = SqExpKernel(sigma2=1.0, theta=1.2, dim=1)
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in colloc]
    ops = design.encode_pointwise(rows, np.zeros(len(rows)))
    obs_m = ObservationSet(obs.points, obs.values, mean=np.ones(obs.n))
    mu_star = np.ones(len(ops.colloc_points))
    k_mixed, obs_mixed, ops_mixed = _mixed_system()
    runs = {
        "simple": lambda: P.lagrangian_kriging(k, obs, ops),
        "var_lk": lambda: uq.var_lk(k, obs, ops),
        "ordinary": lambda: P.lagrangian_kriging(k, obs_m, ops, mu_star=mu_star),
        "identity": lambda: P.co_kriging_schur(k, obs, ops, conditional_cov="identity"),
        "lk folds": lambda: calibration.loocv_lk_explicit(
            SqExpKernel(sigma2=1.0, theta=1.0, dim=1), obs, ops)[0](1.2),
        "coupled": lambda: P.lagrangian_kriging(k_mixed, obs_mixed, ops_mixed),
    }
    for name, run in runs.items():
        for key in counts:
            counts[key] = 0
        run()
        assert counts == {"make_spd_solver": 1, "cho_factor": 0, "qr": int(name == "coupled")}, name


def _sweep_system(p):
    """The benchmark's constraint sweep: 4 sin observations, f + f'' = 0 at p points."""
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
    obs = obs_1d(xs, np.sin(xs))
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))])
            for x in np.linspace(0.0, 2.0 * np.pi, p)]
    return SqExpKernel(sigma2=1.0, theta=1.0, dim=1), obs, design.encode_pointwise(
        rows, np.zeros(p))


def _mixed_system():
    """Pointwise f + f'' rows plus one sample-average equation sharing their atoms."""
    obs, colloc, _ = ode_setup()
    return SqExpKernel(sigma2=1.0, theta=1.2, dim=1), obs, mixed_rows(colloc)


def _scalar2d_lk_system():
    obs, ops, _, _ = cli._scalar2d_system(cli.RunConfig(q=16))
    return SqExpKernel(sigma2=1.0, theta=1.0, dim=2), obs, ops


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def _multi_indices(d, top):
    return st.sampled_from([m for m in np.ndindex(*[top + 1] * d) if sum(m) <= top])


@st.composite
def row_systems(draw, spread=False):
    """A d-dimensional co-Kriging input on the lattice 0.5 Z^d in [0, 2]^d:
    distinct observation atoms, one to three :func:`design.encode_rows`
    blocks (rows of different blocks may share a location, terms repeat,
    coefficients vary per row and may be zero) with term orders at most
    a, and prediction atoms of order at most 4 - a followed by the
    collocation atoms, as the CLI predicts them.  With ``spread``, one or
    two equations over several locations join those rows, at drawn
    positions: their terms come in drawn order, so a location may repeat
    or recur after another, and their zero coordinates may be -0.0."""
    d, a = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    points = st.tuples(*[st.integers(0, 4)] * d)
    obs_atoms = draw(st.lists(st.tuples(points, _multi_indices(d, a)), min_size=1,
                              max_size=5, unique=True))
    obs = ObservationSet(design.Atoms(0.5 * np.array([x for x, _ in obs_atoms], float),
                                      np.array([m for _, m in obs_atoms])),
                         draw(st.lists(st.floats(-2, 2), min_size=len(obs_atoms),
                                       max_size=len(obs_atoms))))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        orders = draw(st.lists(_multi_indices(d, a), min_size=1, max_size=3))
        locs = draw(st.lists(points, min_size=1, max_size=4))
        coeff = st.one_of(st.just(0.0), st.floats(-2, 2))
        C = np.array(draw(st.lists(st.lists(coeff, min_size=len(orders), max_size=len(orders)),
                                   min_size=len(locs), max_size=len(locs))))
        C[np.abs(C).max(axis=1) < 0.1, 0] = 1.0  # every row has a nonzero term
        blocks.append((0.5 * np.array(locs, float), orders, C))
    p = sum(len(X) for X, _, _ in blocks)
    try:
        ops = design.encode_rows(blocks, draw(st.lists(st.floats(-2, 2), min_size=p, max_size=p)))
    except ValueError as exc:
        if "all-zero coefficient column" not in str(exc):
            raise
        assume(False)  # a row whose repeated terms cancel: no equation
    if spread:
        atom, eq, coeff = ops.terms
        X, M, rhs = ops.colloc_points.X[atom], ops.colloc_points.M[atom], list(ops.rhs)
        for j in range(p, p + draw(st.integers(1, 2))):
            locs = draw(st.lists(points, min_size=2, max_size=2, unique=True))
            locs = 0.5 * np.array(draw(st.permutations(locs + draw(st.lists(points, max_size=3)))))
            locs[locs == 0] *= draw(st.sampled_from([1.0, -1.0]))
            X = np.vstack([X, locs])
            M = np.vstack([M, [draw(_multi_indices(d, a)) for _ in locs]])
            coeff = np.append(coeff, [draw(st.floats(0.1, 2)) for _ in locs])  # no term cancels
            eq, rhs = np.append(eq, [j] * len(locs)), rhs + [draw(st.floats(-2, 2))]
        order = np.array(draw(st.permutations(range(len(rhs)))))  # equation j goes to order[j]
        ops = design._operator_system(X, M, coeff, order[eq], np.array(rhs)[np.argsort(order)])
    pred = draw(st.lists(st.tuples(points, _multi_indices(d, 4 - a)), max_size=4))
    pred = design.Atoms(0.5 * np.array([x for x, _ in pred], float).reshape(-1, d),
                        np.array([m for _, m in pred], int).reshape(-1, d))
    k = SqExpKernel(sigma2=draw(st.floats(0.5, 2.0)), theta=draw(st.floats(0.3, 2.0)), dim=d)
    return k, obs, ops, pred + ops.colloc_points


def _assert_dense_co_kriging(k, obs, ops, pred):
    # K+, H+ and y as the dense contraction with U gives them, and the
    # counter takes the atom pairs of [primary; collocation] atoms
    design.reset_cov_eval_count()
    got = P.assemble_co_kriging(k, obs, ops, pred)
    N = obs.n + ops.c
    assert design.cov_eval_count() == N * (N + 1) // 2 + N * len(pred)
    for a, b in zip(got, oracles.assemble_co_kriging_dense(k, obs, ops, pred)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * np.max(np.abs(b), initial=0.0)


def _row_count(ops):
    return sum(len(rows) for rows, *_ in ops.blocks)


@settings(max_examples=120, deadline=None)
@given(spread=st.booleans(), data=st.data())
def test_row_block_assembly_matches_dense_contraction(spread, data):
    # one row per (equation, location), summed into the equations, gives
    # the dense contraction's K+ and H+; so does the same system handed
    # over as a dense U over its atoms in drawn order, where the locations
    # of an equation may alternate.  At a short lengthscale, where K+ is
    # well conditioned, the ck criterion on those rows is the per-fold refit
    k, obs, ops, pred = data.draw(row_systems(spread))
    atoms = data.draw(st.permutations(range(ops.c)))
    dense = OperatorSystem(ops.colloc_points[np.array(atoms)], ops.U[atoms], ops.rhs)
    for system in (ops, dense):
        assert (_row_count(system) > ops.p) == spread
        _assert_dense_co_kriging(k, obs, system, pred)
    unit = SqExpKernel(sigma2=1.0, theta=0.35, dim=k.dim)
    Kplus = oracles.assemble_co_kriging_dense(unit, obs, ops, [])[0]
    if obs.n > 1 and np.linalg.cond(Kplus) < 1e8:
        for system in (ops, dense):
            mse = calibration.loocv_ck_virtual(unit, obs, system)[0](unit.theta)
            assert mse == pytest.approx(oracles.loocv_naive_ck(unit, obs, system), rel=1e-6)


def test_co_kriging_over_several_locations_matches_dense_contraction():
    # an encoded average, the mixed system's hand-built U and a U of ones
    # have equations over several locations: one row per (equation,
    # location), three for the average, two for the ones over two locations
    k, obs, mixed = _mixed_system()
    avg = design.encode_average([(0.5,), (2.0,), (4.5,)], [(1.0, (0,)), (0.5, (2,))], 0.3)
    point = design.encode_pointwise([((0.0,), [(1.0, (0,)), (2.0, (2,))]),
                                     ((1.0,), [(1.0, (1,))])], [0.0, 1.0])
    ones = OperatorSystem(point.colloc_points, np.ones((3, 1)), [0.0])
    pred = design.Atoms(np.linspace(0.0, 6.0, 5)[:, None], (1,))
    assert (_row_count(avg), _row_count(ones)) == (3, 2) and _row_count(mixed) > mixed.p
    for ops in (avg, mixed, ones):
        _assert_dense_co_kriging(k, obs, ops, pred + ops.colloc_points)


def test_co_kriging_assembly_peaks_near_its_output():
    # f + f'' rows at p = 2000: K+ is 2004 x 2004 (32 MB); evaluated in row
    # panels, upper triangle only, assembly peaks below 1.5 K+ (a whole-block
    # evaluation held about 12)
    k, obs, _ = _sweep_system(2)
    xs = np.linspace(0.0, 2.0 * np.pi, 2000)[:, None]
    ops = design.encode_rows([(xs, ((0,), (2,)), 1.0)], np.zeros(len(xs)))
    pred = design.Atoms(np.linspace(0.0, 2.0 * np.pi, 100)[:, None], (0,))
    tracemalloc.start()
    try:
        Kplus, _, _ = P.assemble_co_kriging(k, obs, ops, pred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Kplus.shape == (2004, 2004)
    assert peak <= 1.5 * Kplus.nbytes


def test_lagrangian_route_allocates_no_dense_u():
    # f + f'' rows at p = 1500: encoding, assembly and the Lagrangian solve
    # peak below a quarter of the dense 3000 x 1500 U (36 MB)
    k, obs, _ = _sweep_system(2)
    xs = np.linspace(0.0, 2.0 * np.pi, 1500)[:, None]
    tracemalloc.start()
    try:
        ops = design.encode_rows([(xs, ((0,), (2,)), 1.0)], np.zeros(len(xs)))
        K, H = P.assemble_lagrangian(k, obs, ops)
        lk = P.solve_lagrangian(K, H, obs, ops, P.SolveConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 1500 * 8 / 4
    assert np.max(np.abs(ops.tdot(lk.predictions))) <= 1e-12 * np.max(np.abs(lk.predictions))


@pytest.mark.parametrize("system", [
    "sweep 100", "sweep 400", "sweep 1000", "mixed", "scalar2d", "ordinary", "p = 0",
])
def test_lagrangian_matches_normal_equation_route(system):
    # the QR projection against the normal equations of the formed U^T U
    # (the route it replaced), with alpha solved afresh from the multipliers
    mu_star = None
    if system.startswith("sweep"):
        k, obs, ops = _sweep_system(int(system.split()[1]))
    elif system == "mixed":
        k, obs, ops = _mixed_system()
    elif system == "scalar2d":
        k, obs, ops = _scalar2d_lk_system()
    else:
        k, obs, ops = _sweep_system(100)
        if system == "p = 0":
            ops = OperatorSystem(ops.colloc_points, np.zeros((ops.U.shape[0], 0)), [])
        else:
            obs = ObservationSet(obs.points, obs.values, mean=np.ones(obs.n))
            mu_star = np.ones(len(ops.colloc_points))
    cfg = P.SolveConfig()
    K, H = P.assemble_lagrangian(k, obs, ops)
    got = P.solve_lagrangian(K, H, obs, ops, cfg, mu_star)
    ref = oracles.solve_lagrangian_normal(K, H, obs, ops, cfg, mu_star)
    assert _rel(got.predictions, ref.predictions) <= 1e-12
    for field in ("alpha", "cross", "lam", "lam2"):
        a, b = getattr(got, field), getattr(ref, field)
        assert (a is None) == (b is None), field
        if b is not None and b.size:
            assert _rel(a, b) <= 1e-10, field
    assert (got.lam2 is None) == (ops.p == 0)
    assert (got.lam is None) == (system != "ordinary")


@pytest.mark.parametrize("system", [
    "sweep 100", "sweep 250", "sweep 400", "sweep 1000", "sweep 1500",
    "folds", "scalar2d", "coupled",
])
def test_projector_matches_qr_oracle(system, monkeypatch):
    # the closed form for diagonal U^T U against the dense pivoted QR it
    # replaces; coupled equations must still take the QR
    rng = np.random.default_rng(7)
    if system.startswith("sweep"):
        k, obs, ops = _sweep_system(int(system.split()[1]))
    elif system == "scalar2d":
        k, obs, ops = _scalar2d_lk_system()
    elif system == "coupled":
        k, obs, ops = _mixed_system()
    else:
        # the leave-one-out shape: observation atoms joined constraint-free
        # (zero rows of U), one base column per fold
        k, obs, ops = _sweep_system(40)
        ops = design.extend_atoms(ops, obs.points)
    if system == "folds":
        base, v = rng.normal(size=(ops.c, obs.n)), ops.rhs[:, None]
    else:
        K, H = P.assemble_lagrangian(k, obs, ops)
        base, v = P.solve_co_kriging(K, H, obs.values, P.SolveConfig()).predictions, ops.rhs
    counts = _count_calls(monkeypatch, ("qr",))
    Uw, w = P._constraint_projector(ops)(base, v)
    got = base + Uw
    assert counts["qr"] == int(system == "coupled")
    ref, w_ref = oracles.constraint_projector_qr(ops.U)(base, v)
    assert got.shape == ref.shape and w.shape == w_ref.shape
    assert _rel(got, ref) <= 1e-12
    assert _rel(w, w_ref) <= 1e-12
    # and the equations hold (the sweep's v is 0, so scale by the base)
    assert np.max(np.abs(ops.U.T @ got - v)) <= 1e-12 * np.max(np.abs(base))


def test_diagonal_projector_rank_deficiency(monkeypatch):
    # no atom in two equations: the rank rule reads the column norms, with
    # the same tolerance and the same dependent list as the pivoted QR
    counts = _count_calls(monkeypatch, ("qr",))
    atoms = [ExtendedPoint((float(i),), (0,)) for i in range(5)]
    U = np.zeros((5, 3))
    U[[0, 1], 0] = [3.0, 4.0]  # the largest column norm, 5
    U[2, 1] = 5e-11  # 1e-11 of it
    U[[3, 4], 2] = [2.0, -1.0]
    k, obs, _, _ = random_instance(np.random.default_rng(1))
    for scale in (1.0, 1e8):
        ops = OperatorSystem(atoms, scale * U, np.zeros(3))
        with pytest.raises(P.RankDeficiencyError) as err:
            P.lagrangian_kriging(k, obs, ops)
        with pytest.raises(P.RankDeficiencyError) as ref:
            oracles.constraint_projector_qr(ops.U)
        assert err.value.dependent == ref.value.dependent == [1]
    assert counts["qr"] == 0
    # 1e-9 of the largest norm is independent on both routes
    U[2, 1] = 5e-9
    base, v = np.ones(5), np.arange(3.0)
    got = P._constraint_projector(OperatorSystem(atoms, U, np.zeros(3)))(base, v)
    ref = oracles.constraint_projector_qr(U)(base, v)
    assert _rel(base + got[0], ref[0]) <= 1e-12
    assert _rel(got[1], ref[1]) <= 1e-6


def test_underflowing_column_norm_takes_the_qr():
    # ||u||^2 = 2e-340 underflows to 0 in the closed form, while the pivoted
    # QR reads |R11| = 1.4e-170: the rank is the QR's, 1
    ops = OperatorSystem(design.Atoms([[0.0], [1.0]], (0,)), [[1e-170], [1e-170]], [0.0])
    assert ops.normal_diagonal is None
    base = np.array([1.0, 3.0])
    Uw, w = P._constraint_projector(ops)(base, ops.rhs)
    ref, w_ref = oracles.constraint_projector_qr(ops.U)(base, ops.rhs)
    assert _rel(base + Uw, ref) <= 1e-12 and _rel(w, w_ref) <= 1e-12
    assert np.allclose(base + Uw, [-1.0, 1.0], rtol=1e-12)


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


def test_schur_requires_a_centered_model():
    obs, colloc, _ = ode_setup()
    k = SqExpKernel(sigma2=1.0, theta=1.2, dim=1)
    ops = design.encode_pointwise([((float(colloc[0]),), [(1.0, (0,))])], [0.0])
    with_mean = ObservationSet(obs.points, obs.values, mean=np.ones(obs.n))
    with pytest.raises(ValueError, match="centered model"):
        P.co_kriging_schur(k, with_mean, ops)


def test_schur_singular_reduced_system_raises():
    # a row on the one observed atom: its conditional variance
    # K22 - H^T K^-1 H is exactly 1 - 1 = 0, so U^T K_{2|1} U is singular
    k = SqExpKernel(sigma2=1.0, theta=1.2, dim=1)
    ops = design.encode_pointwise([((0.5,), [(1.0, (0,))])], [0.3])
    with pytest.raises(P.SingularSystemError, match="reduced constraint system is singular") as err:
        P.co_kriging_schur(k, obs_1d([0.5], [0.3]), ops)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


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


@st.composite
def spd_systems(draw):
    """(K, nugget, B, bad B) for make_spd_solver.  K is the gram of 1-d atoms
    of orders 0 to 2 (cov(f, f') at one point is -0.0; repeated atoms and
    large theta make it escalate) or all zeros, maybe negated, maybe with
    one non-finite entry, laid out C-ordered, Fortran-ordered or as a
    strided view.  B is 1-d, 2-d or has zero columns, often with signed
    zeros; bad B is B with one non-finite entry."""
    n = draw(st.integers(0, 7))
    if n and draw(st.booleans()):
        atoms = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                              min_size=n, max_size=n))
        theta = draw(st.sampled_from([0.4, 1.0, 3.0, 40.0]))
        K = design.gram(SqExpKernel(1.0, theta, 1),
                        design.Atoms(np.array([[x] for x, _ in atoms], float),
                                     np.array([[m] for _, m in atoms])))
    else:
        K = np.zeros((n, n))
    K *= draw(st.sampled_from([1.0, 1.0, 1.0, -1.0]))  # negated, the ladder runs out
    poison = draw(st.sampled_from([None] * 6 + [np.nan, np.inf, -np.inf]))
    if poison is not None and n:
        K[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = poison
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        K = np.asfortranarray(K)
    elif layout == "strided":
        K = np.asfortranarray(np.pad(K, (0, 1)))[:n, :n]
    cols = draw(st.sampled_from([None, 0, 1, 3]))
    B = draw(hnp.arrays(float, (n,) if cols is None else (n, cols),
                        elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2, 2))))
    if draw(st.booleans()):
        B = np.asfortranarray(B)
    bad = B.copy()
    if bad.size:
        bad.flat[draw(st.integers(0, bad.size - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    nugget = draw(st.sampled_from([0.0, 0.0, 1e-9, 1e-6, 1e-3]))
    return K, nugget, B, bad


@settings(max_examples=200, deadline=None)
@given(drawn=spd_systems())
def test_spd_solver_matches_scipy_wrapper_route(drawn):
    # the direct LAPACK route gives the nugget and the refined solve of the
    # cho_factor/cho_solve route bit for bit, signs of zeros included, and
    # fails where it fails, with the same error
    K, nugget, B, bad = drawn
    cfg = P.SolveConfig(nugget=nugget)
    try:
        reference, eta_ref = oracles.make_spd_solver_reference(K, cfg)
    except P.ConditioningError as exc:
        with pytest.raises(P.ConditioningError) as err:
            P.make_spd_solver(K, cfg)
        assert str(err.value) == str(exc) and err.value.nugget_last == exc.nugget_last
        assert not np.isfinite(K).all() or exc.nugget_last == max(nugget, 1e-4)
        return
    solve, eta = P.make_spd_solver(K, cfg)
    assert eta == eta_ref
    for _ in range(2):  # the buffers serve every solve
        X, ref = solve(B), reference(B)
        assert X.shape == ref.shape
        np.testing.assert_array_equal(X, ref)
        np.testing.assert_array_equal(np.signbit(X), np.signbit(ref))
    if bad.size:
        for route in (solve, reference):
            with pytest.raises(ValueError):
                route(bad)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        P.SolveConfig(nugget=-1e-8)


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


# ---------------------------------------------------------------------------
# invariances: process-variance scaling and coordinate scaling


@st.composite
def lattice_systems(draw):
    """n <= 8 value observations and 1-4 prediction locations, distinct
    points of the lattice 0.5 Z in [0, 12] (so 2^j x is exact), with
    values, a lengthscale and a variance."""
    n, q = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    slots = draw(st.lists(st.integers(0, 24), min_size=n + q, max_size=n + q, unique=True))
    xs = 0.5 * np.array(slots, dtype=float)
    values = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    assume(np.max(np.abs(values)) >= 0.1)  # Z^T K^-1 Z = 0 has no Lagrangian form
    return xs[:n], values, xs[n:], draw(st.floats(0.3, 1.0)), draw(st.floats(0.5, 2.0))


def _lattice_problem(xs, values, locs, scale=1.0, orders=((0,), (2,))):
    """Observations at scale * xs; rows sum_m scale^|m| f^(m) = 0 at
    scale * locs (the rows of f + f'' = 0 in the scaled coordinate); the
    value, first and second derivative at scale * locs as prediction atoms."""
    obs = ObservationSet(design.Atoms(scale * xs[:, None], (0,)), values)
    coeffs = [scale ** sum(m) for m in orders]
    ops = design.encode_rows([(scale * locs[:, None], orders, coeffs)], np.zeros(len(locs)))
    pred = design.Atoms(np.repeat(scale * locs, 3)[:, None], np.tile([[0], [1], [2]], (len(locs), 1)))
    return obs, ops, pred


@settings(max_examples=40, deadline=None)
@given(drawn=lattice_systems(), j=st.integers(-3, 3))
def test_variance_scaling(drawn, j):
    # sigma2 -> 2^j sigma2 scales every covariance entry exactly: the
    # predictions stay, the variances scale by 2^j
    xs, values, locs, theta, sigma2 = drawn
    obs, ops, pred = _lattice_problem(xs, values, locs)
    runs = []
    for s2 in (sigma2, 2.0 ** j * sigma2):
        k = SqExpKernel(sigma2=s2, theta=theta, dim=1)
        ck, lk = P.co_kriging(k, obs, ops, pred), P.lagrangian_kriging(k, obs, ops)
        assume(ck.nugget_used == 0 and lk.nugget_used == 0)
        runs.append((ck.predictions, lk.predictions, uq.var_ck(k, obs, ops, pred).variance,
                     uq.var_lk(k, obs, ops).variance))
    (ck0, lk0, vck0, vlk0), (ck1, lk1, vck1, vlk1) = runs
    assert _rel(ck1, ck0) <= 1e-12 and _rel(lk1, lk0) <= 1e-12
    assert _rel(vck1, 2.0 ** j * vck0) <= 1e-12
    assert _rel(vlk1, 2.0 ** j * vlk0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(drawn=lattice_systems(), j=st.integers(-3, 3))
def test_coordinate_scaling(drawn, j):
    # (x, theta) -> (2^j x, 2^j theta), with an order-|m| coefficient
    # times 2^(j|m|), leaves order-0 predictions as they are and scales
    # order-|m| ones by 2^(-j|m|).  The Lagrangian projection is
    # Euclidean in the atoms, so it keeps this only for rows whose terms
    # share one order (here f'' = 0): on f + f'' = 0 rows the weight
    # between the value and the curvature atoms moves with the scale.
    xs, values, locs, theta, sigma2 = drawn
    runs = []
    for scale in (1.0, 2.0 ** j):
        k = SqExpKernel(sigma2=sigma2, theta=scale * theta, dim=1)
        obs, ops, pred = _lattice_problem(xs, values, locs, scale)
        lk_ops = _lattice_problem(xs, values, locs, scale, orders=((2,),))[1]
        fits = [P.simple_kriging(k, obs, pred), P.co_kriging(k, obs, ops, pred),
                P.lagrangian_kriging(k, obs, lk_ops)]
        assume(all(w.nugget_used == 0 for w in fits))
        orders = (pred.M[:, 0], pred.M[:, 0], lk_ops.colloc_points.M[:, 0])
        runs.append([w.predictions * scale ** m for w, m in zip(fits, orders)])
    for got, ref in zip(*runs):
        assert _rel(got, ref) <= 1e-12
