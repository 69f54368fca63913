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
    # one Cholesky factorization of K per Lagrangian solve, and U^T U is
    # never factored.  Pointwise equations share no atom, so U^T U is
    # diagonal and the projection needs no QR at all; that holds for the
    # predictor, the covariance, the identity Schur variant and one
    # leave-one-out criterion evaluation (all folds).  Coupled equations
    # take one pivoted QR of U, whose R also solves the projection
    counts = _count_calls(monkeypatch, ("cho_factor", "qr"))
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
        assert counts == {"cho_factor": 1, "qr": int(name == "coupled")}, name


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
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in colloc]
    point = design.encode_pointwise(rows, np.zeros(len(rows)))
    avg = design.encode_average([(float(x),) for x in colloc[::2]],
                                [(1.0, (0,)), (0.5, (1,))], rhs=0.3)
    ext = design.extend_atoms(point, avg.colloc_points)
    # the short average column first, so the QR's pivoting reorders U
    U = np.hstack([np.zeros((ext.U.shape[0], 1)), ext.U])
    U[design.locate_atoms(ext.colloc_points, avg.colloc_points), 0] = avg.U[:, 0]
    ops = OperatorSystem(ext.colloc_points, U, np.concatenate([avg.rhs, point.rhs]))
    return SqExpKernel(sigma2=1.0, theta=1.2, dim=1), obs, ops


def _scalar2d_lk_system():
    obs, ops, _, _ = cli._scalar2d_system(cli.RunConfig(q=16))
    return SqExpKernel(sigma2=1.0, theta=1.0, dim=2), obs, ops


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


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
    got, w = P._constraint_projector(ops.U)(base, v)
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
    got = P._constraint_projector(U)(base, v)
    ref = oracles.constraint_projector_qr(U)(base, v)
    assert _rel(got[0], ref[0]) <= 1e-12
    assert _rel(got[1], ref[1]) <= 1e-6


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
