import math
import os

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from pikrig import calibration as C
from pikrig import design
from pikrig import flowlab as F
from pikrig import predictors as P
from pikrig.design import ObservationSet
from pikrig.kernel import SqExpKernel
from pikrig.predictors import SolveConfig

import oracles

GEOM = F.CylinderGeometry((0.0, 0.0), 1.0)
CFG = SolveConfig()


def oracle(at, freestream=(1.0, 0.0), geom=GEOM):
    return F.cylinder_flow_oracle(geom, freestream, at)


# --- analytic oracle -------------------------------------------------------


def test_oracle_far_field():
    vx, vy = oracle((2000.0, 37.0))
    assert math.hypot(vx - 1.0, vy) <= 1e-6


def test_oracle_top_speed():
    # directly above the cylinder the tangential speed doubles
    vx, vy = oracle((0.0, 1.0))
    assert vx == pytest.approx(2.0, abs=1e-12)
    assert vy == pytest.approx(0.0, abs=1e-12)


def test_oracle_stagnation_points():
    for pt in ((1.0, 0.0), (-1.0, 0.0)):
        vx, vy = oracle(pt)
        assert math.hypot(vx, vy) <= 1e-12


def test_oracle_inside_raises():
    with pytest.raises(F.DomainError):
        oracle((0.3, 0.1))


def test_oracle_rotated_freestream():
    # rotating the freestream rotates the whole field: for flow in +y the
    # point (1, 0) sits at the crown with doubled speed along +y
    vx, vy = oracle((1.0, 0.0), freestream=(0.0, 2.0))
    assert vx == pytest.approx(0.0, abs=1e-12)
    assert vy == pytest.approx(4.0, abs=1e-12)
    vx, vy = oracle((3000.0, -100.0), freestream=(0.0, 2.0))
    assert math.hypot(vx, vy - 2.0) <= 1e-5


def test_oracle_zero_freestream():
    assert oracle((2.0, 0.5), freestream=(0.0, 0.0)).tolist() == [0.0, 0.0]


def test_oracle_mirror_symmetry():
    # vx even, vy odd under y -> -y for a freestream along x
    for pt in ((1.4, 0.8), (-2.0, 1.1), (0.3, 2.5)):
        vx1, vy1 = oracle(pt)
        vx2, vy2 = oracle((pt[0], -pt[1]))
        assert vx2 == pytest.approx(vx1, rel=1e-14)
        assert vy2 == pytest.approx(-vy1, rel=1e-14)


def test_oracle_discrete_continuity():
    # central-difference divergence of the analytic field is ~0
    h = GEOM.radius / 200.0
    for pt in ((1.5, 0.7), (-1.2, -1.6), (2.4, 0.1)):
        dvx = (oracle((pt[0] + h, pt[1]))[0] - oracle((pt[0] - h, pt[1]))[0]) / (2 * h)
        dvy = (oracle((pt[0], pt[1] + h))[1] - oracle((pt[0], pt[1] - h))[1]) / (2 * h)
        assert abs(dvx + dvy) <= 1e-4


def test_oracle_matches_point_oracle():
    # the array oracle against the one-point complex-arithmetic reference:
    # numpy's complex division rounds differently from Python's, so the
    # two agree to 1e-15 of the largest speed, not bit for bit
    pts = F.exterior_grid(GEOM, (160, 160), 2.5, 0.0)
    for freestream in ((1.0, 0.0), (0.3, -1.7), (0.0, 2.0), (-2.5, 0.5)):
        got = oracle(pts, freestream)
        ref = np.array([oracles.cylinder_flow_point(GEOM, freestream, p) for p in pts])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.hypot(*ref.T))
    # one point is the one-row case
    assert np.array_equal(oracle(pts[7]), oracle(pts[6:8])[1])


def test_oracle_inside_raises_for_any_row():
    pts = np.array([(2.0, 0.0), (0.3, 0.1), (0.0, -0.2)])
    with pytest.raises(F.DomainError, match=r"point \(0\.3, 0\.1\)"):
        oracle(pts)
    with pytest.raises(F.DomainError):
        oracles.cylinder_flow_point(GEOM, (1.0, 0.0), pts[1])


# --- layouts and system assembly ------------------------------------------


def test_uniform_grid_row_major_and_aspect():
    g = F.uniform_grid((0.0, 1.0), (0.0, 2.0), 2, 3)
    assert g.shape == (6, 2)
    assert g[:2].tolist() == [[0.0, 0.0], [1.0, 0.0]]  # x varies fastest
    assert g[-1].tolist() == [1.0, 2.0]
    assert len(F.uniform_grid((0.0, 1.0), (0.0, 1.0), 3, 2, aspect=2.0)) == 12
    assert len(F.uniform_grid((0.0, 1.0), (0.0, 1.0), 1, 2)) == 4  # nx floor of 2


@pytest.mark.parametrize("counts, aspect", [
    ((10, 10), 1.0), ((20, 20), 1.0), ((60, 60), 1.0), ((150, 150), 1.0),
    ((10, 10), 2.0), ((20, 20), 2.0),
])
def test_exterior_grid_keeps_the_point_filter(counts, aspect):
    # the whole-array cut keeps exactly the points of the per-point
    # math.hypot filter on the CLI layouts
    got = F.exterior_grid(GEOM, counts, 2.5, 0.05, aspect)
    ref = oracles.exterior_grid_points(GEOM, counts, 2.5, 0.05, aspect)
    assert np.array_equal(got, np.array(ref))


def test_cylinder_problem_documented_counts():
    p = F.cylinder_problem()
    assert p.obs_locations.shape == p.obs_velocities.shape == (12, 2)
    assert p.boundary_locations.shape == p.boundary_normals.shape == (10, 2)
    assert p.continuity.shape == (88, 2)
    obs, ops, pred = F.build_flow_system(p)
    assert obs.n == 24
    assert ops.p == 98
    assert len(pred) == 2 * len(p.pred_grid)
    # boundary equations come before continuity equations in the columns
    assert np.allclose(np.hypot(*p.boundary_normals.T), 1.0, rtol=0.0, atol=1e-12)


def test_observations_sit_on_the_ring():
    p = F.cylinder_problem()
    for loc, v in zip(p.obs_locations, p.obs_velocities):
        assert math.hypot(*loc) == pytest.approx(3.0, abs=1e-12)
        assert np.array_equal(v, oracle(loc))


def test_problem_rejects_bad_normal():
    with pytest.raises(ValueError, match="unit"):
        F.FlowProblem([(0.0, 0.0)], [(1.0, 0.0)],
                      boundary_locations=[(1.0, 0.0)], boundary_normals=[(2.0, 0.0)])
    # the message names the first bad row
    with pytest.raises(ValueError, match="boundary normal 1 has norm 0.5"):
        F.FlowProblem([(0.0, 0.0)], [(1.0, 0.0)],
                      boundary_locations=[(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)],
                      boundary_normals=[(1.0, 0.0), (0.0, 0.5), (3.0, 0.0)])


def test_problem_rejects_unpaired_arrays():
    # each velocity pairs with a location and each normal with a boundary point
    three = [(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0)]
    two = [(1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(ValueError, match="3 obs_locations but 2 obs_velocities"):
        F.FlowProblem(three, two)
    with pytest.raises(ValueError, match="3 boundary_locations but 2 boundary_normals"):
        F.FlowProblem(two, two, boundary_locations=three, boundary_normals=two)


@pytest.mark.parametrize("center, radius, message", [
    ((0.0, 0.0, 0.0), 1.0, "center must be a 2-point"),
    ((0.0,), 1.0, "center must be a 2-point"),
    ((0.0, 0.0), 0.0, "radius must be positive, got 0.0"),
    ((0.0, 0.0), -1.0, "radius must be positive"),
    ((0.0, 0.0), math.nan, "radius must be positive"),
    ((0.0, 0.0), math.inf, "radius must be positive"),
])
def test_geometry_rejects_bad_center_or_radius(center, radius, message):
    with pytest.raises(ValueError, match=message):
        F.CylinderGeometry(center, radius)


def test_build_requires_observations():
    with pytest.raises(ValueError, match="no velocity observations"):
        F.build_flow_system(F.FlowProblem([], []))


# --- co-Kriging predictions ------------------------------------------------


def test_ck_single_observation_reproduced():
    p = F.FlowProblem([(0.5, 0.2)], [(1.3, -0.4)], pred_grid=[(0.5, 0.2)])
    f = F.predict_flow_ck(SqExpKernel(1.0, 1.0, 2), p, CFG)
    assert f.vx[0] == pytest.approx(1.3, abs=1e-8)
    assert f.vy[0] == pytest.approx(-0.4, abs=1e-8)


def test_ck_reproduces_uniform_flow():
    obs_locs = F.uniform_grid((-1.0, 1.5), (-1.0, 1.0), 3, 3)
    p = F.FlowProblem(
        obs_locs,
        np.tile([2.0, 0.0], (len(obs_locs), 1)),
        continuity=F.uniform_grid((-1.2, 1.7), (-1.2, 1.2), 4, 4),
        pred_grid=F.uniform_grid((-0.8, 1.3), (-0.8, 0.8), 3, 3),
        freestream=(2.0, 0.0),
    )
    f = F.predict_flow_ck(SqExpKernel(4.0, 8.0, 2), p, CFG)
    assert np.max(np.abs(f.vx - 2.0)) <= 1e-6
    assert np.max(np.abs(f.vy)) <= 1e-6


def test_ck_boundary_residual_reduced_layout():
    p = F.cylinder_problem(geom=GEOM, n_obs=8, q1=8,
                           continuity_grid=(7, 7), pred_counts=(6, 6))
    f = F.predict_flow_ck(SqExpKernel(10.0, 0.9, 2), p, CFG)
    vinf = math.hypot(*p.freestream)
    assert np.max(np.abs(f.boundary_normal_residual)) <= 1e-6 * vinf
    assert f.nugget_used <= 1e-8
    # squared-speed moments come with the field
    assert np.all(np.isfinite(f.magsq_mean))
    assert np.all(f.magsq_var >= 0.0)


def test_ck_blocks_match_full_covariance():
    # the per-point 2x2 velocity blocks are read off the prediction solve;
    # the full MMSE covariance of the co-Kriging oracle is the reference
    p = F.cylinder_problem(geom=GEOM, n_obs=8, q1=8,
                           continuity_grid=(7, 7), pred_counts=(6, 6))
    k = SqExpKernel(10.0, 0.9, 2)
    f = F.predict_flow_ck(k, p, CFG)
    obs, ops, pred = F.build_flow_system(p)
    u = oracles.var_ck_full(k, obs, ops, pred, CFG)
    bound = 1e-12 * max(1.0, float(np.max(u.variance)))
    assert np.max(np.abs(f.var_vx - u.variance[0::2])) <= bound
    assert np.max(np.abs(f.var_vy - u.variance[1::2])) <= bound
    assert np.max(np.abs(f.cov_vxy - np.diag(u.covariance, 1)[0::2])) <= bound
    vscale = 1e-12 * max(1.0, float(np.max(np.abs(u.mean))))
    assert np.max(np.abs(f.vx - u.mean[0::2])) <= vscale
    assert np.max(np.abs(f.vy - u.mean[1::2])) <= vscale


# --- two-step Lagrangian path ----------------------------------------------


def test_twostep_without_boundary_is_interpolation():
    obs_locs = [(-1.0, 0.0), (0.5, 0.8), (1.2, -0.6), (0.0, -1.1)]
    want = oracle(obs_locs, geom=F.CylinderGeometry((5.0, 5.0), 0.5))
    p = F.FlowProblem(
        obs_locs,
        want,
        continuity=F.uniform_grid((-1.5, 1.5), (-1.5, 1.5), 3, 3),
        pred_grid=obs_locs,
    )
    f = F.predict_flow_lk_twostep(SqExpKernel(1.0, 1.0, 2), p, CFG)
    assert np.allclose(f.vx, want[:, 0], atol=1e-7)
    assert np.allclose(f.vy, want[:, 1], atol=1e-7)
    assert f.boundary_normal_residual.size == 0
    assert f.theta2_hat is not None
    assert np.all(np.isnan(f.var_vx))  # means only on this path


def test_twostep_tangency_enforced():
    p = F.cylinder_problem(geom=GEOM, n_obs=8, q1=8,
                           continuity_grid=(7, 7), pred_counts=(6, 6))
    f = F.predict_flow_lk_twostep(SqExpKernel(10.0, 0.9, 2), p, CFG)
    assert np.max(np.abs(f.boundary_normal_residual)) <= 1e-8


def test_twostep_scattered_lengthscale_band():
    # spread-out observations pull the step-2 lengthscale into the
    # physically sensible band around 1; ring layouts need not (the
    # criterion surface is layout-dependent), so this pins the scattered
    # construction only
    base = F.cylinder_problem(geom=GEOM)
    rng = np.random.default_rng(0)
    radii = rng.uniform(2.0, 4.0, 12)
    angles = rng.uniform(0.0, 2.0 * np.pi, 12)
    locs = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    p = F.FlowProblem(locs, oracle(locs),
                      continuity=base.continuity,
                      boundary_locations=base.boundary_locations,
                      boundary_normals=base.boundary_normals,
                      pred_grid=base.pred_grid)
    f = F.predict_flow_lk_twostep(SqExpKernel(1.0, 1.0, 2), p, CFG)
    assert 0.5 <= f.theta2_hat <= 1.5
    assert np.max(np.abs(f.boundary_normal_residual)) <= 1e-8


def _step2_data(p, k):
    """The atoms and (vx, vy) columns of step 2: the observations, then the
    boundary velocities that step 1 predicts with ``k``."""
    obs, _, _ = F.build_flow_system(p)
    bnd, gradient = p.boundary_locations, ((1, 0), (0, 1))
    ops1 = design.encode_rows([(bnd, gradient, p.boundary_normals)], np.zeros(len(bnd)))
    w1 = P.lagrangian_kriging(k, obs, ops1, cfg=CFG)
    bnd_atoms = design.Atoms(np.repeat(bnd, 2, axis=0), np.tile(gradient, (len(bnd), 1)))
    bv = w1.predictions[design.locate_atoms(ops1.colloc_points, bnd_atoms)].reshape(-1, 2)
    locs = np.vstack([p.obs_locations, bnd])
    return design.Atoms(locs, (0, 0)), np.vstack([p.obs_velocities, bv])


def test_twostep_fit_is_the_refit_route_bit_for_bit():
    # step 2 fits through the search's own factorization of K2 at theta2;
    # a fresh gram and factorization there give the same bits
    p = F.cylinder_problem(geom=GEOM)
    k = SqExpKernel(1.0, 1.0, 2)
    f = F.predict_flow_lk_twostep(k, p, CFG)
    pts, vals = _step2_data(p, k)
    vx, vy = oracles.flow_step2_refit(SqExpKernel(1.0, f.theta2_hat, 2), pts, vals,
                                      p.pred_grid, CFG)
    assert np.array_equal(f.vx, vx) and np.array_equal(f.vy, vy)


def test_twostep_criterion_is_the_summed_virtual_loocv(monkeypatch):
    # the step-2 criterion is vx's virtual LOOCV mse plus vy's on the
    # observations and the step-1 boundary velocities, nan where jitter escalates
    p = F.cylinder_problem(geom=GEOM)
    k = SqExpKernel(1.0, 1.0, 2)
    searches, optimize_theta = [], C.optimize_theta

    def spy(criterion, bounds, **kwargs):
        searches.append((criterion, optimize_theta(criterion, bounds, **kwargs)))
        return searches[-1][1]

    monkeypatch.setattr(C, "optimize_theta", spy)
    F.predict_flow_lk_twostep(k, p, CFG)
    [(crit, res)] = searches

    pts, vals = _step2_data(p, k)
    locs = pts.X
    median = float(np.median(pdist(locs)))
    for theta in (0.2 * median, 0.5 * median, 0.9 * median):
        k0 = SqExpKernel(1.0, theta, 2)
        want = sum(C.loocv_mse_virtual(k0, ObservationSet(pts, vals[:, c]), CFG) for c in (0, 1))
        assert crit(theta) == pytest.approx(want, rel=1e-12, abs=0)

    # [1e-2, 1e2] x the median distance: nan exactly where factoring the
    # gram escalates, which happens only past the data diameter
    thetas = np.geomspace(1e-2 * median, 1e2 * median, 32)
    nonfinite = [not math.isfinite(crit(t)) for t in thetas]
    escalated = [P.make_spd_solver(design.gram(SqExpKernel(1.0, t, 2), pts), CFG)[1] > CFG.nugget
                 for t in thetas]
    assert nonfinite == escalated
    bad = [t for t, b in zip(thetas, nonfinite) if b]
    assert len(bad) == 10 and min(bad) > float(pdist(locs).max())
    # the search's bracket is capped at the diameter, so its trace is all finite
    assert all(math.isfinite(v) for _, v in res.trace)


def test_short_lengthscale_reverses_flow_long_does_not():
    # fixed-seed regression: with scattered oracle observations and no
    # obstacle rows, a too-short lengthscale produces spurious upstream
    # (vx < 0) pockets between observations; a long one smooths them out
    rng = np.random.default_rng(3)
    locs = []
    while len(locs) < 10:
        loc = rng.uniform(-4.0, 4.0, 2)
        if math.hypot(*loc) >= 1.5:
            locs.append(loc)
    grid = F.uniform_grid((-4.0, 4.0), (-4.0, 4.0), 15, 15)
    problem = F.FlowProblem(locs, oracle(locs), pred_grid=grid[np.hypot(*grid.T) >= 1.5])
    short = F.predict_flow_ck(SqExpKernel(1.0, 0.5, 2), problem, CFG)
    assert int(np.sum(short.vx < 0)) >= 50
    assert short.vx.min() <= -0.3
    long = F.predict_flow_ck(SqExpKernel(1.0, 5.0, 2), problem, CFG)
    assert int(np.sum(long.vx < 0)) == 0
    assert long.vx.min() >= 0.3


# --- CSV ingest / emit ------------------------------------------------------


def test_ingest_empty_and_headerless(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n")
    with pytest.raises(F.CsvFormatError, match="no header"):
        F.ingest_velocity_csv(empty)
    headed = tmp_path / "headed.csv"
    headed.write_text("kind,x,y,a,b\n")
    with pytest.raises(F.CsvFormatError, match="no observations"):
        F.ingest_velocity_csv(headed)


def test_ingest_three_rows(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text(
        "kind,x,y,a,b\n"
        "obs,0.5,0.25,1.5,-0.5\n"
        "grid,1.0,2.0,0,0\n"
        "boundary,1.0,0.0,1,0\n"
    )
    data = F.ingest_velocity_csv(path)
    assert data.obs_locations.tolist() == [[0.5, 0.25]]
    assert data.obs_velocities.tolist() == [[1.5, -0.5]]
    assert data.pred_grid.tolist() == [[1.0, 2.0]]
    assert data.boundary_locations.tolist() == [[1.0, 0.0]]
    assert data.boundary_normals.tolist() == [[1.0, 0.0]]


def test_ingest_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("kind,x,y,a,b\nobs,0,0,1,0\nobs,zzz,0,1,0\n")
    with pytest.raises(F.CsvFormatError, match="line 3"):
        F.ingest_velocity_csv(path)
    path.write_text("kind,x,y,a,b\nwind,0,0,1,0\n")
    with pytest.raises(F.CsvFormatError, match="unknown kind"):
        F.ingest_velocity_csv(path)
    path.write_text("kind,x,y,a,b\nobs,0,0,1\n")
    with pytest.raises(F.CsvFormatError, match="5 comma-separated"):
        F.ingest_velocity_csv(path)
    path.write_text("kind,x,y,a,b\nobs,0,0,inf,0\n")
    with pytest.raises(F.CsvFormatError, match="not finite"):
        F.ingest_velocity_csv(path)
    path.write_text("kind,x,y,a,b\nobs,0,0,1,0\nboundary,1,0,0,0\n")
    with pytest.raises(F.CsvFormatError, match="normal is zero"):
        F.ingest_velocity_csv(path)
    path.write_text("# note\nkind,x,y,vx,vy\nobs,0,0,1,0\n")
    with pytest.raises(F.CsvFormatError, match="line 2: header must be 'kind,x,y,a,b'"):
        F.ingest_velocity_csv(path)


@pytest.mark.parametrize("row, message", [
    # each row's first fault, in the order field count, x, y, kind, a, b, normal
    ("wind,zzz,0", "expected 5 comma-separated fields, got 3"),
    ("wind,zzz,0,1,0", "column 'x' is not a number: 'zzz'"),
    ("wind,0,nan,1,0", "column 'y' is not finite: 'nan'"),
    ("wind,0,0,zzz,0", "unknown kind 'wind' \\(expected obs/grid/boundary\\)"),
    ("obs,0,0,zzz,zzz", "column 'a' is not a number"),
    ("boundary,0,0,1,zzz", "column 'b' is not a number"),
    ("boundary,0,0,0,0", "boundary normal is zero"),
])
def test_ingest_reports_each_rows_first_fault(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"kind,x,y,a,b\nobs,0,1,1,0\n{row}\n")
    with pytest.raises(F.CsvFormatError, match=f"^line 3: {message}"):
        F.ingest_velocity_csv(path)


def test_ingest_never_reads_the_a_b_of_grid_rows(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("kind,x,y,a,b\nobs,0,1,1,0\ngrid,2,3,zzz,\n")
    assert F.ingest_velocity_csv(path).pred_grid.tolist() == [[2.0, 3.0]]


def test_ingest_comments_and_blanks_skipped(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "# comment before header\n\nkind,x,y,a,b\n# mid comment\nobs,1,2,3,4\n\n"
    )
    data = F.ingest_velocity_csv(path)
    assert data.obs_locations.tolist() == [[1.0, 2.0]]
    assert data.obs_velocities.tolist() == [[3.0, 4.0]]


def test_ingest_renormalizes_sloppy_normal(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("kind,x,y,a,b\nobs,0,0,1,0\nboundary,1,0,2.0,0\n")
    with pytest.warns(RuntimeWarning, match="re-normalized"):
        data = F.ingest_velocity_csv(path)
    assert data.boundary_normals.tolist() == [[1.0, 0.0]]


def test_atomic_write_removes_its_temporary_file_on_failure(tmp_path):
    # a lone surrogate cannot be encoded as UTF-8, so the write fails
    target = tmp_path / "out.csv"
    with pytest.raises(UnicodeEncodeError):
        F.atomic_write_text(target, "kind\n\ud800\n")
    assert os.listdir(tmp_path) == []


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    obs = rng.normal(size=(5, 4))
    ang = rng.uniform(0, 2 * np.pi, 2)
    problem = F.FlowProblem(obs[:, :2], obs[:, 2:], pred_grid=rng.normal(size=(3, 2)),
                            boundary_locations=rng.normal(size=(2, 2)),
                            boundary_normals=np.column_stack([np.cos(ang), np.sin(ang)]))
    path = tmp_path / "round.csv"
    F.emit_velocity_csv(path, problem)
    back = F.ingest_velocity_csv(path)
    for name in ("obs_locations", "obs_velocities", "pred_grid",
                 "boundary_locations", "boundary_normals"):
        assert np.array_equal(getattr(back, name), getattr(problem, name)), name
    # no temp files left behind by the atomic write
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp")] == []
