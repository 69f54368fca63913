"""Potential-flow laboratory: problem builders, predictors, CSV ingestion.

An incompressible irrotational velocity field derives from a potential,
v = grad(phi), with continuity grad^2(phi) = 0 in the domain and the
no-penetration condition grad(phi) . n = 0 on an obstacle boundary.
Modelling phi as one scalar random field makes every velocity component a
derivative atom of the same field, so the cross-covariances between vx
and vy come out of the kernel-derivative machinery for free.

Every set of locations, velocities or normals is one n x 2 float array,
from the layout builders and the CSV reader to the predictors and the
writers; a single point is the one-row case.  For a circular cylinder the
classical analytic solution (complex potential F(z) = V (z + R^2/z) in the
freestream-aligned frame) serves as ground truth.  External velocity
fields arrive via a small CSV schema (kind,x,y,a,b) instead of an
embedded panel solver.
"""

import logging
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import calibration as _cal
from . import design
from . import kernel as _kernel
from . import predictors as _pred
from . import uq as _uq
from .predictors import SolveConfig

__all__ = [
    "DomainError",
    "CylinderGeometry",
    "FlowProblem",
    "FlowField",
    "cylinder_flow_oracle",
    "cylinder_problem",
    "uniform_grid",
    "exterior_grid",
    "build_flow_system",
    "predict_flow_ck",
    "predict_flow_lk_twostep",
    "ingest_velocity_csv",
    "emit_velocity_csv",
]

logger = logging.getLogger(__name__)


class DomainError(ValueError):
    """A point lies where the flow is not defined (inside the obstacle)."""


class CsvFormatError(ValueError):
    """A velocity CSV file violates the schema (message carries the line)."""


@dataclass(frozen=True)
class CylinderGeometry:
    """Circular obstacle: center and radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != 2:
            raise ValueError("center must be a 2-point")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")


_POINT_SETS = ("obs_locations", "obs_velocities", "continuity",
               "boundary_locations", "boundary_normals", "pred_grid")


@dataclass
class FlowProblem:
    """Velocity observations, operator collocation layouts, and freestream.

    Each point set is an n x 2 float array: row i of ``obs_velocities`` is
    (vx, vy) at row i of ``obs_locations``, and row i of
    ``boundary_normals`` the unit normal at row i of ``boundary_locations``;
    each of the two pairs must have equal row counts.
    Normals must be unit length to 1e-10 (re-normalize upstream if needed).
    """

    obs_locations: np.ndarray
    obs_velocities: np.ndarray
    continuity: np.ndarray = ()
    boundary_locations: np.ndarray = ()
    boundary_normals: np.ndarray = ()
    pred_grid: np.ndarray = ()
    freestream: tuple = (1.0, 0.0)

    def __post_init__(self):
        for name in _POINT_SETS:
            setattr(self, name, np.array(getattr(self, name), dtype=float).reshape(-1, 2))
        for a, b in (("obs_locations", "obs_velocities"), ("boundary_locations", "boundary_normals")):
            na, nb = len(getattr(self, a)), len(getattr(self, b))
            if na != nb:
                raise ValueError(f"{na} {a} but {nb} {b}: they pair row by row")
        self.freestream = tuple(float(c) for c in self.freestream)
        norm = np.linalg.norm(self.boundary_normals, axis=1)
        bad = np.flatnonzero(np.abs(norm - 1.0) > 1e-10)
        if bad.size:
            raise ValueError(
                f"boundary normal {bad[0]} has norm {norm[bad[0]]}, expected unit length"
            )


@dataclass
class FlowField:
    """Predicted velocity field with optional per-component UQ.

    Variance entries are NaN when the predictor does not provide them
    (the two-step Lagrangian path predicts means only).
    ``boundary_normal_residual`` holds n . v_hat per boundary point.
    """

    locations: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    var_vx: np.ndarray
    var_vy: np.ndarray
    cov_vxy: np.ndarray
    magsq_mean: np.ndarray
    magsq_var: np.ndarray
    boundary_normal_residual: np.ndarray
    theta2_hat: Optional[float] = None
    nugget_used: float = 0.0


def cylinder_flow_oracle(geom, freestream, at):
    """Analytic velocity of uniform flow past a cylinder at ``at`` (..., 2).

    Uses the complex conjugate velocity w = V (1 - R^2 / zeta^2) in the
    freestream-aligned frame zeta = (z - center) e^{-i beta}; the global
    velocity is e^{i beta} conj(w), returned as (..., 2) rows (vx, vy).
    Far from the obstacle this tends to the freestream; on the surface the
    normal component vanishes.
    """
    at = np.asarray(at, dtype=float)
    z = (at - geom.center).view(complex)[..., 0]
    inside = np.abs(z) < geom.radius * (1.0 - 1e-12)
    if inside.any():
        i = np.flatnonzero(inside)[0]
        raise DomainError(
            f"point {tuple(at.reshape(-1, 2)[i].tolist())} lies inside the cylinder "
            f"(r={abs(z.flat[i])} < {geom.radius})"
        )
    vinf = complex(freestream[0], freestream[1])
    speed = abs(vinf)
    if speed == 0.0:
        return np.zeros_like(at)
    phase = vinf / speed
    w = speed * (1.0 - (geom.radius / (z / phase)) ** 2)
    return (phase * w.conjugate())[..., None].view(float)


def uniform_grid(xlim, ylim, nx, ny, aspect=1.0):
    """Row-major (x fastest) uniform grid as rows (x, y); aspect scales the x count."""
    nx_eff = max(2, int(round(nx * aspect)))
    xs = np.linspace(xlim[0], xlim[1], nx_eff)
    ys = np.linspace(ylim[0], ylim[1], int(ny))
    return np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)


def exterior_grid(geom, counts, extent, margin, aspect=1.0):
    """Uniform grid on the square of half-width ``extent`` around the
    obstacle center, without the points closer than (1 + margin) radii."""
    cx, cy = geom.center
    pts = uniform_grid((cx - extent, cx + extent), (cy - extent, cy + extent),
                       *counts, aspect=aspect)
    return pts[np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) >= geom.radius * (1.0 + margin)]


def _ring(n):
    """Unit vectors at n equispaced angles from 0, as rows (cos, sin)."""
    ang = 2.0 * np.pi * np.arange(int(n)) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def cylinder_problem(
    geom=None,
    freestream=(1.0, 0.0),
    n_obs=12,
    obs_radius_factor=3.0,
    q1=10,
    continuity_grid=(10, 10),
    pred_counts=(20, 20),
    extent=2.5,
    margin=0.05,
    aspect=1.0,
):
    """Documented cylinder layout: ring observations, equispaced boundary
    collocation, uniform continuity and prediction grids with the obstacle
    excluded at a (1 + margin) radius.

    Observation values come from the analytic oracle.  The defaults give
    q1 = 10 boundary rows and 88 continuity rows on the unit cylinder.
    """
    geom = geom if geom is not None else CylinderGeometry((0.0, 0.0), 1.0)
    obs = geom.center + obs_radius_factor * geom.radius * _ring(n_obs)
    normals = _ring(q1)
    return FlowProblem(
        obs,
        cylinder_flow_oracle(geom, freestream, obs),
        continuity=exterior_grid(geom, continuity_grid, extent, margin, aspect),
        boundary_locations=geom.center + geom.radius * normals,
        boundary_normals=normals,
        pred_grid=exterior_grid(geom, pred_counts, extent, margin, aspect),
        freestream=freestream,
    )


# Step-2 lengthscale search budget of the two-step Lagrangian path.
_STEP2_BUDGET = 32


_GRADIENT = ((1, 0), (0, 1))


def _velocity_atoms(locations):
    """The gradient pair (1,0), (0,1) at each location, interleaved."""
    return design.Atoms(np.repeat(locations, 2, axis=0), np.tile(_GRADIENT, (len(locations), 1)))


def _neumann_rows(p):
    """The rows n1 (1,0) + n2 (0,1) = 0 at the boundary points, as a
    :func:`pikrig.design.encode_rows` block."""
    return p.boundary_locations, _GRADIENT, p.boundary_normals


def build_flow_system(p):
    """Assemble the phi-formulation system from a FlowProblem.

    Observations become pairs of gradient atoms, boundary points become
    Neumann rows n1 (1,0) + n2 (0,1) = 0, continuity points become rows
    (2,0) + (0,2) = 0 (boundary rows come first), and prediction atoms are
    the gradient pair at each grid point.
    """
    if not len(p.obs_locations):
        raise ValueError("FlowProblem has no velocity observations")
    obs = design.ObservationSet(_velocity_atoms(p.obs_locations), p.obs_velocities)
    p_rows = len(p.boundary_locations) + len(p.continuity)
    ops = design.OperatorSystem()
    if p_rows:
        laplace = (p.continuity, ((2, 0), (0, 2)), 1.0)
        ops = design.encode_rows([_neumann_rows(p), laplace], np.zeros(p_rows))
    return obs, ops, _velocity_atoms(p.pred_grid)


def _pack_field(p, mean, boundary, nugget_used, variance=None, blocks=None,
                theta2_hat=None):
    """The FlowField of interleaved (vx, vy) predictions.

    ``mean`` covers the prediction grid and ``boundary`` the boundary
    points, whose normal residual n . v_hat the field reports.
    ``variance`` is the clamped diagonal over the grid atoms and
    ``blocks`` the per-point 2x2 covariance blocks, which feed the
    ||v||^2 moments; without them the UQ entries are NaN.
    """
    G = len(p.pred_grid)
    vx = mean[0 : 2 * G : 2]
    vy = mean[1 : 2 * G : 2]
    if variance is None:
        nanG = np.full(G, np.nan)
        uq = (nanG, nanG.copy(), nanG.copy(), vx ** 2 + vy ** 2, nanG.copy())
    else:
        qm = _uq.quadform_moments(np.stack([vx, vy], axis=-1), blocks)
        uq = (variance[0::2], variance[1::2], blocks[:, 0, 1], qm.mean, qm.variance)
    normals = p.boundary_normals
    return FlowField(
        p.pred_grid,
        vx,
        vy,
        *uq,
        boundary_normal_residual=(
            normals[:, 0] * boundary[0::2] + normals[:, 1] * boundary[1::2]
        ),
        theta2_hat=theta2_hat,
        nugget_used=nugget_used,
    )


def predict_flow_ck(k, p, cfg=SolveConfig(), system=None):
    """Co-Kriging on the potential formulation, with squared-speed moments.

    Predicts the gradient pair at every grid point and at every boundary
    point (the latter to report the normal-velocity residual n . v_hat,
    which the collocation rows drive to the nugget floor).  The per-point
    2x2 covariance between vx and vy feeds the generalized chi-square
    moments of ||v||^2.  ``system`` is ``build_flow_system(p)`` when the
    caller has already built it.
    """
    obs, ops, pred = system if system is not None else build_flow_system(p)
    bnd_atoms = _velocity_atoms(p.boundary_locations)
    G2 = len(pred)
    w = _pred.co_kriging(k, obs, ops, pred + bnd_atoms, cfg=cfg)
    variance, blocks = _uq.mmse_variance(k, pred, w.alpha[:, :G2], w.cross[:, :G2], block=2)
    return _pack_field(p, w.predictions, w.predictions[G2:], w.nugget_used, variance, blocks)


def predict_flow_lk_twostep(k, p, cfg=SolveConfig(), system=None):
    """Two-step Lagrangian prediction of the velocity field.

    Step 1 predicts the gradient pair at each boundary point under the
    Neumann constraint rows only; continuity rows involve no observed or
    wanted atom on this path and are dropped (logged).  Step 2 treats the
    observations plus the step-1 boundary velocities as exact order-0
    observations of two independent scalar fields (vx and vy separately,
    no cross-covariance) and interpolates them on the grid with simple
    Kriging, after its own lengthscale calibration: one theta shared by
    both components minimizes the summed virtual LOOCV MSE (the two-column
    criterion of :mod:`pikrig.calibration`, nan where jitter escalated)
    over the default bounds, capped at the data diameter; the grid mean is
    H2^T (K2^-1 V), both velocity columns V solved by the search's factor of K2.
    ``system`` is ``build_flow_system(p)`` when the caller has built it.
    """
    obs, _, _ = system if system is not None else build_flow_system(p)
    if len(p.continuity):
        logger.info(
            "two-step path drops %d continuity rows: constraints on unobserved "
            "derivative atoms only shift those atoms, not the field predictions",
            len(p.continuity),
        )
    locs2, vals = p.obs_locations, p.obs_velocities
    nugget_used = 0.0
    bv = np.zeros(0)
    bnd = p.boundary_locations
    if len(bnd):
        ops1 = design.encode_rows([_neumann_rows(p)], np.zeros(len(bnd)))
        w1 = _pred.lagrangian_kriging(k, obs, ops1, cfg=cfg)
        nugget_used = w1.nugget_used
        bv = w1.predictions[design.locate_atoms(ops1.colloc_points, _velocity_atoms(bnd))]
        locs2 = np.vstack([locs2, bnd])
        vals = np.vstack([vals, bv.reshape(-1, 2)])
    pts0 = design.Atoms(locs2, (0, 0))
    k0 = _kernel.SqExpKernel(sigma2=1.0, theta=1.0, dim=2)
    # the virtual LOOCV mse of vx plus that of vy, from one factorization
    crit, _, parts_at = _cal._virtual_criteria(k0, pts0, vals, cfg)
    res = _cal.optimize_theta(crit, _cal.default_theta_bounds(pts0), budget=_STEP2_BUDGET)
    solve = parts_at(res.theta_hat)[3][0]  # the search's factor of K2 at theta2
    H2 = design.gram(replace(k0, theta=res.theta_hat), pts0, design.Atoms(p.pred_grid, (0, 0)))
    mean = np.ravel(H2.T @ solve(vals))  # rows (vx, vy), interleaved by ravel
    return _pack_field(p, mean, bv, nugget_used, theta2_hat=res.theta_hat)


_CSV_HEADER = ["kind", "x", "y", "a", "b"]


def _parse_float(text, lineno, col):
    try:
        val = float(text)
    except ValueError:
        raise CsvFormatError(
            f"line {lineno}: column {col!r} is not a number: {text!r}"
        ) from None
    if not math.isfinite(val):
        raise CsvFormatError(f"line {lineno}: column {col!r} is not finite: {text!r}")
    return val


# Each row kind of a velocity CSV, in file order: the FlowProblem arrays that
# its x,y and its a,b fill (grid rows leave a,b unread).
_CSV_KINDS = {"obs": ("obs_locations", "obs_velocities"), "grid": ("pred_grid", None),
              "boundary": ("boundary_locations", "boundary_normals")}


def ingest_velocity_csv(path):
    """Parse a velocity CSV (kind,x,y,a,b) into a FlowProblem.

    kinds: obs (a,b = vx,vy), grid (a,b ignored), boundary (a,b = normal,
    re-normalized; deviations beyond 1e-6 draw a warning).  Comment lines
    start with '#'.  Errors carry the 1-based line number.  The problem
    has no continuity points and the default freestream.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    content = [
        (i + 1, ln) for i, ln in enumerate(lines) if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not content:
        raise CsvFormatError("file has no header line")
    head_no, head = content[0]
    if [c.strip() for c in head.split(",")] != _CSV_HEADER:
        raise CsvFormatError(
            f"line {head_no}: header must be {','.join(_CSV_HEADER)!r}, got {head!r}"
        )
    arrays = {name: [] for names in _CSV_KINDS.values() for name in names if name}
    for lineno, ln in content[1:]:
        parts = [c.strip() for c in ln.split(",")]
        if len(parts) != 5:
            raise CsvFormatError(
                f"line {lineno}: expected 5 comma-separated fields, got {len(parts)}"
            )
        kind = parts[0]
        x = _parse_float(parts[1], lineno, "x")
        y = _parse_float(parts[2], lineno, "y")
        if kind not in _CSV_KINDS:
            raise CsvFormatError(
                f"line {lineno}: unknown kind {kind!r} (expected {'/'.join(_CSV_KINDS)})"
            )
        xy_name, ab_name = _CSV_KINDS[kind]
        arrays[xy_name].append((x, y))
        if ab_name:
            a = _parse_float(parts[3], lineno, "a")
            b = _parse_float(parts[4], lineno, "b")
            norm = math.hypot(a, b) if kind == "boundary" else 1.0  # obs rows: a,b as read
            if norm == 0.0:
                raise CsvFormatError(f"line {lineno}: boundary normal is zero")
            if abs(norm - 1.0) > 1e-6:
                warnings.warn(f"line {lineno}: normal norm {norm} re-normalized to 1",
                              RuntimeWarning, stacklevel=2)
            arrays[ab_name].append((a / norm, b / norm))
    if not arrays["obs_locations"]:
        raise CsvFormatError("no observations in file")
    return FlowProblem(**arrays)


# Format of one CSV cell by its column's array kind: strings as they are,
# integers by str, every other number at 17 significant digits (parses back
# exactly).
_CELL_FORMAT = {"U": "%s", "i": "%s", "u": "%s"}


def csv_text(header, columns):
    """CSV text of ``columns`` (one sequence per column) under ``header``; a
    float64 column formats each distinct value once, keyed on its bits."""
    cells = []
    for c in map(np.asarray, columns):
        if c.dtype == np.float64:
            bits, at = np.unique(c.view(np.int64), return_inverse=True)
            text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
            cells.append(map(text.__getitem__, at.tolist()))
        else:
            cells.append(map(_CELL_FORMAT.get(c.dtype.kind, "%.17g").__mod__, c.tolist()))
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` through a temporary file and an atomic replace."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_out_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_velocity_csv(path, p):
    """Write the FlowProblem ``p`` as a velocity CSV, the rows of each kind in
    the order of :data:`_CSV_KINDS` (17 significant digits, atomic replace)."""
    blocks = [(getattr(p, xy), getattr(p, ab) if ab else np.zeros_like(getattr(p, xy)))
              for xy, ab in _CSV_KINDS.values()]
    kind = np.repeat(list(_CSV_KINDS), [len(xy) for xy, _ in blocks])
    xy, ab = (np.vstack(c).T for c in zip(*blocks))
    atomic_write_text(path, csv_text(_CSV_HEADER, [kind, *xy, *ab]))
