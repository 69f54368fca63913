"""Potential-flow laboratory: problem builders, predictors, CSV ingestion.

An incompressible irrotational velocity field derives from a potential,
v = grad(phi), with continuity grad^2(phi) = 0 in the domain and the
no-penetration condition grad(phi) . n = 0 on an obstacle boundary.
Modelling phi as one scalar random field makes every velocity component a
derivative atom of the same field, so the cross-covariances between vx
and vy come out of the kernel-derivative machinery for free.

For a circular cylinder the classical analytic solution (complex
potential F(z) = V (z + R^2/z) in the freestream-aligned frame) serves as
ground truth.  External velocity fields arrive via a small CSV schema
(kind,x,y,a,b) instead of an embedded panel solver.
"""

import csv
import logging
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import calibration as _cal
from . import design
from . import kernel as _kernel
from . import predictors as _pred
from . import uq as _uq
from .design import ExtendedPoint
from .predictors import SolveConfig

__all__ = [
    "DomainError",
    "CylinderGeometry",
    "FlowProblem",
    "FlowField",
    "VelocityData",
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


@dataclass
class FlowProblem:
    """Velocity observations, operator collocation layouts, and freestream.

    ``velocity_obs`` entries are (location, vx, vy); ``boundary_points``
    entries are (location, unit normal).  Normals must be unit length to
    1e-10 (re-normalize upstream if needed).
    """

    velocity_obs: list
    continuity_points: list = field(default_factory=list)
    boundary_points: list = field(default_factory=list)
    pred_grid: list = field(default_factory=list)
    freestream: tuple = (1.0, 0.0)

    def __post_init__(self):
        self.velocity_obs = [
            (tuple(float(c) for c in loc), float(vx), float(vy))
            for loc, vx, vy in self.velocity_obs
        ]
        self.continuity_points = [
            tuple(float(c) for c in loc) for loc in self.continuity_points
        ]
        self.pred_grid = [tuple(float(c) for c in loc) for loc in self.pred_grid]
        self.freestream = tuple(float(c) for c in self.freestream)
        cleaned = []
        for i, (loc, nrm) in enumerate(self.boundary_points):
            nrm = np.asarray(nrm, dtype=float)
            norm = float(np.linalg.norm(nrm))
            if abs(norm - 1.0) > 1e-10:
                raise ValueError(
                    f"boundary normal {i} has norm {norm}, expected unit length"
                )
            cleaned.append((tuple(float(c) for c in loc), (nrm[0], nrm[1])))
        self.boundary_points = cleaned


@dataclass
class VelocityData:
    """Parsed CSV fragment: observations, prediction grid, boundary normals."""

    velocity_obs: list
    pred_grid: list
    boundary_points: list


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
    boundary_locations: np.ndarray
    boundary_vx: np.ndarray
    boundary_vy: np.ndarray
    boundary_normal_residual: np.ndarray
    theta2_hat: Optional[float] = None
    nugget_used: float = 0.0


def cylinder_flow_oracle(geom, freestream, at):
    """Analytic velocity of uniform flow past a cylinder at one point.

    Uses the complex conjugate velocity w = V (1 - R^2 / zeta^2) in the
    freestream-aligned frame zeta = (z - center) e^{-i beta}; the global
    velocity is e^{i beta} conj(w).  Far from the obstacle this tends to
    the freestream; on the surface the normal component vanishes.
    """
    cx, cy = geom.center
    z = complex(float(at[0]) - cx, float(at[1]) - cy)
    r = abs(z)
    if r < geom.radius * (1.0 - 1e-12):
        raise DomainError(
            f"point {tuple(at)} lies inside the cylinder (r={r} < {geom.radius})"
        )
    vinf = complex(freestream[0], freestream[1])
    speed = abs(vinf)
    if speed == 0.0:
        return 0.0, 0.0
    phase = vinf / speed
    zeta = z / phase
    w = speed * (1.0 - (geom.radius / zeta) ** 2)
    vel = phase * w.conjugate()
    return float(vel.real), float(vel.imag)


def uniform_grid(xlim, ylim, nx, ny, aspect=1.0):
    """Row-major (x fastest) uniform grid; aspect scales the x count."""
    nx_eff = max(2, int(round(nx * aspect)))
    xs = np.linspace(xlim[0], xlim[1], nx_eff)
    ys = np.linspace(ylim[0], ylim[1], int(ny))
    return [(float(x), float(y)) for y in ys for x in xs]


def exterior_grid(geom, counts, extent, margin, aspect=1.0):
    """Uniform grid on the square of half-width ``extent`` around the
    obstacle center, without the points closer than (1 + margin) radii."""
    cx, cy = geom.center
    cut = geom.radius * (1.0 + margin)
    xlim = (cx - extent, cx + extent)
    ylim = (cy - extent, cy + extent)
    pts = uniform_grid(xlim, ylim, *counts, aspect=aspect)
    return [p for p in pts if math.hypot(p[0] - cx, p[1] - cy) >= cut]


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
    cx, cy = geom.center
    R = geom.radius
    obs = []
    for j in range(int(n_obs)):
        ang = 2.0 * math.pi * j / n_obs
        loc = (cx + obs_radius_factor * R * math.cos(ang),
               cy + obs_radius_factor * R * math.sin(ang))
        vx, vy = cylinder_flow_oracle(geom, freestream, loc)
        obs.append((loc, vx, vy))
    boundary = []
    for j in range(int(q1)):
        ang = 2.0 * math.pi * j / q1
        nrm = (math.cos(ang), math.sin(ang))
        loc = (cx + R * nrm[0], cy + R * nrm[1])
        boundary.append((loc, nrm))
    return FlowProblem(
        velocity_obs=obs,
        continuity_points=exterior_grid(geom, continuity_grid, extent, margin, aspect),
        boundary_points=boundary,
        pred_grid=exterior_grid(geom, pred_counts, extent, margin, aspect),
        freestream=freestream,
    )


def _gradient_atoms(loc):
    return [ExtendedPoint(loc, (1, 0)), ExtendedPoint(loc, (0, 1))]


def build_flow_system(p):
    """Assemble the phi-formulation system from a FlowProblem.

    Observations become pairs of gradient atoms, boundary points become
    Neumann rows n1 (1,0) + n2 (0,1) = 0, continuity points become rows
    (2,0) + (0,2) = 0 (boundary rows come first), and prediction atoms are
    the gradient pair at each grid point.
    """
    if not p.velocity_obs:
        raise ValueError("FlowProblem has no velocity observations")
    atoms = []
    values = []
    for loc, vx, vy in p.velocity_obs:
        ax, ay = _gradient_atoms(loc)
        atoms += [ax, ay]
        values += [vx, vy]
    obs = design.ObservationSet(atoms, np.array(values))
    rows = []
    for loc, (n1, n2) in p.boundary_points:
        rows.append((loc, [(n1, (1, 0)), (n2, (0, 1))]))
    for loc in p.continuity_points:
        rows.append((loc, [(1.0, (2, 0)), (1.0, (0, 2))]))
    if rows:
        ops = design.encode_pointwise(rows, np.zeros(len(rows)))
    else:
        ops = design.OperatorSystem([], np.zeros((0, 0)), np.zeros(0))
    pred = []
    for loc in p.pred_grid:
        pred += _gradient_atoms(loc)
    return obs, ops, pred


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
    bvx = boundary[0::2]
    bvy = boundary[1::2]
    normals = np.array([nrm for _, nrm in p.boundary_points]).reshape(-1, 2)
    return FlowField(
        np.array(p.pred_grid, dtype=float),
        vx,
        vy,
        *uq,
        boundary_locations=np.array([loc for loc, _ in p.boundary_points]),
        boundary_vx=bvx,
        boundary_vy=bvy,
        boundary_normal_residual=normals[:, 0] * bvx + normals[:, 1] * bvy,
        theta2_hat=theta2_hat,
        nugget_used=nugget_used,
    )


def predict_flow_ck(k, p, cfg=None, system=None):
    """Co-Kriging on the potential formulation, with squared-speed moments.

    Predicts the gradient pair at every grid point and at every boundary
    point (the latter to report the normal-velocity residual n . v_hat,
    which the collocation rows drive to the nugget floor).  The per-point
    2x2 covariance between vx and vy feeds the generalized chi-square
    moments of ||v||^2.  ``system`` is ``build_flow_system(p)`` when the
    caller has already built it.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    obs, ops, pred = system if system is not None else build_flow_system(p)
    bnd_atoms = [a for loc, _ in p.boundary_points for a in _gradient_atoms(loc)]
    G2 = len(pred)
    Kplus, Hplus, y = _pred.assemble_co_kriging(k, obs, ops, pred + bnd_atoms)
    w = _pred.solve_co_kriging(Kplus, Hplus, y, cfg)
    variance, blocks = _uq.mmse_variance(
        k, pred, w.alpha[:, :G2], w.cross[:, :G2], block=2
    )
    return _pack_field(
        p, w.predictions, w.predictions[G2:], w.nugget_used, variance, blocks
    )


def predict_flow_lk_twostep(k, p, cfg=None, step2_budget=32, system=None):
    """Two-step Lagrangian prediction of the velocity field.

    Step 1 predicts the gradient pair at each boundary point under the
    Neumann constraint rows only; continuity rows involve no observed or
    wanted atom on this path and are dropped (logged).  Step 2 treats the
    observations plus the step-1 boundary velocities as exact order-0
    observations of two independent scalar fields (vx and vy separately,
    no cross-covariance) and interpolates them on the grid with simple
    Kriging, after its own lengthscale calibration (one theta shared by
    both components, minimizing the summed virtual LOOCV MSE); both
    components share one factorization of the step-2 gram.  ``system`` is
    ``build_flow_system(p)`` when the caller has already built it.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    obs, _, _ = system if system is not None else build_flow_system(p)
    if p.continuity_points:
        logger.info(
            "two-step path drops %d continuity rows: constraints on unobserved "
            "derivative atoms only shift those atoms, not the field predictions",
            len(p.continuity_points),
        )
    locs2 = [loc for loc, _, _ in p.velocity_obs]
    valx = [vx for _, vx, _ in p.velocity_obs]
    valy = [vy for _, _, vy in p.velocity_obs]
    nugget_used = 0.0
    bv = np.zeros(0)
    if p.boundary_points:
        rows = [
            (loc, [(n1, (1, 0)), (n2, (0, 1))]) for loc, (n1, n2) in p.boundary_points
        ]
        ops1 = design.encode_pointwise(rows, np.zeros(len(rows)))
        w1 = _pred.lagrangian_kriging(k, obs, ops1, cfg=cfg)
        nugget_used = w1.nugget_used
        bnd_atoms = [a for loc, _ in p.boundary_points for a in _gradient_atoms(loc)]
        bv = w1.predictions[design.locate_atoms(ops1.colloc_points, bnd_atoms)]
        locs2 = locs2 + [loc for loc, _ in p.boundary_points]
        valx = valx + list(bv[0::2])
        valy = valy + list(bv[1::2])
    pts0 = [ExtendedPoint(loc, (0, 0)) for loc in locs2]
    vals = np.column_stack([valx, valy])
    k0 = _kernel.SqExpKernel(sigma2=1.0, theta=1.0, dim=2)

    def crit(theta):
        # the virtual LOOCV MSE of vx plus that of vy, from one factorization
        K2 = design.gram(replace(k0, theta=theta), pts0)
        a, d, escalated = _cal._virtual_parts(K2, vals, len(pts0), cfg)
        if escalated:
            return math.nan
        return float(np.mean((a[:, 0] / d) ** 2)) + float(np.mean((a[:, 1] / d) ** 2))

    res = _cal.optimize_theta(
        crit, _cal.default_theta_bounds(pts0), budget=step2_budget
    )
    k2 = replace(k0, theta=res.theta_hat)
    pred0 = [ExtendedPoint(loc, (0, 0)) for loc in p.pred_grid]
    K2 = design.gram(k2, pts0)
    H2 = design.gram(k2, pts0, pred0)
    fx = _pred.solve_co_kriging(K2, H2, vals[:, 0], cfg)
    fy = fx.alpha.T @ vals[:, 1]
    mean = np.ravel(np.column_stack([fx.predictions, fy]))
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


def ingest_velocity_csv(path):
    """Parse a velocity CSV (kind,x,y,a,b) into a VelocityData fragment.

    kinds: obs (a,b = vx,vy), grid (a,b ignored), boundary (a,b = normal,
    re-normalized; deviations beyond 1e-6 draw a warning).  Comment lines
    start with '#'.  Errors carry the 1-based line number.
    """
    obs = []
    grid = []
    boundary = []
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
    for lineno, ln in content[1:]:
        parts = [c.strip() for c in ln.split(",")]
        if len(parts) != 5:
            raise CsvFormatError(
                f"line {lineno}: expected 5 comma-separated fields, got {len(parts)}"
            )
        kind = parts[0]
        x = _parse_float(parts[1], lineno, "x")
        y = _parse_float(parts[2], lineno, "y")
        if kind == "obs":
            vx = _parse_float(parts[3], lineno, "a")
            vy = _parse_float(parts[4], lineno, "b")
            obs.append(((x, y), vx, vy))
        elif kind == "grid":
            grid.append((x, y))
        elif kind == "boundary":
            n1 = _parse_float(parts[3], lineno, "a")
            n2 = _parse_float(parts[4], lineno, "b")
            norm = math.hypot(n1, n2)
            if norm == 0.0:
                raise CsvFormatError(f"line {lineno}: boundary normal is zero")
            if abs(norm - 1.0) > 1e-6:
                warnings.warn(
                    f"line {lineno}: normal norm {norm} re-normalized to 1",
                    RuntimeWarning,
                    stacklevel=2,
                )
            boundary.append(((x, y), (n1 / norm, n2 / norm)))
        else:
            raise CsvFormatError(
                f"line {lineno}: unknown kind {kind!r} (expected obs/grid/boundary)"
            )
    if not obs:
        raise CsvFormatError("no observations in file")
    return VelocityData(velocity_obs=obs, pred_grid=grid, boundary_points=boundary)


def _g17(x):
    return format(float(x), ".17g")


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


def emit_velocity_csv(path, velocity_obs, pred_grid=(), boundary_points=()):
    """Write a velocity CSV (17 significant digits, atomic replace)."""
    lines = [",".join(_CSV_HEADER)]
    for loc, vx, vy in velocity_obs:
        lines.append(f"obs,{_g17(loc[0])},{_g17(loc[1])},{_g17(vx)},{_g17(vy)}")
    for loc in pred_grid:
        lines.append(f"grid,{_g17(loc[0])},{_g17(loc[1])},0,0")
    for loc, nrm in boundary_points:
        lines.append(
            f"boundary,{_g17(loc[0])},{_g17(loc[1])},{_g17(nrm[0])},{_g17(nrm[1])}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
