"""Output checks for the benchmark workloads.

Every check compares the program's output with a value the benchmark
computes itself (the potential-flow solution, sin and its derivatives,
closed-form evaluation counts) or with a property the method must have.
None compares with a stored copy of an earlier output.  Each function
returns a list of problems; an empty list means the output passed.
"""

import csv
import json
import math
import os

import numpy as np

RESIDUAL_TOL = 1e-8
CK_OVER_SK_MSE = 1e-3
FLOW_CK_L2_REL = 0.20
MOMENT_REL_TOL = 1e-9
CK_BOUNDARY_TOL = 1e-6
LK_TANGENCY_TOL = 1e-8
FIELD_INPUT_TOL = 1e-12
SWEEP_CK_MSE = 1e-8


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_report(outdir):
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def column(rows, name):
    return np.array([float(r[name]) for r in rows])


# ---------------------------------------------------------------------------
# ode1d-calibrated


def status_ok(report):
    if report.get("status") != "ok":
        return [f"report status {report.get('status')!r}"]
    return []


def ode_variances(rows):
    v = column(rows, "variance")
    if v.size == 0:
        return ["predictions.csv has no rows"]
    if not np.all(np.isfinite(v)):
        return ["non-finite variance"]
    if np.any(v < 0):
        return [f"negative variance {v.min():.3e}"]
    return []


def harmonic_residual(triples):
    """f + f'' = 0 at every x, from (x, m, value) triples with m 0 or 2."""
    by_x = {}
    for x, m, v in triples:
        by_x.setdefault(float(x), {})[int(m)] = float(v)
    if not by_x:
        return ["no predictions"]
    missing = [x for x, vals in by_x.items() if 0 not in vals or 2 not in vals]
    if missing:
        return [f"x={missing[0]!r} lacks an m=0 or m=2 prediction"]
    resid = np.array([abs(vals[0] + vals[2]) for vals in by_x.values()])
    if not np.all(resid <= RESIDUAL_TOL):
        return [f"max |f + f''| = {np.max(resid):.3e} > {RESIDUAL_TOL}"]
    return []


def ode_mse_vs_sin(rows):
    """Mean squared error of the m=0 predictions against sin(x)."""
    x = np.array([float(r["x"]) for r in rows if r["m"] == "0"])
    f = np.array([float(r["mean"]) for r in rows if r["m"] == "0"])
    return float(np.mean((f - np.sin(x)) ** 2))


def ode_ck_beats_sk(ck_rows, sk_rows):
    ck = ode_mse_vs_sin(ck_rows)
    sk = ode_mse_vs_sin(sk_rows)
    if not (math.isfinite(ck) and math.isfinite(sk)):
        return [f"non-finite mse (ck {ck}, sk {sk})"]
    if ck > CK_OVER_SK_MSE * sk:
        return [f"ck mse {ck:.3e} exceeds {CK_OVER_SK_MSE} x sk mse {sk:.3e}"]
    return []


# ---------------------------------------------------------------------------
# flow-cylinder (unit cylinder at the origin, freestream (1, 0))


def potential_flow(x, y, radius=1.0, speed=1.0):
    """Velocity of uniform flow past a cylinder: vx - i vy = V (1 - R^2 / z^2)."""
    z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
    w = speed * (1.0 - radius ** 2 / z ** 2)
    return w.real, -w.imag


def grid_outside(nx, ny, extent=2.5, radius=1.0, margin=0.05):
    """Row-major grid points of [-extent, extent]^2 at or beyond (1+margin) R."""
    xs = np.linspace(-extent, extent, nx)
    ys = np.linspace(-extent, extent, ny)
    return [(x, y) for y in ys for x in xs if math.hypot(x, y) >= radius * (1.0 + margin)]


def _rel_err(a, b):
    scale = np.maximum(np.abs(b), np.finfo(float).tiny)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def flow_ck_accuracy(rows):
    x, y = column(rows, "x"), column(rows, "y")
    tx, ty = potential_flow(x, y)
    err = np.sqrt(np.sum((column(rows, "vx") - tx) ** 2 + (column(rows, "vy") - ty) ** 2))
    rel = float(err / np.sqrt(np.sum(tx ** 2 + ty ** 2)))
    if not rel <= FLOW_CK_L2_REL:
        return [f"relative L2 error {rel:.4f} > {FLOW_CK_L2_REL}"]
    return []


def flow_moments(rows, with_variance):
    """Squared-speed moments recomputed from the CSV columns.

    With variances: mean = |mu|^2 + tr S, var = 2 tr S^2 + 4 mu^T S mu for
    S = [[var_vx, cov], [cov, var_vy]].  Without (the two-step route
    predicts means only): mean = |mu|^2 and the variance columns are NaN.
    """
    vx, vy = column(rows, "vx"), column(rows, "vy")
    mm, mv = column(rows, "magsq_mean"), column(rows, "magsq_var")
    problems = []
    if not with_variance:
        if not np.all(np.isnan(mv)):
            problems.append("magsq_var should be NaN on the two-step route")
        err = _rel_err(mm, vx ** 2 + vy ** 2)
        if not err <= MOMENT_REL_TOL:
            problems.append(f"magsq_mean off by {err:.3e} relative")
        return problems
    a, b, c = column(rows, "var_vx"), column(rows, "var_vy"), column(rows, "cov_vxy")
    mean = vx ** 2 + vy ** 2 + a + b
    var = 2.0 * (a * a + b * b + 2.0 * c * c) + 4.0 * (vx * vx * a + 2.0 * vx * vy * c + vy * vy * b)
    err = _rel_err(mm, mean)
    if not err <= MOMENT_REL_TOL:
        problems.append(f"magsq_mean off by {err:.3e} relative")
    err = _rel_err(mv, var)
    if not err <= MOMENT_REL_TOL:
        problems.append(f"magsq_var off by {err:.3e} relative")
    return problems


def flow_ck_psd(rows):
    """Each 2x2 velocity covariance is PSD: var_vx var_vy >= cov^2, up to roundoff."""
    a, b, c = column(rows, "var_vx"), column(rows, "var_vy"), column(rows, "cov_vxy")
    if np.any(a < 0) or np.any(b < 0):
        return ["negative velocity variance"]
    scale = max(float(np.max(a)), float(np.max(b)), 1.0) ** 2
    worst = float(np.min(a * b - c * c))
    if not worst >= -1e-12 * scale:
        return [f"var_vx var_vy - cov^2 reaches {worst:.3e}"]
    return []


def flow_residual(report, key_tol, label):
    val = report.get("constraint_residual_max")
    if val is None or not val <= key_tol:
        return [f"{label} residual {val} > {key_tol}"]
    return []


def flow_field_input(rows, expected_grid):
    """The emitted field_input.csv holds the oracle observations and the grid."""
    obs = [r for r in rows if r["kind"] == "obs"]
    if not obs:
        return ["field_input.csv has no observations"]
    tx, ty = potential_flow(column(obs, "x"), column(obs, "y"))
    err = float(np.max(np.abs(np.column_stack([column(obs, "a") - tx, column(obs, "b") - ty]))))
    problems = []
    if not err <= FIELD_INPUT_TOL:
        problems.append(f"field_input observations off the potential flow by {err:.3e}")
    ngrid = sum(1 for r in rows if r["kind"] == "grid")
    if ngrid != len(expected_grid):
        problems.append(f"field_input has {ngrid} grid rows, expected {len(expected_grid)}")
    return problems


def flow_grid_rows(rows, expected_grid):
    """The predictions sit exactly on the grid points outside the cut radius."""
    if len(rows) != len(expected_grid):
        return [f"{len(rows)} prediction rows, expected {len(expected_grid)}"]
    got = np.column_stack([column(rows, "x"), column(rows, "y")])
    err = float(np.max(np.abs(got - np.array(expected_grid))))
    if not err <= 1e-12:
        return [f"prediction locations off the grid by {err:.3e}"]
    return []


# ---------------------------------------------------------------------------
# constraint-sweep


def sweep_ck_evals(n, p, q):
    """Counted covariance entries of one co-Kriging assembly: N = n + 2p atoms."""
    N = n + 2 * p
    return N * (N + 1) // 2 + N * q


def sweep_lk_evals(n, p):
    """Counted entries of one Lagrangian assembly: K plus H over 2p atoms."""
    return n * (n + 1) // 2 + 2 * n * p


def sweep_count(got, expected):
    if got != expected:
        return [f"{got} covariance evaluations, closed form gives {expected}"]
    return []


def sweep_ck_accuracy(grid, predictions):
    mse = float(np.mean((np.asarray(predictions) - np.sin(grid)) ** 2))
    if not mse <= SWEEP_CK_MSE:
        return [f"ck mse against sin {mse:.3e} > {SWEEP_CK_MSE}"]
    return []
