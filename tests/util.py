import numpy as np

from pikrig import design
from pikrig.design import ExtendedPoint, ObservationSet, OperatorSystem


def well_spaced(rng, n, lo=0.0, hi=4.0, min_gap=0.35):
    """Sorted 1-d locations with a guaranteed minimum spacing.

    Random jitter on top of an equispaced ladder: n points always fit as
    long as (n - 1) * min_gap <= hi - lo.  Keeps test grams invertible.
    """
    slack = (hi - lo) - (n - 1) * min_gap
    if slack < 0:
        raise ValueError(f"{n} points with gap {min_gap} exceed [{lo}, {hi}]")
    u = np.sort(rng.uniform(0.0, 1.0, n))
    return lo + slack * u + min_gap * np.arange(n)


def obs_1d(xs, values):
    return ObservationSet([ExtendedPoint((float(x),), (0,)) for x in xs], values)


def ode_setup(seed=10, n=4, p=10, q=10):
    """The 1-d harmonic experiment layout: random sin observations on
    [0, 2*pi] plus uniform collocation / prediction grids."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    obs = obs_1d(xs, np.sin(xs))
    colloc = np.linspace(0.0, 2.0 * np.pi, p)
    grid = np.linspace(0.0, 2.0 * np.pi, q)
    return obs, colloc, grid


def mixed_rows(locations):
    """Pointwise f + f'' rows at the 1-d ``locations`` plus one sample
    average over every second one, sharing their atoms: an equation over
    several locations, and atoms in two equations (so the projection takes
    the QR route); the short average column first, so the QR's pivoting
    reorders U."""
    rows = [((float(x),), [(1.0, (0,)), (1.0, (2,))]) for x in locations]
    point = design.encode_pointwise(rows, np.zeros(len(rows)))
    avg = design.encode_average([(float(x),) for x in locations[::2]],
                                [(1.0, (0,)), (0.5, (1,))], rhs=0.3)
    ext = design.extend_atoms(point, avg.colloc_points)
    U = np.hstack([np.zeros((ext.U.shape[0], 1)), ext.U])
    U[design.locate_atoms(ext.colloc_points, avg.colloc_points), 0] = avg.U[:, 0]
    return OperatorSystem(ext.colloc_points, U, np.concatenate([avg.rhs, point.rhs]))
