"""Extended design space, operator encoding, and covariance assembly.

The extended design space S = X x M treats a derivative value of the field
as an ordinary point: an :class:`ExtendedPoint` is a spatial location paired
with a derivative multi-index.  Linear differential equations become linear
combinations of extended-field atoms, collected in an :class:`OperatorSystem`
(U^T Z+ = v, columns of U are equations).

Covariance matrices over extended points are assembled by :func:`gram`,
one :func:`pikrig.kernel.deriv_block` call per pair of multi-index groups,
so every entry equals :func:`cov` of its pair exactly.  :func:`gram` also
feeds a process-wide counter of evaluated atom pairs.  The counter is what
makes the cost asymmetry between co-Kriging and Lagrangian Kriging
measurable: for co-Kriging with n primary atoms, c collocation atoms and q
prediction atoms a prediction costs (n+c)(n+c+1)/2 + (n+c)q counted
evaluations (symmetric fill), for Lagrangian Kriging n(n+1)/2 + n*q.
"""

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernel as _kernel

__all__ = [
    "ExtendedPoint",
    "ObservationSet",
    "OperatorSystem",
    "cov",
    "gram",
    "cov_pairs",
    "encode_pointwise",
    "encode_average",
    "extend_atoms",
    "locate_atoms",
    "cov_eval_count",
    "reset_cov_eval_count",
]


@dataclass(frozen=True)
class ExtendedPoint:
    """A spatial location with a derivative multi-index: one atom of S = X x M."""

    x: tuple
    m: tuple

    def __post_init__(self):
        x = tuple(float(v) for v in np.atleast_1d(self.x))
        m = tuple(int(v) for v in np.atleast_1d(self.m))
        if len(x) != len(m):
            raise ValueError(f"x has dim {len(x)} but m has length {len(m)}")
        if not all(np.isfinite(v) for v in x):
            raise ValueError(f"non-finite location {x}")
        if any(v < 0 for v in m):
            raise ValueError(f"negative derivative order in {m}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "m", m)

    @property
    def order(self):
        return sum(self.m)

    def sort_key(self):
        return (self.x, self.m)


def _group(keys):
    """Positions of equal keys, in order of first appearance: {key: indices}."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return {key: np.array(idx) for key, idx in groups.items()}


def _coords(atoms, idx):
    """Locations of ``atoms[idx]`` as an (len(idx), d) array."""
    return np.array([atoms[i].x for i in idx], dtype=float)


def _find_duplicates(points, tol=1e-12):
    """Indices (i, j), i < j in row-major order, of duplicate atoms.

    Duplicates share m exactly and x within ``tol`` in every coordinate;
    each multi-index group is compared by one broadcast per coordinate.
    """
    dups = []
    for idx in _group(p.m for p in points).values():
        X = _coords(points, idx)
        close = np.logical_and.reduce(
            [np.abs(x[:, None] - x[None, :]) <= tol for x in X.T]
        )
        i, j = np.nonzero(np.triu(close, 1))
        dups.extend(zip(idx[i].tolist(), idx[j].tolist()))
    return sorted(dups)


@dataclass
class ObservationSet:
    """Observed extended-field values Z at n distinct atoms.

    ``mean`` is the prior mean vector mu at the observation atoms; absent
    (None) means the centered, simple-Kriging model.
    """

    points: list
    values: np.ndarray
    mean: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = list(self.points)
        self.values = np.asarray(self.values, dtype=float).ravel()
        if len(self.points) != self.values.size:
            raise ValueError(
                f"{len(self.points)} points but {self.values.size} values"
            )
        if self.mean is not None:
            self.mean = np.asarray(self.mean, dtype=float).ravel()
            if self.mean.size != self.values.size:
                raise ValueError(
                    f"mean has size {self.mean.size}, expected {self.values.size}"
                )
        dups = _find_duplicates(self.points)
        if dups:
            i, j = dups[0]
            raise ValueError(
                f"duplicate observation atoms at indices {i} and {j}: "
                f"{self.points[i]} vs {self.points[j]}"
            )

    @property
    def n(self):
        return len(self.points)


@dataclass
class OperatorSystem:
    """Linear operator rows U^T Z+ = v over collocation atoms Z+.

    ``U`` is c x p: rows follow ``colloc_points``, each column is one
    equation's coefficient vector.  ``rhs`` holds the p forcing values v.
    """

    colloc_points: list
    U: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.colloc_points = list(self.colloc_points)
        self.U = np.asarray(self.U, dtype=float)
        if self.U.ndim != 2:
            self.U = self.U.reshape(len(self.colloc_points), -1)
        self.rhs = np.asarray(self.rhs, dtype=float).ravel()
        c, p = self.U.shape
        if c != len(self.colloc_points):
            raise ValueError(
                f"U has {c} rows but there are {len(self.colloc_points)} atoms"
            )
        if p != self.rhs.size:
            raise ValueError(f"U has {p} columns but rhs has {self.rhs.size}")
        zero = np.flatnonzero(~self.U.any(axis=0))
        if zero.size:
            raise ValueError(f"equation {zero[0]} has an all-zero coefficient column")

    @property
    def c(self):
        return len(self.colloc_points)

    @property
    def p(self):
        return int(self.U.shape[1])


class _EvalCounter:
    """Monotonic process-wide accumulator of covariance evaluations."""

    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def add(self, n):
        with self._lock:
            self._total += int(n)

    def value(self):
        with self._lock:
            return self._total


_COUNTER = _EvalCounter()


def cov_eval_count():
    """Total covariance evaluations counted so far in this process."""
    return _COUNTER.value()


def reset_cov_eval_count():
    """Reset the counter (testing hook); returns the value before reset."""
    with _COUNTER._lock:
        old = _COUNTER._total
        _COUNTER._total = 0
    return old


def cov(k, s, s2):
    """Cov[Z(s), Z(s2)] via the mixed kernel derivative."""
    return _kernel.deriv(k, s.x, s2.x, s.m, s2.m)


def _groups(k, atoms):
    """[(m, indices, locations)] of the atoms, one entry per multi-index."""
    groups = []
    for m, idx in _group(a.m for a in atoms).items():
        if len(m) != k.dim:
            raise _kernel.DimensionMismatchError(
                f"atom with m={m} has dimension {len(m)}, kernel dim is {k.dim}"
            )
        groups.append((m, idx, _coords(atoms, idx)))
    return groups


def gram(k, A, B=None):
    """Covariance matrix over extended points, entry (i,j) = cov(A[i], B[j]).

    Each pair of multi-index groups is one block, evaluated by
    :func:`pikrig.kernel.deriv_block` on the broadcast coordinate
    differences.  With ``B`` omitted (or the identical list object), the
    upper triangle is copied onto the lower one (cov(A[j], A[i]) can
    differ from cov(A[i], A[j]) in the sign of a zero) and |A|(|A|+1)/2
    evaluations are counted; otherwise all |A| x |B| entries are.
    """
    sym = B is None or B is A
    B = A if sym else B
    G = np.empty((len(A), len(B)))
    groups_a = _groups(k, A)
    groups_b = groups_a if sym else _groups(k, B)
    for m, ia, X in groups_a:
        for m2, ib, X2 in groups_b:
            r = X[:, None, :] - X2[None, :, :]
            G[np.ix_(ia, ib)] = _kernel.deriv_block(k, r, m, m2)
    n = len(A)
    if sym:
        G = np.where(np.tri(n, k=-1, dtype=bool), G.T, G)
    _COUNTER.add(n * (n + 1) // 2 if sym else n * len(B))
    return G


def cov_pairs(k, A, B):
    """Covariances cov(A[i], B[i]) of paired atoms, as a vector.

    One :func:`pikrig.kernel.deriv_block` call per pair of multi-indices;
    counts len(A) evaluations.
    """
    if len(A) != len(B):
        raise ValueError(f"{len(A)} atoms paired with {len(B)}")
    out = np.empty(len(A))
    for (m, m2), idx in _group((a.m, b.m) for a, b in zip(A, B)).items():
        out[idx] = _kernel.deriv_block(k, _coords(A, idx) - _coords(B, idx), m, m2)
    _COUNTER.add(len(A))
    return out


def _atom_key(x, m):
    return (tuple(float(v) for v in np.atleast_1d(x)),
            tuple(int(v) for v in np.atleast_1d(m)))


def _operator_system(columns, rhs):
    """OperatorSystem from one list of (coeff, atom key) per equation.

    Atoms are the distinct keys, sorted by (x, m); repeated terms add up.
    """
    ordered = sorted({key for column in columns for _, key in column})
    index = {key: i for i, key in enumerate(ordered)}
    U = np.zeros((len(ordered), len(columns)))
    for j, column in enumerate(columns):
        for coeff, key in column:
            U[index[key], j] += coeff
    atoms = [ExtendedPoint(x=key[0], m=key[1]) for key in ordered]
    return OperatorSystem(colloc_points=atoms, U=U, rhs=rhs)


def encode_pointwise(rows, rhs):
    """Encode pointwise linear-PDE rows as an OperatorSystem.

    Parameters
    ----------
    rows : list of (location, terms)
        Each row is one equation; ``terms`` is a list of (coeff, multi-index)
        pairs, all applied at ``location``.  Terms with coefficient zero
        still register their atom (the caller may list unused orders).
    rhs : list of float
        Forcing value per row.

    Atoms are deduplicated and ordered lexicographically by (x, m) so the
    encoding is reproducible regardless of row order.
    """
    rows = list(rows)
    rhs = np.asarray(rhs, dtype=float).ravel()
    if not rows:
        raise ValueError("no operator rows given")
    if len(rows) != rhs.size:
        raise ValueError(f"{len(rows)} rows but {rhs.size} rhs values")
    parsed = []
    for r, (loc, terms) in enumerate(rows):
        terms = list(terms)
        if not terms:
            raise ValueError(f"row {r} has no terms")
        if not any(coeff != 0.0 for coeff, _ in terms):
            raise ValueError(f"row {r} has no nonzero coefficient")
        parsed.append([(float(coeff), _atom_key(loc, m)) for coeff, m in terms])
    return _operator_system(parsed, rhs)


def encode_average(locations, terms, rhs):
    """Encode one sample-average equation (1/q) sum_i sum_t c_t f^(m_t)(x_i) = rhs."""
    locations = list(locations)
    if not locations:
        raise ValueError("no locations given")
    q = len(locations)
    terms = [(float(c) / q, m) for c, m in terms]
    column = [(coeff, _atom_key(loc, m)) for loc in locations for coeff, m in terms]
    return _operator_system([column], [float(rhs)])


def extend_atoms(ops, extra_atoms):
    """Append constraint-free atoms to a system (zero U rows, same equations).

    Used when predictions are wanted at atoms no equation touches, e.g.
    order-0 predictions alongside derivative-only constraints.  Atoms
    already present are not duplicated.
    """
    have = {(a.x, a.m) for a in ops.colloc_points}
    new = [a for a in extra_atoms if (a.x, a.m) not in have]
    if not new:
        return OperatorSystem(ops.colloc_points, ops.U.copy(), ops.rhs.copy())
    U = np.vstack([ops.U, np.zeros((len(new), ops.p))])
    return OperatorSystem(ops.colloc_points + list(new), U, ops.rhs.copy())


def locate_atoms(points, atoms):
    """Index of each atom inside ``points`` (exact (x, m) match)."""
    index = {(a.x, a.m): j for j, a in enumerate(points)}
    try:
        return np.array([index[(a.x, a.m)] for a in atoms], dtype=int)
    except KeyError as missing:
        raise ValueError(f"atom {missing} not among the given atoms") from None
