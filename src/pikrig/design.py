"""Extended design space, operator encoding, and covariance assembly.

The extended design space S = X x M treats a derivative value of the field
as an ordinary point: an :class:`ExtendedPoint` is a spatial location paired
with a derivative multi-index.  A set of atoms is one :class:`Atoms`:
locations X (n x d) and multi-indices M (n x d) as arrays, checked and
grouped by multi-index once, when it is built.  Observations, collocation
atoms and prediction targets are all Atoms; lists of ExtendedPoint are
converted at the API edge (:meth:`Atoms.of`).  Linear differential
equations become linear combinations of atoms, collected in an
:class:`OperatorSystem` (U^T Z+ = v, columns of U are equations).

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
    "Atoms",
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


def _group_rows(M):
    """[(row, indices)] of an int matrix: where each distinct row of M occurs."""
    if not len(M):
        return []
    key = np.ravel_multi_index(M.T, M.max(axis=0) + 1)
    order = np.argsort(key, kind="stable")
    key = key[order]
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(M)]
    return [(tuple(M[order[a]].tolist()), order[a:b]) for a, b in zip(cuts, cuts[1:])]


class Atoms:
    """An immutable set of n atoms: locations ``X`` (n x d float) and
    multi-indices ``M`` (n x d int, or one multi-index for every location).

    The arrays are checked once, as whole arrays, and grouped once:
    ``groups`` lists (m, row indices) per distinct multi-index.  An int
    index or iteration gives :class:`ExtendedPoint` views; slices, index
    arrays and ``+`` give Atoms.  :meth:`of` converts ExtendedPoint lists.
    """

    __slots__ = ("X", "M", "groups")

    def __new__(cls, X, M):
        X, M = np.array(X, dtype=float), np.asarray(M)
        if X.ndim != 2 or M.shape not in (X.shape, X.shape[1:]):
            raise ValueError(f"no n x d atom set from shapes {X.shape} and {M.shape}")
        M = np.array(np.broadcast_to(M, X.shape), dtype=int)
        if not np.isfinite(X).all():
            raise ValueError(f"non-finite location in row {np.argmin(np.isfinite(X).all(1))}")
        if (M < 0).any():
            raise ValueError(f"negative derivative order in row {np.argmax((M < 0).any(1))}")
        return cls._make(X, M)

    @classmethod
    def _make(cls, X, M, groups=None):
        """Atoms of checked arrays, grouped unless ``groups`` is given."""
        atoms = object.__new__(cls)
        X.flags.writeable = M.flags.writeable = False
        groups = _group_rows(M) if groups is None else groups
        for name, value in zip(cls.__slots__, (X, M, groups)):
            object.__setattr__(atoms, name, value)
        return atoms

    @classmethod
    def of(cls, atoms):
        """``atoms`` if it is an Atoms, else the Atoms of ExtendedPoints."""
        if isinstance(atoms, Atoms):
            return atoms
        atoms = list(atoms)
        if not atoms:
            return cls._make(np.zeros((0, 0)), np.zeros((0, 0), dtype=int), [])
        dims = sorted({len(a.m) for a in atoms})
        if len(dims) > 1:
            raise _kernel.DimensionMismatchError(f"atoms of dimensions {dims} in one set")
        X = np.array([a.x for a in atoms], dtype=float)
        return cls._make(X, np.array([a.m for a in atoms], dtype=int))

    def __setattr__(self, name, value):
        raise AttributeError("Atoms is immutable")

    def __reduce__(self):
        return Atoms, (self.X, self.M)

    def __len__(self):
        return len(self.X)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return ExtendedPoint(tuple(self.X[i].tolist()), tuple(self.M[i].tolist()))
        return Atoms._make(self.X[i], self.M[i])

    def __add__(self, other):
        """The atoms of both sets; the groups of the parts are merged, not rebuilt."""
        other = Atoms.of(other)
        if not (len(self) and len(other)):
            a = self if len(self) else other
            return Atoms._make(a.X, a.M, a.groups)
        if self.X.shape[1] != other.X.shape[1]:
            raise _kernel.DimensionMismatchError("atom sets of different dimensions")
        n, groups = len(self), dict(self.groups)
        for m, idx in other.groups:
            groups[m] = np.concatenate([groups[m], idx + n]) if m in groups else idx + n
        X, M = (np.concatenate([getattr(self, v), getattr(other, v)]) for v in "XM")
        return Atoms._make(X, M, list(groups.items()))


def _distinct(*sets):
    """(first, label) of the atoms of the sets, taken in turn: the first
    of each distinct (x, m) in (x, m) order, and each atom's position in
    that order.  Rows compare as numbers, so the locations 0.0 and -0.0
    are one atom."""
    rows = np.concatenate([np.concatenate([a.X, a.M], axis=1) for a in sets])
    order = np.lexsort(rows.T[::-1]) if rows.size else np.arange(len(rows))
    s = rows[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    label = np.empty(len(s), dtype=int)
    label[order] = np.cumsum(new) - 1
    return order[new], label


def _positions(points, atoms):
    """Index in ``points`` of each of ``atoms`` (exact (x, m) match), -1 if absent."""
    n = len(points)
    if not (n and len(atoms)):
        return np.full(len(atoms), -1)
    first, label = _distinct(points, atoms)
    found = first[label[n:]]
    return np.where(found < n, found, -1)


def _find_duplicates(points, tol=1e-12):
    """Indices (i, j), i < j in row-major order, of duplicate atoms.

    Duplicates share m exactly and x within ``tol`` in every coordinate;
    each multi-index group is compared by one broadcast per coordinate.
    """
    points = Atoms.of(points)
    dups = []
    for _, idx in points.groups:
        close = np.logical_and.reduce(
            [np.abs(x[:, None] - x[None, :]) <= tol for x in points.X[idx].T]
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

    points: Atoms
    values: np.ndarray
    mean: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = Atoms.of(self.points)
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

    colloc_points: Atoms
    U: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.colloc_points = Atoms.of(self.colloc_points)
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


def _atoms_for(k, atoms):
    """``atoms`` as :class:`Atoms`, checked against the kernel dimension."""
    atoms = Atoms.of(atoms)
    d = atoms.X.shape[1]
    if len(atoms) and d != k.dim:
        raise _kernel.DimensionMismatchError(f"atoms of dimension {d}, kernel dim {k.dim}")
    return atoms


def gram(k, A, B=None):
    """Covariance matrix over extended points, entry (i,j) = cov(A[i], B[j]).

    Each pair of multi-index groups is one block, evaluated by
    :func:`pikrig.kernel.deriv_block` on the broadcast coordinate
    differences.  With ``B`` omitted (or the identical object), the
    upper triangle is copied onto the lower one (cov(A[j], A[i]) can
    differ from cov(A[i], A[j]) in the sign of a zero) and |A|(|A|+1)/2
    evaluations are counted; otherwise all |A| x |B| entries are.
    """
    sym = B is None or B is A
    A = _atoms_for(k, A)
    B = A if sym else _atoms_for(k, B)
    G = np.empty((len(A), len(B)))
    XB = [B.X[ib] for _, ib in B.groups]
    for m, ia in A.groups:
        X = A.X[ia]
        for (m2, ib), X2 in zip(B.groups, XB):
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
    A, B = _atoms_for(k, A), _atoms_for(k, B)
    if len(A) != len(B):
        raise ValueError(f"{len(A)} atoms paired with {len(B)}")
    out = np.empty(len(A))
    for mm, idx in _group_rows(np.hstack([A.M, B.M])):
        out[idx] = _kernel.deriv_block(k, A.X[idx] - B.X[idx], mm[: k.dim], mm[k.dim :])
    _COUNTER.add(len(A))
    return out


def _operator_system(locations, multi_indices, coeff, eq, rhs):
    """OperatorSystem with coefficient ``coeff[t]`` of the atom
    (``locations[t]``, ``multi_indices[t]``) in equation ``eq[t]``.

    Atoms are the distinct terms, sorted by (x, m); repeated terms add up.
    """
    n = len(locations)
    terms = Atoms(np.reshape(locations, (n, -1)), np.reshape(multi_indices, (n, -1)))
    first, label = _distinct(terms)
    U = np.zeros((len(first), len(rhs)))
    np.add.at(U, (label, eq), coeff)
    return OperatorSystem(colloc_points=terms[first], U=U, rhs=rhs)


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
    flat = []
    for r, (loc, terms) in enumerate(rows):
        terms = list(terms)
        if not terms:
            raise ValueError(f"row {r} has no terms")
        if not any(coeff != 0.0 for coeff, _ in terms):
            raise ValueError(f"row {r} has no nonzero coefficient")
        flat += [(loc, m, float(coeff), r) for coeff, m in terms]
    return _operator_system(*zip(*flat), rhs)


def encode_average(locations, terms, rhs):
    """Encode one sample-average equation (1/q) sum_i sum_t c_t f^(m_t)(x_i) = rhs."""
    locations = list(locations)
    if not locations:
        raise ValueError("no locations given")
    q = len(locations)
    terms = [(float(c) / q, m) for c, m in terms]
    flat = [(loc, m, coeff, 0) for loc in locations for coeff, m in terms]
    if not flat:
        raise ValueError("no terms given")
    return _operator_system(*zip(*flat), [float(rhs)])


def _extend(ops, atoms):
    """(``ops`` with the ``atoms`` it lacks appended, the row of each atom)."""
    atoms = Atoms.of(atoms)
    rows = _positions(ops.colloc_points, atoms)
    missing = rows < 0
    if not missing.any():
        return OperatorSystem(ops.colloc_points, ops.U.copy(), ops.rhs.copy()), rows
    rows[missing] = ops.c + np.arange(missing.sum())
    new = atoms[missing]
    U = np.vstack([ops.U, np.zeros((len(new), ops.p))])
    return OperatorSystem(ops.colloc_points + new, U, ops.rhs.copy()), rows


def extend_atoms(ops, extra_atoms):
    """Append constraint-free atoms to a system (zero U rows, same equations).

    Used when predictions are wanted at atoms no equation touches, e.g.
    order-0 predictions alongside derivative-only constraints.  Atoms
    already present are not duplicated.
    """
    return _extend(ops, extra_atoms)[0]


def locate_atoms(points, atoms):
    """Index of each atom inside ``points`` (exact (x, m) match)."""
    atoms = Atoms.of(atoms)
    found = _positions(Atoms.of(points), atoms)
    if (found < 0).any():
        missing = atoms[int(np.argmax(found < 0))]
        raise ValueError(f"atom {missing} not among the given atoms")
    return found
