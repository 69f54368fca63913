"""Extended design space, operator encoding, and covariance assembly.

The extended design space S = X x M treats a derivative value of the field
as an ordinary point: an :class:`ExtendedPoint` is a spatial location paired
with a derivative multi-index.  A set of atoms is one :class:`Atoms`:
locations X (n x d) and multi-indices M (n x d) as arrays, checked and
grouped by multi-index once, when it is built.  Observations, collocation
atoms and prediction targets are all Atoms; lists of ExtendedPoint are
converted at the API edge (:meth:`Atoms.of`).  Linear differential
equations become linear combinations of atoms, collected in an
:class:`OperatorSystem` (U^T Z+ = v, columns of U are equations) and
stored once, as their terms; U, U^T x, U w and the row blocks, one row
per (equation, location), are derived here.

Covariance matrices over extended points are assembled by :func:`gram`,
in row panels of closed-form blocks per pair of multi-index groups, the
upper triangle only if symmetric, so every entry equals :func:`cov` of
its pair exactly; a :class:`Layout` keeps the theta-invariant part of a
gram for a lengthscale search.  The co-Kriging stack, for its prediction
and its LOOCV alike, is assembled per pair of row blocks
(:func:`_stacked_rows`), the rows of an equation over several locations
summed, with no atom gram and no product with U.  :func:`gram` also
feeds a counter of logical atom pairs, however computed; it makes the
cost asymmetry between co-Kriging and Lagrangian Kriging measurable: for
co-Kriging with n primary atoms, c collocation atoms and q prediction
atoms a prediction costs (n+c)(n+c+1)/2 + (n+c)q counted evaluations
(symmetric fill), for Lagrangian Kriging n(n+1)/2 + n*q.
"""

import threading
from collections import namedtuple
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
    "Layout",
    "cov_pairs",
    "encode_pointwise",
    "encode_rows",
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
    """[(row, indices)] of an int matrix: where each distinct row occurs, rows in lexical order."""
    if not len(M):
        return []
    order = np.lexsort(M.T[::-1])
    M = M[order]
    cuts = [0, *(np.flatnonzero((M[1:] != M[:-1]).any(axis=1)) + 1).tolist(), len(M)]
    return [(tuple(M[a].tolist()), order[a:b]) for a, b in zip(cuts, cuts[1:])]


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
    def _make(cls, X, M):
        """Atoms of checked arrays, grouped by multi-index."""
        atoms = object.__new__(cls)
        X.flags.writeable = M.flags.writeable = False
        for name, value in zip(cls.__slots__, (X, M, _group_rows(M))):
            object.__setattr__(atoms, name, value)
        return atoms

    @classmethod
    def of(cls, atoms):
        """``atoms`` if it is an Atoms, else the Atoms of ExtendedPoints."""
        if isinstance(atoms, Atoms):
            return atoms
        atoms = list(atoms)
        if not atoms:
            return cls._make(np.zeros((0, 0)), np.zeros((0, 0), dtype=int))
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
        """The atoms of both sets, grouped afresh; with an empty operand, the other."""
        other = Atoms.of(other)
        if not (len(self) and len(other)):
            return self if len(self) else other
        if self.X.shape[1] != other.X.shape[1]:
            raise _kernel.DimensionMismatchError("atom sets of different dimensions")
        X, M = (np.concatenate([getattr(self, v), getattr(other, v)]) for v in "XM")
        return Atoms._make(X, M)


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


def _padded(group, n, *values):
    """(each of ``values`` as n rows, zero-padded, the count per row): row g
    lists, in order, the entries whose ``group`` (sorted) is g."""
    count = np.bincount(group, minlength=n)
    pos = np.arange(len(group)) - (np.cumsum(count) - count)[group]
    out = [np.zeros((n, count.max(initial=0)) + v.shape[1:], v.dtype) for v in values]
    for a, v in zip(out, values):
        a[group, pos] = v
    return (*out, count)


class OperatorSystem:
    """Linear operator rows U^T Z+ = v over collocation atoms Z+.

    Stored once, as the read-only ``terms`` (atom, eq, coeff) in the
    encoder's order, repeated and zero terms included: term t adds coeff[t]
    times atom ``colloc_points[atom[t]]`` to equation eq[t]; ``rhs`` holds
    the p forcing values v.  Derived from the terms: ``U`` (c x p, a new
    array on each access), the products :meth:`tdot` (U^T x) and :meth:`dot`
    (U w), ``normal_diagonal`` (diag(U^T U) if no atom has a nonzero
    coefficient in two equations and no entry is below the smallest normal
    float, else None) and ``blocks``, one per list of term multi-indices
    over rows, one row per (equation, location) in equation order, the
    rows of an equation summing to it: rows, n_b x d locations, T
    multi-indices, n_b x T coefficients.  ``OperatorSystem(colloc_points,
    U, rhs)`` keeps the nonzeros of a dense U, column by column;
    ``OperatorSystem()`` is empty.
    """

    def __new__(cls, colloc_points=(), U=np.zeros((0, 0)), rhs=()):
        colloc_points, U = Atoms.of(colloc_points), np.asarray(U, dtype=float)
        U = U if U.ndim == 2 else U.reshape(len(colloc_points), -1)
        rhs = np.asarray(rhs, dtype=float).ravel()
        if U.shape[0] != len(colloc_points):
            raise ValueError(f"U has {U.shape[0]} rows but there are {len(colloc_points)} atoms")
        if U.shape[1] != rhs.size:
            raise ValueError(f"U has {U.shape[1]} columns but rhs has {rhs.size}")
        eq, atom = np.nonzero(U.T)
        return cls._make(colloc_points, (atom, eq, U[atom, eq]), rhs)

    @classmethod
    def _make(cls, colloc_points, terms, rhs):
        """The system of ``terms`` over ``colloc_points``, the rest derived from them."""
        ops = object.__new__(cls)
        ops.colloc_points, ops.rhs = colloc_points, np.array(rhs, dtype=float).ravel()
        ops.c, ops.p = len(colloc_points), ops.rhs.size
        ops.terms = tuple(np.array(a, dtype=t) for a, t in zip(terms, (int, int, float)))
        for a in (ops.rhs, *ops.terms):
            a.flags.writeable = False
        atom, eq, coeff = ops.terms
        pairs, which = np.unique(eq * ops.c + atom, return_inverse=True)
        value = np.bincount(which, coeff, len(pairs))  # repeated terms add up
        j, i = np.divmod(pairs[value != 0], ops.c)  # the nonzeros, column by column
        value = value[value != 0]
        *ops._by_eq, count = _padded(j, ops.p, i, value)
        if not count.all():
            raise ValueError(f"equation {np.argmin(count)} has an all-zero coefficient column")
        order = np.argsort(i, kind="stable")
        *ops._by_atom, count = _padded(i[order], ops.c, j[order], value[order])
        sq = np.bincount(j, value ** 2, ops.p)  # underflowing, it leaves the rank to the QR
        ops.normal_diagonal = None if (count > 1).any() or (sq < np.finfo(float).tiny).any() else sq
        ops._rows = _row_blocks(colloc_points, ops.terms, ops.p)
        ops.blocks = ops._rows.blocks
        return ops

    @property
    def U(self):
        U = np.zeros((self.c, self.p))
        np.add.at(U, self.terms[:2], self.terms[2])
        return U

    def tdot(self, x):
        """U^T x, for x with one row per atom."""
        index, coeff = self._by_eq
        return np.einsum("jt,jt...->j...", coeff, x[index])

    def dot(self, w):
        """U w, for w with one row per equation."""
        index, coeff = self._by_atom
        return np.einsum("it,it...->i...", coeff, w[index])


# Process-wide count of covariance evaluations, guarded by its lock.
_count_lock = threading.Lock()
_count = 0


def _count_evals(n):
    global _count
    with _count_lock:
        _count += int(n)


def cov_eval_count():
    """Total covariance evaluations counted so far in this process."""
    with _count_lock:
        return _count


def reset_cov_eval_count():
    """Reset the counter (testing hook); returns the value before reset."""
    global _count
    with _count_lock:
        old, _count = _count, 0
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


# (row blocks as in OperatorSystem.blocks, rows, logical atoms, first row of each sum or None)
_Rows = namedtuple("Rows", "blocks size atoms sums", defaults=(None,))


def _rows(k, A):
    """``A`` if it is :class:`_Rows`, else one unit row block per multi-index group."""
    if isinstance(A, _Rows):
        return A
    A = _atoms_for(k, A)
    return _Rows([(idx, A.X[idx], (m,), np.ones((1, 1))) for m, idx in A.groups], len(A), len(A))


def _stacked_rows(k, points, ops):
    """The :class:`_Rows` of the co-Kriging stack [Z; v]: the groups of
    ``points``, then the rows of ``ops``, which sum to its p equations;
    n + p summed rows over n + c atoms."""
    Z, V, _ = _rows(k, points), ops._rows, _atoms_for(k, ops.colloc_points)
    blocks = Z.blocks + [(Z.size + row, *block) for row, *block in V.blocks]
    sums = V.sums if V.sums is None else np.concatenate([np.arange(Z.size), Z.size + V.sums])
    return _Rows(blocks, Z.size + V.size, Z.atoms + V.atoms, sums)


# Entries per row panel: its differences (rows x columns x d) hold at most
# this many, so each closed-form temporary of the panel stays under glibc's
# default 128 KiB mmap threshold and is served from the heap.
_PANEL = 16000


def _scatter_index(rows, cols):
    """The index of G[rows][:, cols] (sorted, distinct), a slice where consecutive."""
    rows, cols = (slice(i[0], i[-1] + 1) if i[-1] - i[0] == len(i) - 1 else i for i in (rows, cols))
    return (rows, cols) if slice in map(type, (rows, cols)) else np.ix_(rows, cols)


class Layout:
    """The theta-invariant part of ``gram(k, A, B)``.  Called at a kernel
    of k's dimension it evaluates only the closed forms and returns that
    kernel's gram bit for bit, with the same count.  The forms come in row
    panels of at most ``_PANEL`` differences per pair of row blocks;
    symmetric, only at or right of each panel's first row; a block whose
    rows share their coefficients weighs each term by one number.  A kept
    layout holds the entries of every panel (symmetric, those at or right
    of the diagonal) as one form, an absent power of 1/theta^2 padded with
    -0.0, which leaves every sum it enters as it was; a call evaluates that
    form in one pass, at one theta or a vector of them (a stack of grams),
    and gathers each entry from it.  A ``lazy`` layout keeps no forms: each call
    rebuilds and evaluates one panel's form at a time and mirrors the
    lower triangle panel by panel.  :class:`_Rows` with ``sums`` are then
    summed into equations."""

    def __init__(self, k, A, B=None, lazy=False):
        self.sym, self.dim = B is None or B is A, k.dim
        A = _rows(k, A)
        B = A if self.sym else _rows(k, B)
        self.shape, self.sums = (A.size, B.size), (A.sums, B.sums)
        self.count = A.atoms * (A.atoms + 1) // 2 if self.sym else A.atoms * B.atoms

        def shared(C):  # rows with the same coefficients, bit for bit, keep one row of them
            same = len(C) > 1 and (C == C[0]).all() and (np.signbit(C) == np.signbit(C[0])).all()
            return C[:1] if same else C

        def part(C, rows, column):  # per term: a number if one row serves every row, else per row
            if len(C) == 1:
                return C[0].tolist()
            return C[rows].T[..., None] if column else C[rows].T

        blocks = [[(i, X, m, shared(C)) for i, X, m, C in R.blocks] for R in (A, B)]

        def panels():  # (rows, columns, form) per row panel of each pair of row blocks
            for ia, XA, ma, CA in blocks[0]:
                for ib, XB, mb, CB in blocks[1]:
                    step = max(1, _PANEL // (len(ib) * self.dim))
                    for a in range(0, len(ia), step):
                        z, b = slice(a, a + step), np.searchsorted(ib, ia[a]) if self.sym else 0
                        if b < len(ib):
                            yield ia[z], ib[b:], _kernel.block_form(
                                XA[z, None] - XB[None, b:], zip(part(CA, z, True), ma),
                                zip(part(CB, slice(b, None), False), mb))

        self._panels, self._flat = (panels, None) if lazy else (None, self._flatten(panels()))

    def _flatten(self, panels):
        """(form, gather): the entries of ``panels`` as one form, and where
        each flat index of G (or, symmetric, its mirror) sits in it."""
        parts = []
        for rows, cols, (P, d2) in panels:
            ij = np.nonzero(cols >= rows[:, None] if self.sym else np.ones(d2.shape, dtype=bool))
            parts.append((P, d2, ij, rows[ij[0]], cols[ij[1]]))
        if not parts:
            return ([np.empty(0)], np.empty(0)), np.empty(0, dtype=int)

        def power(j):  # of every entry, -0.0 where its panel has none; None where none has
            at = [P[j] if j < len(P) else None for P, *_ in parts]
            if all(p is None for p in at):
                return None
            return np.concatenate([np.broadcast_to(-0.0 if p is None else p, d2.shape)[ij]
                                   for p, (_, d2, ij, *_) in zip(at, parts)])

        P = [power(j) for j in range(max(len(P) for P, *_ in parts))]
        d2 = np.concatenate([d2[ij] for _, d2, ij, *_ in parts])
        i, j = (np.concatenate(index) for index in zip(*(part[3:] for part in parts)))
        gather, n = np.empty(self.shape[0] * self.shape[1], dtype=int), self.shape[1]
        for at in ((j * n + i, i * n + j) if self.sym else (i * n + j,)):  # mirror first
            gather[at] = np.arange(len(i))
        return (P, d2), gather

    def __call__(self, k, thetas=None):
        """The gram at ``k`` or, kept, the stack of its grams at ``thetas``."""
        if k.dim != self.dim:
            raise _kernel.DimensionMismatchError(f"layout of dim {self.dim}, kernel dim {k.dim}")
        if self._flat is None:
            if thetas is not None:
                raise ValueError("a lazy layout evaluates the gram at k.theta alone")
            G = np.empty(self.shape)
            for rows, cols, form in self._panels():
                G[_scatter_index(rows, cols)] = _kernel.block_value(k, form)
            n, step = self.shape[0], max(1, _PANEL // max(1, self.shape[0]))
            for a in range(0, n if self.sym else 0, step):  # below the diagonal, G[i, j] = G[j, i]
                z = min(n, a + step)
                G[a:z, :z] = np.where(np.tri(z - a, z, a - 1, dtype=bool), G[:z, a:z].T, G[a:z, :z])
        else:
            form, gather = self._flat
            v = _kernel.block_value(k, form, thetas)
            G = v.take(gather, axis=-1).reshape(np.shape(thetas) + self.shape)
        _count_evals(self.count * (1 if thetas is None else len(thetas)))
        for axis, sums in enumerate(self.sums, -2):  # the rows of one equation add up
            G = G if sums is None else np.add.reduceat(G, sums, axis=axis)
        return G


def gram(k, A, B=None):
    """Covariance matrix over extended points, entry (i,j) = cov(A[i], B[j]).

    The lazy :class:`Layout` of (A, B), evaluated once, one row panel's
    differences held at a time.  With ``B`` omitted (or the identical
    object), only the upper triangle is evaluated and then mirrored
    (cov(A[j], A[i]) can differ from cov(A[i], A[j]) in the sign of a
    zero) and |A|(|A|+1)/2 evaluations are counted; otherwise all
    |A| x |B| entries are.  :class:`_Rows` count their atoms.
    """
    return Layout(k, A, B, lazy=True)(k)


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
    _count_evals(len(A))
    return out


def _operator_system(locations, multi_indices, coeff, eq, rhs):
    """OperatorSystem with coefficient ``coeff[t]`` of the atom
    (``locations[t]``, ``multi_indices[t]``) in equation ``eq[t]``.

    Atoms are the distinct terms, sorted by (x, m); repeated terms add up.
    """
    n = len(locations)
    terms = Atoms(np.reshape(locations, (n, -1)), np.reshape(multi_indices, (n, -1)))
    first, label = _distinct(terms)
    return OperatorSystem._make(terms[first], (label, eq, coeff), rhs)


def _row_blocks(points, terms, p):
    """The :class:`_Rows` of ``terms`` (atom, eq, coeff) over ``points``:
    a row starts wherever the equation or the location changes between
    the terms sorted by equation (rows add up, so any term order serves)."""
    if not p:
        return _Rows([], 0, len(points))
    atom, eq, coeff = (a[np.argsort(terms[1], kind="stable")] for a in terms)
    X = points.X[atom]
    new = np.ones(len(eq), dtype=bool)  # the terms that start a row
    new[1:] = (eq[1:] != eq[:-1]) | (X[1:] != X[:-1]).any(axis=1)
    start = np.flatnonzero(new)
    n = len(start)
    row = eq if n == p else np.cumsum(new) - 1
    sig, C, count = _padded(row, n, points.M[atom] + 1, coeff)  # multi-indices + 1, 0 pads
    blocks = [(r, X[start[r]], tuple(map(tuple, (sig[r[0], :count[r[0]]] - 1).tolist())),
               C[r, :count[r[0]]]) for _, r in _group_rows(sig.reshape(n, -1))]
    return _Rows(blocks, n, len(points), None if n == p else np.searchsorted(eq[start], range(p)))


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


def encode_rows(blocks, rhs):
    """Array form of :func:`encode_pointwise` for rows that share their terms.

    Each block (locations, orders, coeffs) holds one equation per row x_i
    of the n x d ``locations``: sum_t coeffs[i, t] f^(orders[t])(x_i),
    with ``coeffs`` broadcast to n x T.  The blocks' equations follow each
    other, and ``rhs`` holds one value per equation.
    """
    terms, eq0 = [], 0
    for X, orders, coeffs in blocks:
        n, T = len(X), len(orders)
        coeffs = np.broadcast_to(np.asarray(coeffs, dtype=float), (n, T)).ravel()
        eq = eq0 + np.repeat(np.arange(n), T)
        terms.append((np.repeat(X, T, axis=0), np.tile(orders, (n, 1)), coeffs, eq))
        eq0 += n
    rhs = np.asarray(rhs, dtype=float)
    if not eq0:
        raise ValueError("no operator rows given")
    if eq0 != rhs.size:
        raise ValueError(f"{eq0} rows but {rhs.size} rhs values")
    return _operator_system(*(np.concatenate(t) for t in zip(*terms)), rhs)


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
    """(``ops`` with the ``atoms`` it lacks appended, the row of each atom);
    ``ops`` itself when it lacks none."""
    atoms = Atoms.of(atoms)
    rows = _positions(ops.colloc_points, atoms)
    missing = rows < 0
    if not missing.any():
        return ops, rows
    rows[missing] = ops.c + np.arange(missing.sum())
    return OperatorSystem._make(ops.colloc_points + atoms[missing], ops.terms, ops.rhs), rows


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
