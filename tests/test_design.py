import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pikrig import design
from pikrig.design import (
    Atoms,
    ExtendedPoint,
    Layout,
    ObservationSet,
    OperatorSystem,
    cov,
    cov_eval_count,
    cov_pairs,
    encode_average,
    encode_pointwise,
    extend_atoms,
    gram,
    locate_atoms,
    reset_cov_eval_count,
)
from pikrig.kernel import (
    DimensionMismatchError,
    SqExpKernel,
    UnsupportedOrderError,
    deriv,
)

from oracles import deriv_scalar, find_duplicates_loop, gram_loop
from util import well_spaced


def test_extended_point_coercion_and_validation():
    a = ExtendedPoint((1, 2), (0, 1))
    assert a.x == (1.0, 2.0) and a.m == (0, 1)
    assert a.order == 1
    with pytest.raises(ValueError):
        ExtendedPoint((1.0,), (0, 0))
    with pytest.raises(ValueError):
        ExtendedPoint((np.inf,), (0,))
    with pytest.raises(ValueError):
        ExtendedPoint((1.0,), (-1,))


def test_observation_set_rejects_duplicates():
    pts = [ExtendedPoint((0.0,), (0,)), ExtendedPoint((1e-13,), (0,))]
    with pytest.raises(ValueError, match="duplicate"):
        ObservationSet(pts, np.zeros(2))
    # same location, different derivative order: a distinct atom
    ok = ObservationSet(
        [ExtendedPoint((0.0,), (0,)), ExtendedPoint((0.0,), (1,))], np.zeros(2)
    )
    assert ok.n == 2


def test_find_duplicates_matches_loop(rng):
    x1, x2 = (0.3, 0.7), (0.9, 0.1)
    near = (0.3 + 5e-13, 0.7)
    # m = (0, 1) appears first, but the first pair in row-major order is
    # a (0, 0) pair.
    pts = [ExtendedPoint(x, m) for x, m in [
        (x2, (0, 1)), (x1, (0, 0)), (near, (0, 0)), (x1, (0, 1)),
        (x1, (0, 1)), (x2, (0, 0)), (x1, (0, 0)),
    ]]
    ref = find_duplicates_loop(pts)
    assert ref == [(1, 2), (1, 6), (2, 6), (3, 4)]
    assert design._find_duplicates(pts) == ref
    shuffled = [pts[i] for i in rng.permutation(len(pts))]
    assert design._find_duplicates(shuffled) == find_duplicates_loop(shuffled)
    assert design._find_duplicates(pts[:1]) == []
    with pytest.raises(ValueError, match="indices 1 and 2:"):
        ObservationSet(pts, np.zeros(len(pts)))


def test_observation_set_length_mismatch():
    with pytest.raises(ValueError):
        ObservationSet([ExtendedPoint((0.0,), (0,))], np.zeros(2))
    with pytest.raises(ValueError):
        ObservationSet(
            [ExtendedPoint((0.0,), (0,))], np.zeros(1), mean=np.zeros(3)
        )


def test_operator_system_validation():
    atoms = [ExtendedPoint((0.0,), (0,)), ExtendedPoint((1.0,), (0,))]
    with pytest.raises(ValueError):
        OperatorSystem(atoms, np.ones((3, 1)), np.zeros(1))
    with pytest.raises(ValueError):
        OperatorSystem(atoms, np.ones((2, 2)), np.zeros(1))
    with pytest.raises(ValueError, match="all-zero"):
        OperatorSystem(atoms, np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2))
    # the lowest all-zero column is the one named
    U = np.array([[1.0, 0.0, 2.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="^equation 1 has an all-zero coefficient column$"):
        OperatorSystem(atoms, U, np.zeros(4))


def test_encode_pointwise_frozen_example():
    rows = [
        ((1.0,), [(2.0, (0,)), (1.0, (2,))]),
        ((0.0,), [(1.0, (0,))]),
    ]
    ops = encode_pointwise(rows, [5.0, 6.0])
    # atoms sorted lexicographically by (x, m)
    assert [(a.x, a.m) for a in ops.colloc_points] == [
        ((0.0,), (0,)),
        ((1.0,), (0,)),
        ((1.0,), (2,)),
    ]
    assert np.array_equal(ops.U, np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(ops.rhs, [5.0, 6.0])
    assert ops.c == 3 and ops.p == 2


def test_encode_pointwise_accumulates_repeated_terms():
    ops = encode_pointwise([((0.0,), [(1.0, (1,)), (2.0, (1,))])], [0.0])
    assert ops.U.shape == (1, 1)
    assert ops.U[0, 0] == 3.0


def test_encode_pointwise_row_order_invariance():
    rows = [
        ((1.0,), [(1.0, (0,)), (1.0, (2,))]),
        ((2.0,), [(1.0, (0,)), (1.0, (2,))]),
    ]
    a = encode_pointwise(rows, [1.0, 2.0])
    b = encode_pointwise(rows[::-1], [2.0, 1.0])
    assert [(p.x, p.m) for p in a.colloc_points] == [(p.x, p.m) for p in b.colloc_points]
    # column permutation only
    assert np.array_equal(a.U, b.U[:, ::-1])


def test_encode_pointwise_errors():
    with pytest.raises(ValueError):
        encode_pointwise([], [])
    with pytest.raises(ValueError):
        encode_pointwise([((0.0,), [])], [0.0])
    with pytest.raises(ValueError, match="nonzero"):
        encode_pointwise([((0.0,), [(0.0, (0,))])], [0.0])
    with pytest.raises(ValueError):
        encode_pointwise([((0.0,), [(1.0, (0,))])], [0.0, 1.0])


def test_encode_rows_equals_encode_pointwise(rng):
    # the array encoder builds the system of the row-list encoder exactly:
    # Neumann rows with per-row coefficients, then Laplace rows, in 2-d
    bnd = rng.normal(size=(4, 2))
    ang = rng.uniform(0.0, 2.0 * np.pi, 4)
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    cont = np.vstack([rng.normal(size=(5, 2)), bnd[:1]])  # one location in both blocks
    rhs = rng.normal(size=10)
    rows = [(tuple(x), [(n[0], (1, 0)), (n[1], (0, 1))]) for x, n in zip(bnd, normals)]
    rows += [(tuple(x), [(1.0, (2, 0)), (1.0, (0, 2))]) for x in cont]
    ref = encode_pointwise(rows, rhs)
    ops = design.encode_rows([(bnd, ((1, 0), (0, 1)), normals),
                              (cont, ((2, 0), (0, 2)), 1.0)], rhs)
    assert np.array_equal(ops.colloc_points.X, ref.colloc_points.X)
    assert np.array_equal(ops.colloc_points.M, ref.colloc_points.M)
    assert np.array_equal(ops.U, ref.U)
    assert np.array_equal(ops.rhs, ref.rhs)
    with pytest.raises(ValueError, match="no operator rows"):
        design.encode_rows([(np.zeros((0, 1)), ((0,),), 1.0)], [])
    with pytest.raises(ValueError, match="rhs"):
        design.encode_rows([(np.zeros((2, 1)), ((0,),), 1.0)], [0.0])


def test_encode_average_frozen_example():
    ops = encode_average([(0.0,), (2.0,)], [(1.0, (1,))], rhs=3.0)
    assert ops.p == 1
    assert [(a.x, a.m) for a in ops.colloc_points] == [((0.0,), (1,)), ((2.0,), (1,))]
    assert np.allclose(ops.U[:, 0], [0.5, 0.5])
    assert ops.rhs[0] == 3.0


def test_encode_average_requires_locations():
    with pytest.raises(ValueError, match="no locations"):
        encode_average([], [(1.0, (0,))], 0.0)


def test_encode_average_requires_terms():
    with pytest.raises(ValueError, match="no terms"):
        encode_average([(0.0,), (2.0,)], [], 0.0)


def test_cov_pairs_requires_equal_lengths():
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    with pytest.raises(ValueError, match="3 atoms paired with 2"):
        cov_pairs(k, Atoms(np.zeros((3, 1)), (0,)), Atoms(np.ones((2, 1)), (1,)))


def test_extend_atoms_appends_zero_rows():
    ops = encode_pointwise([((1.0,), [(1.0, (2,))])], [0.0])
    extra = [ExtendedPoint((0.5,), (0,)), ExtendedPoint((1.0,), (2,))]
    out = extend_atoms(ops, extra)
    # the second atom already exists, only the first is appended
    assert len(out.colloc_points) == 2
    assert out.colloc_points[-1].m == (0,)
    assert np.array_equal(out.U[-1], np.zeros(1))
    assert np.array_equal(out.U[0], ops.U[0])
    # no-op extension returns an independent copy
    same = extend_atoms(ops, [ExtendedPoint((1.0,), (2,))])
    same.U[0, 0] = 99.0
    assert ops.U[0, 0] == 1.0


@st.composite
def operator_systems(draw):
    """(system, the system it extends or None): from encode_pointwise or
    encode_rows (terms repeat, coefficients may be zero), encode_average,
    or a hand-built U with an atom in two equations; then, or not, with
    atoms no equation touches appended (extend_atoms)."""
    d = draw(st.integers(1, 2))
    point = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    order = st.tuples(*[st.integers(0, 2)] * d)
    coeff = st.one_of(st.just(0.0), st.just(1.0), st.floats(-2, 2))
    kind = draw(st.sampled_from(["pointwise", "rows", "average", "dense"]))
    try:
        if kind == "pointwise":
            rows = draw(st.lists(st.tuples(point, st.lists(st.tuples(coeff, order), min_size=1,
                                                          max_size=4)), min_size=1, max_size=4))
            ops = encode_pointwise(rows, np.zeros(len(rows)))
        elif kind == "rows":
            blocks = []
            for _ in range(draw(st.integers(1, 2))):
                locs = np.array(draw(st.lists(point, min_size=1, max_size=3)), float)
                orders = draw(st.lists(order, min_size=1, max_size=3))
                C = draw(st.lists(st.lists(coeff, min_size=len(orders), max_size=len(orders)),
                                  min_size=len(locs), max_size=len(locs)))
                blocks.append((locs, orders, C))
            ops = design.encode_rows(blocks, np.zeros(sum(len(X) for X, _, _ in blocks)))
        elif kind == "average":
            locs = draw(st.lists(point, min_size=1, max_size=3))
            ops = encode_average(locs, draw(st.lists(st.tuples(coeff, order), min_size=1,
                                                     max_size=2)), 0.0)
        else:
            atoms = Atoms(np.array(draw(st.lists(point, min_size=2, max_size=5, unique_by=tuple)),
                                   float), (0,) * d)
            p = draw(st.integers(2, 3))
            U = np.array(draw(st.lists(st.lists(coeff, min_size=p, max_size=p),
                                       min_size=len(atoms), max_size=len(atoms))))
            U[0, :2] = 1.5, -0.5  # atom 0 in equations 0 and 1
            ops = OperatorSystem(atoms, U, np.zeros(p))
    except ValueError:  # a row, or a column of U, without a nonzero coefficient
        assume(False)
    if not draw(st.booleans()):
        return ops, None
    extra = draw(st.lists(st.tuples(point, order), min_size=1, max_size=3))
    extra = Atoms(np.array([x for x, _ in extra], float), np.array([m for _, m in extra]))
    return extend_atoms(ops, extra), ops


@settings(max_examples=150, deadline=None)
@given(drawn=operator_systems(), columns=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_products_match_dense_u(drawn, columns, seed):
    # U^T x and U w from the terms agree with the dense U to rounding,
    # relative to sum |u| |x|; extending keeps the terms and the row blocks
    ops, base = drawn
    U, rng = ops.U, np.random.default_rng(seed)
    shape = (columns,) if columns else ()
    for got, A, x in ((ops.tdot, U.T, rng.normal(size=(ops.c,) + shape)),
                      (ops.dot, U, rng.normal(size=(ops.p,) + shape))):
        ref = A @ x
        assert got(x).shape == ref.shape
        scale = np.max(np.abs(A) @ np.abs(x), initial=0.0)
        assert np.max(np.abs(got(x) - ref), initial=0.0) <= 1e-15 * scale
    nonzero, norms = np.abs(U) > 0, np.einsum("ij,ij->j", U, U)
    if ops.normal_diagonal is None:  # an atom in two equations, or an underflowing norm
        assert nonzero.sum(axis=1).max() > 1 or norms.min() < 2 * np.finfo(float).tiny
    else:
        assert nonzero.sum(axis=1).max(initial=0) <= 1
        assert (np.abs(ops.normal_diagonal - norms) <= 1e-15 * norms).all()
    if base is not None:
        assert all(a is b or np.array_equal(a, b) for a, b in zip(ops.terms, base.terms))
        assert np.array_equal(U[: base.c], base.U) and not U[base.c:].any()
        assert len(ops.blocks) == len(base.blocks)
        for got, ref in zip(ops.blocks, base.blocks):
            assert got[2] == ref[2]
            assert all(np.array_equal(a, b) for a, b in zip(got[:2] + got[3:], ref[:2] + ref[3:]))


def test_operator_system_is_stored_once():
    # U is built afresh from the terms, which are read-only; a hand-built
    # U gets the row blocks of its encoding, one row per (equation,
    # location), and rows that sum to an equation over several locations
    ops = encode_pointwise([((0.0,), [(1.0, (0,)), (2.0, (2,))]), ((1.0,), [(1.0, (1,))])],
                           [0.0, 1.0])
    ops.U[0, 0] = 99.0
    assert ops.U[0, 0] == 1.0
    for values in (*ops.terms, ops.rhs):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
    dense = OperatorSystem(ops.colloc_points, ops.U, ops.rhs)
    assert [b[2] for b in dense.blocks] == [b[2] for b in ops.blocks]
    assert ops._rows.sums is None and dense._rows.sums is None
    ones = OperatorSystem(ops.colloc_points, np.ones((3, 1)), [0.0])
    assert [(r.tolist(), X.tolist(), m, C.tolist()) for r, X, m, C in ones.blocks] == [
        ([0], [[0.0]], ((0,), (2,)), [[1.0, 1.0]]), ([1], [[1.0]], ((1,),), [[1.0]])]
    assert ones._rows.sums.tolist() == [0]


def test_cov_matches_kernel_deriv():
    k = SqExpKernel(sigma2=1.5, theta=0.8, dim=2)
    s = ExtendedPoint((0.1, 0.4), (1, 0))
    s2 = ExtendedPoint((0.9, -0.2), (0, 2))
    assert cov(k, s, s2) == deriv(k, s.x, s2.x, s.m, s2.m)


def _multi_indices(dim, max_order):
    return [
        m for m in itertools.product(range(max_order + 1), repeat=dim)
        if sum(m) <= max_order
    ]


def _assert_identical(G, ref):
    assert G.shape == ref.shape
    assert np.array_equal(G, ref)
    assert np.array_equal(np.signbit(G), np.signbit(ref))


def _assert_loops(k, G, A, B=None):
    """``G`` is the gram of (A, B) filled by per-entry ``kernel.deriv`` bit for
    bit, signs of zeros included, and each entry is the bracket oracle's within
    1e-14 of sqrt(Var A[i] Var B[j]), the Cauchy-Schwarz bound of the entry (a
    scale that, unlike the entry, no cancellation makes small), where the
    variance of an order-m atom is sigma2 prod_c (2 m_c - 1)!! / theta^2|m|."""
    _assert_identical(G, gram_loop(k, A, B, deriv))
    sd = [np.sqrt([k.sigma2 * math.prod(math.prod(range(1, 2 * c, 2)) for c in a.m)
                   / k.theta ** (2 * sum(a.m)) for a in S]) for S in (A, A if B is None else B)]
    assert (np.abs(G - gram_loop(k, A, B)) <= 1e-14 * np.outer(*sd)).all()


@pytest.mark.parametrize("theta", [0.3, 0.92, 2.8, 7.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_gram_blocks_match_entrywise_loop(dim, theta):
    rng = np.random.default_rng(int(10 * theta) + dim)
    k = SqExpKernel(sigma2=1.7, theta=theta, dim=dim)

    def atoms(m, n):
        return [ExtendedPoint(tuple(x), m) for x in rng.uniform(-1.5, 1.5, (n, dim))]

    indices = _multi_indices(dim, 4)
    for m in indices:
        A = atoms(m, 4)
        for m2 in indices:
            if sum(m) + sum(m2) > 4:
                continue
            B = atoms(m2, 3)
            G = gram(k, A, B)
            _assert_loops(k, G, A, B)
            ref = gram_loop(k, A, B)
            assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()
            assert deriv(k, A[0].x, B[0].x, m, m2) == G[0, 0]
    # Mixed orders in shuffled order, with coincident and axis-aligned pairs.
    low = _multi_indices(dim, 2)
    locs = rng.uniform(-1.5, 1.5, (4, dim))
    locs[1, 0] = locs[0, 0]
    A = [ExtendedPoint(tuple(x), m) for x in locs for m in low]
    A = [A[i] for i in rng.permutation(len(A))]
    G = gram(k, A)
    _assert_loops(k, G, A)
    _assert_identical(gram(k, A, A), G)
    B = A[:3] + [ExtendedPoint(tuple(x), m) for x in locs[:2] + 0.25 for m in low]
    _assert_loops(k, gram(k, A, B), A, B)
    _assert_loops(k, gram(k, B, A), B, A)
    assert gram(k, []).shape == (0, 0)
    assert gram(k, [], B).shape == (0, len(B))
    assert gram(k, A, []).shape == (len(A), 0)
    reset_cov_eval_count()
    v = cov_pairs(k, A, A[::-1])
    assert cov_eval_count() == len(A)
    _assert_identical(v, np.diagonal(gram_loop(k, A, A[::-1], deriv)))


def test_gram_validation():
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=2)
    A = [ExtendedPoint((0.5, 0.1), (0, 0)), ExtendedPoint((0.0, 0.0), (3, 0))]
    B = [ExtendedPoint((0.2, 0.3), (1, 1))]
    gram(k, A[:1], B)
    with pytest.raises(UnsupportedOrderError):
        gram(k, A, B)
    with pytest.raises(DimensionMismatchError):
        gram(k, A[:1] + [ExtendedPoint((0.1,), (0,))])
    with pytest.raises(DimensionMismatchError):
        gram(k, A[:1], [ExtendedPoint((0.1, 0.2, 0.3), (0, 0, 0))])
    with pytest.raises(DimensionMismatchError):
        cov_pairs(k, [ExtendedPoint((0.1,), (0,))], [ExtendedPoint((0.1,), (0,))])


def test_gram_counts_symmetric_and_cross():
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    A = [ExtendedPoint((float(i),), (0,)) for i in range(5)]
    B = [ExtendedPoint((float(i) + 0.5,), (1,)) for i in range(3)]
    reset_cov_eval_count()
    gram(k, A)
    assert cov_eval_count() == 15  # 5 * 6 / 2
    gram(k, A, B)
    assert cov_eval_count() == 15 + 15  # + 5 * 3
    before = reset_cov_eval_count()
    assert before == 30
    assert cov_eval_count() == 0


def test_gram_same_object_uses_symmetric_fill():
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    A = [ExtendedPoint((float(i),), (0,)) for i in range(4)]
    reset_cov_eval_count()
    gram(k, A, A)
    assert cov_eval_count() == 10


def test_gram_exact_symmetry(rng):
    k = SqExpKernel(sigma2=2.0, theta=0.7, dim=1)
    xs = well_spaced(rng, 6)
    atoms = [ExtendedPoint((float(x),), (int(i) % 3,)) for i, x in enumerate(xs)]
    G = gram(k, atoms)
    assert np.array_equal(G, G.T)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 7),
    theta=st.floats(0.5, 2.0),
)
def test_gram_positive_semidefinite(seed, n, theta):
    rng = np.random.default_rng(seed)
    xs = well_spaced(rng, n, min_gap=0.3)
    orders = rng.integers(0, 3, n)
    atoms = [ExtendedPoint((float(x),), (int(o),)) for x, o in zip(xs, orders)]
    k = SqExpKernel(sigma2=1.0, theta=float(theta), dim=1)
    G = gram(k, atoms)
    w = np.linalg.eigvalsh(G)
    scale = max(1.0, float(np.max(np.abs(G))))
    assert w.min() >= -1e-9 * scale


@st.composite
def atom_lists(draw):
    """1-d or 2-d ExtendedPoint lists with mixed orders up to 2, with a
    permutation of them."""
    dim = draw(st.sampled_from([1, 2]))
    coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    loc = st.tuples(*[coord] * dim)
    atom = st.builds(ExtendedPoint, loc, st.sampled_from(_multi_indices(dim, 2)))
    atoms = draw(st.lists(atom, min_size=1, max_size=8))
    return atoms, np.array(draw(st.permutations(range(len(atoms)))))


@settings(max_examples=60, deadline=None)
@given(drawn=atom_lists(), other=atom_lists(), theta=st.floats(0.3, 3.0))
def test_gram_and_cov_pairs_permute_with_the_atoms(drawn, other, theta):
    A, perm = drawn
    k = SqExpKernel(sigma2=1.3, theta=theta, dim=len(A[0].x))
    atoms = Atoms.of(A)
    G = gram(k, atoms)
    # the symmetric fill mirrors the upper triangle, so a permuted entry
    # may come from the other triangle: equal values, a zero's sign aside
    assert np.array_equal(gram(k, atoms[perm]), G[perm][:, perm])
    B = Atoms.of(A[::-1])
    _assert_identical(gram(k, atoms[perm], B[perm]), gram(k, atoms, B)[perm][:, perm])
    _assert_identical(cov_pairs(k, atoms[perm], B[perm]), cov_pairs(k, atoms, B)[perm])
    if len(other[0][0].x) == k.dim:
        C = other[0]
        _assert_loops(k, gram(k, atoms, C), A, C)


@settings(max_examples=60, deadline=None)
@given(drawn=atom_lists(), theta=st.floats(0.3, 3.0))
def test_gram_of_atoms_and_of_lists_equal_the_loop(drawn, theta):
    A, perm = drawn
    k = SqExpKernel(sigma2=0.7, theta=theta, dim=len(A[0].x))
    ref = gram(k, A)
    _assert_loops(k, ref, A)
    _assert_identical(gram(k, Atoms.of(A)), ref)
    _assert_loops(k, gram(k, Atoms.of(A), A), A, A[:])


@st.composite
def layout_sets(draw):
    """(A, B, dim): 1-d or 2-d atom lists, either possibly empty, whose
    multi-index pairs reach total order 4; B is None for a symmetric
    gram.  Coordinates repeat and include -0.0, so differences and
    bracket terms hit zeros of both signs."""
    dim = draw(st.sampled_from([1, 2]))
    coord = st.one_of(st.sampled_from([0.0, -0.0, 0.5]), st.floats(-2.0, 2.0))
    loc = st.tuples(*[coord] * dim)

    def atoms(max_order):
        m = st.sampled_from(_multi_indices(dim, max_order))
        return st.lists(st.builds(ExtendedPoint, loc, m), max_size=6)

    if draw(st.booleans()):
        return draw(atoms(2)), None, dim
    order = draw(st.integers(0, 4))
    return draw(atoms(order)), draw(atoms(4 - order)), dim


@settings(max_examples=80, deadline=None)
@given(drawn=layout_sets(), theta1=st.floats(0.2, 8.0), theta2=st.floats(0.2, 8.0),
       sigma2=st.floats(0.1, 5.0), lazy=st.booleans())
def test_layout_evaluates_like_a_fresh_gram(drawn, theta1, theta2, sigma2, lazy):
    # one layout evaluated at theta1, theta2 and theta1 again: each result
    # is the fresh gram and the entrywise loop bit for bit, signs of zeros
    # included, and each evaluation counts what gram counts; a lazy layout
    # (which keeps no block forms) too
    A, B, dim = drawn
    layout = Layout(SqExpKernel(sigma2=1.0, theta=1.0, dim=dim), A, B, lazy=lazy)
    count = len(A) * (len(A) + 1) // 2 if B is None else len(A) * len(B)
    for theta in (theta1, theta2, theta1):
        k = SqExpKernel(sigma2=sigma2, theta=theta, dim=dim)
        reset_cov_eval_count()
        G = layout(k)
        assert cov_eval_count() == count
        _assert_identical(G, gram(k, A, B))
        assert cov_eval_count() == 2 * count
        _assert_loops(k, G, A, B)
    with pytest.raises(DimensionMismatchError):
        layout(SqExpKernel(sigma2=sigma2, theta=theta1, dim=3 - dim))


@pytest.mark.parametrize("panel", [1, 40])
def test_row_panels_evaluate_like_the_entrywise_loop(monkeypatch, panel):
    # every pair of row blocks split into at least three row panels: over
    # interleaved groups (flow-style (1,0)/(0,1) pairs at each location, a
    # shuffled mixed-order set) with -0.0 and repeated coordinates, each
    # gram is the entrywise loop bit for bit, signs of zeros included; a
    # kept layout at two thetas counts what gram counts
    rng = np.random.default_rng(panel)
    X = rng.uniform(-1.5, 1.5, (18, 2))
    X[1], X[2] = (-0.0, X[0, 1]), (0.0, X[0, 1])
    X[3, 0] = X[4, 0]
    pairs = [ExtendedPoint(tuple(x), m) for x in X for m in ((1, 0), (0, 1))]
    mixed = [ExtendedPoint(tuple(x), m) for x in X[:9] for m in _multi_indices(2, 2)]
    mixed = [mixed[i] for i in rng.permutation(len(mixed))]
    cases = [(pairs, None), (mixed, None), (pairs, mixed), (mixed, pairs[::3])]
    thetas = (0.4, 2.5)
    refs = [[gram_loop(SqExpKernel(1.3, theta, 2), A, B, deriv) for theta in thetas]
            for A, B in cases]
    # a stacked system of per-row coefficients, evaluated before in one panel per block
    k = SqExpKernel(sigma2=1.3, theta=0.8, dim=2)
    ops = design.encode_rows([(X, ((1, 0), (0, 1)), rng.normal(size=(18, 2))),
                              (X[:9] + 0.1, ((0, 0), (2, 0), (0, 2)), 1.0)], np.zeros(27))
    rows = design._stacked_rows(k, Atoms(X[9:], (0, 0)), ops)
    stacked = gram(k, rows), gram(k, rows, mixed)
    monkeypatch.setattr(design, "_PANEL", panel)
    for (A, B), ref in zip(cases, refs):
        groups = [idx for _, idx in Atoms.of(A).groups]
        for _, ib in Atoms.of(A if B is None else B).groups:
            assert all(len(ia) >= 3 * max(1, panel // (2 * len(ib))) for ia in groups)
        count = len(A) * (len(A) + 1) // 2 if B is None else len(A) * len(B)
        layout = Layout(SqExpKernel(1.0, 1.0, 2), A, B)
        for theta, G in zip(thetas, ref):
            k = SqExpKernel(1.3, theta, 2)
            reset_cov_eval_count()
            _assert_identical(layout(k), G)
            assert cov_eval_count() == count
            _assert_identical(gram(k, A, B), G)
            _assert_loops(k, G, A, B)
    k = SqExpKernel(sigma2=1.3, theta=0.8, dim=2)
    _assert_identical(gram(k, rows), stacked[0])
    _assert_identical(gram(k, rows, mixed), stacked[1])


@settings(max_examples=60, deadline=None)
@given(drawn=atom_lists(), cut=st.integers(0, 8))
def test_atoms_round_trip_and_merge(drawn, cut):
    A, perm = drawn
    atoms = Atoms.of(A)
    assert Atoms.of(atoms) is atoms
    assert list(atoms) == A
    assert [atoms[i] for i in range(-len(A), 0)] == A
    assert list(atoms[perm]) == [A[i] for i in perm]
    merged = atoms[:cut] + A[cut:]
    assert list(merged) == A
    fresh = {m: idx.tolist() for m, idx in atoms.groups}
    assert {m: sorted(idx.tolist()) for m, idx in merged.groups} == fresh
    with pytest.raises(AttributeError):
        atoms.X = None
    assert list(copy.deepcopy(atoms)) == list(pickle.loads(pickle.dumps(atoms))) == A
    with pytest.raises(ValueError):
        atoms.X[0, 0] = 1.0


@settings(max_examples=40, deadline=None)
@given(
    drawn=atom_lists(),
    row=st.integers(0, 7),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    order=st.integers(-3, -1),
)
def test_atoms_reject_non_finite_locations_and_negative_orders(drawn, row, bad, order):
    atoms = Atoms.of(drawn[0])
    row %= len(atoms)
    X, M = atoms.X.copy(), atoms.M.copy()
    X[row, -1] = bad
    with pytest.raises(ValueError, match="non-finite location in row"):
        Atoms(X, M)
    X[row, -1] = 0.0
    M[row, 0] = order
    with pytest.raises(ValueError, match="negative derivative order in row"):
        Atoms(X, M)


def test_atoms_shapes_and_signed_zero_matching():
    assert len(Atoms.of([])) == 0
    assert Atoms(np.zeros((3, 2)), (0, 1)).M.tolist() == [[0, 1]] * 3
    with pytest.raises(ValueError):
        Atoms(np.zeros(3), (0,))
    with pytest.raises(ValueError):
        Atoms(np.zeros((3, 2)), (0,))
    with pytest.raises(DimensionMismatchError):
        Atoms.of([ExtendedPoint((0.0,), (0,))]) + [ExtendedPoint((0.0, 1.0), (0, 0))]
    # 0.0 and -0.0 are one location, as for the (x, m) tuples of ExtendedPoint
    ops = encode_pointwise([((0.0,), [(1.0, (2,))]), ((1.0,), [(1.0, (2,))])], [0.0, 0.0])
    same = [ExtendedPoint((-0.0,), (2,))]
    assert extend_atoms(ops, same).c == 2
    assert locate_atoms(ops.colloc_points, same).tolist() == [0]
    assert extend_atoms(ops, [ExtendedPoint((-0.0,), (0,))]).c == 3
    with pytest.raises(ValueError, match="not among"):
        locate_atoms(ops.colloc_points, [ExtendedPoint((0.5,), (2,))])
