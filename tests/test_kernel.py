import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pikrig.kernel import (
    DimensionMismatchError,
    SqExpKernel,
    UnsupportedOrderError,
    deriv,
    deriv_block,
    deriv_fd,
    evaluate,
    total_order,
)

import oracles


def random_orders(rng, dim, max_total=4):
    """Two multi-indices with |m| + |m2| <= max_total."""
    t = int(rng.integers(0, max_total + 1))
    t1 = int(rng.integers(0, t + 1))
    m = [0] * dim
    m2 = [0] * dim
    for _ in range(t1):
        m[rng.integers(dim)] += 1
    for _ in range(t - t1):
        m2[rng.integers(dim)] += 1
    return tuple(m), tuple(m2)


def test_evaluate_coincident_is_sigma2():
    k = SqExpKernel(sigma2=3.7, theta=1.3, dim=2)
    assert evaluate(k, (0.4, -1.0), (0.4, -1.0)) == pytest.approx(3.7, abs=0.0)


def test_evaluate_known_value():
    # sigma2 * exp(-d^2 / (2 theta^2)) at d^2 = 2, theta = 1, sigma2 = 1
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=2)
    assert evaluate(k, (1.0, 1.0), (0.0, 0.0)) == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_deriv_order0_equals_evaluate():
    k = SqExpKernel(sigma2=2.0, theta=0.9, dim=3)
    x, x2 = (0.1, 0.2, -0.3), (1.0, -0.5, 0.4)
    assert deriv(k, x, x2, (0, 0, 0), (0, 0, 0)) == evaluate(k, x, x2)


def test_worked_example_first_order_pair():
    # Cov[f'(x), f'(x)] = sigma2 / theta^2 at coincident points
    k = SqExpKernel(sigma2=2.5, theta=0.7, dim=1)
    assert deriv(k, (1.3,), (1.3,), (1,), (1,)) == pytest.approx(2.5 / 0.49, rel=1e-14)


def test_worked_example_second_order_pair():
    # Cov[f''(x), f''(x)] = 3 sigma2 / theta^4 at coincident points
    k = SqExpKernel(sigma2=2.5, theta=0.7, dim=1)
    want = 3.0 * 2.5 / 0.7 ** 4
    assert deriv(k, (0.2,), (0.2,), (2,), (2,)) == pytest.approx(want, rel=1e-14)


def test_single_derivative_sign_rule():
    # one derivative on the second argument flips the sign of one on the first
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    a = deriv(k, (0.3,), (1.1,), (1,), (0,))
    b = deriv(k, (0.3,), (1.1,), (0,), (1,))
    assert a == pytest.approx(-b, rel=1e-14)
    # and the value itself: dk/dx = -(x - x') / theta^2 * k
    h = -(0.3 - 1.1)
    assert a == pytest.approx(h * np.exp(-0.5 * 0.8 ** 2), rel=1e-13)


def test_swap_symmetry_random(rng):
    # Cov[Z(s), Z(s2)] = Cov[Z(s2), Z(s)]
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        k = SqExpKernel(
            sigma2=float(rng.uniform(0.5, 3.0)),
            theta=float(rng.uniform(0.5, 2.0)),
            dim=dim,
        )
        x = rng.uniform(-2, 2, dim)
        x2 = rng.uniform(-2, 2, dim)
        m, m2 = random_orders(rng, dim)
        a = deriv(k, x, x2, m, m2)
        b = deriv(k, x2, x, m2, m)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_fd_agreement_random(rng):
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        k = SqExpKernel(
            sigma2=float(rng.uniform(0.5, 3.0)),
            theta=float(rng.uniform(0.5, 2.0)),
            dim=dim,
        )
        x = rng.uniform(-2, 2, dim)
        x2 = x + rng.uniform(-1.5, 1.5, dim)
        m, m2 = random_orders(rng, dim)
        a = deriv(k, x, x2, m, m2)
        fd = deriv_fd(k, x, x2, m, m2)
        scale = max(abs(a), abs(fd), 1e-8)
        worst = max(worst, abs(a - fd) / scale)
    assert worst <= 1e-4


def test_fd_agreement_absolute_step(rng):
    # same check at a fixed absolute step instead of the theta-scaled default
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        k = SqExpKernel(sigma2=1.0, theta=float(rng.uniform(0.6, 1.8)), dim=dim)
        x = rng.uniform(-1, 1, dim)
        x2 = x + rng.uniform(-1.0, 1.0, dim)
        m, m2 = random_orders(rng, dim)
        a = deriv(k, x, x2, m, m2)
        fd = deriv_fd(k, x, x2, m, m2, step=1e-3)
        assert abs(a - fd) <= 1e-4 * max(abs(a), 1e-8)


def test_fourth_order_2d_mixed_value():
    # Laplacian-to-Laplacian style entry checked against finite differences
    # at a point pair where every polynomial term is active
    k = SqExpKernel(sigma2=1.4, theta=0.8, dim=2)
    x, x2 = (0.2, -0.4), (0.9, 0.3)
    a = deriv(k, x, x2, (2, 0), (0, 2))
    fd = deriv_fd(k, x, x2, (2, 0), (0, 2))
    assert a == pytest.approx(fd, rel=5e-5)


def test_order_above_four_raises():
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    with pytest.raises(UnsupportedOrderError):
        deriv(k, (0.0,), (1.0,), (3,), (2,))


def test_dimension_mismatch_raises():
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=2)
    with pytest.raises(DimensionMismatchError):
        deriv(k, (0.0,), (1.0, 0.0), (0, 0), (0, 0))
    with pytest.raises(DimensionMismatchError):
        deriv(k, (0.0, 0.0), (1.0, 0.0), (0,), (0, 0))
    with pytest.raises(DimensionMismatchError):
        evaluate(k, (0.0, 0.0, 0.0), (1.0, 0.0))
    # a block of differences needs them along a last axis of length dim
    for r in (np.zeros((4, 3)), np.zeros(3), np.float64(0.0)):
        with pytest.raises(DimensionMismatchError, match="kernel dim is 2"):
            deriv_block(k, r, (0, 0), (0, 0))


def test_negative_order_raises():
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    with pytest.raises(ValueError):
        deriv(k, (0.0,), (1.0,), (-1,), (0,))


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        SqExpKernel(sigma2=0.0, theta=1.0, dim=1)
    with pytest.raises(ValueError):
        SqExpKernel(sigma2=1.0, theta=-2.0, dim=1)
    with pytest.raises(ValueError):
        SqExpKernel(sigma2=1.0, theta=np.nan, dim=1)
    with pytest.raises(ValueError):
        SqExpKernel(sigma2=1.0, theta=1.0, dim=0)


def test_fd_step_validation():
    k = SqExpKernel(sigma2=1.0, theta=1.0, dim=1)
    with pytest.raises(ValueError):
        deriv_fd(k, (0.0,), (1.0,), (1,), (0,), step=0.0)


def test_total_order():
    assert total_order((2, 1, 0)) == 3
    assert total_order((0,)) == 0


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-3, 3),
    x2=st.floats(-3, 3),
    theta=st.floats(0.4, 2.5),
    t1=st.integers(0, 2),
    t2=st.integers(0, 2),
)
def test_swap_symmetry_property(x, x2, theta, t1, t2):
    k = SqExpKernel(sigma2=1.0, theta=theta, dim=1)
    m, m2 = (t1,), (t2,)
    a = deriv(k, (x,), (x2,), m, m2)
    b = deriv(k, (x2,), (x,), m2, m)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def _multi_indices(dim, max_order):
    return [m for m in itertools.product(range(max_order + 1), repeat=dim) if sum(m) <= max_order]


def _closed_form_errors(dim, thetas):
    """{route: worst |error| / max|block|} against 50-digit values, over every
    (m, m2) with |m| + |m2| <= 4 and each theta: the Horner route of
    ``deriv_block`` and the bracket route of ``oracles.deriv_scalar``.  Each
    block holds differences over a fixed box, over +-4 theta, and zero."""
    rng = np.random.default_rng(dim)
    pairs = [(m, m2) for m in _multi_indices(dim, 4) for m2 in _multi_indices(dim, 4 - sum(m))]
    worst = {"horner": 0.0, "bracket": 0.0}
    for theta in thetas:
        k = SqExpKernel(sigma2=1.3, theta=float(theta), dim=dim)
        r = np.vstack([rng.uniform(-3.0, 3.0, (10, dim)), theta * rng.uniform(-4.0, 4.0, (10, dim)),
                       np.zeros((1, dim))])
        exact = {}  # (-1)^|m2| times the value of n = m + m2
        for m, m2 in pairs:
            n = tuple(a + b for a, b in zip(m, m2))
            if n not in exact:
                exact[n] = np.array([float(oracles.deriv_mp(k, x, n, (0,) * dim)) for x in r])
            ref = (-1) ** sum(m2) * exact[n]
            scale = np.abs(ref).max()
            routes = {"horner": deriv_block(k, r, m, m2),
                      "bracket": [oracles.deriv_scalar(k, x, np.zeros(dim), m, m2) for x in r]}
            for route, got in routes.items():
                worst[route] = max(worst[route], np.abs(got - ref).max() / scale)
    return worst


@pytest.mark.parametrize("dim", [1, 2])
def test_closed_form_matches_50_digit_values(dim):
    # both the one-polynomial-in-1/theta^2 route and the bracket oracle
    # are within 1e-14 of each block's largest 50-digit value
    worst = _closed_form_errors(dim, np.geomspace(0.05, 8.0, 9))
    assert worst["horner"] <= 1e-14 and worst["bracket"] <= 1e-14, worst
