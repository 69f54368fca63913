"""Squared-exponential kernel and its exact mixed derivatives.

Covariances between derivative values of a random field reduce to mixed
partial derivatives of the kernel,

    Cov[Y^(m)(x), Y^(m2)(x')] = d^|m|/dx^m  d^|m2|/dx'^m2  k(x, x'),

so everything downstream only needs k and its derivatives up to total
order 4 (the worst case is a Laplacian-to-Laplacian covariance in 2D).
For the squared-exponential kernel each derivative is a closed-form
polynomial times k itself, written here as one polynomial in
t = 1/theta^2 whose coefficients P_j(r), polynomials in r = x - x', do
not depend on theta:

    sigma2 exp(-|r|^2 t / 2) ((((P_4 t + P_3) t + P_2) t + P_1) t + P_0),

so an entry costs one exp and one Horner step per power of t.

Conventions: a multi-index is a tuple of d non-negative ints; ``m``
differentiates with respect to the first argument, ``m2`` with respect
to the second.  Each derivative on the second argument flips one sign,
which collapses to an overall factor (-1)^|m| on the polynomial of the
derivative taken all on the second argument.

:func:`block_form` builds the P_j of a block of weighted (m, m2) term
pairs once, and :func:`block_value` evaluates them at a kernel;
:func:`deriv_block` is one (m, m2) pair over a whole array of
differences x - x', and :func:`deriv` its one-pair case.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SqExpKernel",
    "DimensionMismatchError",
    "UnsupportedOrderError",
    "evaluate",
    "deriv",
    "deriv_block",
    "block_form",
    "block_value",
    "deriv_fd",
    "total_order",
]

MAX_TOTAL_ORDER = 4


class DimensionMismatchError(ValueError):
    """A point or multi-index does not match the kernel dimension."""


class UnsupportedOrderError(ValueError):
    """Requested derivative exceeds the analytic coverage (total order 4)."""


@dataclass(frozen=True)
class SqExpKernel:
    """Isotropic squared-exponential kernel k(x,x') = sigma2*exp(-|x-x'|^2/(2 theta^2)).

    Parameters
    ----------
    sigma2 : float
        Process variance, > 0.
    theta : float
        Lengthscale, > 0.
    dim : int
        Spatial dimension d, >= 1.
    """

    sigma2: float
    theta: float
    dim: int

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be positive, got {self.theta}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")


def total_order(m):
    """Total derivative order |m| of a multi-index."""
    return int(sum(m))


def _as_point(k, x, name):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (k.dim,):
        raise DimensionMismatchError(
            f"{name} has shape {x.shape}, kernel dim is {k.dim}"
        )
    return x


def _check_multi_index(k, m, name):
    m = tuple(int(v) for v in np.atleast_1d(m))
    if len(m) != k.dim:
        raise DimensionMismatchError(
            f"{name} has length {len(m)}, kernel dim is {k.dim}"
        )
    if any(v < 0 for v in m):
        raise ValueError(f"{name} has negative orders: {m}")
    return m


def evaluate(k, x, x2):
    """Kernel value sigma2 * exp(-||x - x2||^2 / (2 theta^2))."""
    zero = (0,) * k.dim
    return deriv(k, x, x2, zero, zero)


@functools.cache
def _closed_form(m, m2):
    """The terms (power j of 1/theta^2, exponents e of r, integer coefficient)
    of the (m, m2) derivative's polynomial; checks its order.

    All on the second argument, the derivative is a product over coordinates
    of scaled probabilists' Hermite polynomials: n = m_c + m2_c derivatives
    along coordinate c give sum_q (-1)^q n! / (q! (n-2q)! 2^q) r_c^(n-2q)
    theta^-2(n-q), r = x - x2; moving |m| of them to the first argument
    multiplies the product by (-1)^|m|.
    """
    t = total_order(m) + total_order(m2)
    if t > MAX_TOTAL_ORDER:
        raise UnsupportedOrderError(f"total derivative order {t} exceeds analytic coverage "
                                    f"({MAX_TOTAL_ORDER}); m={m}, m2={m2}")
    factors = [[(n - q, n - 2 * q, (-1) ** q * math.factorial(n)
                 // (math.factorial(q) * math.factorial(n - 2 * q) * 2 ** q))
                for q in range(n // 2 + 1)] for n in map(sum, zip(m, m2))]
    sign = -1 if total_order(m) % 2 else 1
    return tuple((sum(f[0] for f in combo), tuple(f[1] for f in combo),
                  sign * math.prod(f[2] for f in combo)) for combo in itertools.product(*factors))


def block_form(r, terms, terms2):
    """The theta-invariant part of a covariance block between sums of (coefficient,
    multi-index) terms on the first and second argument, coefficients broadcasting
    against ``r[..., 0]``: (P, ||r||^2), the block being
    sigma2 exp(-||r||^2 / 2 theta^2) sum_j P[j] theta^-2j.  P[j] is a polynomial in
    ``r``, a number where the coefficients are numbers and r is absent from it, and
    None where no term has power j.

    The coefficients are folded per (power, monomial) before any monomial of ``r``
    is formed."""
    weights = {}
    for (c, m), (c2, m2) in itertools.product(terms, terms2):
        for j, e, n in _closed_form(m, m2):
            w = n * c * c2  # first-argument coefficients first: they broadcast least
            weights[j, e] = weights[j, e] + w if (j, e) in weights else w
    powers = [[None, r[..., c]] for c in range(r.shape[-1])]  # r_c ** p at [c][p]
    for c, top in enumerate(map(max, zip(*(e for _, e in weights)))):
        while len(powers[c]) <= top:
            powers[c].append(powers[c][-1] * r[..., c])
    P = [None] * (1 + max(j for j, _ in weights))
    for (j, e), w in weights.items():
        mono = [powers[c][p] for c, p in enumerate(e) if p]
        if mono:
            mono = functools.reduce(np.multiply, mono)
            unit = isinstance(w, float) and abs(w) == 1.0  # a sign, applied exactly
            w = (mono if w > 0 else -mono) if unit else w * mono
        P[j] = w if P[j] is None else P[j] + w
    return P, np.matmul(r[..., None, :], r[..., :, None])[..., 0, 0]


def block_value(k, form, thetas=None):
    """The closed form of a :func:`block_form` at kernel ``k``: one exp, its
    exponent -||r||^2 / 2 theta^2 rounded as one division, and a Horner step
    in 1/theta^2 per power, an absent power only multiplying.  Given
    ``thetas``, a row per lengthscale (one alone unstacked), each k's at it."""
    P, d2 = form
    t2 = [k.theta ** 2] if thetas is None else [t ** 2 for t in np.asarray(thetas).tolist()]
    t2 = t2[0] if len(t2) == 1 else np.array(t2)[:, None]  # a float takes numpy's scalar path
    it2 = 1.0 / t2
    v = P[-1]
    for p in P[-2::-1]:
        v = v * it2 if p is None else v * it2 + p
    return v * (k.sigma2 * np.exp(d2 / (-2.0 * t2)))


def deriv_block(k, r, m, m2):
    """Mixed derivative d^|m|/dx^m d^|m2|/dx2^m2 k(x, x2) for many pairs at once.

    ``r`` holds the differences x - x2 along its last axis, shape (..., d);
    the result has the leading shape.  Each entry is computed operation
    for operation as for a single pair (the stacked matmul reduces each
    ||r||^2 with the same BLAS dot as ``np.dot(r, r)``), so it does not
    depend on the block it sits in.  Total order |m| + |m2| > 4 raises
    :class:`UnsupportedOrderError`.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim == 0 or r.shape[-1] != k.dim:
        raise DimensionMismatchError(
            f"differences have shape {r.shape}, kernel dim is {k.dim}"
        )
    m, m2 = _check_multi_index(k, m, "m"), _check_multi_index(k, m2, "m2")
    return block_value(k, block_form(r, [(1.0, m)], [(1.0, m2)]))


def deriv(k, x, x2, m, m2):
    """Mixed kernel derivative d^|m|/dx^m d^|m2|/dx2^m2 k(x, x2).

    The one-pair case of :func:`deriv_block`: closed form up to total
    order 4; higher orders raise :class:`UnsupportedOrderError` rather
    than falling back to a lossy approximation.
    """
    x = _as_point(k, x, "x")
    x2 = _as_point(k, x2, "x2")
    return deriv_block(k, x - x2, m, m2)


def deriv_fd(k, x, x2, m, m2, step=None):
    """Finite-difference approximation of the same mixed derivative.

    Built by nesting one two-point central stencil per unit of derivative
    order (2^(|m|+|m2|) kernel evaluations).  ``step`` defaults to
    1e-3 * theta.  The arithmetic runs in numpy's extended precision
    (longdouble) so that at total order 4 the subtractive cancellation of
    nearly equal kernel values stays below the truncation error; the
    returned value is a float.  Choosing a step small enough that
    cancellation dominates even then is the caller's problem.
    """
    x = _as_point(k, x, "x")
    x2 = _as_point(k, x2, "x2")
    m = _check_multi_index(k, m, "m")
    m2 = _check_multi_index(k, m2, "m2")
    if step is None:
        step = 1e-3 * k.theta
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    ld = np.longdouble
    step = ld(step)
    sigma2 = ld(k.sigma2)
    two_theta2 = ld(2.0) * ld(k.theta) ** 2
    units = []
    for c in range(k.dim):
        units.extend([(0, c)] * m[c])
        units.extend([(1, c)] * m2[c])

    def rec(xa, xb, rem):
        if not rem:
            d2 = np.dot(xa - xb, xa - xb)
            return sigma2 * np.exp(-d2 / two_theta2)
        arg, c = rem[0]
        rest = rem[1:]
        if arg == 0:
            xp = xa.copy()
            xp[c] += step
            xm = xa.copy()
            xm[c] -= step
            return (rec(xp, xb, rest) - rec(xm, xb, rest)) / (ld(2.0) * step)
        xp = xb.copy()
        xp[c] += step
        xm = xb.copy()
        xm[c] -= step
        return (rec(xa, xp, rest) - rec(xa, xm, rest)) / (ld(2.0) * step)

    return float(rec(x.astype(ld), x2.astype(ld), units))
