"""Squared-exponential kernel and its exact mixed derivatives.

Covariances between derivative values of a random field reduce to mixed
partial derivatives of the kernel,

    Cov[Y^(m)(x), Y^(m2)(x')] = d^|m|/dx^m  d^|m2|/dx'^m2  k(x, x'),

so everything downstream only needs k and its derivatives up to total
order 4 (the worst case is a Laplacian-to-Laplacian covariance in 2D).
For the squared-exponential kernel these derivatives are closed-form
polynomials in h = (x - x') / theta^2 times k itself.

Conventions: a multi-index is a tuple of d non-negative ints; ``m``
differentiates with respect to the first argument, ``m2`` with respect
to the second.  Each derivative on the second argument flips one sign,
which collapses to an overall factor (-1)^|m| on the all-first-argument
polynomial form.

:func:`deriv_block` evaluates one (m, m2) pair over a whole array of
differences x - x' (:func:`block_value` of the theta-invariant
:func:`block_form`); :func:`deriv` is its one-pair case.
"""

import functools
import itertools
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


def _bracket(idx, h, it2):
    """Polynomial factor for the order-|idx| derivative, all on one argument.

    ``idx`` lists one coordinate per unit of derivative (length 1..4), ``h``
    is (x - x2)/theta^2 as one entry (a float or an array) per coordinate,
    and ``it2`` is 1/theta^2.  The order-4 pair set (6
    elements) and the pair partitions (3 elements) are written out in full.
    """
    t = len(idx)
    if t == 1:
        return h[idx[0]]
    if t == 2:
        i, j = idx
        return h[i] * h[j] - it2 * (i == j)
    if t == 3:
        i, j, l = idx
        return h[i] * h[j] * h[l] - it2 * (
            h[i] * (j == l) + h[j] * (i == l) + h[l] * (i == j)
        )
    i, j, l, o = idx
    pairs = (
        h[i] * h[j] * (l == o)
        + h[i] * h[l] * (j == o)
        + h[i] * h[o] * (j == l)
        + h[j] * h[l] * (i == o)
        + h[j] * h[o] * (i == l)
        + h[l] * h[o] * (i == j)
    )
    partitions = (i == j) * (l == o) + (i == l) * (j == o) + (i == o) * (j == l)
    return (
        h[i] * h[j] * h[l] * h[o] - it2 * pairs + it2 * it2 * partitions
    )


@functools.cache
def _bracket_index(m, m2):
    """The :func:`_bracket` index and sign of the (m, m2) derivative; checks its order."""
    t = total_order(m) + total_order(m2)
    if t > MAX_TOTAL_ORDER:
        raise UnsupportedOrderError(f"total derivative order {t} exceeds analytic coverage "
                                    f"({MAX_TOTAL_ORDER}); m={m}, m2={m2}")
    idx = tuple(i for i in range(len(m)) for _ in range(m[i] + m2[i]))
    return idx, -1.0 if total_order(m) % 2 else 1.0


def block_form(r, terms, terms2):
    """The theta-invariant part of a covariance block between sums of (coefficient,
    multi-index) terms on the first and second argument, coefficients broadcasting
    against ``r[..., 0]``: ([(bracket index, weight)], ``r`` if an order is not 0, ||r||^2);
    a weight of one number is a float."""
    weights = {}
    for (c, m), (c2, m2) in itertools.product(terms, terms2):
        idx, sign = _bracket_index(m, m2)
        w = sign * c * c2
        weights[idx] = weights[idx] + w if idx in weights else w
    d2 = np.matmul(r[..., None, :], r[..., :, None])[..., 0, 0]
    weights = [(idx, np.asarray(w).item() if np.size(w) == 1 else w) for idx, w in weights.items()]
    return weights, r if any(idx for idx, _ in weights) else None, d2


def block_value(k, form):
    """The closed form of a :func:`block_form` at kernel ``k``."""
    weights, r, d2 = form
    base = k.sigma2 * np.exp(-d2 / (2.0 * k.theta ** 2))
    h = r is not None and [r[..., c] / k.theta ** 2 for c in range(k.dim)]
    terms = [w * _bracket(idx, h, 1.0 / k.theta ** 2) if idx else w for idx, w in weights]
    return sum(terms[1:], terms[0]) * base


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
