"""Exact arithmetic: characteristic polynomials and their roots.

Coefficient vectors are ascending (c0 first). Characteristic polynomials
(batched over int64 under a proven overflow bound, else Python ints) and root
bisection run in exact integers, so roots are correctly rounded floats.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InputError, InternalError, NumericalError

CHAR_POLY_CAP = 11      # exact characteristic polynomial cap (quotients here have order 4)
BISECTION_CAP = 4096    # root halvings; a float bracket shrinks below a subnormal in ~2,100


def _integral(coeffs):
    """Coefficients as integers: ints as they are, else scaled by the lcm of their denominators."""
    if all(type(c) is int for c in coeffs):
        return list(coeffs)
    fracs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in fracs))
    return [int(c * scale) for c in fracs]


def _horner(coeffs, x, den=1):
    """den**d * p(x / den) for ascending coefficients of degree d, by
    homogeneous Horner; p(x) when den is 1. Exact when the inputs are."""
    acc, scale = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        scale *= den
        acc = acc * x + c * scale
    return acc


def _int_matrix(rows):
    """A square matrix as rows of ints, all-int rows as given; entries may be
    of any type that Fraction maps to an integer."""
    if any(len(row) != len(rows) for row in rows):
        raise InputError("matrix is not square")
    if all(type(x) is int for row in rows for x in row):
        return rows
    for x in (x for row in rows for x in row if type(x) is not int):
        with contextlib.suppress(TypeError, ValueError, OverflowError):   # an x no Fraction reads is refused
            if Fraction(x).denominator == 1:
                continue
        raise InputError(f"entries must be integers, got {x!r}")
    return [[x if type(x) is int else int(Fraction(x)) for x in row] for row in rows]


@dataclass(frozen=True)
class PolyCoeffs:
    """Monic polynomial with exact coefficients, ascending (c0 first)."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("empty coefficient vector")
        if self.coeffs[-1] != 1:
            raise InputError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        """Horner evaluation; exact when x and the coefficients are exact. A
        Fraction x takes homogeneous Horner and one Fraction at the end."""
        if isinstance(x, Fraction):
            return _horner(self.coeffs, x.numerator, x.denominator) / Fraction(x.denominator ** self.degree)
        return _horner(self.coeffs, x)


def exact_char_polys(stack) -> list:
    """Exact monic characteristic polynomials of a stack of small integer
    matrices of one order, in stack order; [] for an empty stack.

    An int64 ndarray of shape (N, t, t) is taken as it is; other stacks hold
    matrices with entries of any type that Fraction maps to an integer. Runs
    the trace recursion (Faddeev-LeVerrier) once over an (N, t, t) numpy stack:
    for an integer matrix every c_k = -tr(A M_k) / k is an integer, so a
    nonzero remainder is a defect. The Cayley-Hamilton identity is checked on
    every final auxiliary matrix, so a wrong result cannot escape silently.
    The stack is int64 when t (2w)^t < 2^63, w its largest absolute row sum,
    and Python ints (exact at any size) otherwise. int64 cannot overflow:
    every eigenvalue has |lambda| <= w, so |c_j| <= C(t, j) w^j; so M_k =
    sum_{i<k} c_i A^(k-1-i) has absolute row sums <= 2^t w^(k-1), every entry
    and partial sum of A M_k is at most 2^t w^k, and every trace t 2^t w^t.
    """
    array = isinstance(stack, np.ndarray) and stack.dtype == np.int64
    if array and (stack.ndim != 3 or stack.shape[1] != stack.shape[2]):
        raise InputError(f"an int64 stack must have shape (N, t, t), got {stack.shape}")
    stack = stack if array else list(stack)
    if not len(stack):
        return []
    t = len(stack[0])
    if not array and any(len(rows) != t for rows in stack):
        raise InputError("matrices in one stack must have one order")
    if t > CHAR_POLY_CAP:
        raise CapacityError(f"order {t} exceeds exact char poly cap {CHAR_POLY_CAP}")
    if array:   # row sums are exact in int64 if t |entry| < 2^63; a larger entry alone passes the bound
        big = max(int(stack.max(initial=0)), -int(stack.min(initial=0)))
        mats, w = stack, int(np.abs(stack).sum(axis=2).max(initial=0)) if big * t < 2 ** 63 else big
    else:
        mats = [_int_matrix(rows) for rows in stack]
        w = max((sum(map(abs, row)) for rows in mats for row in rows), default=0)
    mat = np.array(mats, dtype=np.int64 if t * (2 * w) ** t < 2 ** 63 else object).reshape(len(stack), t, t)
    prod, descending = mat.copy(), [[1] * len(stack)]     # A M_1, as M_1 = I
    for k in range(1, t + 1):
        prod = prod if k == 1 else np.matmul(mat, prod)
        diag = prod.reshape(len(stack), -1)[:, :: t + 1]    # a view into prod
        neg_trace = -diag.sum(axis=1)
        ck = neg_trace // k
        if (ck * k != neg_trace).any():
            raise InternalError("characteristic polynomial of an integer matrix must be integral")
        descending.append(ck.tolist())
        diag += ck[:, None]
    if (prod != 0).any():
        raise InternalError("Cayley-Hamilton check failed in exact_char_polys")
    return [PolyCoeffs(tuple(reversed(coeffs))) for coeffs in zip(*descending)]


def exact_char_poly(rows) -> PolyCoeffs:
    """exact_char_polys on a stack of one matrix."""
    return exact_char_polys([rows])[0]


def largest_real_root(p: PolyCoeffs, bracket) -> float:
    """Correctly rounded root of p in a bracket that changes sign and isolates
    the largest real root, its ends ints, Fractions or floats within the float
    range. Bisection on integer numerators over a doubling denominator stops
    once both ends round to one float, which is then the root, as int true
    division rounds correctly. Once they round to adjacent floats a < b, p's
    exact sign at (a + b) / 2 decides: the root is a or b by its side, or that
    midpoint rounded half-even if p vanishes there."""
    for end in bracket[:2]:
        if type(end) is bool or not isinstance(end, (int, Fraction, float)) or not abs(end) <= sys.float_info.max:
            raise InputError(f"bracket ends must be ints, Fractions or floats, finite and within the float range, got {end!r}")
    lo, hi = Fraction(bracket[0]), Fraction(bracket[1])
    if not lo < hi:
        raise InputError(f"invalid bracket ({bracket[0]}, {bracket[1]})")
    coeffs = _integral(p.coeffs)
    den = math.lcm(lo.denominator, hi.denominator)
    lo_num, hi_num = int(lo * den), int(hi * den)
    f_lo, f_hi = _horner(coeffs, lo_num, den), _horner(coeffs, hi_num, den)
    if f_lo * f_hi > 0:
        raise NumericalError(f"no sign change on bracket ({bracket[0]}, {bracket[1]})")
    if f_lo * f_hi == 0:   # a root at an end
        lo_num = hi_num = lo_num if f_lo == 0 else hi_num
    for _ in range(BISECTION_CAP):
        a, b = lo_num / den, hi_num / den
        if a == b:
            return a
        if math.nextafter(a, math.inf) == b:
            mid = (Fraction(a) + Fraction(b)) / 2
            value = _horner(coeffs, mid.numerator, mid.denominator)
            return float(mid) if value == 0 else b if (value > 0) == (f_lo > 0) else a
        mid, den = lo_num + hi_num, 2 * den
        value = _horner(coeffs, mid, den)
        if value == 0:
            lo_num = hi_num = mid
        elif (value > 0) == (f_lo > 0):
            lo_num, hi_num = mid, 2 * hi_num
        else:
            lo_num, hi_num = 2 * lo_num, mid
    raise InternalError(f"bisection on ({bracket[0]}, {bracket[1]}) did not settle on one float")
