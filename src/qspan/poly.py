"""Exact arithmetic: characteristic polynomials, roots and eigenvalue bounds.

Coefficient vectors are ascending (c0 first). Characteristic polynomials,
root bisection and the positive-definiteness certificate run in plain
integers, so roots are correctly rounded floats and every strictness claim is
exact. A float Newton step only picks the bisection's starting bracket, and
its signs are checked in integers first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, InputError, InternalError, NumericalError

CHAR_POLY_CAP = 11      # exact characteristic polynomial cap (quotients here have order 4)
BISECTION_CAP = 4096    # root halvings; a float bracket shrinks below a subnormal in ~2,100
NEWTON_CAP = 64         # float Newton steps that seed the root bisection
SEED_ULPS = 4           # half-width of the seeded bracket, in ulps of the Newton iterate


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
    """A square matrix as lists of ints; entries may be of any type that
    Fraction maps to an integer."""
    if any(len(row) != len(rows) for row in rows):
        raise InputError("matrix is not square")
    bad = [x for row in rows for x in row if type(x) is not int and Fraction(x).denominator != 1]
    if bad:
        raise InputError(f"entries must be integers, got {bad[0]!r}")
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


def exact_char_poly(rows) -> PolyCoeffs:
    """Exact monic characteristic polynomial of a small integer matrix.

    Entries may be of any type that Fraction maps to an integer. Runs the
    trace recursion (Faddeev-LeVerrier) in integers: for an integer matrix
    every c_k = -tr(A M_k) / k is an integer, so a nonzero remainder is a
    defect. The Cayley-Hamilton identity is checked on the final auxiliary
    matrix, so a wrong result cannot escape silently.
    """
    t = len(rows)
    if t > CHAR_POLY_CAP:
        raise CapacityError(f"order {t} exceeds exact char poly cap {CHAR_POLY_CAP}")
    mat = _int_matrix(rows)

    aux = [[int(i == j) for j in range(t)] for i in range(t)]
    descending = [1]
    for k in range(1, t + 1):
        cols = list(zip(*aux))
        prod = [[sum(map(operator.mul, row, col)) for col in cols] for row in mat]
        ck, rem = divmod(-sum(prod[i][i] for i in range(t)), k)
        if rem:
            raise InternalError("characteristic polynomial of an integer matrix must be integral")
        descending.append(ck)
        for i in range(t):
            prod[i][i] += ck
        aux = prod
    if any(any(row) for row in aux):
        raise InternalError("Cayley-Hamilton check failed in exact_char_poly")
    return PolyCoeffs(tuple(reversed(descending)))


def _newton_bracket(coeffs, lo_num, hi_num, den, f_lo):
    """x -/+ SEED_ULPS ulp(x) as (lo_num, hi_num, den), x the float Newton
    iterate from hi_num / den once its step stops shrinking, if it lies
    strictly inside (lo_num / den, hi_num / den) and its exact signs change
    as there (f_lo is the value at lo); else None. Never raises."""
    try:
        fc, x, last = [float(c) for c in coeffs], hi_num / den, math.inf
        for _ in range(NEWTON_CAP):
            fx, dx = fc[-1], 0.0
            for c in reversed(fc[:-1]):
                fx, dx = fx * x + c, dx * x + fx
            if not abs(step := fx / dx) < last:     # NaN included
                break
            x, last = x - step, abs(step)
        num, x_den = x.as_integer_ratio()   # OverflowError once x is infinite
    except (OverflowError, ZeroDivisionError):
        return None
    unit, seed_den = math.ulp(x).as_integer_ratio()
    mid = num * seed_den // x_den           # x is a whole number of ulps
    seed_lo, seed_hi = mid - SEED_ULPS * unit, mid + SEED_ULPS * unit
    if not (lo_num * seed_den < seed_lo * den and seed_hi * den < hi_num * seed_den):
        return None
    at_lo, at_hi = _horner(coeffs, seed_lo, seed_den), _horner(coeffs, seed_hi, seed_den)
    return (seed_lo, seed_hi, seed_den) if at_lo * f_lo > 0 > at_hi * f_lo else None


def largest_real_root(p: PolyCoeffs, bracket) -> float:
    """Correctly rounded root of p in a bracket (int, Fraction or finite float
    ends) that changes sign and isolates the largest real root. Bisection on
    integer numerators over a doubling denominator, from _newton_bracket's
    bracket if it gives one, else the caller's, stops once both ends round to
    one float; int true division rounds correctly, so that is the root."""
    for end in bracket[:2]:
        if type(end) is bool or not isinstance(end, (int, Fraction, float)) or not -math.inf < end < math.inf:
            raise InputError(f"bracket ends must be ints, Fractions or finite floats, got {end!r}")
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
    else:
        lo_num, hi_num, den = _newton_bracket(coeffs, lo_num, hi_num, den, f_lo) or (lo_num, hi_num, den)
    for _ in range(BISECTION_CAP):
        if lo_num / den == hi_num / den:
            return lo_num / den
        mid, den = lo_num + hi_num, 2 * den
        value = _horner(coeffs, mid, den)
        if value == 0:
            lo_num = hi_num = mid
        elif (value > 0) == (f_lo > 0):
            lo_num, hi_num = mid, 2 * hi_num
        else:
            lo_num, hi_num = 2 * lo_num, mid
    raise InternalError(f"bisection on ({bracket[0]}, {bracket[1]}) did not settle on one float")


def _positive_definite(a) -> bool:
    """Sylvester's criterion on a symmetric integer matrix (a list of lists,
    overwritten). Bareiss's fraction-free elimination makes the k-th pivot
    the k-th leading principal minor, every division exact; the first pivot
    <= 0 decides "not positive definite"."""
    prev = 1
    for k, row_k in enumerate(a):
        piv = row_k[k]
        if piv <= 0:
            return False
        for row in a[k + 1:]:
            for j in range(k + 1, len(a)):
                row[j] = (piv * row[j] - row[k] * row_k[j]) // prev
        prev = piv
    return True


def separates_top_eigenvalues(big, small, x) -> bool:
    """Exact certificate that x separates the largest eigenvalues of two
    symmetric integer matrices: x I - small is positive definite and
    x I - big is not, so lambda(small) < x <= lambda(big). x is an int,
    Fraction or float; False certifies nothing about the two eigenvalues."""
    x = Fraction(x)

    def shifted(rows):
        mat = _int_matrix(rows)
        if any(mat[i][j] != mat[j][i] for i in range(len(mat)) for j in range(i)):
            raise InputError("matrix is not symmetric")
        return [[x.numerator * (i == j) - x.denominator * v for j, v in enumerate(row)]
                for i, row in enumerate(mat)]

    return _positive_definite(shifted(small)) and not _positive_definite(shifted(big))
