"""Exact arithmetic: characteristic polynomials, roots and eigenvalue bounds.

Coefficient vectors are ascending (c0 first). Characteristic polynomials,
root bisection and the positive-definiteness certificate run in plain
integers, so roots are correctly rounded floats and every strictness claim is
exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, InputError, InternalError, NumericalError

CHAR_POLY_CAP = 11      # exact characteristic polynomial cap (quotients here have order 4)
BISECTION_CAP = 4096    # root halvings; a float bracket shrinks below a subnormal in ~2,100


def _integral(coeffs):
    """Coefficients as integers: Fractions scaled by the positive lcm of their denominators."""
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
    mat = []
    for row in rows:
        if len(row) != len(rows):
            raise InputError("matrix is not square")
        conv = []
        for x in row:
            if type(x) is not int:
                fx = Fraction(x)
                if fx.denominator != 1:
                    raise InputError(f"entries must be integers, got {x!r}")
                x = int(fx)
            conv.append(x)
        mat.append(conv)
    return mat


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
        """Horner evaluation; exact when x and the coefficients are exact."""
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


def largest_real_root(p: PolyCoeffs, bracket) -> float:
    """Correctly rounded root of p in a bracket (int, Fraction or float ends)
    that changes sign and isolates the largest real root, in closed form for
    the quotient quartics used here. Bisection on integer numerators over a
    doubling denominator stops once both ends round to one float; int true
    division rounds correctly, so that float is the rounded root."""
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
