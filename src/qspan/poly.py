"""Exact polynomials: characteristic polynomials, roots and Sturm chains.

Coefficient vectors are ascending (c0 first). Characteristic polynomials,
root bisection and the Sturm comparison run in plain integers, so roots are
correctly rounded floats and every strictness claim is exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, InputError, InternalError, NumericalError

CHAR_POLY_CAP = 11      # exact characteristic polynomial cap (the fuzz needs order 8)
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
    mat = []
    for row in rows:
        if len(row) != t:
            raise InputError("matrix is not square")
        conv = []
        for x in row:
            fx = Fraction(x)
            if fx.denominator != 1:
                raise InputError(f"entries must be integers, got {x!r}")
            conv.append(int(fx))
        mat.append(conv)

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


# --- Sturm chains over the integers -------------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _primitive(p):
    """Trimmed p divided by the positive gcd of its coefficients."""
    p = _trim(p)
    content = math.gcd(*p)
    return [c // content for c in p] if content > 1 else p


def _divmod(a, b):
    """Quotient and remainder of integer a by a nonzero trimmed b; the quotient must be integral."""
    rem = _trim(list(a))
    db, lb = len(b) - 1, b[-1]
    quot = [0] * max(len(rem) - db, 0)
    while rem and len(rem) - 1 >= db:
        shift = len(rem) - 1 - db
        factor, inexact = divmod(rem[-1], lb)
        if inexact:
            raise InternalError("inexact integer polynomial division")
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = _trim(rem)
    return quot, rem


def _sturm_chain(p):
    """p, p' and the negated primitive pseudo-remainders. The multiplier
    |lc|**(deg a - deg b + 1) makes each division integral and is positive,
    so each member is a positive multiple of the rational chain's."""
    chain = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        scale = abs(b[-1]) ** (len(a) - len(b) + 1)
        rem = _primitive(_divmod([c * scale for c in a], b)[1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _squarefree(coeffs):
    """p = coeffs as primitive integers divided by gcd(p, p'), the last member
    of its Sturm chain; that gcd is primitive, so by Gauss's lemma the
    division is exact."""
    p = _primitive(_integral(coeffs))
    g = _sturm_chain(p)[-1] if p else p
    return _divmod(p, g)[0] if len(g) > 1 else p


def _variations(chain, num, den):
    """Sign changes along the chain at x = num / den (den > 0), from den**d * p(x)."""
    signs = [v > 0 for v in (_horner(p, num, den) for p in chain) if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def strictly_larger_root(p_big, p_small) -> bool:
    """Exact check that the largest real root of p_big exceeds that of
    p_small. Coefficients ascending, integers or Fractions; both polynomials
    must have at least one real root (true for characteristic polynomials of
    symmetric matrices). All arithmetic is in integers."""
    big = _squarefree(p_big)
    small = _squarefree(p_small)
    chain_b = _sturm_chain(big)
    chain_s = _sturm_chain(small)

    def cauchy_bound(p):
        if len(p) < 2:
            return Fraction(1)
        return 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))

    upper = max(cauchy_bound(big), cauchy_bound(small))
    # bisect (lo / den, hi / den] around the largest root of p_small; the
    # roots of a chain above x number V(x) - V(upper)
    den = upper.denominator
    lo, hi = -upper.numerator, upper.numerator
    var_b_top = _variations(chain_b, hi, den)
    var_s_top = _variations(chain_s, hi, den)
    for _ in range(200):
        if _variations(chain_b, hi, den) - var_b_top >= 1:
            return True
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        if _variations(chain_s, mid, den) - var_s_top >= 1:
            lo = mid
        else:
            hi = mid
    return False
