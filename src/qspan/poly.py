"""Exact polynomials: characteristic polynomials, roots and Sturm chains.

Coefficient vectors are ascending (c0 first). Characteristic polynomials of
integer matrices are computed in plain integers; the Sturm comparison of
largest real roots works over Fractions, so every strictness claim it makes
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, InputError, InternalError, NumericalError

CHAR_POLY_CAP = 11      # exact characteristic polynomial cap (largest census Q)


def _horner(coeffs, x):
    """Evaluate ascending coefficients at x; exact when both are exact."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
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
        prod = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in mat]
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


def largest_real_root(p: PolyCoeffs, bracket: tuple[float, float]) -> float:
    """Root of p inside the bracket, via bisection plus a secant polish.

    The caller must supply a bracket with a sign change that isolates the
    largest real root; for the quotient quartics used here that bracket is
    available in closed form.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InputError(f"invalid bracket ({lo}, {hi})")
    flo = float(p.evaluate(lo))
    fhi = float(p.evaluate(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NumericalError(f"no sign change on bracket ({lo}, {hi})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = float(p.evaluate(mid))
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (fhi > 0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    # one secant step inside the final interval, kept only if it stays put
    denom = fhi - flo
    if denom != 0.0:
        sec = lo - flo * (hi - lo) / denom
        if lo < sec < hi:
            return sec
    return 0.5 * (lo + hi)


# --- Sturm chains over Fractions ----------------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _divmod(a, b):
    """Quotient and remainder of a by a nonzero trimmed b over the rationals."""
    rem = _trim(list(a))
    db, lb = len(b) - 1, b[-1]
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    while rem and len(rem) - 1 >= db:
        shift = len(rem) - 1 - db
        factor = rem[-1] / lb
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = _trim(rem)
    return quot, rem


def _gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def _deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _squarefree(p):
    """p divided by gcd(p, p'), so Sturm counts distinct roots."""
    g = _gcd(p, _deriv(p))
    return _divmod(p, g)[0] if len(g) > 1 else p


def _sturm_chain(p):
    chain = [p, _trim(_deriv(p))]
    while len(chain[-1]) > 1:
        rem = _divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _variations(chain, x):
    signs = []
    for p in chain:
        v = _horner(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def strictly_larger_root(p_big, p_small) -> bool:
    """Exact check that the largest real root of p_big exceeds that of
    p_small. Coefficients ascending, integers or Fractions; both polynomials
    must have at least one real root (true for characteristic polynomials of
    symmetric matrices)."""
    big = _squarefree(_trim([Fraction(c) for c in p_big]))
    small = _squarefree(_trim([Fraction(c) for c in p_small]))
    chain_b = _sturm_chain(big)
    chain_s = _sturm_chain(small)

    def cauchy_bound(p):
        if len(p) < 2:
            return Fraction(1)
        return Fraction(1) + max(abs(c) for c in p[:-1]) / abs(p[-1])

    upper = max(cauchy_bound(big), cauchy_bound(small))
    var_b_top = _variations(chain_b, upper)
    var_s_top = _variations(chain_s, upper)
    # shrink an interval (lo, hi] around the largest root of p_small; the
    # roots of a chain above x number V(x) - V(upper)
    lo, hi = -upper, upper
    for _ in range(200):
        if _variations(chain_b, hi) - var_b_top >= 1:
            return True
        mid = (lo + hi) / 2
        if _variations(chain_s, mid) - var_s_top >= 1:
            lo = mid
        else:
            hi = mid
    return False
