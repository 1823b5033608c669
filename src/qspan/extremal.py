"""The parameterized join family behind the spectral threshold.

For parameters (k, m, n, s) the family member is the join of K_{s,(k-1)s}
with K_{m-s,n-(k-1)s}: the first factor's A-vertices keep degree (k-1)s
while everything else is as dense as the parts allow. Its s=1 member is the
unique bound-attaining graph: it has spectral radius equal to the threshold
yet no spanning tree with all A-degrees >= k, because its single low-degree
A-vertex has only k-1 neighbors.

ExtremalParams validates (k, m, n, s) and alone computes r = (k-1)s. The
member's rows, quotient, quartic, bracket and root take plain (m, n, s, r), so
any join(K_{s,r}, K_{m-s,n-r}) can be named, the runner-up (m, n, 1, k-2) too;
the separation data takes (k, m, n, s). Every closed form uses only +, - and *:
exact on ints, and checked on symbols as polynomial identities. The threshold
is the correctly rounded root of the s=1 quartic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph_core import BipartiteGraph, as_index, complete_bipartite, join
from .poly import PolyCoeffs, largest_real_root


@dataclass(frozen=True)
class ExtremalParams:
    """Admissible (k, m, n, s): k >= 3, m >= 3, n >= (k-1)m + 1, 1 <= s <= m-1."""

    k: int
    m: int
    n: int
    s: int

    def __post_init__(self):
        for name in ("k", "m", "n", "s"):
            value = getattr(self, name)
            if type(value) is not int:   # a numpy int is stored as int
                object.__setattr__(self, name, as_index(value, name))
        if self.k < 3:
            raise InputError(f"k must be >= 3, got {self.k}")
        if self.m < 3:
            raise InputError(f"m must be >= 3, got {self.m}")
        if self.n < (self.k - 1) * self.m + 1:
            raise InputError(
                f"n must be >= (k-1)*m + 1 = {(self.k - 1) * self.m + 1}, got {self.n}"
            )
        if not 1 <= self.s <= self.m - 1:
            raise InputError(f"s must lie in [1, m-1] = [1, {self.m - 1}], got {self.s}")

    @property
    def r(self) -> int:
        """Number of B-vertices in the sparse factor: (k-1)*s."""
        return (self.k - 1) * self.s


def build_family(p: ExtremalParams) -> BipartiteGraph:
    """The family member K_{s,(k-1)s} join K_{m-s,n-(k-1)s}.

    Edge count is (k-1)*s**2 + (m-s)*n; the s=1 member is the extremal graph.
    """
    return join(
        complete_bipartite(p.s, p.r),
        complete_bipartite(p.m - p.s, p.n - p.r),
    )


def extremal_graph(k: int, m: int, n: int) -> BipartiteGraph:
    """The bound-attaining graph: the s=1 member of the family."""
    return build_family(ExtremalParams(k, m, n, 1))


def family_rows(m: int, n: int, s: int, r: int) -> tuple[int, ...]:
    """The adjacency rows of join(K_{s,r}, K_{m-s,n-r}) in closed form: s rows
    2^r - 1 (the sparse A-side sees the joined B-side), then m - s rows 2^n - 1."""
    return ((1 << r) - 1,) * s + ((1 << n) - 1,) * (m - s)


def family_quotient(m: int, n: int, s: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Closed-form 4x4 quotient matrix of Q over the blocks of
    join(K_{s,r}, K_{m-s,n-r}): A-vertices 0..s-1 (sparse) and s..m-1 (dense),
    B-vertices 0..r-1 (joined) and r..n-1. The test suite checks it and
    family_rows against the built graph at every point of a grid."""
    return (
        (r, 0, r, 0),
        (0, n, r, n - r),
        (s, m - s, m, 0),
        (0, m - s, 0, m - s),
    )


def family_char_coeffs(m: int, n: int, s: int, r: int) -> PolyCoeffs:
    """Exact characteristic polynomial of the family quotient, ascending.

    Degree four, monic, zero constant term (the quotient is singular).
    """
    c3 = -(2 * m + n + r - s)
    c2 = m * m + m * n + 2 * m * r - m * s + n * r - 2 * r * s
    c1 = -r * (m - s) * (m + n)
    return PolyCoeffs((0, c1, c2, c3, 1))


def difference_factor_coeffs(k: int, m: int, n: int, s: int) -> tuple[int, int, int]:
    """Ascending coefficients (d0, d1, d2) of the quadratic factor in

        charpoly(s=1)(x) - charpoly(s)(x) = x * (s - 1) * (d2*x**2 + d1*x + d0).

    Its sign at the root bracket endpoints is what separates every s >= 2
    member strictly below the threshold.
    """
    d0 = (k - 1) * (m + n) * (m - s - 1)
    d1 = m - (k - 1) * (2 * m + n - 2 * s - 2)
    return (d0, d1, k - 2)


def difference_factor(x, k: int, m: int, n: int, s: int):
    """Evaluate the separation quadratic at x; exact for exact x."""
    d0, d1, d2 = difference_factor_coeffs(k, m, n, s)
    return (d2 * x + d1) * x + d0


def lower_endpoint_quadratic(k: int, m: int, n: int, s: int) -> int:
    """Quadratic in s controlling the separation sign at the lower bracket
    endpoint x = m + (k-1)s: the difference factor there equals (k-1) times
    this value."""
    return k * (k - 1) * s * s - (k * n - 2 * k + 2) * s + m - n


def upper_endpoint_quadratic(k: int, m: int, n: int) -> int:
    """Quadratic in n bounding the difference factor at the upper bracket
    endpoint x = m + n from above, by (k-1)(m+n)(m-s-1) >= 0; it vanishes at
    n = (k-1)m and is negative beyond, which is exactly the parameter
    hypothesis."""
    return (m + n) * ((k - 1) * m - n)


def family_bracket(m: int, n: int, s: int, r: int) -> tuple[int, int]:
    """Integer interval (m + r, m + n) isolating the largest quotient root.

    The lower endpoint is the spectral radius of the sparse factor's
    complete graph, the upper the spectral radius of K_{m,n}; both bound the
    family member strictly.
    """
    return (m + r, m + n)


def family_root(m: int, n: int, s: int, r: int) -> float:
    """Largest root of the family's quotient polynomial, correctly rounded:
    the member's signless Laplacian spectral radius."""
    return largest_real_root(family_char_coeffs(m, n, s, r), family_bracket(m, n, s, r))


def spectral_threshold(k: int, m: int, n: int) -> float:
    """The threshold value: the spectral radius of the extremal graph.

    Any connected bipartite graph on (m, n) whose signless Laplacian
    spectral radius reaches this value has a spanning tree with every
    A-degree >= k, except the extremal graph itself.
    """
    p = ExtremalParams(k, m, n, 1)
    return family_root(p.m, p.n, p.s, p.r)
