"""The parameterized join family behind the spectral threshold.

For parameters (k, m, n, s) the family member is the join of K_{s,(k-1)s}
with K_{m-s,n-(k-1)s}: the first factor's A-vertices keep degree (k-1)s
while everything else is as dense as the parts allow. Its s=1 member is the
unique bound-attaining graph: it has spectral radius equal to the threshold
yet no spanning tree with all A-degrees >= k, because its single low-degree
A-vertex has only k-1 neighbors.

All polynomial data (quotient matrix, characteristic coefficients, the
difference factor and its endpoint quadratics) is produced in exact integer
arithmetic so the verification module can assert identities with zero
tolerance; the threshold is the correctly rounded root of the s=1 quartic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph_core import BipartiteGraph, complete_bipartite, join
from .poly import PolyCoeffs, largest_real_root
from .spectral import QuotientMatrix


@dataclass(frozen=True)
class ExtremalParams:
    """Admissible (k, m, n, s): k >= 3, m >= 3, n >= (k-1)m + 1, 1 <= s <= m-1."""

    k: int
    m: int
    n: int
    s: int

    def __post_init__(self):
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


def family_partition(p: ExtremalParams) -> list[list[int]]:
    """The four-block vertex partition under which Q of the family member is
    equitable: sparse A-side, dense A-side, joined B-side, remaining B-side.

    Global indices: A-vertices are 0..m-1, B-vertices m..m+n-1, with each
    factor's vertices first (the join keeps factor-one indices first).
    """
    m, n, s, r = p.m, p.n, p.s, p.r
    return [
        list(range(0, s)),
        list(range(s, m)),
        list(range(m, m + r)),
        list(range(m + r, m + n)),
    ]


def family_quotient(p: ExtremalParams) -> QuotientMatrix:
    """Closed-form quotient matrix of Q over the four-block partition.

    Row order matches family_partition, and the entries are ints.
    Cross-checking this closed form against
    quotient_matrix(build_family(p), family_partition(p)) is part of the
    verification suite.
    """
    m, n, s, r = p.m, p.n, p.s, p.r
    return QuotientMatrix((
        (r, 0, r, 0),
        (0, n, r, n - r),
        (s, m - s, m, 0),
        (0, m - s, 0, m - s),
    ), (s, m - s, r, n - r), True)


def family_char_coeffs(p: ExtremalParams) -> PolyCoeffs:
    """Exact characteristic polynomial of the family quotient, ascending.

    Degree four, monic, zero constant term (the quotient is singular).
    """
    k, m, n, s = p.k, p.m, p.n, p.s
    c3 = -(2 * m + n + k * s - 2 * s)
    c2 = (
        m * m + m * n + 2 * k * m * s + k * n * s
        - 3 * m * s - n * s - 2 * k * s * s + 2 * s * s
    )
    c1 = (
        k * m * s * s - m * s * s + k * n * s * s - n * s * s
        - k * m * m * s + m * m * s - k * m * n * s + m * n * s
    )
    return PolyCoeffs((0, c1, c2, c3, 1))


def difference_factor_coeffs(p: ExtremalParams) -> tuple[int, int, int]:
    """Ascending coefficients (d0, d1, d2) of the quadratic factor in

        charpoly(s=1)(x) - charpoly(s)(x) = x * (s - 1) * (d2*x**2 + d1*x + d0).

    Its sign at the root bracket endpoints is what separates every s >= 2
    member strictly below the threshold.
    """
    k, m, n, s = p.k, p.m, p.n, p.s
    d2 = k - 2
    d1 = -(2 * k * m + k * n - 3 * m - n - 2 * k * s - 2 * k + 2 * s + 2)
    d0 = (
        -k * m * s - k * m + m * s + m
        - k * n * s - k * n + n * s + n
        + k * m * m - m * m + k * m * n - m * n
    )
    return (d0, d1, d2)


def difference_factor(x, p: ExtremalParams):
    """Evaluate the separation quadratic at x; exact for exact x."""
    d0, d1, d2 = difference_factor_coeffs(p)
    return (d2 * x + d1) * x + d0


def lower_endpoint_quadratic(s: int, k: int, m: int, n: int) -> int:
    """Quadratic in s controlling the separation sign at the lower bracket
    endpoint x = m + (k-1)s: the difference factor there equals (k-1) times
    this value."""
    return k * (k - 1) * s * s - (k * n - 2 * k + 2) * s + m - n


def upper_endpoint_quadratic(n: int, k: int, m: int) -> int:
    """Quadratic in n bounding the difference factor at the upper bracket
    endpoint x = m + n from above; it vanishes at n = (k-1)m and is negative
    beyond, which is exactly the parameter hypothesis."""
    return -n * n + (k * m - 2 * m) * n + k * m * m - m * m


def family_bracket(p: ExtremalParams) -> tuple[int, int]:
    """Integer interval (m + (k-1)s, m + n) isolating the largest quotient root.

    The lower endpoint is the spectral radius of the sparse factor's
    complete graph, the upper the spectral radius of K_{m,n}; both bound the
    family member strictly.
    """
    return (p.m + p.r, p.m + p.n)


def family_root(p: ExtremalParams) -> float:
    """Largest root of the family's quotient polynomial, correctly rounded:
    the member's signless Laplacian spectral radius."""
    return largest_real_root(family_char_coeffs(p), family_bracket(p))


def spectral_threshold(k: int, m: int, n: int) -> float:
    """The threshold value: the spectral radius of the extremal graph.

    Any connected bipartite graph on (m, n) whose signless Laplacian
    spectral radius reaches this value has a spanning tree with every
    A-degree >= k, except the extremal graph itself.
    """
    return family_root(ExtremalParams(k, m, n, 1))
