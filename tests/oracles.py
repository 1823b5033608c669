"""Reference implementations that the tests compare the package against.

None of these has a caller in the package itself:

* connected_filter: connectivity of a whole array of edge bitmasks at once,
  independent of graph_core.is_connected;
* connected_graphs: every connected labelled graph on (m, n), in mask order;
* part_preserving_isomorphic: brute-force isomorphism that keeps A and B,
  against which the census's degree-based copy test is checked;
* non_bridges: the edges whose removal leaves a graph connected, one
  is_connected call per edge, from which the fuzz's subgraph drawing is
  checked;
* random_demand_instances: a deterministic corpus of (connected graph,
  demand) pairs on which the checkers and the constructor are compared;
* bisect_root: the root bisection from the caller's bracket alone, with no
  Newton seed, against which poly.largest_real_root is checked.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from qspan import BipartiteGraph, DegreeDemand, InputError, InternalError, NumericalError
from qspan.graph_core import is_connected, iter_bits, to_edge_list
from qspan.poly import BISECTION_CAP, _horner, _integral
from qspan.verify import _graph_from_mask, _random_connected


def connected_filter(masks: np.ndarray, m: int, n: int) -> np.ndarray:
    """Boolean connectivity per mask (bit a*n + b is edge (a, b)), vectorised
    over the whole array."""
    full_b = (1 << n) - 1
    nb = [(masks >> (a * n)) & full_b for a in range(m)]
    member = np.zeros((m, masks.size), dtype=bool)
    member[0] = True
    reach = nb[0].copy()
    for _ in range(m):
        for a in range(1, m):
            member[a] |= (nb[a] & reach) != 0
        acc = np.zeros_like(reach)
        for a in range(m):
            acc |= np.where(member[a], nb[a], 0)
        reach = acc
    return member.all(axis=0) & (reach == full_b)


def connected_graphs(m: int, n: int):
    """Yield every connected labelled bipartite graph on (m, n) in ascending
    mask order, filtering 2^16 masks at a time."""
    total, chunk = 1 << (m * n), 1 << 16
    for lo in range(0, total, chunk):
        masks = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        for mask in masks[connected_filter(masks, m, n)].tolist():
            yield _graph_from_mask(mask, m, n)


def part_preserving_isomorphic(g: BipartiteGraph, h: BipartiteGraph) -> bool:
    """True iff some relabeling of A-indices and of B-indices maps g onto h.

    Brute force over A-permutations with degree-multiset pruning; once A is
    mapped, the B sides match iff the relabeled column multisets coincide.
    Meant for small graphs (a handful of near-extremal candidates).
    """
    if (g.m, g.n) != (h.m, h.n):
        raise InputError(f"size mismatch: ({g.m},{g.n}) vs ({h.m},{h.n})")
    if g.edge_count != h.edge_count:
        return False
    deg_g = [g.degree_a(a) for a in range(g.m)]
    deg_h = [h.degree_a(a) for a in range(h.m)]
    if sorted(deg_g) != sorted(deg_h):
        return False
    cols_h = sorted(h.b_adj())
    if sorted(x.bit_count() for x in g.b_adj()) != sorted(x.bit_count() for x in cols_h):
        return False
    cols_g = g.b_adj()
    for perm in itertools.permutations(range(g.m)):
        # perm[a] = destination slot in h for g's A-vertex a
        if any(deg_g[a] != deg_h[perm[a]] for a in range(g.m)):
            continue
        relabeled = []
        for col in cols_g:
            out = 0
            for a in iter_bits(col):
                out |= 1 << perm[a]
            relabeled.append(out)
        if sorted(relabeled) == cols_h:
            return True
    return False


def non_bridges(g: BipartiteGraph) -> list[tuple[int, int]]:
    """Edges of g, in to_edge_list order, whose removal leaves g connected;
    none if g is disconnected."""
    keep = []
    for a, b in to_edge_list(g):
        adj = g.adj[:a] + (g.adj[a] & ~(1 << b),) + g.adj[a + 1:]
        if is_connected(BipartiteGraph(g.m, g.n, adj)):
            keep.append((a, b))
    return keep


def random_demand_instances(count: int, seed: int = 0):
    """Deterministic corpus of (connected graph, demand vector) pairs used to
    cross-validate the two condition checkers and the constructor."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 8)
        n = rng.randint(1, 12)
        g = _random_connected(rng, m, n)
        f = DegreeDemand(tuple(rng.choice((2, 3, 4)) for _ in range(m)))
        yield g, f


def bisect_root(p, bracket) -> float:
    """Correctly rounded root of p in a bracket that changes sign, by
    bisection on integer numerators over a doubling denominator, from the
    caller's bracket: the root bisection as it was before the Newton seed."""
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
