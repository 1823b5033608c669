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
* column_random_connected / column_random_spanning_subgraph: the fuzz's
  draw as it was before it tested connectivity on the A-rows alone, keeping
  the columns too and running reach over both per candidate, against which
  the fuzz's pairs are checked;
* rebuilt_max_matching: the b-matching as it was before it kept its list of
  A-vertices below their caps, every search rebuilding its starts from all
  of A, against which trees._max_matching is checked;
* random_demand_instances: a deterministic corpus of (connected graph,
  demand) pairs on which the checkers and the constructor are compared;
* per_anchor_first_violation: the Hall search as it was before the matching's
  cut and layered phases, one lifted copy of the matching and up to need
  augmenting searches per anchor, against which trees._first_violation is
  checked;
* sweep_anchor: the first A-vertex with no alternating path to a free
  B-vertex, by passes over A, against which the Hall search's anchor from
  graph_core.reach is checked;
* bisect_root: the root bisection from the caller's bracket to one float,
  with no midpoint sign rule, against which poly.largest_real_root is
  checked;
* per_matrix_char_poly: the trace recursion on one matrix in lists of ints,
  against which the batched poly.exact_char_polys is checked;
* reference_emit: the CLI's JSON writer as it was before its table of
  exact-type leaves, one recursive call per value, against which
  cli.emit_json is checked byte for byte;
* separates_top_eigenvalues (with _positive_definite and _short_dyadic): the
  fuzz's strictness certificate as it was before the Collatz-Wielandt
  bounds, x I - small positive definite and x I - big not (Sylvester's
  criterion by Bareiss elimination in ints), at the shortest dyadic in the
  middle half of the gap, against which the bounds are checked;
* scalar_algebraic_checks: point_checks' seven checks but join_chain at one
  point of ints, with and, chained comparisons and tuple ==, as point_checks
  computed them before the sweep evaluated them on int64 columns, against
  which verify._algebraic_checks is checked, off the hypothesis too;
* join_chain: the joins at r = 1..(k-1)s, each built from two complete
  graphs, against which verify.point_checks's closed-form rows are checked;
* quotient: the quotient matrix of Q(G) over any vertex partition, from the
  graph's rows, against which extremal.family_quotient is checked;
* b_class_up_set / b_class_size: the census's search as it was over
  B-relabelling classes alone (ascending column tuples, weighted by
  n!/prod(multiplicity!)), against which the search over A×B classes and
  its weights are checked.
"""

import bisect
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import numpy as np

from qspan import BipartiteGraph, CapacityError, DegreeDemand, InputError, InternalError, NumericalError
from qspan.cli import format_float
from qspan.extremal import (
    difference_factor,
    difference_factor_coeffs,
    family_bracket,
    family_char_coeffs,
    lower_endpoint_quadratic,
    upper_endpoint_quadratic,
)
from qspan.graph_core import complete_bipartite, is_connected, iter_bits, join, reach, to_edge_list
from qspan.poly import BISECTION_CAP, CHAR_POLY_CAP, PolyCoeffs, _horner, _int_matrix, _integral
from qspan.trees import HallViolation, _augment, is_violation
from qspan.verify import _graph_from_mask, _radii, _random_connected


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


def column_random_connected(rng: random.Random, m: int, n: int) -> BipartiteGraph:
    """A random connected graph on (m, n): up to 300 draws, each with its own
    edge probability and one rng.random() per (a, b) in row order, filling the
    rows and columns that reach tests; K_{m,n} if none connects."""
    spans = ((1 << m) - 1, (1 << n) - 1)
    for _ in range(300):
        p = rng.uniform(0.3, 0.9)
        rows, cols = [0] * m, [0] * n
        for a in range(m):
            for b in range(n):
                if rng.random() < p:
                    rows[a] |= 1 << b
                    cols[b] |= 1 << a
        if reach(rows[0], rows, cols) == spans:
            return BipartiteGraph(m, n, tuple(rows))
    return complete_bipartite(m, n)


def column_random_spanning_subgraph(rng: random.Random, g: BipartiteGraph) -> BipartiteGraph:
    """g less a uniform number, 0 to its cycle rank, of removals, each of a
    uniformly random non-bridge, by one shuffle and reach: each edge in turn
    is dropped if the rows and columns without it still span g."""
    edge_count = g.edge_count
    slack = edge_count - (g.m + g.n - 1)
    removals = rng.randint(0, slack) if slack > 0 else 0
    if not removals:
        rng.shuffle([None] * edge_count)   # shuffle draws by length alone; keeps the stream
        return g
    edges = to_edge_list(g)
    rng.shuffle(edges)
    rows, cols = list(g.adj), list(g.b_adj())
    spans = ((1 << g.m) - 1, (1 << g.n) - 1)
    for a, b in edges:
        rows[a] ^= 1 << b
        cols[b] ^= 1 << a
        if reach(rows[0], rows, cols) == spans:
            removals -= 1
            if not removals:
                break
        else:
            rows[a] |= 1 << b
            cols[b] |= 1 << a
    return BipartiteGraph(g.m, g.n, tuple(rows))


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


def per_anchor_first_violation(g: BipartiteGraph, f: DegreeDemand, cap: list[int], held: list[int],
                               owner: list[int], b_rows) -> HallViolation | None:
    """Violating set of the first anchor, in index order, that lies in one.

    cap[a] = f(a) - 1 and held / owner is a maximum b-matching for it.
    Subsets S containing the anchor all satisfy the condition iff the
    matching can grow to target = sum cap + 1 once the anchor's cap is
    lifted by the shortfall. So an anchor lifts its cap on a copy of the
    matching and augments again; by Kuhn's lemma every new path starts at
    the anchor, so at most n searches succeed whatever the shortfall. When
    the matching falls short, the A-vertices the failed search explored
    form a violating subset containing the anchor.

    When every cap is filled the shortfall is 1, and an anchor's search
    succeeds iff it has an alternating path to a free B-vertex. One
    breadth-first search from the free B-vertices finds those anchors (reach
    with b_rows = g.b_adj(): a B-vertex reaches its A-neighbours, an
    A-vertex its matched B-vertices), and only the lowest unreached anchor
    is then searched.
    """
    need = sum(cap) + 1 - sum(h.bit_count() for h in held)
    anchors = range(g.m)
    if need == 1:
        free = (1 << g.n) - 1 & ~sum(held)   # held sets are disjoint
        unreached = (1 << g.m) - 1 & ~reach(free, held, b_rows)[0]
        anchors = [(unreached & -unreached).bit_length() - 1] if unreached else []
    for anchor in anchors:
        lifted = list(cap)
        lifted[anchor] += need
        held_copy, owner_copy = list(held), list(owner)
        for _ in range(need):
            end, subset = _augment(g, lifted, held_copy, owner_copy)
            if end is None:
                if anchor not in subset or not is_violation(g, f, subset):
                    raise InternalError("alternating search gave no genuine violating subset")
                return HallViolation(subset)
    return None


def rebuilt_max_matching(g: BipartiteGraph, cap: list[int]) -> tuple[list[int], list[int]]:
    """Maximum b-matching (held, owner) giving A-vertex a at most cap[a]
    B-vertices: each A-vertex in index order takes its lowest-index free
    neighbours, then augmenting paths run until none is left, each search
    finding its starts by a bit_count over every row of A."""
    held, owner = [0] * g.m, [-1] * g.n
    taken = 0
    for a, row in enumerate(g.adj):
        room, free = cap[a], row & ~taken
        while room and free:
            low = free & -free
            free ^= low
            held[a] |= low
            owner[low.bit_length() - 1] = a
            room -= 1
        taken |= held[a]
    while _augment(g, cap, held, owner)[0] is not None:
        pass
    return held, owner


def sweep_anchor(g: BipartiteGraph, held):
    """The lowest A-vertex with no alternating path to a free B-vertex under
    the b-matching held, or None. Each pass over the unreached A-vertices
    reaches those that see a free or found B-vertex and finds the B-vertices
    they hold, until a pass reaches none."""
    found = (1 << g.n) - 1 & ~sum(held)   # free B-vertices; held sets are disjoint
    left, rest = [], list(range(g.m))
    while len(rest) != len(left):
        left, rest = rest, []
        for a in left:
            if g.adj[a] & found:
                found |= held[a]
            else:
                rest.append(a)
    return rest[0] if rest else None


def bisect_root(p, bracket) -> float:
    """Correctly rounded root of p in a bracket that changes sign, by
    bisection on integer numerators over a doubling denominator, from the
    caller's bracket until both ends round to one float. Unlike
    poly.largest_real_root it never tests the midpoint of two adjacent
    floats, so a root exactly there is hit only by a dyadic bracket."""
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


def per_matrix_char_poly(rows) -> PolyCoeffs:
    """Exact monic characteristic polynomial of a small integer matrix, one
    matrix at a time: the trace recursion (Faddeev-LeVerrier) in lists of
    ints, with the integrality and Cayley-Hamilton checks, as it was before
    the batched poly.exact_char_polys."""
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


_encode = json.encoder.encode_basestring_ascii
_BASES = (dict, list, tuple, bool, float, int, str)


def reference_emit(value, indent: int) -> str:
    kind = type(value)
    if kind not in _BASES:   # a subclass takes its base's branch, as isinstance would
        kind = next((base for base in _BASES if isinstance(value, base)), kind)
    pad = "  " * indent
    if kind is dict:
        if not value:
            return "{}"
        inner = ",\n".join(f'{pad}  {_encode(str(k))}: {reference_emit(v, indent + 1)}' for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if any(isinstance(v, dict) for v in value):
            inner = ",\n".join(f"{pad}  {reference_emit(v, indent + 1)}" for v in value)
            return "[\n" + inner + "\n" + pad + "]"
        return "[" + ", ".join(reference_emit(v, indent) for v in value) + "]"
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return format_float(value)
    if kind is int:
        return str(value)
    if kind is str:
        return _encode(value)
    if value is None:
        return "null"
    return json.dumps(value)


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


def _short_dyadic(qh: float, qg: float) -> Fraction:
    """The dyadic j / 2**t, least t >= 0 then least j, in the middle half
    [qh + gap/4, qg - gap/4] of finite floats qh < qg, gap = qg - qh. The
    bounds are exact, so no float overflows; t stops once 2**t > 2 / gap."""
    lo, hi = (3 * Fraction(qh) + Fraction(qg)) / 4, (Fraction(qh) + 3 * Fraction(qg)) / 4
    t = 0   # j = ceil(lo * 2**t)
    while (j := -((-lo.numerator << t) // lo.denominator)) * hi.denominator > hi.numerator << t:
        t += 1
    return Fraction(j, 1 << t)


def scalar_algebraic_checks(k: int, m: int, n: int, s: int, quotient_coeffs) -> dict:
    """The checks of verify.point_checks but join_chain, at any point of ints
    (admissible or not), one scalar sign or identity at a time."""
    r = (k - 1) * s
    lo, hi = family_bracket(m, n, s, r)
    fam = family_char_coeffs(m, n, s, r)
    base = family_char_coeffs(m, n, 1, k - 1)
    d0, d1, d2 = difference_factor_coeffs(k, m, n, s)
    expected = (0, (s - 1) * d0, (s - 1) * d1, (s - 1) * d2, 0)
    diff = tuple(bc - fc for bc, fc in zip(base.coeffs, fam.coeffs))
    psi_hi = difference_factor(hi, k, m, n, s)
    psi_lo = difference_factor(lo, k, m, n, s)
    fn = upper_endpoint_quadratic(k, m, n)
    return {
        "coeff_identity": tuple(quotient_coeffs) == fam.coeffs,
        "difference_identity": diff == expected,
        "upper_endpoint_negative": psi_hi <= fn < 0,
        "lower_endpoint_identity": psi_lo == (k - 1) * lower_endpoint_quadratic(k, m, n, s),
        "lower_endpoint_negative": (
            psi_lo < 0
            and lower_endpoint_quadratic(k, m, n, 2) < 0
            and lower_endpoint_quadratic(k, m, n, m - 1) < 0
        ),
        "ordering": fam.evaluate(lo) < 0 < fam.evaluate(hi),
        "separation": fam == base if s == 1 else (
            diff == expected and d2 >= 0 and psi_lo < 0 and psi_hi < 0),
    }


def join_chain(p) -> list[BipartiteGraph]:
    """join(K_{s,r}, K_{m-s,n-r}) for r = 1..(k-1)s at ExtremalParams p, each
    from two fresh complete_bipartite graphs; the last is the family member."""
    return [join(complete_bipartite(p.s, r), complete_bipartite(p.m - p.s, p.n - r))
            for r in range(1, p.r + 1)]


def quotient(g: BipartiteGraph, blocks) -> tuple[tuple[tuple[Fraction, ...], ...], bool]:
    """(entries, equitable) of Q(G) = D + A over blocks of vertex indices (A
    is 0..m-1, B is m..m+n-1): entries[i][j] is the mean over block i of the
    row sums of Q's (i, j) block, and equitable says every such row sum equals
    that mean. The blocks are taken as given, with no validation."""
    blocks = [list(block) for block in blocks]
    nbrs = [row << g.m for row in g.adj] + list(g.b_adj())   # neighbours, global indices
    masks = [sum(1 << v for v in block) for block in blocks]
    sums = [[[(nbrs[v] & mask).bit_count() + (mask >> v & 1) * nbrs[v].bit_count() for mask in masks]
             for v in block] for block in blocks]
    entries = tuple(tuple(Fraction(sum(col), len(rows)) for col in zip(*rows)) for rows in sums)
    return entries, all(row == rows[0] for rows in sums for row in rows)


B_CLASS_CAP = 1 << 25   # b_class_up_set: at most 2**25 Q-matrix entries solved in all


def b_class_size(cols: tuple) -> int:
    """Labelled graphs in the class of an ascending column tuple: n!/prod(multiplicity!)."""
    runs = (len(list(run)) for _, run in itertools.groupby(cols))
    return math.factorial(len(cols)) // math.prod(map(math.factorial, runs))


def b_class_up_set(m: int, n: int, floor: float, cap: int = B_CLASS_CAP) -> list:
    """(class, q) for every B-relabelling class (ascending tuple of n columns,
    subsets of A) with q >= floor, by breadth-first search down from K_{m,n}.
    q never falls when an edge is added, so deleting one edge per distinct
    column of every member reaches them all. The whole search solves at most
    cap Q-matrix entries, (m + n)^2 per class: the class past that raises
    CapacityError before its level's matrices are built."""
    limit, solved = cap // (m + n) ** 2, 1
    level, found = [((1 << m) - 1,) * n], []
    while level:
        q = _radii(level, m, n).tolist()
        members = [(cols, x) for cols, x in zip(level, q) if x >= floor]
        found += members
        children = {}   # the next level, in insertion order
        for cols, _ in members:
            for i, c in enumerate(cols):
                if i and c == cols[i - 1]:
                    continue
                for a in iter_bits(c):
                    d = c & ~(1 << a)
                    j = bisect.bisect_right(cols, d, 0, i)
                    children[cols[:j] + (d,) + cols[j:i] + cols[i + 1:]] = None
                    if solved + len(children) > limit:
                        raise CapacityError(f"(m, n) = ({m}, {n}): the census would solve more "
                                            f"than {cap} Q-matrix entries")
        solved += len(children)
        level = list(children)
    return found
