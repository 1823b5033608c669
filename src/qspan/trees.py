"""Degree-demanded spanning trees: deciders, witnesses, and verification.

The question answered here: does a connected bipartite graph contain a
spanning tree whose A-side degrees meet per-vertex lower bounds f(v) >= 2?
By the Frank-Gyarfas / Kaneko-Yoshimoto condition it does iff
|N(S)| >= sum_{v in S} (f(v) - 1) + 1 for every nonempty S inside A. A
b-matching giving each A-vertex v at most f(v) - 1 private B-vertices is
built by alternating-path search (Kuhn; Hopcroft and Karp, SIAM J. Comput.
1973). One breadth-first search from the free B-vertices, or the matching's
cut and layered phases below it when a cap is left unfilled, then confirms
the condition or extracts a violating subset; when it holds, the tree grown
from the matching is repaired. The answer always carries a checkable
witness, either a spanning tree meeting the demands or a subset S of A with
|N(S)| <= sum f(v) - |S|, and both witness kinds are re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools

from .errors import CapacityError, InputError, InternalError
from .graph_core import BipartiteGraph, DegreeDemand, as_index, iter_bits, reach

BRUTE_FORCE_CAP = 25       # 2**m subset enumeration cap


@dataclass(frozen=True)
class TreeCertificate:
    """Spanning tree given as (a, b) index pairs, one per edge."""

    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class HallViolation:
    """Nonempty A-subset whose neighborhood is too small for its demands."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("violating set must be nonempty")


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of construct_tree: exactly one of tree / violation is set."""

    feasible: bool
    tree: TreeCertificate | None = None
    violation: HallViolation | None = None

    def __post_init__(self):
        if self.feasible != (self.tree is not None) or self.feasible == (self.violation is not None):
            raise InputError("result must carry exactly the witness matching its verdict")


def _check_demand_length(g: BipartiteGraph, f: DegreeDemand):
    if len(f) != g.m:
        raise InputError(f"demand vector has length {len(f)}, expected m={g.m}")


def is_violation(g: BipartiteGraph, f: DegreeDemand, vertices) -> bool:
    """True iff the subset refutes the spanning-tree condition:
    |N(S)| <= sum_{v in S} f(v) - |S| for nonempty S. S is a set of A-vertices,
    so a repeated, out-of-range, bool or non-integer one is an InputError."""
    _check_demand_length(g, f)
    vertices = tuple(vertices)
    if not vertices:
        return False
    mask = seen = demand = 0
    for a in vertices:
        a = as_index(a, "A-vertex")
        if not (0 <= a < g.m):
            raise InputError(f"A-vertex {a} out of range [0, {g.m})")
        if seen >> a & 1:
            raise InputError(f"A-vertex {a} repeated")
        seen |= 1 << a
        mask |= g.adj[a]
        demand += f[a]
    return mask.bit_count() <= demand - len(vertices)


def find_violation_bruteforce(g: BipartiteGraph, f: DegreeDemand) -> HallViolation | None:
    """Scan all nonempty subsets of A for a violation.

    Returns a violating subset of minimum size, ties broken by smallest
    index tuple (combinations enumerate in exactly that order), or None when
    the condition holds everywhere.
    """
    _check_demand_length(g, f)
    if g.m > BRUTE_FORCE_CAP:
        raise CapacityError(f"m={g.m} exceeds brute force cap {BRUTE_FORCE_CAP}")
    for size in range(1, g.m + 1):
        for combo in itertools.combinations(range(g.m), size):
            mask = 0
            demand = 0
            for a in combo:
                mask |= g.adj[a]
                demand += f[a]
            if mask.bit_count() <= demand - size:
                return HallViolation(combo)
    return None


def _augment(g: BipartiteGraph, cap: list[int], held: list[int], owner: list[int],
             blocked: int = 0, starts=None) -> tuple[int | None, tuple[int, ...]]:
    """One alternating-path search on the b-matching held / owner.

    held[a] is the bitmask of B-vertices matched to A-vertex a, at most
    cap[a] of them; owner[b] is the A-vertex b is matched to, or -1 when b
    is free. The breadth-first search starts at once from every A-vertex
    below its cap, in index order, and never enters a B-vertex in blocked:
    an A-vertex takes a neighbour it does not hold, whose holder takes
    another, until a free B-vertex ends the path. The matching is then
    shifted along the path, which gives its start one more B-vertex, and
    (that free B-vertex, ()) is returned. A caller may keep the A-vertices
    below their caps in the list starts, in index order; the start leaves it
    once its cap is full. When no path exists the result is
    (None, the A-vertices explored): the A-part of the residual source side
    of the matching's flow network, that is, its unique minimal minimum cut.
    """
    came = dict.fromkeys([a for a in range(g.m) if held[a].bit_count() < cap[a]] if starts is None else starts)
    queue = list(came)
    for a in queue:
        out = g.adj[a] & ~held[a] & ~blocked
        while out:
            low = out & -out
            out ^= low
            b = low.bit_length() - 1
            holder = owner[b]
            if holder < 0:
                end = b
                while True:
                    held[a] |= 1 << b
                    owner[b] = a
                    if came[a] is None:
                        if starts is not None and held[a].bit_count() == cap[a]:
                            starts.remove(a)
                        return end, ()
                    prev, b_prev = came[a]
                    held[a] &= ~(1 << b_prev)
                    a, b = prev, b_prev
            if holder not in came:
                came[holder] = (a, b)
                queue.append(holder)
    return None, tuple(sorted(came))


def _max_matching(g: BipartiteGraph, cap: list[int]) -> tuple[list[int], list[int]]:
    """Maximum b-matching (held, owner) giving A-vertex a at most cap[a] B-vertices.

    Each A-vertex in index order first takes its lowest-index free
    neighbours; augmenting paths then run until none is left, each search
    from the list of A-vertices still below their caps, in index order.
    """
    held, owner = [0] * g.m, [-1] * g.n
    taken, deficient = 0, []
    for a, row in enumerate(g.adj):
        room, free = cap[a], row & ~taken
        while room and free:
            low = free & -free
            free ^= low
            held[a] |= low
            owner[low.bit_length() - 1] = a
            room -= 1
        taken |= held[a]
        if room:
            deficient.append(a)
    while deficient and _augment(g, cap, held, owner, 0, deficient)[0] is not None:
        pass
    return held, owner


def _lift(g: BipartiteGraph, held: list[int], owner: list[int], free: int, anchor: int,
          need: int, cut: tuple[int, ...]) -> tuple[int, ...] | None:
    """None iff anchor can take need more B-vertices on alternating paths that
    avoid the A-vertices in cut, else cut and the A-vertices the last search
    reached. The anchor takes its free neighbours; then layered phases
    (Hopcroft and Karp) on a copy of held / owner each level the A-vertices
    from the anchor alone up to the first level that sees a free B-vertex,
    and shift the matching along a maximal set of those shortest paths."""
    ends = g.adj[anchor] & free
    if ends.bit_count() >= need:
        return None
    held, owner, need, free = list(held), list(owner), need - ends.bit_count(), free ^ ends
    held[anchor] |= ends
    for b in iter_bits(ends):
        owner[b] = anchor
    while True:
        level, arcs, layer, depth = {**dict.fromkeys(cut, -1), anchor: 0}, {}, [anchor], 0
        while layer:
            outs = [g.adj[u] ^ held[u] for u in layer]
            if any(out & free for out in outs):
                break
            below, depth = [], depth + 1
            for u, out in zip(layer, outs):
                arcs[u] = []
                for b in iter_bits(out):
                    if owner[b] not in level:
                        level[owner[b]] = depth
                        below.append(owner[b])
                    if level[owner[b]] == depth:
                        arcs[u].append(b)
            layer = below
        if not layer:
            return tuple(level)
        arcs.update(zip(layer, outs))   # the last level keeps a mask: its free B-vertices end paths
        path, via = [anchor], []
        while path:
            u = path[-1]
            b = (arcs[u] & free).bit_length() - 1 if level[u] == depth else arcs[u].pop() if arcs[u] else -1
            if b < 0:
                path.pop()
                del via[-1:]
            elif level[u] == depth:
                given = 0
                for u, b in zip(path, via + [b]):   # u gains b and gives up the one before
                    held[u] ^= 1 << b | given
                    owner[b] = u
                    given = 1 << b
                need -= 1
                if not need:
                    return None
                free ^= given
                path, via = [anchor], []
            elif level.get(owner[b]) == level[u] + 1:   # else a path of this phase took b
                path.append(owner[b])
                via.append(b)


def _first_violation(g: BipartiteGraph, f: DegreeDemand, cap: list[int], held: list[int],
                     owner: list[int], b_rows) -> HallViolation | None:
    """Violating set of the first anchor, in index order, that lies in one.

    cap[a] = f(a) - 1 and held / owner is a maximum b-matching for it, with
    need = sum cap + 1 - its size. Subsets S containing an anchor all satisfy
    the condition iff the matching can grow by need once the anchor's cap is
    lifted by need; when it cannot, the failed search explores the least set
    containing the anchor of largest deficiency sum_S cap - |N(S)|.

    need = 1 leaves every cap filled, so an anchor passes iff it has an
    alternating path to a free B-vertex. One breadth-first search from the
    free B-vertices finds those anchors (reach with b_rows = g.b_adj(): a
    B-vertex reaches its A-neighbours, an A-vertex its matched B-vertices),
    and only the lowest unreached anchor is then searched.

    need >= 2: the search from the under-cap A-vertices fails at once with X,
    the least set of largest deficiency (Ore); X holds N(X) and has no
    augmenting path. Deficiency is supermodular, so X is min X's witness and
    lies in every anchor's. Each anchor below min X is tested by layered
    phases that never enter X (_lift); the first to fall short gets X and
    what its last phase reached, the explored set of the full lifted search.
    """
    need = sum(cap) + 1 - sum(h.bit_count() for h in held)
    free = (1 << g.n) - 1 & ~sum(held)   # held sets are disjoint
    if need == 1:
        unreached = (1 << g.m) - 1 & ~reach(free, held, b_rows)[0]
        if not unreached:
            return None
        anchor = (unreached & -unreached).bit_length() - 1
        lifted = list(cap)
        lifted[anchor] += 1
        subset = _augment(g, lifted, list(held), list(owner))[1]
    else:
        cut = _augment(g, cap, held, owner)[1]
        first = {}   # (row, cap) -> its first anchor; the others pass with it
        for a in range(cut[0]):
            first.setdefault((g.adj[a], cap[a]), a)
        tested = ((a, _lift(g, held, owner, free, a, need, cut)) for a in first.values())
        anchor, reached = next(((a, r) for a, r in tested if r), (cut[0], cut))
        subset = tuple(sorted(reached))
    if anchor not in subset or not is_violation(g, f, subset):
        raise InternalError("alternating search gave no genuine violating subset")
    return HallViolation(subset)


def find_violation_flow(g: BipartiteGraph, f: DegreeDemand) -> HallViolation | None:
    """Polynomial-time violation search on one maximum b-matching.

    The matching gives each A-vertex a at most f(a)-1 B-vertices; then one
    breadth-first search from its free B-vertices, or its cut and layered
    phases below it, finds the anchors in violating subsets (see
    _first_violation). The returned set is the A-part of the minimal
    minimum cut for the first such anchor; None when the condition holds
    everywhere.
    """
    _check_demand_length(g, f)
    cap = [f[a] - 1 for a in range(g.m)]
    return _first_violation(g, f, cap, *_max_matching(g, cap), g.b_adj())


def verify_certificate(g: BipartiteGraph, f: DegreeDemand, cert: TreeCertificate) -> bool:
    """True iff cert is a spanning tree of g meeting every A-side demand. An
    edge that is not a tuple of two in-range ints (not bools) makes it False.
    The tree's rows and columns are filled as the edges are checked, and one
    breadth-first search over them (reach) decides connectivity."""
    _check_demand_length(g, f)
    edges = cert.edges
    if len(edges) != g.m + g.n - 1:
        return False
    rows, cols = [0] * g.m, [0] * g.n
    for edge in edges:
        a, b = edge if type(edge) is tuple and len(edge) == 2 else (None, None)
        if type(a) is not int or type(b) is not int:
            return False
        if not (0 <= a < g.m and 0 <= b < g.n) or not g.adj[a] >> b & 1 or rows[a] >> b & 1:
            return False
        rows[a] |= 1 << b
        cols[b] |= 1 << a
    if any(rows[a].bit_count() < f[a] for a in range(g.m)):
        return False
    # connected + exactly m+n-1 distinct edges == tree
    return reach(rows[0], rows, cols) == ((1 << g.m) - 1, (1 << g.n) - 1)


# --- constructor internals ---------------------------------------------------


def _grow_tree(g: BipartiteGraph, cap: list[int], held: list[int],
               owner: list[int], b_rows) -> list[tuple[int, int]]:
    """Spanning tree in which every A-vertex parents its matched B-vertices.

    held / owner is a maximum b-matching for cap that fills every cap; it
    is consumed by the stall repairs. Growth returns once every vertex is
    reached and raises InputError when g is disconnected. b_rows is g.b_adj().
    """
    free = (1 << g.n) - 1 & ~sum(held)   # held sets are disjoint
    root = (free & -free).bit_length() - 1
    edges = []
    reached_a, reached_b = 0, 1 << root
    grow_a, grow_b = [], [root]
    while True:
        while grow_a or grow_b:
            if grow_a:
                a = grow_a.pop()
                kids = (held[a] | g.adj[a] & free) & ~reached_b
                reached_b |= kids
                while kids:
                    low = kids & -kids
                    kids ^= low
                    b = low.bit_length() - 1
                    edges.append((a, b))
                    grow_b.append(b)
            else:
                b = grow_b.pop()
                kids = b_rows[b] & ~reached_a
                reached_a |= kids
                while kids:
                    low = kids & -kids
                    kids ^= low
                    a = low.bit_length() - 1
                    edges.append((a, b))
                    grow_a.append(a)
        if reached_a == (1 << g.m) - 1 and reached_b == (1 << g.n) - 1:
            return edges
        # stalled: a reached x sees an unreached u, which is held by an
        # unreached A-vertex; hang u under x and pay its holder back along
        # an alternating path outside the tree; with no such x the reached
        # vertices are a component short of the whole graph
        x = next((a for a in iter_bits(reached_a) if g.adj[a] & ~reached_b), None)
        if x is None:
            raise InputError("construct_tree requires a connected graph")
        u = next(iter_bits(g.adj[x] & ~reached_b))
        held[owner[u]] &= ~(1 << u)
        reached_b |= 1 << u
        edges.append((x, u))
        grow_b.append(u)
        end, _ = _augment(g, cap, held, owner, reached_b)
        if end is None:
            raise InternalError("no alternating path although the Hall condition holds")
        free &= ~(1 << end)


def construct_tree(g: BipartiteGraph, f: DegreeDemand) -> FeasibilityResult:
    """Decide feasibility and produce a verified witness either way.

    One maximum b-matching, giving each A-vertex a at most f(a)-1 private
    B-vertices, settles the verdict (see find_violation_flow); a cap it
    leaves unfilled means a violation. When no set violates the
    condition the matching fills every cap, and the condition at S = A
    leaves at least one B-vertex free. The tree is rooted at a free B-vertex
    and grown outward: a reached A-vertex takes its matched and its free
    unreached neighbours as children, a reached B-vertex takes its unreached
    A-neighbours. Every A-vertex then has its parent plus f(a)-1 children.
    When growth stalls with A-vertices left, some reached x sees an
    unreached u held by an unreached a1; u moves under x and a1 takes a
    replacement along an alternating path that avoids the reached B-vertices
    (the same search that built the matching). Such a path exists: otherwise
    the A-vertices X the search explores would see only u and the sum_X
    (f-1) - 1 B-vertices they still hold (a stall leaves no reached B-vertex
    next to an unreached A-vertex), so |N(X)| <= sum_X (f-1), a violation.
    Each stall reaches at least one more A-vertex, so there are at most m of
    them, each one O(|E|) search; no caps and no fallbacks.

    A disconnected graph raises InputError. The growth decides that on the
    feasible branch: it stalls with no reached A-vertex next to an unreached
    B-vertex. The infeasible branch grows no tree, so one breadth-first
    search (reach) from A-vertex 0 decides it there. g.b_adj() is built once
    and shared by the Hall search, the growth and that check.
    """
    _check_demand_length(g, f)
    cap = [f[a] - 1 for a in range(g.m)]
    b_rows = g.b_adj()
    held, owner = _max_matching(g, cap)
    violation = _first_violation(g, f, cap, held, owner, b_rows)
    if violation is not None:
        if reach(g.adj[0], g.adj, b_rows) != ((1 << g.m) - 1, (1 << g.n) - 1):
            raise InputError("construct_tree requires a connected graph")
        return FeasibilityResult(False, violation=violation)
    cert = TreeCertificate(tuple(sorted(_grow_tree(g, cap, held, owner, b_rows))))
    if not verify_certificate(g, f, cert):
        raise InternalError("constructed tree failed certificate verification")
    return FeasibilityResult(True, tree=cert)
