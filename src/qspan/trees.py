"""Degree-demanded spanning trees: deciders, witnesses, and verification.

The question answered here: does a connected bipartite graph contain a
spanning tree whose A-side degrees meet per-vertex lower bounds f(v) >= 2?
By the Frank-Gyarfas / Kaneko-Yoshimoto condition it does iff
|N(S)| >= sum_{v in S} (f(v) - 1) + 1 for every nonempty S inside A. One
flow network decides that condition, extracts a violating subset when it
fails, and supplies the matching the tree is grown from when it holds. The
answer is always accompanied by a checkable witness, either a spanning tree
meeting the demands or a subset S of A with |N(S)| <= sum f(v) - |S|, and
both witness kinds are re-verified before being returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
import itertools

from .errors import CapacityError, InputError, InternalError
from .graph_core import BipartiteGraph, DegreeDemand, from_edge_list, is_connected, iter_bits

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
    |N(S)| <= sum_{v in S} f(v) - |S| for nonempty S."""
    _check_demand_length(g, f)
    vertices = tuple(vertices)
    if not vertices:
        return False
    mask = 0
    demand = 0
    for a in vertices:
        if not (0 <= a < g.m):
            raise InputError(f"A-vertex {a} out of range [0, {g.m})")
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


class _FlowNet:
    """Tiny max-flow network with paired forward/backward edges."""

    def __init__(self, nodes: int):
        self.out = [[] for _ in range(nodes)]
        self.to = []
        self.cap = []

    def add(self, u: int, v: int, cap: int):
        self.out[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.out[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, src: int, snk: int) -> int:
        total = 0
        while True:
            prev_edge = [-1] * len(self.out)
            prev_edge[src] = -2
            queue = deque([src])
            while queue and prev_edge[snk] == -1:
                u = queue.popleft()
                for e in self.out[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and prev_edge[v] == -1:
                        prev_edge[v] = e
                        queue.append(v)
            if prev_edge[snk] == -1:
                return total
            bottleneck = None
            v = snk
            while v != src:
                e = prev_edge[v]
                bottleneck = self.cap[e] if bottleneck is None else min(bottleneck, self.cap[e])
                v = self.to[e ^ 1]
            v = snk
            while v != src:
                e = prev_edge[v]
                self.cap[e] -= bottleneck
                self.cap[e ^ 1] += bottleneck
                v = self.to[e ^ 1]
            total += bottleneck

    def source_side(self, src: int) -> set[int]:
        seen = {src}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for e in self.out[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _hall_network(g: BipartiteGraph, f: DegreeDemand) -> tuple[_FlowNet, int]:
    """Build the Hall network and run one max flow on it.

    Nodes: source 0, A-vertex a at 1+a, B-vertex b at 1+m+b, sink m+n+1.
    The source arc of a (arc index 2a) has capacity f(a)-1, every edge ab
    is an arc a->b too wide to cut, and each B-vertex forwards at most one
    unit to the sink. A saturated arc a->b assigns b to a: that matching
    gives each A-vertex up to f(a)-1 private B-vertices.
    """
    m, n = g.m, g.n
    wide = sum(f[a] - 1 for a in range(m)) + n + 1
    net = _FlowNet(m + n + 2)
    for a in range(m):
        net.add(0, 1 + a, f[a] - 1)
    for a in range(m):
        for b in iter_bits(g.adj[a]):
            net.add(1 + a, 1 + m + b, wide)
    for b in range(n):
        net.add(1 + m + b, m + n + 1, 1)
    return net, net.max_flow(0, m + n + 1)


def _first_violation(g: BipartiteGraph, f: DegreeDemand, net: _FlowNet,
                     base: int) -> HallViolation | None:
    """Violating set of the first anchor, in index order, that lies in one.

    Subsets S containing the anchor all satisfy the condition iff the flow
    can reach target = sum_v (f(v)-1) + 1 once the anchor's source arc may
    not be cut. Widening that arc by target - base is enough: a cut through
    it then costs at least target, and every other cut keeps its value. So
    each anchor re-solves a copy of the base residual network, and when it
    falls short the residual source side, the unique minimal minimum cut,
    meets A in a violating subset containing the anchor.
    """
    m, n = g.m, g.n
    target = sum(f[a] - 1 for a in range(m)) + 1
    base_cap = net.cap
    for anchor in range(m):
        net.cap = list(base_cap)
        net.cap[2 * anchor] += target - base
        if base + net.max_flow(0, m + n + 1) >= target:
            continue
        side = net.source_side(0)
        subset = tuple(a for a in range(m) if 1 + a in side)
        if anchor not in subset or not is_violation(g, f, subset):
            raise InternalError("flow cut did not yield a genuine violating subset")
        return HallViolation(subset)
    net.cap = base_cap
    return None


def find_violation_flow(g: BipartiteGraph, f: DegreeDemand) -> HallViolation | None:
    """Polynomial-time violation search on one Hall network.

    One max flow, then for each anchor vertex a few augmenting paths on a
    copy of its residual network (see _first_violation). The returned set
    is the A-part of the minimal minimum cut for the first anchor that lies
    in a violating subset; None when the condition holds everywhere.
    """
    _check_demand_length(g, f)
    return _first_violation(g, f, *_hall_network(g, f))


def verify_certificate(g: BipartiteGraph, f: DegreeDemand, cert: TreeCertificate) -> bool:
    """True iff cert is a spanning tree of g meeting every A-side demand."""
    _check_demand_length(g, f)
    edges = cert.edges
    if len(edges) != g.m + g.n - 1 or len(set(edges)) != len(edges):
        return False
    deg_a = [0] * g.m
    for a, b in edges:
        if not (0 <= a < g.m and 0 <= b < g.n) or not g.has_edge(a, b):
            return False
        deg_a[a] += 1
    if any(deg_a[a] < f[a] for a in range(g.m)):
        return False
    # connected + exactly m+n-1 edges == tree
    return is_connected(from_edge_list(g.m, g.n, edges))


# --- constructor internals ---------------------------------------------------


def _reroute(g: BipartiteGraph, start: int, held: list[int], owner: list[int],
             reached_b: int) -> int:
    """Give A-vertex start one more private B-vertex outside the tree.

    Breadth-first search over alternating paths among unreached vertices:
    start takes an unreached neighbour, whose holder takes another, until a
    free B-vertex ends the path; the matching is then shifted along it.
    Returns that free B-vertex. Raises InternalError when no path exists,
    which the Hall condition rules out (see construct_tree).
    """
    came = {start: None}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        for b in iter_bits(g.adj[a] & ~held[a] & ~reached_b):
            holder = owner[b]
            if holder < 0:
                end = b
                while True:
                    held[a] |= 1 << b
                    owner[b] = a
                    if came[a] is None:
                        return end
                    prev, b_prev = came[a]
                    held[a] &= ~(1 << b_prev)
                    a, b = prev, b_prev
            if holder not in came:
                came[holder] = (a, b)
                queue.append(holder)
    raise InternalError("no alternating path although the Hall condition holds")


def _grow_tree(g: BipartiteGraph, owner: list[int]) -> list[tuple[int, int]]:
    """Spanning tree in which every A-vertex parents its matched B-vertices.

    owner[b] is the A-vertex b is matched to, or -1 when b is free.
    """
    m = g.m
    b_rows = g.b_adj()
    held = [0] * m
    free = 0
    for b, a in enumerate(owner):
        if a < 0:
            free |= 1 << b
        else:
            held[a] |= 1 << b
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
                for b in iter_bits(kids):
                    edges.append((a, b))
                    grow_b.append(b)
            else:
                b = grow_b.pop()
                kids = b_rows[b] & ~reached_a
                reached_a |= kids
                for a in iter_bits(kids):
                    edges.append((a, b))
                    grow_a.append(a)
        if reached_a == (1 << m) - 1:
            return edges
        # stalled: a reached x sees an unreached u, which is held by an
        # unreached A-vertex; hang u under x and pay its holder back
        x = next(a for a in iter_bits(reached_a) if g.adj[a] & ~reached_b)
        u = next(iter_bits(g.adj[x] & ~reached_b))
        a1 = owner[u]
        held[a1] &= ~(1 << u)
        reached_b |= 1 << u
        edges.append((x, u))
        grow_b.append(u)
        free &= ~(1 << _reroute(g, a1, held, owner, reached_b))


def construct_tree(g: BipartiteGraph, f: DegreeDemand) -> FeasibilityResult:
    """Decide feasibility and produce a verified witness either way.

    One Hall network settles the verdict (see find_violation_flow). When
    no set violates the condition, the network's max flow is sum (f(a)-1)
    and assigns each A-vertex f(a)-1 private B-vertices; the condition at
    S = A leaves at least one B-vertex free. The tree is rooted at a free
    B-vertex and grown outward: a reached A-vertex takes its matched and
    its free unreached neighbours as children, a reached B-vertex takes its
    unreached A-neighbours. Every A-vertex then has its parent plus f(a)-1
    children. When growth stalls with A-vertices left, some reached x sees
    an unreached u held by an unreached a1; u moves under x and a1 takes a
    replacement along an alternating path inside the unreached part. Such
    a path exists: otherwise the A-vertices X the search explores would see
    only u and the sum_X (f-1) - 1 B-vertices they still hold (a stall
    leaves no reached B-vertex next to an unreached A-vertex), so
    |N(X)| <= sum_X (f-1), a violation. Each stall reaches at least one
    more A-vertex, so there are at most m of them, each one O(|E|) search;
    no caps and no fallbacks.
    """
    _check_demand_length(g, f)
    if not is_connected(g):
        raise InputError("construct_tree requires a connected graph")
    net, base = _hall_network(g, f)
    violation = _first_violation(g, f, net, base)
    if violation is not None:
        return FeasibilityResult(False, violation=violation)
    m, n = g.m, g.n
    owner = [-1] * n
    for b in range(n):
        for e in net.out[1 + m + b]:
            if e & 1 and net.cap[e] > 0:  # residual of a reverse arc = flow on a->b
                owner[b] = net.to[e] - 1
    cert = TreeCertificate(tuple(sorted(_grow_tree(g, owner))))
    if not verify_certificate(g, f, cert):
        raise InternalError("constructed tree failed certificate verification")
    return FeasibilityResult(True, tree=cert)
