"""Feasibility checkers, tree construction, and certificate validation."""

import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from qspan import (
    BipartiteGraph,
    CapacityError,
    DegreeDemand,
    InputError,
    TreeCertificate,
    complete_bipartite,
    construct_tree,
    extremal_graph,
    from_edge_list,
    is_violation,
    verify_certificate,
)
from qspan import trees
from qspan.graph_core import PART_SIZE_CAP, is_connected
from qspan.trees import find_violation_bruteforce, find_violation_flow

from oracles import (
    connected_graphs,
    per_anchor_first_violation,
    random_demand_instances,
    rebuilt_max_matching,
    sweep_anchor,
)


def demand(*values):
    return DegreeDemand(tuple(values))


class TestViolationPredicate:
    def test_extremal_vertex_zero(self):
        g = extremal_graph(3, 3, 7)
        f = DegreeDemand.uniform(3, 3)
        # A-vertex 0 has 2 neighbours but needs degree 3 rooted there:
        # |N(S)| <= sum (f(v)-1) over S fails for S={0}
        assert is_violation(g, f, [0])
        assert not is_violation(g, f, [1])
        assert not is_violation(g, f, [0, 1])

    def test_empty_set_never_violates(self):
        g = complete_bipartite(2, 3)
        assert not is_violation(g, DegreeDemand.uniform(2, 2), [])

    def test_rejects_bad_vertices(self):
        g = complete_bipartite(2, 3)
        with pytest.raises(InputError):
            is_violation(g, DegreeDemand.uniform(2, 2), [4])

    def test_rejects_repeated_vertex(self):
        # counted three times, A-vertex 0 would meet |N(S)| = 5 <= 3 * 3 - 3
        # on K_{2,5}, a graph with no violation at f = 3
        g, f = complete_bipartite(2, 5), DegreeDemand((3, 3))
        assert find_violation_bruteforce(g, f) is None
        with pytest.raises(InputError, match="A-vertex 0 repeated"):
            is_violation(g, f, [0, 0, 0])
        with pytest.raises(InputError, match="A-vertex 1 repeated"):
            is_violation(g, f, (1, 0, 1))

    @pytest.mark.parametrize("vertex", [0.0, 1.5, True, False, "0", None, np.bool_(True)])
    def test_rejects_non_integer_vertex(self, vertex):
        # a float used to end in a bare TypeError, and True counted as vertex 1
        g, f = complete_bipartite(2, 5), DegreeDemand((3, 3))
        with pytest.raises(InputError, match="is not an integer"):
            is_violation(g, f, [vertex])

    def test_numpy_integer_vertices(self):
        g, f = extremal_graph(3, 3, 7), DegreeDemand.uniform(3, 3)
        assert is_violation(g, f, [np.int64(0)])
        assert not is_violation(g, f, np.array([0, 1], dtype=np.int32))
        with pytest.raises(InputError, match="A-vertex 0 repeated"):
            is_violation(g, f, [np.int64(0), 0])


class TestCheckers:
    def test_complete_graph_feasible(self):
        g = complete_bipartite(3, 7)
        f = DegreeDemand.uniform(3, 3)
        assert find_violation_flow(g, f) is None
        assert find_violation_bruteforce(g, f) is None

    def test_extremal_graph_infeasible(self):
        g = extremal_graph(3, 3, 7)
        f = DegreeDemand.uniform(3, 3)
        v1 = find_violation_flow(g, f)
        v2 = find_violation_bruteforce(g, f)
        assert v1 is not None and v2 is not None
        assert is_violation(g, f, v1.vertices)
        assert is_violation(g, f, v2.vertices)
        # the brute-force checker reports the smallest violating set
        assert v2.vertices == (0,)

    def test_single_vertex_cases(self):
        g = from_edge_list(1, 2, [(0, 0), (0, 1)])
        assert find_violation_flow(g, demand(2)) is None
        g2 = from_edge_list(1, 2, [(0, 0)])
        v = find_violation_flow(g2, demand(2))
        assert v is not None and v.vertices == (0,)

    def test_demand_exceeding_degree(self):
        g = complete_bipartite(2, 3)
        v = find_violation_flow(g, demand(4, 2))
        assert v is not None
        assert is_violation(g, demand(4, 2), v.vertices)

    def test_combined_deficiency(self):
        # each vertex alone fine, the pair overloads the shared neighbourhood
        g = from_edge_list(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])
        f = demand(3, 3)
        assert is_violation(g, f, [0, 1])
        v = find_violation_flow(g, f)
        assert v is not None and v.vertices == (0, 1)

    def test_brute_force_capacity(self):
        g = complete_bipartite(26, 2)
        with pytest.raises(CapacityError):
            find_violation_bruteforce(g, DegreeDemand.uniform(26, 2))

    def test_family_s2_violation_is_left_block(self):
        # both join-left vertices see only the (k-1)s = 4 left B-vertices:
        # |N(S)| = 4 < 2*3 - 2 + 1
        from qspan import ExtremalParams, build_family

        g = build_family(ExtremalParams(3, 3, 7, 2))
        f = DegreeDemand.uniform(3, 3)
        v = find_violation_bruteforce(g, f)
        assert v is not None and v.vertices == (0, 1)

    def test_boundary_n_one_below_threshold(self):
        # n = (k-1)m exactly: uniform demand k fails with S = all of A
        g = complete_bipartite(3, 6)
        f = DegreeDemand.uniform(3, 3)
        v = find_violation_bruteforce(g, f)
        assert v is not None and v.vertices == (0, 1, 2)
        v_flow = find_violation_flow(g, f)
        assert v_flow is not None
        assert is_violation(g, f, v_flow.vertices)

    def test_demand_sum_exceeding_tree_edges(self):
        # sum f = 7 > m+n-1 = 6 is infeasible outright (S = A violates)
        g = complete_bipartite(2, 5)
        f = demand(3, 4)
        v = find_violation_bruteforce(g, f)
        assert v is not None
        assert find_violation_flow(g, f) is not None

    def test_equivalence_on_seeded_corpus(self):
        for g, f in random_demand_instances(400, seed=11):
            v_flow = find_violation_flow(g, f)
            v_brute = find_violation_bruteforce(g, f)
            assert (v_flow is None) == (v_brute is None)
            if v_flow is not None:
                assert is_violation(g, f, v_flow.vertices)
                assert is_violation(g, f, v_brute.vertices)

    def test_demand_length_mismatch(self):
        g = complete_bipartite(3, 3)
        with pytest.raises(InputError):
            find_violation_flow(g, demand(2, 2))


class TestVerifyCertificate:
    def setup_method(self):
        self.g = complete_bipartite(3, 7)
        self.f = DegreeDemand.uniform(3, 3)
        res = construct_tree(self.g, self.f)
        self.tree = res.tree

    def test_valid_certificate(self):
        assert verify_certificate(self.g, self.f, self.tree)

    def test_wrong_edge_count(self):
        assert not verify_certificate(
            self.g, self.f, TreeCertificate(self.tree.edges[:-1])
        )

    def test_non_edge_rejected(self):
        g2 = extremal_graph(3, 3, 7)  # vertex 0 misses B-vertices 2..6
        # a spanning tree of K(3,7) with every A-degree 3 that uses edge (0, 6)
        edges = ((0, 0), (0, 1), (0, 6), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5))
        tree = TreeCertificate(edges)
        assert verify_certificate(self.g, self.f, tree)
        assert not g2.has_edge(0, 6)
        assert not verify_certificate(g2, self.f, tree)

    def test_low_degree_rejected(self):
        # a star from one A-vertex spans but starves the others
        edges = [(0, b) for b in range(7)] + [(1, 0), (2, 0)]
        assert not verify_certificate(self.g, self.f, TreeCertificate(tuple(edges)))

    def test_cycle_rejected(self):
        # right edge count, contains a 4-cycle, leaves a vertex out
        edges = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 3), (2, 4), (2, 5)]
        assert not verify_certificate(self.g, self.f, TreeCertificate(tuple(edges)))

    def test_duplicate_edge_rejected(self):
        edges = list(self.tree.edges[:-1]) + [self.tree.edges[0]]
        assert not verify_certificate(self.g, self.f, TreeCertificate(tuple(edges)))

    @pytest.mark.parametrize("edges", [
        ((False, 0), (0, True)),    # would be the tree (0, 0), (0, 1) if bools counted
        ((0.0, 1), (0, 0)),
        ((0, 0, 1), (0, 1)),
        ((0,), (0, 1)),
        (0, (0, 1)),
        ([0, 0], (0, 1)),
        (("0", "1"), (0, 0)),
        ((np.int64(0), 0), (0, 1)),
    ])
    def test_malformed_edges_rejected(self, edges):
        # every edge must be a tuple of two ints, as construct_tree writes
        # them, or the answer is False; none of these raises
        g, f = complete_bipartite(1, 2), demand(2)
        assert not verify_certificate(g, f, TreeCertificate(edges))


def _spy_stall_repairs(monkeypatch):
    """Record the free B-vertex ending each stall repair, i.e. each
    alternating-path search that avoids the reached B-vertices."""
    ends = []
    real = trees._augment

    def spy(g, cap, held, owner, blocked=0, *starts):
        result = real(g, cap, held, owner, blocked, *starts)
        if blocked:
            ends.append(result[0])
        return result

    monkeypatch.setattr(trees, "_augment", spy)
    return ends


class TestConstructTree:
    def test_complete_graph(self):
        g = complete_bipartite(3, 7)
        f = DegreeDemand.uniform(3, 3)
        res = construct_tree(g, f)
        assert res.feasible
        assert res.violation is None
        assert verify_certificate(g, f, res.tree)
        assert list(res.tree.edges) == sorted(res.tree.edges)

    def test_extremal_graph(self):
        g = extremal_graph(3, 3, 7)
        f = DegreeDemand.uniform(3, 3)
        res = construct_tree(g, f)
        assert not res.feasible
        assert res.tree is None
        assert is_violation(g, f, res.violation.vertices)

    def test_tight_demand_total(self):
        # sum f = m + n - 1 forces every B-vertex to be a leaf
        g = complete_bipartite(2, 5)
        f = demand(3, 3)
        res = construct_tree(g, f)
        assert res.feasible
        assert verify_certificate(g, f, res.tree)

    def test_path_graph(self):
        g = from_edge_list(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
        res = construct_tree(g, demand(2, 2))
        assert res.feasible
        assert verify_certificate(g, demand(2, 2), res.tree)

    def test_disconnected_rejected(self):
        # (m, n, edges, demand, satisfies the condition): the first case is
        # refused by the breadth-first search of the infeasible branch, the
        # others by the tree growth
        cases = [
            (2, 2, [(0, 0), (1, 1)], (2, 2), False),
            (1, 3, [(0, 1), (0, 2)], (2,), True),      # isolated B0 is the root
            (1, 3, [(0, 0), (0, 1)], (2,), True),      # isolated B2 is never reached
            (2, 4, [(0, 0), (0, 1), (1, 2), (1, 3)], (2, 2), True),   # two feasible parts
        ]
        for m, n, edges, values, hall in cases:
            g = from_edge_list(m, n, edges)
            f = DegreeDemand(values)
            assert (find_violation_flow(g, f) is None) == hall
            with pytest.raises(InputError, match="construct_tree requires a connected graph"):
                construct_tree(g, f)

    def test_every_small_disconnected_graph_rejected(self):
        # all disconnected graphs with m <= 3, n <= 4 under every demand in {2, 3}^m
        pairs = hall = 0
        for m in range(1, 4):
            for n in range(1, 5):
                for rows in itertools.product(range(1 << n), repeat=m):
                    g = BipartiteGraph(m, n, rows)
                    if is_connected(g):
                        continue
                    for values in itertools.product((2, 3), repeat=m):
                        f = DegreeDemand(values)
                        hall += find_violation_flow(g, f) is None
                        with pytest.raises(InputError,
                                           match="construct_tree requires a connected graph"):
                            construct_tree(g, f)
                        pairs += 1
        assert (pairs, hall) == (22332, 75)

    def test_one_connectivity_pass_per_call(self, monkeypatch):
        # the feasible branch checks only the finished tree, the infeasible
        # branch only the input; a search over either one's rows is a
        # connectivity check, one over the matching's is the Hall search
        calls = []
        real = trees.reach
        monkeypatch.setattr(trees, "reach",
                            lambda start, a_rows, b_rows: calls.append(list(a_rows)) or real(start, a_rows, b_rows))
        f = DegreeDemand.uniform(3, 3)
        for g, feasible in ((complete_bipartite(3, 7), True), (extremal_graph(3, 3, 7), False)):
            calls.clear()
            res = construct_tree(g, f)
            assert res.feasible == feasible
            tree_rows = [sum(1 << b for x, b in res.tree.edges if x == a) for a in range(g.m)] if feasible else None
            checks = [rows for rows in calls if rows in (list(g.adj), tree_rows)]
            assert checks == [tree_rows if feasible else list(g.adj)]

    def test_demand_length_mismatch(self):
        g = complete_bipartite(3, 3)
        with pytest.raises(InputError):
            construct_tree(g, demand(2, 2))

    def test_stall_pays_holder_back_along_alternating_path(self, monkeypatch):
        # the matching gives A0 {B0}, A1 {B2}, A2 {B3, B4} and leaves B1, B5 free;
        # growth from B1 reaches A0, B0 and stalls, B2 moves under A0, and A1
        # takes B4 from A2, which takes the free B5
        g = BipartiteGraph(3, 6, (0b001111, 0b010100, 0b111000))
        f = demand(2, 2, 3)
        ends = _spy_stall_repairs(monkeypatch)
        res = construct_tree(g, f)
        assert ends == [5]
        assert res.feasible and verify_certificate(g, f, res.tree)
        assert (0, 2) in res.tree.edges and (1, 4) in res.tree.edges

    def test_many_stalls_on_small_tight_instances(self, monkeypatch):
        # stalls are rare on loose budgets; these draw dozens of them, some
        # with alternating paths of several steps
        ends = _spy_stall_repairs(monkeypatch)
        rng = random.Random(1)
        for _ in range(5000):
            m = rng.randint(2, 12)
            f = DegreeDemand(tuple(rng.choice((2, 2, 3, 4)) for _ in range(m)))
            n = f.total - m + 1 + rng.choice((0, 1, 2))
            g = BipartiteGraph(m, n, tuple(
                sum(1 << b for b in range(n) if rng.random() < 0.3) for _ in range(m)))
            if not is_connected(g):
                continue
            res = construct_tree(g, f)
            if res.feasible:
                assert verify_certificate(g, f, res.tree)
            else:
                assert is_violation(g, f, res.violation.vertices)
        assert len(ends) >= 20

    @pytest.mark.parametrize("n, edges, values, want", [
        # every demand 10**30: the whole of A is the minimal minimum cut
        (3, [(0, 0), (0, 1), (1, 1), (1, 2)], (10**30, 10**30), (0, 1)),
        # one huge demand at the end of a chain: the cut is {anchor 0, 2}
        (5, [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4)], (2, 2, 10**30), (0, 2)),
    ])
    def test_oversized_demand(self, n, edges, values, want):
        # the per-anchor shortfall is about 10**30; each anchor must stop
        # after the at most n augmenting paths that can exist
        g = from_edge_list(len(values), n, edges)
        f = DegreeDemand(values)
        res = construct_tree(g, f)
        assert not res.feasible
        assert res.violation.vertices == want
        assert find_violation_flow(g, f).vertices == want
        assert is_violation(g, f, want)

    def test_agreement_with_checker_on_corpus(self):
        feasible = infeasible = 0
        for g, f in random_demand_instances(400, seed=23):
            res = construct_tree(g, f)
            assert res.feasible == (find_violation_bruteforce(g, f) is None)
            if res.feasible:
                assert verify_certificate(g, f, res.tree)
                feasible += 1
            else:
                assert is_violation(g, f, res.violation.vertices)
                infeasible += 1
        # the corpus must exercise both verdicts
        assert feasible > 50 and infeasible > 50


def _max_flow_min_cut(cap, src, snk):
    """Edmonds-Karp on a dense capacity matrix: (flow value, residual source side)."""
    size = len(cap)
    cap = [row[:] for row in cap]
    flow = 0
    while True:
        prev = [None] * size
        prev[src] = src
        queue = [src]
        for u in queue:
            for v in range(size):
                if cap[u][v] > 0 and prev[v] is None:
                    prev[v] = u
                    queue.append(v)
        if prev[snk] is None:
            return flow, {v for v in range(size) if prev[v] is not None}
        path = [snk]
        while path[-1] != src:
            path.append(prev[path[-1]])
        push = min(cap[u][v] for v, u in zip(path, path[1:]))
        for v, u in zip(path, path[1:]):
            cap[u][v] -= push
            cap[v][u] += push
        flow += push


def _reference_violation(g, f):
    """The first anchor's minimum-cut source side, from a fresh network per anchor."""
    m, n = g.m, g.n
    target = sum(f[a] - 1 for a in range(m)) + 1
    snk = m + n + 1
    for anchor in range(m):
        cap = [[0] * (m + n + 2) for _ in range(m + n + 2)]
        for a in range(m):
            cap[0][1 + a] = target + n if a == anchor else f[a] - 1
            for b in range(n):
                if g.has_edge(a, b):
                    cap[1 + a][1 + m + b] = target + n
        for b in range(n):
            cap[1 + m + b][snk] = 1
        flow, side = _max_flow_min_cut(cap, 0, snk)
        if flow < target:
            return tuple(a for a in range(m) if 1 + a in side)
    return None


def _tight_instances(count, seed):
    """Tight budgets on larger graphs: m 12-24, n = sum f - m + 1 + slack."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(12, 24)
        f = DegreeDemand(tuple(rng.choice((2, 3, 4)) for _ in range(m)))
        n = f.total - m + 1 + rng.choice((0, 1, 2))
        yield _random_connected(rng, m, n, rng.choice((0.06, 0.12, 0.25))), f


class TestFlowCutSets:
    def test_sets_match_from_scratch_cuts(self):
        # one matching re-augmented per anchor yields the very sets that one
        # from-scratch max flow per anchor does, on small random instances
        # and on tight budgets with m up to 24
        def feasible(g, f):
            got = find_violation_flow(g, f)
            want = _reference_violation(g, f)
            assert (None if got is None else got.vertices) == want
            return want is None

        small = [feasible(g, f) for g, f in random_demand_instances(400, seed=31)]
        assert len(small) - sum(small) > 50
        tight = [feasible(g, f) for g, f in _tight_instances(30, seed=4)]
        assert 5 <= sum(tight) <= len(tight) - 5


def _random_connected(rng, m, n, p):
    """Random spanning tree on parts (m, n) plus each other edge with probability p."""
    adj = [0] * m
    adj[0] = 1
    placed_a, placed_b = [0], [0]
    rest = [(0, a) for a in range(1, m)] + [(1, b) for b in range(1, n)]
    rng.shuffle(rest)
    for side, v in rest:
        if side == 0:
            adj[v] |= 1 << rng.choice(placed_b)
            placed_a.append(v)
        else:
            adj[rng.choice(placed_a)] |= 1 << v
            placed_b.append(v)
    for a in range(m):
        for b in range(n):
            if rng.random() < p:
                adj[a] |= 1 << b
    return BipartiteGraph(m, n, tuple(adj))


class TestTightInstances:
    def test_tight_budgets_decide_with_witness(self):
        # sum f = m + n - 1 - slack leaves the tree almost no spare A-degree
        rng = random.Random(2)
        verdicts = []
        for slack in (0, 1, 2):
            for m in range(30, 41):
                f = DegreeDemand(tuple(rng.choice((2, 3, 4)) for _ in range(m)))
                n = f.total - m + 1 + slack
                g = _random_connected(rng, m, n, rng.choice((0.03, 0.06, 0.12)))
                res = construct_tree(g, f)
                if res.feasible:
                    assert verify_certificate(g, f, res.tree)
                else:
                    assert is_violation(g, f, res.violation.vertices)
                verdicts.append(res.feasible)
        assert 5 <= sum(verdicts) <= len(verdicts) - 5


def _witness_digest(instances):
    """SHA-256 over the verdict and witness of construct_tree on each instance."""
    h = hashlib.sha256()
    for g, f in instances:
        res = construct_tree(g, f)
        witness = res.tree.edges if res.feasible else res.violation.vertices
        h.update(repr((res.feasible, witness)).encode())
    return h.hexdigest()


class TestAnchorSweep:
    @pytest.mark.parametrize("g, searches, want", [
        (complete_bipartite(3, 7), 0, None),
        (extremal_graph(3, 3, 7), 1, (0,)),
    ])
    def test_searches_per_decision(self, monkeypatch, g, searches, want):
        # with every cap filled, one breadth-first search from the free
        # B-vertices stands in for the per-anchor searches: a feasible
        # instance runs none, an infeasible one a single failing search from
        # its first unreached anchor
        f = DegreeDemand.uniform(3, 3)
        cap = [2, 2, 2]
        held, owner = trees._max_matching(g, cap)
        calls = []
        real = trees._augment
        monkeypatch.setattr(trees, "_augment", lambda *args: calls.append(args) or real(*args))
        got = trees._first_violation(g, f, cap, held, owner, g.b_adj())
        assert len(calls) == searches
        assert (None if got is None else got.vertices) == want

    def test_anchor_matches_pass_sweep(self, monkeypatch):
        # on every instance whose matching fills every cap, the search is
        # lifted at the anchor the pass-based sweep picks, or nowhere
        lifted = []
        real = trees._augment
        monkeypatch.setattr(trees, "_augment",
                            lambda g, cap, *rest: lifted.append(list(cap)) or real(g, cap, *rest))
        census = ((g, DegreeDemand.uniform(3, 3))
                  for g in itertools.islice(connected_graphs(3, 7), 0, None, 20))
        anchors = []
        for g, f in itertools.chain(random_demand_instances(3000, seed=5), _tight_instances(30, seed=4), census):
            cap = [f[a] - 1 for a in range(g.m)]
            held, owner = trees._max_matching(g, cap)
            if sum(cap) + 1 - sum(h.bit_count() for h in held) != 1:
                continue
            lifted.clear()
            trees._first_violation(g, f, cap, held, owner, g.b_adj())
            got = next((a for a in range(g.m) if lifted[0][a] != cap[a]), None) if lifted else None
            assert got == sweep_anchor(g, held)
            anchors.append(got)
        assert len(anchors) > 10000 and anchors.count(None) < len(anchors) - 1000


class TestMaxMatching:
    def test_matches_rebuilt_starts(self, monkeypatch):
        # keeping the A-vertices below their caps in a list finds the very
        # paths that a search rebuilding them from all of A finds
        paths = []
        real = trees._augment

        def spy(*args):
            result = real(*args)
            if len(args) > 5 and result[0] is not None:
                paths.append(result[0])
            return result

        monkeypatch.setattr(trees, "_augment", spy)
        rng = random.Random(11)
        for _ in range(3000):
            m = rng.randint(1, 12)
            n, p = rng.randint(1, 3 * m), rng.choice((0.1, 0.2, 0.35))
            g = BipartiteGraph(m, n, tuple(sum(1 << b for b in range(n) if rng.random() < p) for _ in range(m)))
            cap = [rng.randint(0, 3) for _ in range(m)]
            assert trees._max_matching(g, cap) == rebuilt_max_matching(g, cap), (g, cap)
        assert len(paths) > 500


class TestLongPath:
    @pytest.mark.parametrize("decide, want", [
        (lambda g, f: construct_tree(g, f).feasible, True),
        (find_violation_flow, None),
    ], ids=["construct_tree", "find_violation_flow"])
    def test_decides_in_time(self, decide, want):
        # a_i ~ b_i, b_(i+1) at the largest part size: the Hall search must
        # not reach one A-vertex per pass over A
        m = PART_SIZE_CAP
        g = BipartiteGraph(m, m + 1, tuple(3 << a for a in range(m)))
        start = time.perf_counter()
        assert decide(g, DegreeDemand.uniform(m, 2)) == want
        assert time.perf_counter() - start < 5


class TestCutAndPhases:
    def test_matches_per_anchor_search(self):
        # on every instance that leaves a cap unfilled, the matching's cut and
        # the layered phases pick the very set that lifting each anchor on a
        # copy of the matching did, both when the first violating anchor is
        # min X and when an earlier one fails
        below = 0
        corpora = (random_demand_instances(3000, seed=5), random_demand_instances(3000, seed=6),
                   _tight_instances(30, seed=4))
        for g, f in itertools.chain(*corpora):
            cap = [f[a] - 1 for a in range(g.m)]
            held, owner = trees._max_matching(g, cap)
            if sum(cap) + 1 - sum(h.bit_count() for h in held) < 2:
                continue
            cut = trees._augment(g, cap, list(held), list(owner))[1]
            want = per_anchor_first_violation(g, f, cap, list(held), list(owner), g.b_adj())
            got = trees._first_violation(g, f, cap, held, owner, g.b_adj())
            assert got == want
            below += got.vertices[0] < cut[0]
        assert below >= 100


def _pool_family(k, p):
    """k A-vertices of demand 2 on a pool of p B-vertices, then one of demand
    p - k that sees pool vertex 0 only: the need is p - k - 1 and the
    violating set is {k}."""
    return (BipartiteGraph(k + 1, p, tuple([(1 << p) - 1] * k + [1])),
            DegreeDemand((2,) * k + (p - k,)))


def _gated_pool_family(k, p, extra=0):
    """_pool_family with the pool reached through one layer of matched
    A-vertices: the k anchors see p gate B-vertices, gate A-vertex j sees
    gate j and pool vertex j, and A-vertex k, of demand p - k + extra, sees
    pool vertex 0. Every anchor has p - k - 1 paths through the gates, so
    with extra = 1 the first anchor falls short, with the violating set
    0..k + 1 (the anchors, A-vertex k and the gate holding gate 0)."""
    gates = [1 << j | 1 << p + j for j in range(p)]
    return (BipartiteGraph(k + 1 + p, 2 * p, tuple([(1 << p) - 1] * k + [1 << p] + gates)),
            DegreeDemand((2,) * k + (p - k + extra,) + (2,) * p))


_POOLS = {
    "pool": (lambda: _pool_family(200, 2000), (200,)),
    "gated": (lambda: _gated_pool_family(50, 500), (50,)),
    "gated-wide": (lambda: _gated_pool_family(200, 2000), (200,)),
    "gated-short": (lambda: _gated_pool_family(50, 500, 1), tuple(range(52))),
}


class TestNeedTwoPool:
    @pytest.mark.parametrize("pool", list(_POOLS))
    @pytest.mark.parametrize("decide", [
        lambda g, f: construct_tree(g, f).violation,
        find_violation_flow,
    ], ids=["construct_tree", "find_violation_flow"])
    def test_decides_in_time(self, pool, decide):
        # the per-anchor search lifted each anchor and augmented up to the
        # shortfall from scratch: on a 2-vCPU Xeon it took 34 s on the pool
        # family, 106 s on the gated one and 2.3 s on the gated one whose
        # first anchor falls short
        build, want = _POOLS[pool]
        g, f = build()
        start = time.perf_counter()
        assert decide(g, f).vertices == want
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("pool, tested", [
        ("pool", [(0, None)]),
        ("gated-short", [(0, tuple(range(52)))]),
    ], ids=["pool", "gated-short"])
    def test_no_search_per_anchor(self, monkeypatch, pool, tested):
        # the cut's one failed search, at the unlifted caps, is the only
        # alternating search; each anchor below the cut is tested once unless
        # an earlier one with its row and cap passed (the pool's 200 anchors
        # share one row), and the first to fall short brings the witness
        build, want = _POOLS[pool]
        g, f = build()
        cap = [f[a] - 1 for a in range(g.m)]
        held, owner = trees._max_matching(g, cap)
        searches, lifts = [], []
        real_augment, real_lift = trees._augment, trees._lift

        def lift(*args):
            lifts.append((args[4], real_lift(*args)))
            return lifts[-1][1]

        monkeypatch.setattr(trees, "_augment", lambda *args: searches.append(list(args[1])) or real_augment(*args))
        monkeypatch.setattr(trees, "_lift", lift)
        assert trees._first_violation(g, f, cap, held, owner, g.b_adj()).vertices == want
        assert searches == [cap]
        assert [(a, None if r is None else tuple(sorted(r))) for a, r in lifts] == tested


_WITNESS_DIGESTS = {
    "random": "286bb961b0ad9302559356fc3b7dab39b9cc2e1136cca8e95f76eb2b2bb7fd65",
    "tight": "303a7694344ba858c77b6666e127f8166ae83a507bb05a82c0fd853fc5ae3d6c",
    "census": "f65d03510cea150d0770b8f35ee03c8bd7a20e7e100ee37439e957f00a521be5",
}


class TestWitnessPin:
    @pytest.mark.parametrize("corpus", list(_WITNESS_DIGESTS))
    def test_witnesses_unchanged(self, corpus):
        # verdicts and witnesses are pinned, not only checked: a faster
        # decider must pick the very same violating set and grow the very
        # same tree
        instances = {
            "random": lambda: random_demand_instances(3000, seed=5),
            "tight": lambda: _tight_instances(30, seed=4),
            "census": lambda: ((g, DegreeDemand.uniform(3, 3))
                               for g in itertools.islice(connected_graphs(3, 7), 0, None, 20)),
        }[corpus]()
        assert _witness_digest(instances) == _WITNESS_DIGESTS[corpus]
