"""Feasibility checkers, tree construction, and certificate validation."""

import random

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
    find_violation_bruteforce,
    find_violation_flow,
    from_edge_list,
    is_connected,
    is_violation,
    verify_certificate,
)
from qspan import trees
from qspan.verify import random_demand_instances


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
        g = from_edge_list(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(InputError):
            construct_tree(g, DegreeDemand.uniform(2, 2))

    def test_demand_length_mismatch(self):
        g = complete_bipartite(3, 3)
        with pytest.raises(InputError):
            construct_tree(g, demand(2, 2))

    def test_stall_pays_holder_back_along_alternating_path(self, monkeypatch):
        # the flow gives A0 {B0}, A1 {B2}, A2 {B3, B4} and leaves B1, B5 free;
        # growth from B1 reaches A0, B0 and stalls, B2 moves under A0, and A1
        # takes B4 from A2, which takes the free B5
        g = BipartiteGraph(3, 6, (0b001111, 0b010100, 0b111000))
        f = demand(2, 2, 3)
        ends = []
        real = trees._reroute

        def spy(*args):
            ends.append(real(*args))
            return ends[-1]

        monkeypatch.setattr(trees, "_reroute", spy)
        res = construct_tree(g, f)
        assert ends == [5]
        assert res.feasible and verify_certificate(g, f, res.tree)
        assert (0, 2) in res.tree.edges and (1, 4) in res.tree.edges

    def test_many_stalls_on_small_tight_instances(self, monkeypatch):
        # stalls are rare on loose budgets; these draw dozens of them, some
        # with alternating paths of several steps
        ends = []
        real = trees._reroute

        def spy(*args):
            ends.append(real(*args))
            return ends[-1]

        monkeypatch.setattr(trees, "_reroute", spy)
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


class TestFlowCutSets:
    def test_sets_match_from_scratch_cuts(self):
        # one network re-solved per anchor yields the very sets that one
        # from-scratch max flow per anchor does
        infeasible = 0
        for g, f in random_demand_instances(400, seed=31):
            got = find_violation_flow(g, f)
            want = _reference_violation(g, f)
            assert (None if got is None else got.vertices) == want
            infeasible += want is not None
        assert infeasible > 50


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
