"""Bipartite graph container, join operation, and file round trips."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspan import (
    BipartiteGraph,
    DegreeDemand,
    InputError,
    complete_bipartite,
    format_graph,
    from_edge_list,
    is_connected,
    join,
    parse_demands,
    parse_graph,
    to_edge_list,
)
from qspan.graph_core import PART_SIZE_CAP

from oracles import part_preserving_isomorphic


def small_graphs(max_m=4, max_n=5):
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: st.lists(
                st.integers(0, (1 << n) - 1), min_size=m, max_size=m
            ).map(lambda adj: BipartiteGraph(m, n, tuple(adj)))
        )
    )


class TestConstruction:
    def test_from_edge_list(self):
        g = from_edge_list(2, 3, [(0, 0), (0, 2), (1, 1)])
        assert g.has_edge(0, 0)
        assert g.has_edge(0, 2)
        assert g.has_edge(1, 1)
        assert not g.has_edge(0, 1)
        assert g.edge_count == 3

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(1, 2, [(0, 1), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            from_edge_list(2, 2, [(2, 0)])
        with pytest.raises(InputError):
            from_edge_list(2, 2, [(0, 2)])
        with pytest.raises(InputError):
            BipartiteGraph(2, 2, (1 << 2, 0))

    @pytest.mark.parametrize("row", [1.0, "1", None])
    def test_rejects_non_int_row(self, row):
        # the bad row is named, after a good one
        with pytest.raises(InputError, match=r"A-vertex 1 is not an int bitmask"):
            BipartiteGraph(3, 2, (1, row, 2))

    def test_first_bad_row_named(self):
        with pytest.raises(InputError, match=r"A-vertex 1 has bits outside \[0, 2\)"):
            BipartiteGraph(3, 2, (1, -1, 1 << 2))
        with pytest.raises(InputError, match=r"A-vertex 2 has bits outside"):
            BipartiteGraph(3, 2, (3, 0, 1 << 5))
        with pytest.raises(InputError, match=r"A-vertex 0 has bits outside"):
            BipartiteGraph(1, 2, (np.uint8(8),))

    def test_bool_and_numpy_rows_accepted(self):
        g = BipartiteGraph(3, 2, (True, np.int64(3), np.uint8(2)))
        assert g.edge_count == 4
        # np.uint64 | (1 << 80) overflows; each row is still a valid bitmask
        assert BipartiteGraph(2, 100, (np.uint64(1), 1 << 80)).edge_count == 2

    def test_rejects_bad_sizes(self):
        with pytest.raises(InputError):
            BipartiteGraph(0, 2, ())
        with pytest.raises(InputError):
            BipartiteGraph(2, 0, (0, 0))
        with pytest.raises(InputError):
            BipartiteGraph(2, 2, (0,))

    def test_degrees(self):
        g = complete_bipartite(3, 4)
        assert all(g.degree_a(a) == 4 for a in range(3))
        assert all(g.degree_b(b) == 3 for b in range(4))
        assert g.edge_count == 12

    @pytest.mark.parametrize("m, n", [(10**11, 2), (2, 10**11), (1, PART_SIZE_CAP + 1)])
    def test_complete_bipartite_part_cap(self, m, n):
        # (1 << 10**11) would exhaust memory before any check ran
        with pytest.raises(InputError, match=rf"part sizes must be <= {PART_SIZE_CAP}"):
            complete_bipartite(m, n)

    def test_complete_bipartite_at_cap(self):
        g = complete_bipartite(1, PART_SIZE_CAP)
        assert g.degree_a(0) == PART_SIZE_CAP

    def test_edge_list_sorted(self):
        g = from_edge_list(2, 2, [(1, 1), (0, 1), (1, 0)])
        assert to_edge_list(g) == [(0, 1), (1, 0), (1, 1)]


class TestJoin:
    def test_edge_count_formula(self):
        # join adds every edge between the second A-side and the first B-side
        g1 = complete_bipartite(1, 2)
        g2 = complete_bipartite(2, 5)
        g = join(g1, g2)
        assert g.m == 3 and g.n == 7
        assert g.edge_count == 2 + 10 + 2 * 2

    def test_first_block_untouched(self):
        g1 = from_edge_list(2, 2, [(0, 0)])
        g2 = from_edge_list(1, 1, [])
        g = join(g1, g2)
        assert g.has_edge(0, 0)
        assert not g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        # the joined A-vertex sees all of g1's B-side
        assert g.has_edge(2, 0) and g.has_edge(2, 1)
        assert not g.has_edge(2, 2)

    @given(small_graphs(3, 3), small_graphs(3, 3))
    @settings(max_examples=60, deadline=None)
    def test_edge_count_property(self, g1, g2):
        g = join(g1, g2)
        assert g.m == g1.m + g2.m and g.n == g1.n + g2.n
        assert g.edge_count == g1.edge_count + g2.edge_count + g2.m * g1.n

    def test_join_of_completes_is_connected(self):
        g = join(complete_bipartite(1, 2), complete_bipartite(2, 5))
        assert is_connected(g)


class TestConnectivity:
    def test_complete_connected(self):
        assert is_connected(complete_bipartite(3, 7))

    def test_isolated_vertex(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1)])
        assert not is_connected(g)

    def test_two_components(self):
        g = from_edge_list(2, 2, [(0, 0), (1, 1)])
        assert not is_connected(g)

    def test_path_connected(self):
        g = from_edge_list(2, 2, [(0, 0), (1, 0), (1, 1)])
        assert is_connected(g)

    def test_single_vertex_sides(self):
        assert is_connected(from_edge_list(1, 1, [(0, 0)]))
        assert not is_connected(from_edge_list(1, 1, []))


class TestIsomorphism:
    def test_relabelled_graphs_match(self):
        g1 = from_edge_list(2, 3, [(0, 0), (0, 1), (1, 2)])
        g2 = from_edge_list(2, 3, [(1, 1), (1, 2), (0, 0)])
        assert part_preserving_isomorphic(g1, g2)

    def test_different_degree_sequences(self):
        g1 = from_edge_list(2, 2, [(0, 0), (0, 1)])
        g2 = from_edge_list(2, 2, [(0, 0), (1, 1)])
        assert not part_preserving_isomorphic(g1, g2)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            part_preserving_isomorphic(
                complete_bipartite(2, 2), complete_bipartite(2, 3)
            )

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_reflexive(self, g):
        assert part_preserving_isomorphic(g, g)

    @given(small_graphs(3, 3), st.permutations(range(3)), st.permutations(range(3)))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabelling(self, g, pa, pb):
        if g.m != 3 or g.n != 3:
            return
        edges = [(pa[a], pb[b]) for a, b in to_edge_list(g)]
        h = from_edge_list(3, 3, edges)
        assert part_preserving_isomorphic(g, h)
        assert part_preserving_isomorphic(h, g)

    def test_same_degrees_not_isomorphic(self):
        # path on six vertices versus a 4-cycle plus an edge: identical
        # degree sequences on both sides, different component structure
        g1 = from_edge_list(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)])
        g2 = from_edge_list(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        assert not part_preserving_isomorphic(g1, g2)


class TestFileFormat:
    def test_round_trip(self):
        g = from_edge_list(3, 7, [(0, 0), (1, 3), (2, 6)])
        assert parse_graph(format_graph(g), "mem") == g

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, g):
        assert parse_graph(format_graph(g), "mem") == g

    def test_comments_and_blanks(self):
        text = "# made by hand\n\np bip 2 2\ne 0 0\n# middle\ne 1 1\n"
        g = parse_graph(text, "mem")
        assert to_edge_list(g) == [(0, 0), (1, 1)]

    def test_error_carries_line_number(self):
        with pytest.raises(InputError, match=r"f:3: "):
            parse_graph("p bip 2 2\ne 0 0\ne 5 0\n", "f")
        with pytest.raises(InputError, match=r"f:1: "):
            parse_graph("p graph 2 2\n", "f")
        with pytest.raises(InputError, match=r"f:2: "):
            parse_graph("p bip 2 2\nq 0 0\n", "f")

    def test_missing_header(self):
        with pytest.raises(InputError):
            parse_graph("e 0 0\n", "f")

    def test_duplicate_header(self):
        with pytest.raises(InputError, match=r"f:2: "):
            parse_graph("p bip 2 2\np bip 2 2\n", "f")

    @pytest.mark.parametrize("m, n", [(10**12, 3), (3, 10**12), (PART_SIZE_CAP + 1, 1)])
    def test_oversize_header_rejected_before_allocation(self, m, n):
        # a 10**12 row list or bitmask would exhaust memory if allocated
        with pytest.raises(InputError, match=rf"f:2: part sizes must be <= {PART_SIZE_CAP}"):
            parse_graph(f"# huge\np bip {m} {n}\ne 0 0\n", "f")

    def test_header_at_cap_accepted(self):
        g = parse_graph(f"p bip {PART_SIZE_CAP} 1\ne 0 0\n", "f")
        assert (g.m, g.n) == (PART_SIZE_CAP, 1)

    def test_outcomes_pinned(self):
        # whitespace, comments and every error message, line number and
        # check order, pinned by one digest over the outcomes
        texts = [
            "p bip 2 2\r\ne 0 0\r\ne 1 1\r\n",
            "p\tbip\t2 2\n\te 0\t1\n",
            "  # indented comment\np bip 1 1\n \t# another\ne 0 0\n",
            "#glued p bip 9 9\np bip 1 2\ne 0 1 #trailing\n",
            "p bip 1 2\ne#0 1\n",
            "p bip 1 2\n#e 0 1\ne 0 1\n",
            "e 0 0\np bip 1 1\n",
            "e 0\n",
            "p bip 1 1\np bip 1 1\n",
            "p bip 1 1\np bip x\n",
            "p bip x 2\n",
            "p bip 2 2.0\n",
            "p bip 0 2\n",
            "p bip -1 2\n",
            "p bip 2\n",
            "p bip 2 2 2\n",
            "p graph 2 2\n",
            "p bip 2 2\ne 0 x\n",
            "p bip 2 2\ne 0x1 0\n",
            "p bip 2 2\ne 0 0 0\n",
            "p bip 2 2\ne 2 0\n",
            "p bip 2 2\ne 0 -1\n",
            "p bip 2 2\ne 1_0 0\n",
            "p bip 2 2\nE 0 0\n",
            "p bip 2 2\npe 0 0\n",
            "\n\n   \n",
            "",
        ]
        h = hashlib.sha256()
        for text in texts:
            try:
                g = parse_graph(text, "f")
                outcome = (g.m, g.n, g.adj)
            except InputError as exc:
                outcome = str(exc)
            h.update(repr(outcome).encode())
        assert h.hexdigest() == "e0759f9bb5aacdc699a9b201f239d5bf98c931359fd0ec2ebaf034c308535908"


class TestDegreeDemand:
    def test_uniform(self):
        f = DegreeDemand.uniform(3, 4)
        assert len(f) == 3
        assert list(f.values) == [4, 4, 4]
        assert f.total == 12

    def test_rejects_small_values(self):
        with pytest.raises(InputError):
            DegreeDemand((2, 1, 2))
        with pytest.raises(InputError):
            DegreeDemand.uniform(3, 1)
        with pytest.raises(InputError):
            DegreeDemand(())

    def test_parse_demands(self):
        f = parse_demands("2\n# c\n3\n\n4\n", "d")
        assert list(f.values) == [2, 3, 4]

    def test_parse_demands_errors(self):
        with pytest.raises(InputError, match=r"d:2: "):
            parse_demands("2\nx\n", "d")
        with pytest.raises(InputError, match=r"d:1: "):
            parse_demands("1\n", "d")
