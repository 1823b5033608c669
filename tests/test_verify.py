"""Census engine, sweep checks, the monotonicity fuzz and its exact strictness certificate."""

import hashlib
import itertools
import json
import math
import random
import sys
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from qspan import (
    BipartiteGraph,
    CapacityError,
    DegreeDemand,
    InputError,
    InternalError,
    build_family,
    certify_threshold,
    complete_bipartite,
    extremal_graph,
    is_violation,
    separation_sweep,
    signless_laplacian,
)
from qspan import cli, extremal, graph_core, spectral, trees, verify
from qspan.extremal import (
    ExtremalParams,
    family_bracket,
    family_char_coeffs,
    family_quotient,
    family_root,
    spectral_threshold,
)
from qspan.graph_core import is_connected, join
from qspan.poly import exact_char_polys
from qspan.spectral import q_matrices, top_eigenpairs
from qspan.trees import find_violation_bruteforce
from qspan.verify import (
    _b_classes,
    _blocks,
    _canonical,
    _graph_from_mask,
    _labellings,
    _up_set,
    connected_bipartite_count,
    point_checks,
    scan_stats,
    subgraph_monotonicity_fuzz,
)

from oracles import (
    _positive_definite,
    _short_dyadic,
    b_class_size,
    b_class_up_set,
    column_random_connected,
    column_random_spanning_subgraph,
    connected_filter,
    join_chain,
    non_bridges,
    part_preserving_isomorphic,
    per_matrix_char_poly,
    random_demand_instances,
    scalar_algebraic_checks,
    separates_top_eigenvalues,
)


class TestEnumeration:
    def test_mask_layout(self):
        g = _graph_from_mask(0b1, 2, 2)  # bit 0 is edge (0, 0)
        assert g.has_edge(0, 0) and g.edge_count == 1
        g = _graph_from_mask(0b1000, 2, 2)  # bit a*n+b: (1, 1)
        assert g.has_edge(1, 1) and g.edge_count == 1


class TestVectorisedKernels:
    def test_connected_filter_matches_python(self):
        m, n = 2, 3
        masks = np.arange(1 << (m * n), dtype=np.int64)
        flags = connected_filter(masks, m, n)
        for mask, flag in zip(masks, flags):
            assert bool(flag) == is_connected(_graph_from_mask(int(mask), m, n))


def _labelled_census(m, n, chunk=1 << 15):
    """(connected masks, their q) over every labelled graph on (m, n):
    the connectivity filter, then a chunked q_matrices + eigvalsh."""
    masks = np.arange(1 << (m * n), dtype=np.int64)
    connected = masks[connected_filter(masks, m, n)]
    shifts = np.arange(m * n, dtype=np.int64)
    lam = np.concatenate([
        np.linalg.eigvalsh(q_matrices(
            ((part[:, None] >> shifts) & 1).reshape(part.size, m, n)))[:, -1]
        for part in np.split(connected, range(chunk, connected.size, chunk))
    ])
    return connected, lam


@pytest.fixture(scope="module")
def labelled_337():
    return _labelled_census(3, 7)


# --- orbit oracle: every column multiset, filtered to connected ---------------

ORBIT_CAP = 1 << 15   # the oracle materialises at most 2**15 column multisets


def orbit_count(m, n):
    """Multisets of n nonempty columns (subsets of A) on (m, n): C(2^m - 2 + n, n)."""
    return math.comb((1 << m) - 2 + n, n)


def _connected_orbits(m, n):
    """(biadjacency blocks, masks, weights) of the connected B-relabelling classes.

    A class is n nonempty columns in ascending order; its mask labels B in
    that order and its weight n!/prod(multiplicity!) is its size.
    """
    count = orbit_count(m, n)
    cols = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(1, 1 << m), n)),
        dtype=np.int64, count=count * n,
    ).reshape(count, n)
    bits = (cols[:, None, :] >> np.arange(m)[:, None]) & 1
    masks = (bits << (np.arange(m)[:, None] * n + np.arange(n))).sum(axis=(1, 2))
    keep = connected_filter(masks, m, n)
    cols = cols[keep]
    run = np.ones_like(cols)   # run[:, b]: copies of column b among columns 0..b
    for b in range(1, n):
        run[:, b] = np.where(cols[:, b] == cols[:, b - 1], run[:, b - 1] + 1, 1)
    return bits[keep], masks[keep], math.factorial(n) // run.prod(axis=1)


def _oracle_classes(m, n, floor):
    """{ascending column tuple: (weight, q)} of the oracle's classes with q >= floor."""
    bits, masks, weights = _connected_orbits(m, n)
    lam = np.linalg.eigvalsh(q_matrices(bits))[:, -1]
    return {_graph_from_mask(mask, m, n).b_adj(): (weight, q)
            for mask, weight, q in zip(masks.tolist(), weights.tolist(), lam.tolist())
            if q >= floor}


def _search_classes(m, n, floor):
    """The same map from the up-set search: each A×B class gives its
    B-relabelling classes, whose sizes must add up to its weight."""
    classes = {}
    for cols, weight, q in _up_set(m, n, floor):
        assert _graph_from_mask(verify._class_mask(cols, m, n), m, n).b_adj() == cols
        b_classes = _b_classes(cols, m)
        assert sum(map(b_class_size, b_classes)) == weight, cols
        for b in b_classes:
            assert b not in classes
            classes[b] = (b_class_size(b), q)
    return classes


# m = 4 starts at 817,190 multisets and the count grows with n, so the points
# the oracle admits are m = 3 with n <= 13, hence k <= 5
ORACLE_POINTS = [(k, 3, n) for k in range(3, 8) for n in range((k - 1) * 3 + 1, 16)
                 if orbit_count(3, n) <= ORBIT_CAP]


class TestConnectedCount:
    def test_recurrence_matches_brute_force(self):
        for m, n in itertools.product(range(1, 17), repeat=2):
            if m * n <= 16:
                masks = np.arange(1 << (m * n), dtype=np.int64)
                assert connected_bipartite_count(m, n) == int(connected_filter(masks, m, n).sum()), (m, n)

    @pytest.mark.parametrize("m, n, count", [
        (3, 7, 778765), (3, 8, 5581315), (3, 13, 96690872461), (4, 9, 37898120011)])
    def test_pinned_counts(self, m, n, count):
        assert connected_bipartite_count(m, n) == count

    def test_small_parts(self):
        assert [connected_bipartite_count(m, 0) for m in (1, 2)] == [1, 0]
        assert [connected_bipartite_count(1, n) for n in range(5)] == [1, 1, 1, 1, 1]


def moved_row_gstar(k, m, n):
    """G* with A-vertex 0 on the last k - 1 B-vertices instead of the first:
    still a copy of G*, but not its closed-form rows."""
    g = extremal_graph(k, m, n)
    return BipartiteGraph(m, n, (g.adj[0] << (n - k + 1),) + g.adj[1:])


def quotient_off_by_one(*mnsr):
    """family_quotient(*mnsr) with its first entry one too large."""
    rows = family_quotient(*mnsr)
    return ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:]


class TestCensusEngine:
    # The census decides at q* itself, where a band of 1e-7 holds the same
    # classes. Wider bands move the threshold down to q* - band instead, so
    # labellings and counterexample reporting stay covered; no class lies
    # within CENSUS_SLACK of either moved threshold.
    @pytest.mark.parametrize("band", [1e-7, 0.1, 0.5])
    def test_orbit_census_matches_labelled_oracle(self, labelled_337, band, monkeypatch):
        connected, lam = labelled_337
        qstar = spectral_threshold(3, 3, 7)
        near = connected[lam >= qstar - band].tolist()
        if band > 1e-7:
            monkeypatch.setattr(verify, "spectral_threshold", lambda k, m, n: qstar - band)
        gstar = extremal_graph(3, 3, 7)
        demand = DegreeDemand.uniform(3, 3)
        feasible, counterexamples = 0, []
        for mask in near:
            g = _graph_from_mask(mask, 3, 7)
            if find_violation_bruteforce(g, demand) is None:
                feasible += 1
            elif not part_preserving_isomorphic(g, gstar):
                counterexamples.append(mask)
        stats = scan_stats(3, 3, 7)
        assert stats.graphs_connected == connected.size == 778765
        assert stats.graphs_above_bound == len(near)
        assert stats.feasible_above == feasible
        assert stats.counterexample_masks == counterexamples
        assert (len(near), len(counterexamples)) == {
            1e-7: (505, 0), 0.1: (778, 21), 0.5: (7771, 1155)}[band]

    def test_orbit_weights_sum_to_graphs_connected(self):
        _, _, weights = _connected_orbits(3, 7)
        assert (orbit_count(3, 7), weights.size) == (1716, 1428)
        assert int(weights.sum()) == scan_stats(3, 3, 7).graphs_connected == 778765

    @pytest.mark.parametrize("k, m, n", ORACLE_POINTS)
    def test_search_matches_orbit_oracle(self, k, m, n):
        # the same classes, weights and q at or above q*; the extremal copies
        # are compared at these points in test_degree_copy_test_matches_isomorphism
        floor = spectral_threshold(k, m, n) - verify.CENSUS_SLACK
        want, got = _oracle_classes(m, n, floor), _search_classes(m, n, floor)
        assert sorted(got) == sorted(want)
        for cols, (weight, q) in got.items():
            assert weight == want[cols][0] and q == pytest.approx(want[cols][1], abs=1e-12)

    # with the floor below m + n - 1 = 9 the search also returns disconnected
    # classes, which the oracle's connectivity filter drops: K_{3,6} or
    # K_{2,7} plus an isolated vertex (q = 9), and at band 0.5 three more
    # with an empty column
    @pytest.mark.parametrize("band, classes", [(0.1, 31), (0.5, 98)])
    def test_search_band_matches_orbit_oracle(self, band, classes):
        floor = spectral_threshold(3, 3, 7) - band
        got, want = _search_classes(3, 7, floor), _oracle_classes(3, 7, floor)
        connected = {cols for cols in got
                     if connected_filter(np.array([verify._class_mask(cols, 3, 7)]), 3, 7)[0]}
        assert sorted(connected) == sorted(want) and len(want) == classes
        assert len(got) - classes == {0.1: 4, 0.5: 7}[band]
        for cols in got.keys() - connected:
            assert got[cols][1] <= 3 + 7 - 1 + verify.CENSUS_SLACK

    @pytest.mark.parametrize("m, n", [(1, 4), (2, 5), (3, 4), (4, 3)])
    def test_orbits_partition_labelled_graphs(self, m, n):
        masks = np.arange(1 << (m * n), dtype=np.int64)
        classes = defaultdict(list)
        for mask in masks[connected_filter(masks, m, n)].tolist():
            classes[tuple(sorted(_graph_from_mask(mask, m, n).b_adj()))].append(mask)
        bits, reps, weights = _connected_orbits(m, n)
        assert np.array_equal(bits, ((reps[:, None] >> np.arange(m * n)) & 1).reshape(-1, m, n))
        rows = [_graph_from_mask(rep, m, n).b_adj() for rep in reps.tolist()]
        assert sorted(rows) == sorted(classes)   # one ascending row per class
        for row, weight in zip(rows, weights.tolist()):
            assert sorted(_labellings(list(row), m, n)) == classes[row]
            assert weight == len(classes[row])

    # scan_stats and certify_threshold take no tolerance argument at all
    @pytest.mark.parametrize(
        "tol", [0.0, -1.0, float("nan"), float("inf"), 9.99e-10, 1e-15, 1e-300])
    def test_scan_stats_rejects_bad_tol(self, tol):
        with pytest.raises(TypeError, match="tol"):
            scan_stats(3, 3, 7, tol=tol)
        with pytest.raises(TypeError, match="tol"):
            certify_threshold(3, 3, 7, tol=tol)

    def test_census_clean_at_every_accepted_point(self):
        assert orbit_count(4, 9) > ORBIT_CAP and orbit_count(3, 14) > ORBIT_CAP
        assert len(ORACLE_POINTS) == 12
        for k, m, n in ORACLE_POINTS:
            rep = certify_threshold(k, m, n)
            assert rep.counterexamples == [] and rep.extremal_found, (k, m, n)

    def test_numpy_int_point_runs_on_ints(self):
        # the census runs on ExtremalParams' validated ints, so numpy ints
        # neither reach the mask engine nor the report
        rep = certify_threshold(np.int64(3), np.int32(3), np.uint8(7))
        assert rep == certify_threshold(3, 3, 7) and rep.graphs_above_bound == 505
        assert all(type(v) is int for v in rep.params.values())
        assert scan_stats(np.int64(3), np.int16(3), np.int64(7)) == scan_stats(3, 3, 7)

    def test_non_copy_within_slack_is_internal_error(self, monkeypatch):
        # at (3,3,7) a class that is no copy of G* sits 0.047 below q*
        monkeypatch.setattr(verify, "CENSUS_SLACK", 0.05)
        with pytest.raises(InternalError, match="not an extremal copy"):
            certify_threshold(3, 3, 7)

    def test_extremal_copies_are_masks(self):
        stats = scan_stats(3, 3, 7)
        gstar = extremal_graph(3, 3, 7)
        assert stats.extremal_copies
        for mask in stats.extremal_copies:
            assert part_preserving_isomorphic(_graph_from_mask(mask, 3, 7), gstar)

    @pytest.mark.parametrize("k, m, n", [
        (3, 3, 7), (3, 3, 8), (3, 3, 9), (3, 3, 10), (3, 3, 11), (3, 3, 12), (3, 3, 13),
        (4, 3, 10), (4, 3, 11), (4, 3, 12), (4, 3, 13), (5, 3, 13)])
    def test_degree_copy_test_matches_isomorphism(self, k, m, n):
        # every connected class at k = 3, n <= 9; the band from q* - 1e-9 up elsewhere
        gstar = extremal_graph(k, m, n)
        bits, masks, _ = _connected_orbits(m, n)
        if (k, n) > (3, 9):
            lam = np.linalg.eigvalsh(q_matrices(bits))[:, -1]
            masks = masks[lam >= spectral_threshold(k, m, n) - 1e-9]
        else:
            assert masks.size == {7: 1428, 8: 2598, 9: 4455}[n]
        copies = []
        for mask in masks.tolist():
            g = _graph_from_mask(mask, m, n)
            by_degrees = sorted(map(int.bit_count, g.adj)) == [k - 1] + [n] * (m - 1)
            assert by_degrees == part_preserving_isomorphic(g, gstar), mask
            copies += [mask] * by_degrees
        assert len(copies) == 3
        assert sorted(scan_stats(k, m, n).extremal_copies) == copies

    @pytest.mark.parametrize("name, mutant", [
        ("extremal_graph", moved_row_gstar), ("family_quotient", quotient_off_by_one),
    ], ids=["moved-row", "off-by-one-entry"])
    def test_attainment_needs_the_family_quotient(self, monkeypatch, name, mutant):
        assert certify_threshold(3, 3, 7).extremal_found
        moved = moved_row_gstar(3, 3, 7)
        assert part_preserving_isomorphic(moved, extremal_graph(3, 3, 7))
        assert moved.adj != extremal.family_rows(3, 7, 1, 2)
        monkeypatch.setattr(verify, name, mutant)
        rep = certify_threshold(3, 3, 7)
        assert not rep.extremal_found
        assert (rep.graphs_above_bound, rep.counterexamples) == (505, [])

    @pytest.mark.parametrize("k, m, n", ORACLE_POINTS)
    def test_extremal_vertex_zero_violates(self, k, m, n):
        # G*'s low-degree A-vertex alone breaks the Hall condition
        assert is_violation(extremal_graph(k, m, n), DegreeDemand.uniform(m, k), (0,))

    def test_gstar_checked_without_q_or_matching(self, monkeypatch):
        # G* is checked from its closed form: no dense Q(G) and no Hall search
        def untouched(*_):
            raise AssertionError("G* was checked through Q(G) or a matching")

        for fn in (spectral.signless_laplacian, trees.find_violation_flow):
            for mod in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "qspan"]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, untouched)
        rep = certify_threshold(3, 3, 7)
        assert rep.extremal_found
        assert (rep.graphs_above_bound, rep.counterexamples) == (505, [])

    def test_orbit_cap_boundary(self, monkeypatch):
        # the cap counts the Q-matrix entries of every column tuple the
        # search solves and n relabelled columns per canonical candidate it
        # tries; at (3,3,7) it solves levels of 1, 3, 5, 12, 5, 5 and 5
        # tuples, 36 matrices of 10 * 10 entries, and tries 16 candidates of
        # 7 columns. The 12 include K_{3,6} plus an isolated B-vertex,
        # solved at q = 9 < q*
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        monkeypatch.setattr(verify, "CENSUS_CAP", 3712)
        assert scan_stats(3, 3, 7).graphs_above_bound == 505
        assert solved == [1, 3, 5, 12, 5, 5, 5]
        monkeypatch.setattr(verify, "CENSUS_CAP", 3711)
        solved.clear()
        with pytest.raises(CapacityError, match="more than 3711 Q-matrix and relabelled-column entries"):
            scan_stats(3, 3, 7)
        assert solved == [1, 3, 5, 12, 5, 5]   # refused before the last level's matrices exist
        with pytest.raises(CapacityError, match="more than 3711 Q-matrix and relabelled-column entries"):
            certify_threshold(3, 3, 7)

    def test_far_point_refused_before_any_tree(self, monkeypatch):
        # (3,10,21) lies past the cap: the search stops within CENSUS_CAP
        # entries, 31 * 31 per column tuple solved, and no tree is built for
        # its members
        def untouched(*_):
            raise AssertionError("a tree was built before the refusal")

        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        monkeypatch.setattr(verify, "construct_tree", untouched)
        monkeypatch.setattr(verify, "is_violation", untouched)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="relabelled-column entries"):
            certify_threshold(3, 10, 21)
        assert time.perf_counter() - start < 15   # about 3.3 s on a 2-vCPU Xeon
        assert sum(solved) * 31 * 31 <= verify.CENSUS_CAP

    def test_eigen_chunks_split_a_level(self, monkeypatch):
        # 10 * 10 entries per matrix, so chunks of 10 matrices
        want = scan_stats(3, 3, 7)
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        monkeypatch.setattr(verify, "EIGEN_CHUNK", 1000)
        assert scan_stats(3, 3, 7) == want
        assert solved == [1, 3, 5, 10, 2, 5, 5, 5]

    @pytest.mark.parametrize("k, m, n", [(3, 3, 7), (5, 3, 14), (3, 6, 13)])
    def test_census_makes_no_connectivity_pass(self, k, m, n, monkeypatch):
        # q* > m + n - 1, so every class the search returns at the census's
        # floor is connected and scan_stats never asks
        calls = []
        monkeypatch.setattr(verify, "is_connected", lambda g: calls.append(g) or is_connected(g))
        assert scan_stats(k, m, n).counterexample_masks == []
        assert calls == []

    def test_disconnected_graphs_lie_below_qstar(self):
        # every disconnected graph has q <= m + n - 1, and q* lies above that
        # at every admissible point the census accepts: p_1 is negative there
        points = 0
        for m in range(3, 256):
            for k in range(3, 255 // m + 1):
                for n in range((k - 1) * m + 1, 257 - m):
                    p1 = family_char_coeffs(m, n, 1, k - 1)
                    assert p1.evaluate(m + n - 1) < 0, (k, m, n)
                    points += 1
        assert points == 73667

    def test_largest_point_under_cap(self):
        # the largest point the orbit oracle admits
        assert orbit_count(3, 13) == 27132 <= ORBIT_CAP < orbit_count(3, 14)
        rep = certify_threshold(5, 3, 13)
        assert rep.graphs_total == 2**39
        assert rep.counterexamples == [] and rep.extremal_found

    @pytest.mark.parametrize("k, m, n", [(3, 4, 9), (3, 5, 11), (3, 6, 13), (5, 3, 14)])
    def test_reach_past_orbit_cap(self, k, m, n):
        connected, above = {
            (3, 4, 9): (37898120011, 10303),
            (3, 5, 11): (25320182311228861, 259051),
            (3, 6, 13): (246057483524862034206091, 6742971),
            (5, 3, 14): (677427332419, 55972),
        }[k, m, n]
        rep = certify_threshold(k, m, n)
        assert (rep.graphs_total, rep.graphs_connected, rep.graphs_above_bound) == (
            2 ** (m * n), connected, above)
        assert rep.counterexamples == [] and rep.extremal_found

    def test_reach_past_orbit_cap_agrees_with_oracle_at_5_3_14(self):
        floor = spectral_threshold(5, 3, 14) - verify.CENSUS_SLACK
        want = _oracle_classes(3, 14, floor)
        assert sorted(_search_classes(3, 14, floor)) == sorted(want)
        assert sum(weight for weight, _ in want.values()) == 55972

    @pytest.mark.parametrize("k, m, n, connected, above, limit", [
        (3, 7, 15, 36053833622568495071798985877885, 172049578, 1),
        (3, 8, 17, 81499460943375275601036846201485741691691, 6040578687, 10),
        (3, 9, 19, 2883960881542677630757568589287761044635907081109501, 206917488547, 15),
    ])
    def test_reach_at_k_3(self, k, m, n, connected, above, limit):
        # about 0.06, 0.25 and 1.1 s on a 2-vCPU Xeon. The
        # B-relabelling search took 2.5 s at (3,7,15) and refused the others
        # at its cap; with the cap lifted it gave the same counts at (3,8,17)
        # and (3,9,19), in 11 s and in 101 s at 1.3 GB
        start = time.perf_counter()
        rep = certify_threshold(k, m, n)
        assert time.perf_counter() - start < limit
        assert (rep.graphs_total, rep.graphs_connected, rep.graphs_above_bound) == (
            2 ** (m * n), connected, above)
        assert rep.counterexamples == [] and rep.extremal_found

    # the search over B-relabelling classes alone, now an oracle, gives the
    # same classes, q and sizes at these points and below the moved thresholds
    @pytest.mark.parametrize("k, m, n, band", [(k, m, n, 0) for k, m, n in ORACLE_POINTS] + [
        (3, 4, 9, 0), (3, 5, 11, 0), (3, 6, 13, 0), (3, 3, 7, 0.1), (3, 3, 7, 0.5)])
    def test_weights_match_b_class_search(self, k, m, n, band):
        floor = spectral_threshold(k, m, n) - (band or verify.CENSUS_SLACK)
        want = {cols: (b_class_size(cols), q) for cols, q in b_class_up_set(m, n, floor)}
        got = _search_classes(m, n, floor)
        assert sorted(got) == sorted(want)
        for cols, (weight, q) in got.items():
            assert weight == want[cols][0] and q == pytest.approx(want[cols][1], abs=1e-12)

    @pytest.mark.parametrize("k, m, n", [(3, 3, 10**9), (3, 10**6, 2 * 10**6 + 1), (3, 3, 254)])
    def test_over_cap_refused_before_allocating(self, k, m, n, monkeypatch):
        def untouched(*_):
            raise AssertionError("census work ran before the refusal")

        monkeypatch.setattr(verify, "spectral_threshold", untouched)
        monkeypatch.setattr(verify, "_up_set", untouched)
        with pytest.raises(CapacityError, match="eigen chunk"):
            certify_threshold(k, m, n)
        with pytest.raises(CapacityError, match="eigen chunk"):
            scan_stats(k, m, n)

    def test_order_at_eigen_chunk_accepted(self):
        # (3, 3, 253) has order 256, so one Q matrix fills a 2**16-entry chunk
        assert (3 + 253) ** 2 == verify.EIGEN_CHUNK
        verify._check_point(3, 253)


def _relabel(cols, perm):
    """The columns with A-vertex a moved to perm[a]."""
    return [sum(1 << perm[a] for a in range(len(perm)) if c >> a & 1) for c in cols]


def _form(cols, m, n):
    """(form, h) of any column list, from its row degrees."""
    deg = [sum(c >> a & 1 for c in cols) for a in range(m)]
    return _canonical(tuple(sorted(cols)), *_blocks(deg, n), m)


def _random_classes(count, seed, max_m=6):
    """count random column tuples on m <= max_m, n <= 8, most of them dense
    (few missing edges, as near the threshold) and some with equal rows."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, max_m), rng.randint(1, 8)
        p = rng.choice([0.05, 0.2, 0.5])
        cols = [sum(1 << a for a in range(m) if rng.random() >= p) for _ in range(n)]
        if m > 1 and rng.random() < 0.3:   # copy row 0 onto row 1
            cols = [c & ~2 | (c & 1) << 1 for c in cols]
        yield m, n, cols


class TestCanonicalForm:
    def test_invariant_under_relabelling(self):
        rng = random.Random(11)
        for m, n, cols in _random_classes(600, seed=7):
            form = _form(cols, m, n)
            perm = list(range(m))
            rng.shuffle(perm)
            moved = _relabel(cols, perm)
            rng.shuffle(moved)   # relabel B as well
            assert _form(moved, m, n) == form, (m, n, cols)
            assert sorted(_relabel(form[0], list(range(m)))) == list(form[0])

    def test_least_over_degree_sorting_permutations(self):
        # the form is the least ascending tuple over every A-permutation that
        # puts the rows in ascending order of degree; h f! of them attain it,
        # f the full rows, and that is the A-stabiliser of the class
        for m, n, cols in _random_classes(400, seed=8):
            deg = [sum(c >> a & 1 for c in cols) for a in range(m)]
            form, h = _form(cols, m, n)
            sorting, stabiliser = [], 0
            for perm in itertools.permutations(range(m)):
                moved = sorted(_relabel(cols, perm))
                stabiliser += moved == sorted(cols)
                at = [0] * m
                for a, p in enumerate(perm):
                    at[p] = deg[a]
                if at == sorted(deg):
                    sorting.append(tuple(moved))
            assert form == min(sorting) and sorting.count(form) == h * math.factorial(deg.count(n))
            assert stabiliser == h * math.factorial(deg.count(n)), (m, n, cols)

    def test_b_classes_are_the_a_orbit(self):
        for m, n, cols in _random_classes(300, seed=9, max_m=5):
            want = {tuple(sorted(_relabel(cols, perm))) for perm in itertools.permutations(range(m))}
            assert _b_classes(tuple(sorted(cols)), m) == sorted(want)


class TestPointChecks:
    def test_all_pass_on_grid_sample(self):
        for k, m, n, s in [(3, 3, 7, 1), (3, 3, 7, 2), (4, 4, 13, 3), (5, 3, 14, 2)]:
            checks = point_checks(ExtremalParams(k, m, n, s))
            assert all(checks.values()), checks

    def test_check_names_stable(self):
        checks = point_checks(ExtremalParams(3, 3, 7, 1))
        assert list(checks) == [
            "coeff_identity",
            "difference_identity",
            "upper_endpoint_negative",
            "lower_endpoint_identity",
            "lower_endpoint_negative",
            "ordering",
            "separation",
            "join_chain",
        ]

    @pytest.mark.parametrize("k, m, n, s", [(3, 3, 7, 2), (4, 5, 17, 4), (7, 8, 50, 7)])
    def test_separation_fails_on_a_concave_difference_factor(self, monkeypatch, k, m, n, s):
        p = ExtremalParams(k, m, n, s)
        assert point_checks(p)["separation"]
        coeffs = verify.difference_factor_coeffs
        monkeypatch.setattr(verify, "difference_factor_coeffs", lambda *q: coeffs(*q)[:2] + (-1,))
        assert point_checks(p)["separation"] is False

    @pytest.mark.parametrize("k, m, n, s", [(3, 3, 7, 2), (4, 5, 17, 4), (7, 8, 50, 7)])
    def test_separation_fails_on_a_zero_at_the_upper_end(self, monkeypatch, k, m, n, s):
        p = ExtremalParams(k, m, n, s)
        assert point_checks(p)["separation"]
        factor, hi = verify.difference_factor, family_bracket(m, n, s, p.r)[1]
        monkeypatch.setattr(verify, "difference_factor", lambda x, *q: 0 if x == hi else factor(x, *q))
        assert point_checks(p)["separation"] is False

    def test_sweep_computes_no_root(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a root was computed")

        monkeypatch.setattr(extremal, "largest_real_root", refused)
        with pytest.raises(AssertionError):
            extremal.family_root(3, 7, 2, 4)
        rep = separation_sweep()
        assert len(rep.points) == 135 and rep.failures == []

    @pytest.mark.parametrize("k, m, n, s", [(3, 3, 7, 1), (3, 3, 7, 2), (5, 4, 20, 3)])
    def test_join_chain_fails_on_a_wrong_edge(self, monkeypatch, k, m, n, s):
        p = ExtremalParams(k, m, n, s)
        assert point_checks(p)["join_chain"]
        g = build_family(p)
        dropped = BipartiteGraph(m, n, (g.adj[0] & (g.adj[0] - 1),) + g.adj[1:])
        with monkeypatch.context() as patch:
            patch.setattr(verify, "build_family", lambda _: dropped)
            assert point_checks(p)["join_chain"] is False

        def join_plus_edge(g1, g2):
            # A-vertex 0 also sees the last B-vertex, outside its 2^r - 1
            h = join(g1, g2)
            return BipartiteGraph(h.m, h.n, (h.adj[0] | 1 << (h.n - 1),) + h.adj[1:])

        monkeypatch.setattr(extremal, "join", join_plus_edge)
        assert point_checks(p)["join_chain"] is False

    def test_join_chain_oracle_on_the_sweep_grid(self):
        # every join of the chain, built from two complete graphs, has the
        # closed-form rows that join_chain checks, and lies row by row in the
        # next; the last is the family member
        joins = 0
        for k, m, extra in itertools.product(range(3, 8), range(3, 9), range(1, 9)):
            n = (k - 1) * m + extra
            for s in range(1, m):
                p = ExtremalParams(k, m, n, s)
                chain = join_chain(p)
                for r, g in enumerate(chain, start=1):
                    assert g.adj == ((1 << r) - 1,) * s + ((1 << n) - 1,) * (m - s), (p, r)
                for g, h in zip(chain, chain[1:]):
                    assert all(x & ~y == 0 for x, y in zip(g.adj, h.adj)), p
                assert chain[-1] == build_family(p)
                joins += len(chain)
        assert joins == 13280

    @pytest.mark.parametrize("k, m, n, s", [(3, 3, 7, 2), (3, 1365, 2731, 1364)])
    def test_builds_at_most_three_graphs(self, monkeypatch, k, m, n, s):
        built = []
        post_init = BipartiteGraph.__post_init__

        def counted(g):
            built.append((g.m, g.n))
            post_init(g)

        monkeypatch.setattr(BipartiteGraph, "__post_init__", counted)
        assert all(point_checks(ExtremalParams(k, m, n, s)).values())
        assert len(built) <= 3, len(built)

    def test_join_radii_below_family_root_on_default_grid(self):
        # the float form of join_chain: q of every join in every chain stays
        # at or below the family member's root
        solves = 0
        for k in verify.DEFAULT_K_VALUES:
            for m in verify.DEFAULT_M_VALUES:
                for extra in verify.DEFAULT_N_EXTRAS:
                    n = (k - 1) * m + extra
                    for s in range(1, m):
                        p = ExtremalParams(k, m, n, s)
                        q1 = family_root(m, n, s, p.r)
                        for r in range(1, p.r + 1):
                            g = join(complete_bipartite(s, r), complete_bipartite(m - s, n - r))
                            (value,), _ = top_eigenpairs(signless_laplacian(g)[None])[:2]
                            assert value <= q1 + 1e-9
                            solves += 1
        assert solves == 855

    def test_order_over_dense_cap_refused_before_any_check(self, monkeypatch):
        assert verify.DENSE_CAP == 4096
        monkeypatch.setattr(verify, "family_char_coeffs", lambda *mnsr: pytest.fail("a check ran"))
        with pytest.raises(CapacityError, match="order 4097 exceeds dense cap 4096"):
            point_checks(ExtremalParams(3, 3, 4094, 2))


class TestSweep:
    def test_small_grid_clean(self):
        rep = separation_sweep((3,), (3, 4), (1, 2), seed=0)
        assert len(rep.points) == 2 * 2 + 3 * 2  # s ranges 1..m-1
        assert rep.failures == []
        assert all(not pt["expected_boundary"] for pt in rep.points)

    def test_boundary_points_flagged(self):
        rep = separation_sweep((3,), (3,), (0,), seed=0)
        assert rep.failures == []
        assert all(pt["expected_boundary"] for pt in rep.points)
        for pt in rep.points:
            assert pt["checks"]["upper_endpoint_zero"]

    def test_grid_recorded(self):
        rep = separation_sweep((3,), (3,), (1,), seed=9)
        assert rep.grid == {
            "k_values": [3],
            "m_values": [3],
            "n_extras": [1],
            "seed": 9,
        }

    def test_numpy_int_grid_reports_ints(self):
        rep = separation_sweep((np.int64(3),), (np.int32(3), 4), (np.uint8(1),), seed=np.int64(9))
        assert rep == separation_sweep((3,), (3, 4), (1,), seed=9)
        payload = {"grid": rep.grid, "points": rep.points, "failures": rep.failures}
        assert json.loads(cli.emit_json(payload)) == payload

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("value", [3.0, True, "3"])
    def test_non_integer_grid_value_refused(self, axis, value):
        grid = [(3,), (3,), (1,)]
        grid[axis] = (value,)
        with pytest.raises(InputError, match="is not an integer"):
            separation_sweep(*grid)

    def test_grids_at_the_caps_run(self):
        assert (verify.SWEEP_POINT_CAP, verify.SWEEP_ORDER_CAP) == (1400, 64)
        rep = separation_sweep(range(3, 5), range(3, 10), range(1, 21))   # order <= 56
        assert len(rep.points) == 1400 and rep.failures == []
        rep = separation_sweep((3,), (21,), (1,))   # m + n = 21 + 43 = 64
        assert len(rep.points) == 20 and rep.failures == []

    @pytest.fixture
    def batches(self, monkeypatch):
        """The size of every stack the sweep sends to exact_char_polys."""
        sizes = []

        def spy(stack):
            stack = list(stack)
            sizes.append(len(stack))
            return exact_char_polys(stack)

        monkeypatch.setattr(verify, "exact_char_polys", spy)
        return sizes

    def test_bench_grid_makes_one_batched_call(self, batches):
        rep = separation_sweep(range(3, 8), range(3, 9), range(0, 9))
        assert (len(rep.points), rep.failures) == (1110, [])
        assert batches == [1080]
        for pt in rep.points:
            if not pt["expected_boundary"]:
                p = ExtremalParams(pt["k"], pt["m"], pt["n"], pt["s"])
                assert point_checks(p) == pt["checks"], p
        assert batches == [1080]    # point_checks alone computes its own

    def test_sweep_checks_each_point_against_its_batched_poly(self, monkeypatch):
        # swapping two results of the batch fails coeff_identity at exactly those two points
        def swapped(stack):
            polys = exact_char_polys(stack)
            polys[3], polys[4] = polys[4], polys[3]
            return polys

        monkeypatch.setattr(verify, "exact_char_polys", swapped)
        rep = separation_sweep((3,), (3, 4), (0, 1, 2))
        interior = [pt for pt in rep.points if not pt["expected_boundary"]]
        assert [(f["m"], f["n"], f["s"], f["check"]) for f in rep.failures] == [
            (interior[i]["m"], interior[i]["n"], interior[i]["s"], "coeff_identity") for i in (3, 4)]

    def test_boundary_only_grid_sends_no_matrix(self, batches):
        rep = separation_sweep(None, None, (0,))
        assert len(rep.points) == 9 and all(pt["expected_boundary"] for pt in rep.points)
        assert rep.failures == [] and sum(batches) == 0

    @pytest.mark.parametrize("grid, message", [
        (((3,), range(6, 12), range(0, 32)), "1401 points, more than 1400"),   # order <= 64
        (((3,), (21,), (2,)), "order m \\+ n = 65, above 64"),
        (((3,), (400,), (1,)), "order m \\+ n = 1201, above 64"),
        ((range(3, 10**12), None, None), "more than 1400 points"),
        (((3,), (3,), range(10**12)), "more than 1400 points"),
        (((3,), (), range(10**12)), "more than 1400 points"),
    ])
    def test_grids_over_the_caps_refused_before_any_point(self, grid, message, monkeypatch):
        monkeypatch.setattr(verify, "point_checks", lambda p: pytest.fail("a point ran"))
        with pytest.raises(CapacityError, match=message):
            separation_sweep(*grid)


def admissible_sweep_grids():
    """One proof-sweep grid per (k, m) with k m < 64, whose n offsets 1..64 - km
    cover every admissible point with m + n <= SWEEP_ORDER_CAP = 64."""
    return [((k,), (m,), range(1, 65 - k * m)) for k in range(3, 22) for m in range(3, 22) if k * m < 64]


class TestSweepColumns:
    """separation_sweep evaluates point_checks' checks but join_chain once, on
    int64 columns of all its points, through the function that point_checks
    runs on ints."""

    def test_columns_equal_point_checks_at_every_admissible_point(self):
        # the closed forms reach 1,351,680 here, so int16 columns would wrap; int64 ones must not
        points = 0
        for grid in admissible_sweep_grids():
            rep = separation_sweep(*grid)
            assert rep.failures == [], grid
            for pt in rep.points:
                assert point_checks(ExtremalParams(pt["k"], pt["m"], pt["n"], pt["s"])) == pt["checks"], pt
                assert all(type(ok) is bool for ok in pt["checks"].values()), pt
            points += len(rep.points)
        assert points == 10548

    def test_columns_and_ints_match_scalar_oracle_off_the_hypothesis(self):
        # points of ints that break the hypothesis (k, m >= 2, n >= 1, s in 1..m-1), with
        # one quartic coefficient off by one at five points in seven, fail every
        # check that is not an identity somewhere; columns, ints and the oracle agree
        points = [(k, m, n, s) for k in range(2, 7) for m in range(2, 8)
                  for n in range(1, (k - 1) * m + 4) for s in range(1, m)]
        quartics = []
        for i, (k, m, n, s) in enumerate(points):
            coeffs = list(per_matrix_char_poly(family_quotient(m, n, s, (k - 1) * s)).coeffs)
            if i % 7 < 5:
                coeffs[i % 7] += 1
            quartics.append(tuple(coeffs))
        columns = verify._algebraic_checks(*np.array(points, dtype=np.int64).T,
                                           np.array(quartics, dtype=np.int64).T)
        seen = defaultdict(set)
        for i, (point, quartic) in enumerate(zip(points, quartics)):
            want = scalar_algebraic_checks(*point, quartic)
            on_ints = verify._algebraic_checks(*point, quartic)
            assert on_ints == want and all(type(ok) is bool for ok in on_ints.values()), point
            assert {name: column[i] for name, column in columns.items()} == want, point
            for name, ok in want.items():
                seen[name].add(ok)
        assert len(points) == 1995
        identities = {"difference_identity", "lower_endpoint_identity"}
        assert {name for name, oks in seen.items() if oks == {False, True}} == set(want) - identities
        assert all(seen[name] == {True} for name in identities)


class TestStrictRootComparison:
    """The oracle separates_top_eigenvalues(big, small, x): x I - small
    positive definite and x I - big not, so lambda(small) < x <= lambda(big)."""

    @staticmethod
    def top(rows):
        return float(np.linalg.eigvalsh(np.array(rows, dtype=float))[-1])

    def certify(self, big, small):
        """The certificate at the float midpoint, as the fuzz takes it."""
        return separates_top_eigenvalues(big, small, Fraction((self.top(big) + self.top(small)) / 2))

    def test_separated_linear(self):
        assert separates_top_eigenvalues([[3]], [[2]], Fraction(5, 2))
        assert not separates_top_eigenvalues([[2]], [[3]], Fraction(5, 2))
        assert not separates_top_eigenvalues([[3]], [[2]], 4)   # x above both
        assert not separates_top_eigenvalues([[3]], [[2]], 1)   # x below both

    def test_equal_polys(self):
        # equal matrices, so equal characteristic polynomials: always refused
        q = signless_laplacian(complete_bipartite(2, 3)).astype(int).tolist()
        for x in (0, 4, Fraction(9, 2), 5, 6, 5.000000001):
            assert not separates_top_eigenvalues(q, q, x)

    def test_close_roots(self):
        # 13860 * sqrt(2) = 19600.99997..., 2.6e-5 below 19601 (a Pell pair)
        big, small = [[19601]], [[13860, 13860], [13860, -13860]]
        assert self.certify(big, small)
        assert not self.certify(small, big)

    def test_repeated_roots_handled(self):
        # 3 is a double top eigenvalue of big; small's top is 3 as well, or 2
        big = [[3, 0], [0, 3]]
        assert separates_top_eigenvalues(big, [[2]], Fraction(5, 2))
        assert not separates_top_eigenvalues([[2]], big, Fraction(5, 2))
        for x in (Fraction(5, 2), 3, Fraction(7, 2)):
            assert not separates_top_eigenvalues(big, [[2, 1], [1, 2]], x)
            assert not separates_top_eigenvalues([[2, 1], [1, 2]], big, x)

    def test_singular_shift_not_positive_definite(self):
        # x = 4 = q(K_{2,2}): 4 I - Q is positive semidefinite and singular
        small = signless_laplacian(complete_bipartite(2, 2)).astype(int).tolist()
        big = signless_laplacian(complete_bipartite(2, 3)).astype(int).tolist()
        assert not separates_top_eigenvalues(big, small, 4)
        assert separates_top_eigenvalues(big, small, Fraction(9, 2))
        for rows in ([[0]], [[0, 0], [0, 1]], [[4, 2], [2, 1]], [[1, 1, 0], [1, 1, 0], [0, 0, 1]]):
            assert not _positive_definite([row[:] for row in rows])

    def test_positive_definite_matches_eigvalsh(self):
        rng = random.Random(31)
        kinds = set()
        for _ in range(500):
            t = rng.randint(1, 8)
            rows = [[0] * t for _ in range(t)]
            for i in range(t):
                for j in range(i, t):
                    rows[i][j] = rows[j][i] = rng.randint(-5, 5)
            for i in range(t):
                rows[i][i] += rng.randint(0, 4 * t)
            low = float(np.linalg.eigvalsh(np.array(rows, dtype=float))[0])
            if abs(low) <= 1e-6:
                continue
            kinds.add(low > 0)
            assert _positive_definite([row[:] for row in rows]) == (low > 0)
        assert kinds == {True, False}

    def test_rejects_non_integer_or_asymmetric(self):
        with pytest.raises(InputError, match="integers"):
            separates_top_eigenvalues([[3]], [[Fraction(1, 2)]], 2)
        with pytest.raises(InputError, match="symmetric"):
            separates_top_eigenvalues([[3]], [[0, 1], [2, 0]], 2)
        with pytest.raises(InputError, match="square"):
            separates_top_eigenvalues([[3]], [[0, 1]], 2)

    def test_matches_float_on_graphs(self):
        rng = random.Random(7)
        for _ in range(30):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            bits = m * n
            g_mask = rng.randrange(1, 1 << bits)
            g = _graph_from_mask(g_mask, m, n)
            sub_mask = g_mask
            for _ in range(rng.randint(0, 2)):
                edges = [i for i in range(bits) if sub_mask >> i & 1]
                if len(edges) <= 1:
                    break
                sub_mask &= ~(1 << rng.choice(edges))
            h = _graph_from_mask(sub_mask, m, n)
            qg_rows, qh_rows = (signless_laplacian(x).astype(int).tolist() for x in (g, h))
            qg, qh = self.top(qg_rows), self.top(qh_rows)
            assert not self.certify(qh_rows, qg_rows)
            if sub_mask == g_mask or abs(qg - qh) <= 1e-7:
                assert not self.certify(qg_rows, qh_rows)
            else:
                assert self.certify(qg_rows, qh_rows) == (qg > qh)

    def test_matches_float_on_random_symmetric_pairs(self):
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            mats = []
            for t in (rng.randint(1, 7), rng.randint(1, 7)):
                rows = [[0] * t for _ in range(t)]
                for i in range(t):
                    for j in range(i, t):
                        rows[i][j] = rows[j][i] = rng.randint(-5, 5)
                mats.append(rows)
            top = [self.top(r) for r in mats]
            if abs(top[0] - top[1]) <= 1e-6:
                continue
            checked += 1
            big, small = mats if top[0] > top[1] else mats[::-1]
            assert self.certify(big, small)
            assert not self.certify(small, big)


class TestSpanningSubgraphDrawing:
    """The fuzz's H: a uniform number of removals, each a uniformly random
    non-bridge, drawn by one shuffle and a connectivity test on the A-rows."""

    GRAPHS = [complete_bipartite(2, 3), BipartiteGraph(3, 3, (0b111, 0b011, 0b110)),
              BipartiteGraph(2, 4, (0b1111, 0b1011)), BipartiteGraph(3, 2, (0b11, 0b11, 0b01))]

    class OrderRng:
        """randint returns r; shuffle puts the list in the given order."""

        def __init__(self, r, order):
            self.r, self.order = r, order

        def randint(self, lo, hi):
            assert lo == 0 and self.r <= hi
            return self.r

        def shuffle(self, x):
            x[:] = [x[i] for i in self.order]

    @classmethod
    def removal_distribution(cls, g, r):
        """P(H) after r removals, each uniform among the current non-bridges."""
        choices = non_bridges(g)
        if not r or not choices:
            return {g.adj: Fraction(1)}
        out = defaultdict(Fraction)
        for a, b in choices:
            h = BipartiteGraph(g.m, g.n, g.adj[:a] + (g.adj[a] & ~(1 << b),) + g.adj[a + 1:])
            for adj, p in cls.removal_distribution(h, r - 1).items():
                out[adj] += p / len(choices)
        return out

    def test_oracle_on_path_and_cycle(self):
        # path a0-b0-a1-b1: every edge is a bridge; closing it to a 4-cycle
        # makes every edge a non-bridge; a disconnected graph has none
        assert non_bridges(BipartiteGraph(2, 2, (0b01, 0b11))) == []
        cycle = BipartiteGraph(2, 2, (0b11, 0b11))
        assert non_bridges(cycle) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert non_bridges(BipartiteGraph(2, 2, (0b11, 0b00))) == []

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.m}x{g.n}:{g.adj}")
    def test_distribution_matches_uniform_non_bridge_removals(self, g):
        slack = g.edge_count - (g.m + g.n - 1)
        assert slack >= 1
        orders = list(itertools.permutations(range(g.edge_count)))
        for r in range(slack + 1):
            got = defaultdict(Fraction)
            for order in orders:
                h = verify._random_spanning_subgraph(self.OrderRng(r, order), g)
                got[h.adj] += Fraction(1, len(orders))
            assert got == self.removal_distribution(g, r)

    def test_fuzz_pairs_are_connected_spanning_subgraphs(self):
        for g, h in verify._fuzz_pairs(3000, seed=1):
            assert (h.m, h.n) == (g.m, g.n) and is_connected(h)
            assert all(y & ~x == 0 for x, y in zip(g.adj, h.adj))

    def test_drawn_pairs_pinned(self):
        # the RNG stream itself, not just the report's counts
        digest = hashlib.sha256()
        for seed in range(6):
            for g, h in verify._fuzz_pairs(3000, seed):
                digest.update(repr((g.m, g.n, g.adj, h.adj)).encode())
        assert digest.hexdigest() == "c14d0cf61ed948253ba97aa168eda886d83dcc6f4892bef04740cc5428d75065"

    def test_drawing_builds_no_graph_per_candidate(self, monkeypatch):
        # connectivity is decided on the A-rows alone: no columns, no search
        calls = []
        for module, name in [(graph_core, "_transpose"), (graph_core, "reach"), (graph_core, "is_connected"),
                             (verify, "reach"), (verify, "is_connected")]:
            real = getattr(module, name, None)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args),
                                raising=False)
        pairs = list(verify._fuzz_pairs(300, seed=3))
        assert calls == [] and len(pairs) == 300

    @pytest.mark.parametrize("seed", range(12))
    def test_pairs_match_column_reference(self, seed, monkeypatch):
        # the row test draws the very pairs that reach over rows and columns drew
        drawn = list(verify._fuzz_pairs(3000, seed))
        monkeypatch.setattr(verify, "_random_connected", column_random_connected)
        monkeypatch.setattr(verify, "_random_spanning_subgraph", column_random_spanning_subgraph)
        assert drawn == list(verify._fuzz_pairs(3000, seed))

    def test_rows_connected_matches_is_connected(self):
        rng = random.Random(7)
        for _ in range(5000):
            m, n = rng.randint(1, 7), rng.randint(1, 9)
            g = BipartiteGraph(m, n, tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)))
            assert verify._rows_connected(list(g.adj), (1 << n) - 1) == is_connected(g), g


class TestShortDyadic:
    """The oracle _short_dyadic(qh, qg): the dyadic with the least denominator
    exponent t, then the least numerator, in [qh + gap/4, qg - gap/4]."""

    @staticmethod
    def middle_half(qh, qg):
        qh, qg = Fraction(qh), Fraction(qg)
        return qh + (qg - qh) / 4, qg - (qg - qh) / 4

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(3000):
            qh = rng.uniform(-60, 60)
            qg = qh + rng.choice((1e-12, 1e-6, 1e-2, 1.0, 40.0)) * rng.random()
            if not qh < qg:
                continue
            lo, hi = self.middle_half(qh, qg)
            x = _short_dyadic(qh, qg)
            t = x.denominator.bit_length() - 1
            assert x.denominator == 1 << t and lo <= x <= hi, (qh, qg, x)
            for shorter in range(t):   # no multiple of 2^-shorter in range
                assert math.ceil(lo * 2 ** shorter) > hi * 2 ** shorter, (qh, qg, shorter)
            assert x - Fraction(1, 1 << t) < lo   # and the least numerator at t

    @pytest.mark.parametrize("qh, qg", [
        (-1.7976931348623157e308, 1.7976931348623157e308),   # the float gap overflows
        (1.7976931348623155e308, 1.7976931348623157e308),    # adjacent, at the top
        (0.0, 5e-324),                                       # adjacent subnormals
        (-5e-324, 0.0),
        (1.0, math.nextafter(1.0, 2.0)),
    ])
    def test_extreme_pairs(self, qh, qg):
        lo, hi = self.middle_half(qh, qg)
        assert lo <= _short_dyadic(qh, qg) <= hi


class TestMonotonicityFuzz:
    def test_spanning_tree_of_k33_below_six(self):
        # q(K_{3,3}) = 6; any proper spanning subgraph sits strictly below
        tree = BipartiteGraph(3, 3, (0b111, 0b001, 0b001))
        assert is_connected(tree)
        (value,), _ = top_eigenpairs(signless_laplacian(tree)[None])[:2]
        assert value < 6.0 - 1e-6

    def test_identical_graphs_equal(self):
        g = complete_bipartite(3, 4)
        (a,), _ = top_eigenpairs(signless_laplacian(g)[None])[:2]
        (b,), _ = top_eigenpairs(signless_laplacian(g)[None])[:2]
        assert abs(a - b) <= 1e-12

    def test_small_run_clean(self):
        rep = subgraph_monotonicity_fuzz(trials=300, seed=5)
        assert rep.trials == 300
        assert rep.violations == []
        assert rep.strict_failures == []
        assert rep.strict_checks > 0

    def test_deterministic(self):
        a = subgraph_monotonicity_fuzz(trials=100, seed=8)
        b = subgraph_monotonicity_fuzz(trials=100, seed=8)
        assert a == b

    @pytest.mark.parametrize("seed, equal_pairs", [(1, 1427), (5, 1431), (8, 1420)])
    def test_reports_pinned(self, seed, equal_pairs):
        rep = subgraph_monotonicity_fuzz(trials=3000, seed=seed)
        assert (rep.equal_pairs, rep.strict_checks, rep.violations, rep.strict_failures) == (
            equal_pairs, 400, [], [])

    def test_batched_radii_match_spectral_radius(self):
        by_shape = defaultdict(list)
        for g, h in verify._fuzz_pairs(300, seed=3):
            by_shape[g.m, g.n] += [g, h]
        for graphs in by_shape.values():
            values, _ = top_eigenpairs(np.stack([signless_laplacian(x) for x in graphs]))[:2]
            for x, value in zip(graphs, values.tolist()):
                (alone,), _ = top_eigenpairs(signless_laplacian(x)[None])[:2]
                assert abs(value - alone) <= 1e-12

    def test_violations_reported_in_trial_order(self, monkeypatch):
        solve = verify.top_eigenpairs

        def raised(q):   # each matrix at minus its trace, so every H != G lies above its G
            top, residual, vectors = solve(q)
            return -np.trace(q, axis1=1, axis2=2), residual, vectors

        monkeypatch.setattr(verify, "top_eigenpairs", raised)
        rep = subgraph_monotonicity_fuzz(trials=60, seed=5)
        pairs = list(verify._fuzz_pairs(60, seed=5))
        assert [(v["trial"], v["m"], v["n"]) for v in rep.violations] == [
            (trial, g.m, g.n) for trial, (g, h) in enumerate(pairs) if h.adj != g.adj]
        assert rep.equal_pairs + len(rep.violations) == 60 and rep.equal_pairs > 0
        removed = [g.edge_count - h.edge_count for g, h in pairs if h.adj != g.adj]
        assert [v["qh"] - v["qg"] for v in rep.violations] == [2 * r for r in removed]

    def test_unseparated_radii_are_strict_failures(self, monkeypatch):
        solve = verify.top_eigenpairs

        def corrupted(q):   # every top vector e_0: its scaled ints do not separate
            top, residual, vectors = solve(q)
            return top, residual, np.eye(q.shape[1])[[0] * len(q)]

        monkeypatch.setattr(verify, "top_eigenpairs", corrupted)
        rep = subgraph_monotonicity_fuzz(trials=300, seed=5)
        assert rep.violations == []
        trials = [f["trial"] for f in rep.strict_failures]
        assert len(trials) == rep.strict_checks > 0 and trials == sorted(trials)

    def test_each_distinct_matrix_solved_once(self, monkeypatch):
        solved = []
        solve = verify.top_eigenpairs
        monkeypatch.setattr(verify, "top_eigenpairs", lambda q: solved.append(len(q)) or solve(q))
        rep = subgraph_monotonicity_fuzz(trials=3000, seed=1)
        assert (rep.equal_pairs, rep.strict_checks, rep.violations, rep.strict_failures) == (
            1427, 400, [], [])
        # only the pairs with H != G are compared, so only they are solved;
        # 13 shapes at seed 1, every (1, n) and (m, 1), have no such pair
        shapes = {(g.m, g.n, x) for g, h in verify._fuzz_pairs(3000, seed=1) if h.adj != g.adj
                  for x in (g.adj, h.adj)}
        assert sum(solved) == len(shapes) == 2907
        assert len(solved) == 48 - 13 and min(solved) > 0

    @pytest.mark.parametrize("seed", [1, 5, 8])
    def test_certificates_agree_with_bareiss_oracle(self, seed, monkeypatch):
        calls = []
        bounds = verify.collatz_wielandt_bounds

        def recorded(rows, m, n, y):
            calls.append((m, n, rows))
            return bounds(rows, m, n, y)

        monkeypatch.setattr(verify, "collatz_wielandt_bounds", recorded)
        rep = subgraph_monotonicity_fuzz(trials=3000, seed=seed)
        assert (rep.strict_checks, rep.strict_failures) == (400, [])
        small = [(g, h) for g, h in verify._fuzz_pairs(3000, seed) if h.adj != g.adj and g.m + g.n <= 8]
        assert calls == [(g.m, g.n, x.adj) for g, h in small[:400] for x in (g, h)]
        for g, h in small[:400]:
            qg_rows, qh_rows = (signless_laplacian(x).astype(int).tolist() for x in (g, h))
            qg, qh = (float(np.linalg.eigvalsh(np.array(r, dtype=float))[-1]) for r in (qg_rows, qh_rows))
            assert separates_top_eigenvalues(qg_rows, qh_rows, _short_dyadic(qh, qg))

    @pytest.mark.parametrize("trials", [-3, -1, 2.5, 3.0, "10", None, True])
    def test_bad_trials_rejected(self, trials):
        with pytest.raises(InputError, match="trials must be a non-negative integer"):
            subgraph_monotonicity_fuzz(trials=trials)

    def test_zero_trials(self):
        rep = subgraph_monotonicity_fuzz(trials=0, seed=2)
        assert (rep.trials, rep.equal_pairs, rep.strict_checks) == (0, 0, 0)


class TestDemandCorpus:
    def test_deterministic(self):
        first = list(random_demand_instances(50, seed=3))
        second = list(random_demand_instances(50, seed=3))
        assert first == second

    def test_shapes_and_connectivity(self):
        for g, f in random_demand_instances(200, seed=4):
            assert 1 <= g.m <= 8 and 1 <= g.n <= 12
            assert is_connected(g)
            assert len(f) == g.m
            assert all(2 <= f[a] <= 4 for a in range(g.m))
