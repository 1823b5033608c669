"""Census engine, sweep checks, and the exact root-comparison machinery."""

import random
from fractions import Fraction

import numpy as np
import pytest

from qspan import (
    BipartiteGraph,
    CapacityError,
    InputError,
    complete_bipartite,
    enumerate_bipartite,
    is_connected,
    point_checks,
    separation_sweep,
    signless_laplacian,
    spectral_radius,
    subgraph_monotonicity_fuzz,
)
from qspan import verify
from qspan.extremal import ExtremalParams, spectral_threshold
from qspan.poly import exact_char_poly, strictly_larger_root
from qspan.verify import (
    _anderson_morley_bound,
    _batched_radius,
    _connected_filter,
    _graph_from_mask,
    _near_band,
    random_demand_instances,
    scan_stats,
)


class TestEnumeration:
    def test_total_count(self):
        assert sum(1 for _ in enumerate_bipartite(2, 2)) == 16
        assert sum(1 for _ in enumerate_bipartite(1, 3)) == 8

    def test_connected_count_2x2(self):
        # K22 (1), minus-one-edge (4): every other mask leaves a vertex out
        got = sum(1 for _ in enumerate_bipartite(2, 2, connected_only=True))
        assert got == 5

    def test_connected_matches_predicate(self):
        want = [g for g in enumerate_bipartite(2, 3) if is_connected(g)]
        got = list(enumerate_bipartite(2, 3, connected_only=True))
        assert got == want

    def test_connected_order_across_chunks(self, monkeypatch):
        monkeypatch.setattr(verify, "ENGINE_CHUNK", 7)
        want = [g for g in enumerate_bipartite(2, 3) if is_connected(g)]
        assert list(enumerate_bipartite(2, 3, connected_only=True)) == want

    def test_rejects_oversize(self):
        with pytest.raises(CapacityError):
            enumerate_bipartite(5, 5)

    def test_mask_layout(self):
        g = _graph_from_mask(0b1, 2, 2)  # bit 0 is edge (0, 0)
        assert g.has_edge(0, 0) and g.edge_count == 1
        g = _graph_from_mask(0b1000, 2, 2)  # bit a*n+b: (1, 1)
        assert g.has_edge(1, 1) and g.edge_count == 1


class TestVectorisedKernels:
    def test_connected_filter_matches_python(self):
        m, n = 2, 3
        masks = np.arange(1 << (m * n), dtype=np.int64)
        flags = _connected_filter(masks, m, n)
        for mask, flag in zip(masks, flags):
            assert bool(flag) == is_connected(_graph_from_mask(int(mask), m, n))

    def test_batched_radius_matches_scalar(self):
        m, n = 3, 4
        rng = random.Random(2)
        masks = np.array(
            sorted(rng.sample(range(1 << (m * n)), 200)), dtype=np.int64
        )
        keep = _connected_filter(masks, m, n)
        masks = masks[keep]
        values = _batched_radius(masks, m, n)
        for mask, value in zip(masks, values):
            g = _graph_from_mask(int(mask), m, n)
            scalar = spectral_radius(signless_laplacian(g)).value
            assert value == pytest.approx(scalar, abs=1e-8)

    def test_batched_radius_chunk_invariance(self):
        m, n = 2, 4
        masks = np.arange(1, 1 << (m * n), dtype=np.int64)
        keep = _connected_filter(masks, m, n)
        masks = masks[keep]
        whole = _batched_radius(masks, m, n)
        split = np.concatenate(
            [_batched_radius(masks[:40], m, n), _batched_radius(masks[40:], m, n)]
        )
        assert np.array_equal(whole, split)


@pytest.fixture(scope="module")
def sample_337():
    """A seeded sample of 50,000 connected masks at (m, n) = (3, 7)."""
    masks = np.arange(1 << 21, dtype=np.int64)
    connected = masks[_connected_filter(masks, 3, 7)]
    rng = np.random.default_rng(20241201)
    return np.sort(rng.choice(connected, 50_000, replace=False))


class TestCensusEngine:
    def test_bound_dominates_radius_2x4(self):
        masks = np.arange(1 << 8, dtype=np.int64)
        masks = masks[_connected_filter(masks, 2, 4)]
        bound = _anderson_morley_bound(masks, 2, 4)
        assert np.all(bound >= _batched_radius(masks, 2, 4) - 1e-9)

    def test_bound_matches_edge_definition(self):
        m, n = 2, 4
        for mask in range(1 << (m * n)):
            g = _graph_from_mask(mask, m, n)
            want = max((g.degree_a(a) + g.degree_b(b) for a in range(m) for b in range(n)
                        if g.has_edge(a, b)), default=0)
            got = _anderson_morley_bound(np.array([mask], dtype=np.int64), m, n)[0]
            assert got == want

    def test_bound_dominates_radius_337_sample(self, sample_337):
        bound = _anderson_morley_bound(sample_337, 3, 7)
        assert np.all(bound >= _batched_radius(sample_337, 3, 7) - 1e-9)

    @pytest.mark.parametrize("tol", [1e-7, 0.5])
    def test_pruned_near_band_matches_unpruned(self, sample_337, tol):
        qstar = spectral_threshold(3, 3, 7)
        lam = _batched_radius(sample_337, 3, 7)
        want = sample_337[lam >= qstar - tol]
        near, near_lam = _near_band(sample_337, 3, 7, qstar, tol)
        assert want.size > 0
        assert np.array_equal(near, want)
        assert np.array_equal(near_lam, lam[lam >= qstar - tol])

    def test_scan_stats_job_count_invariant(self):
        serial = scan_stats(3, 3, 7, jobs=1)
        assert serial.extremal_copies
        assert scan_stats(3, 3, 7, jobs=2) == serial

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_scan_stats_rejects_bad_tol(self, tol):
        with pytest.raises(InputError):
            scan_stats(3, 3, 7, tol=tol)

    @pytest.mark.parametrize("jobs", [0, -1, -8])
    def test_scan_stats_rejects_bad_jobs(self, jobs):
        with pytest.raises(InputError, match="jobs"):
            scan_stats(3, 3, 7, jobs=jobs)


class TestPointChecks:
    def test_all_pass_on_grid_sample(self):
        rng = random.Random(0)
        for k, m, n, s in [(3, 3, 7, 1), (3, 3, 7, 2), (4, 4, 13, 3), (5, 3, 14, 2)]:
            checks = point_checks(ExtremalParams(k, m, n, s), rng)
            assert all(checks.values()), checks

    def test_check_names_stable(self):
        checks = point_checks(ExtremalParams(3, 3, 7, 1), random.Random(0))
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


class TestStrictRootComparison:
    def test_separated_linear(self):
        big = (Fraction(-3), Fraction(1))  # root 3
        small = (Fraction(-2), Fraction(1))  # root 2
        assert strictly_larger_root(big, small)
        assert not strictly_larger_root(small, big)

    def test_equal_polys(self):
        p = (Fraction(-2), Fraction(1))
        assert not strictly_larger_root(p, p)

    def test_close_roots(self):
        # roots 2 and 2 + 1/1000000
        eps = Fraction(1, 10**6)
        big = (Fraction(-2) - eps, Fraction(1))
        small = (Fraction(-2), Fraction(1))
        assert strictly_larger_root(big, small)

    def test_repeated_roots_handled(self):
        # (x-2)^2 versus (x-1): squarefree reduction keeps it decidable
        big = (Fraction(4), Fraction(-4), Fraction(1))
        small = (Fraction(-1), Fraction(1))
        assert strictly_larger_root(big, small)
        assert not strictly_larger_root(small, big)

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
            mat_g = signless_laplacian(g)
            mat_h = signless_laplacian(h)
            pg = exact_char_poly(mat_g.entries.tolist()).coeffs
            ph = exact_char_poly(mat_h.entries.tolist()).coeffs
            qg = spectral_radius(mat_g).value
            qh = spectral_radius(mat_h).value
            want = qg > qh + 1e-7
            dont_know = abs(qg - qh) <= 1e-7
            got = strictly_larger_root(pg, ph)
            if not dont_know:
                assert got == want


class TestMonotonicityFuzz:
    def test_spanning_tree_of_k33_below_six(self):
        # q(K_{3,3}) = 6; any proper spanning subgraph sits strictly below
        tree = BipartiteGraph(3, 3, (0b111, 0b001, 0b001))
        assert is_connected(tree)
        est = spectral_radius(signless_laplacian(tree))
        assert est.value < 6.0 - 1e-6

    def test_identical_graphs_equal(self):
        g = complete_bipartite(3, 4)
        a = spectral_radius(signless_laplacian(g)).value
        b = spectral_radius(signless_laplacian(g)).value
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
