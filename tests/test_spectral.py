"""Spectral radius, the quotient oracle, and exact characteristic polynomials.

numpy.linalg.eigvalsh serves here as the oracle for spectral_radii, which
takes its values from one LAPACK eigvalsh call per stack of matrices, and
numpy.linalg.eigh for top_eigenpairs, which takes each top vector from at
most two shifted solves; the radius of one matrix is spectral_radii on a
stack of one. The CLI's spectral report keeps "iterations": 0 and
"method": "eigh" as fixed schema-1 labels. The per-matrix trace recursion
in oracles.per_matrix_char_poly is the oracle for exact_char_polys.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspan
from qspan import (
    BipartiteGraph,
    CapacityError,
    InputError,
    InternalError,
    NumericalError,
    complete_bipartite,
    extremal_graph,
    family_char_coeffs,
    family_root,
    from_edge_list,
    signless_laplacian,
    spectral_radii,
)
from qspan import poly, verify
from qspan.extremal import ExtremalParams, build_family, family_bracket, family_quotient, spectral_threshold
from qspan.poly import CHAR_POLY_CAP, PolyCoeffs, exact_char_poly, exact_char_polys, largest_real_root
from qspan.spectral import DENSE_CAP, collatz_wielandt_bounds, mask_bits, q_matrices, top_eigenpairs

from oracles import bisect_root, connected_graphs, per_matrix_char_poly, quotient


def oracle_radius(mtx: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mtx)[-1])


def radius(mtx: np.ndarray, tol: float = 1e-10) -> tuple[float, float]:
    """(value, residual) of one matrix: spectral_radii on a stack of one."""
    (value,), (residual,) = spectral_radii(mtx[None], tol)
    return float(value), float(residual)


def random_graph(rng, m, n, p=0.5):
    adj = tuple(
        sum(1 << b for b in range(n) if rng.random() < p) for _ in range(m)
    )
    return BipartiteGraph(m, n, adj)


def path_graph(m):
    """The path a_0 b_0 a_1 ... b_{m-2} a_{m-1} on 2m - 1 vertices."""
    return from_edge_list(m, m - 1, [(a + d, a) for a in range(m - 1) for d in (0, 1)])


def fuzz_stacks(trials=3000, seed=1):
    """The (k, t, t) Q stacks that subgraph_monotonicity_fuzz(trials, seed)
    solves: per shape, each distinct adjacency of an H != G pair, in order."""
    shapes = {}
    for g, h in verify._fuzz_pairs(trials, seed):
        if h.adj != g.adj:
            index = shapes.setdefault((g.m, g.n), {})
            index.setdefault(g.adj)
            index.setdefault(h.adj)
    return [q_matrices(mask_bits([r for adj in index for r in adj], n).reshape(-1, m, n))
            for (m, n), index in shapes.items()]


def fraction_char_poly(rows):
    """Faddeev-LeVerrier over Fractions, ascending coefficients."""
    t = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    aux = [[Fraction(int(i == j)) for j in range(t)] for i in range(t)]
    descending = [Fraction(1)]
    for k in range(1, t + 1):
        prod = [[sum(mat[i][x] * aux[x][j] for x in range(t)) for j in range(t)]
                for i in range(t)]
        ck = -sum(prod[i][i] for i in range(t)) / k
        descending.append(ck)
        aux = [[prod[i][j] + (ck if i == j else 0) for j in range(t)] for i in range(t)]
    return tuple(reversed(descending))


def monic_divmod(a, b):
    """Integer long division of ascending a by monic ascending b."""
    rem = list(a)
    quotient = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quotient) - 1, -1, -1):
        factor = rem[shift + len(b) - 1]
        quotient[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
    return quotient, rem[:len(b) - 1]


class TestSignlessLaplacian:
    def test_entries(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1), (1, 1)])
        q = signless_laplacian(g)
        # diagonal carries degrees, off-diagonal blocks carry adjacency
        expected = np.array(
            [
                [2, 0, 1, 1],
                [0, 1, 0, 1],
                [1, 0, 1, 0],
                [1, 1, 0, 2],
            ],
            dtype=float,
        )
        assert np.array_equal(q, expected)

    def test_row_sums_are_twice_degree(self):
        g = complete_bipartite(3, 4)
        q = signless_laplacian(g)
        assert np.array_equal(q.sum(axis=1), 2 * q.diagonal())

    def test_matches_loop_reference(self):
        # p = 0 and p = 0.1 leave isolated vertices on both sides
        rng = random.Random(17)
        for _ in range(200):
            m, n = rng.randint(1, 9), rng.randint(1, 19)
            g = random_graph(rng, m, n, rng.choice((0.0, 0.1, 0.5, 0.9)))
            ref = np.zeros((m + n, m + n))
            for a in range(m):
                for b in range(n):
                    if g.has_edge(a, b):
                        ref[a, m + b] = ref[m + b, a] = 1.0
                        ref[a, a] += 1.0
                        ref[m + b, m + b] += 1.0
            assert np.array_equal(signless_laplacian(g), ref)

    def test_order_over_dense_cap_rejected(self):
        with pytest.raises(CapacityError, match="dense cap"):
            signless_laplacian(BipartiteGraph(1, DENSE_CAP, (0,)))


class TestSpectralRadius:
    def test_complete_bipartite_closed_form(self):
        for m, n in [(1, 1), (2, 5), (7, 7), (3, 30)]:
            value, residual = radius(signless_laplacian(complete_bipartite(m, n)))
            assert value == pytest.approx(m + n, abs=1e-9)
            assert residual <= 1e-10 * max(1.0, value)

    def test_matches_dense_oracle(self):
        rng = random.Random(42)
        for _ in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 7)
            g = random_graph(rng, m, n, rng.uniform(0.2, 0.9))
            mtx = signless_laplacian(g)
            value, _ = radius(mtx)
            assert value == pytest.approx(oracle_radius(mtx), abs=1e-8)

    def test_zero_matrix(self):
        value, _ = radius(signless_laplacian(BipartiteGraph(2, 2, (0, 0))))
        assert value == 0.0

    def test_disconnected_still_correct(self):
        # a reducible Q has a repeated top eigenvalue; compare with oracle
        g = from_edge_list(2, 2, [(0, 0), (1, 1)])
        mtx = signless_laplacian(g)
        value, _ = radius(mtx)
        assert value == pytest.approx(oracle_radius(mtx), abs=1e-9)

    def test_rejects_negative_entries(self):
        with pytest.raises(InputError):
            radius(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_residual_over_tol_raises_with_best(self):
        # no eigenvector residual reaches 1e-300 * q in floating point
        mtx = signless_laplacian(from_edge_list(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)]))
        with pytest.raises(NumericalError) as info:
            radius(mtx, tol=1e-300)
        value, residual = info.value.best
        assert value == pytest.approx(oracle_radius(mtx), abs=1e-12)
        assert 0 < residual <= 1e-12

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(InputError):
            radius(signless_laplacian(complete_bipartite(2, 3)), tol=tol)

    @given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_rayleigh_quotient_never_exceeds(self, m, n, rng):
        g = random_graph(rng, m, n)
        mtx = signless_laplacian(g)
        value, _ = radius(mtx)
        vec = np.array([rng.uniform(-1, 1) for _ in range(m + n)])
        norm = float(vec @ vec)
        if norm == 0.0:
            return
        rayleigh = float(vec @ mtx @ vec) / norm
        assert rayleigh <= value + 1e-7

    @given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_row_sum_sandwich(self, m, n, rng):
        # all-ones Rayleigh bound from below, max row sum from above
        g = random_graph(rng, m, n)
        mtx = signless_laplacian(g)
        value, _ = radius(mtx)
        row_sums = mtx.sum(axis=1)
        assert row_sums.mean() <= value + 1e-7
        assert value <= row_sums.max() + 1e-7


class TestSpectralRadii:
    @staticmethod
    def stack(rng, count, m, n):
        return np.stack([signless_laplacian(random_graph(rng, m, n)) for _ in range(count)])

    def test_matches_eigvalsh_and_spectral_radius(self):
        rng = random.Random(43)
        for m, n in [(1, 1), (2, 5), (4, 4), (6, 8)]:
            q = self.stack(rng, 25, m, n)
            values, residuals = spectral_radii(q)
            assert values.shape == residuals.shape == (25,)
            np.testing.assert_allclose(values, np.linalg.eigvalsh(q)[:, -1], rtol=0, atol=1e-12)
            for mtx, value, residual in zip(q, values.tolist(), residuals.tolist()):
                assert radius(mtx) == (value, residual)
                assert residual <= 1e-10 * max(1.0, value)

    def test_residual_over_tol_raises_with_first_best(self):
        # the edgeless graph has residual 0; the path after it is the first that fails 1e-300
        path = signless_laplacian(from_edge_list(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)]))
        edgeless = signless_laplacian(from_edge_list(2, 3, []))
        with pytest.raises(NumericalError) as info:
            spectral_radii(np.stack([edgeless, path, path]), tol=1e-300)
        value, residual = info.value.best
        assert value == pytest.approx(oracle_radius(path), abs=1e-12)
        assert 0 < residual <= 1e-12

    def test_rejects_bad_stacks(self):
        sym = signless_laplacian(complete_bipartite(2, 3))
        with pytest.raises(InputError, match="symmetric"):
            spectral_radii(np.stack([sym, np.triu(sym)]))
        with pytest.raises(InputError, match="symmetric"):
            spectral_radii(np.array([[[0.0, 1.0], [2.0, 0.0]]]))
        with pytest.raises(InputError, match="negative"):
            spectral_radii(np.stack([sym, -sym]))
        with pytest.raises(InputError, match="stack of square"):
            spectral_radii(sym)
        with pytest.raises(InputError, match="stack of square"):
            spectral_radii(np.zeros((1, 2, 3)))
        with pytest.raises(InputError):
            spectral_radii(np.stack([sym]), tol=0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        # an infinite entry used to come back as radius inf with a nan
        # residual, and a nan one as "not symmetric"; the array that
        # signless_laplacian returns goes to spectral_radii unchecked
        q = signless_laplacian(complete_bipartite(2, 3))
        q[0, 0] = bad
        for stack in (np.array([[[bad]]]), q[None], np.stack([q, q])):
            with pytest.raises(InputError, match="matrix has non-finite entries"):
                spectral_radii(stack)

    @pytest.mark.parametrize("shape", [(0, 5, 5), (1, 0, 0), (3, 0, 0)])
    def test_rejects_empty_stacks(self, shape):
        with pytest.raises(InputError, match="at least one matrix"):
            spectral_radii(np.zeros(shape))

    @pytest.mark.parametrize("stack, name", [
        ([[[1.0]]], "list"),
        (np.array([[[1.0]]], dtype=object), "object"),
        (np.array([[["1"]]]), "<U1"),
        (np.array([[[1.0]]], dtype=complex), "complex128"),
    ], ids=["list", "object", "str", "complex"])
    def test_rejects_stacks_that_are_not_real_arrays(self, stack, name):
        with pytest.raises(InputError, match=re.escape(f"expected a real ndarray stack, got {name}")):
            spectral_radii(stack)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.int64, np.float16, np.float32])
    def test_real_stacks_are_taken_as_float64(self, dtype):
        # 0/1 entries, so every dtype holds the same matrices
        q = np.array([[[0, 1], [1, 0]], [[1, 1], [1, 1]], [[0, 0], [0, 0]], [[1, 0], [0, 0]]])
        got = top_eigenpairs(q.astype(dtype))
        want = top_eigenpairs(q.astype(np.float64))
        for a, b in zip(got, want):
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a, b)


class TestTopEigenpairs:
    def test_radii_are_its_first_two(self):
        rng = random.Random(44)
        q = TestSpectralRadii.stack(rng, 30, 3, 5)
        values, residuals, vectors = top_eigenpairs(q)
        got = spectral_radii(q)
        np.testing.assert_array_equal(got[0], values)
        np.testing.assert_array_equal(got[1], residuals)
        assert vectors.shape == (30, 8)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("kij,kj->ki", q, vectors), values[:, None] * vectors,
                                   atol=1e-9)

    def test_same_checks(self):
        sym = signless_laplacian(complete_bipartite(2, 3))
        with pytest.raises(InputError, match="symmetric"):
            top_eigenpairs(np.stack([sym, np.triu(sym)]))
        with pytest.raises(NumericalError):
            top_eigenpairs(signless_laplacian(from_edge_list(2, 3, [(0, 0), (0, 1), (1, 1)]))[None],
                           tol=1e-300)

    @pytest.fixture(scope="class")
    def stacks(self):
        return fuzz_stacks()

    @staticmethod
    def solve_spy(monkeypatch):
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(len(a)) or solve(a, b))
        return calls

    def test_fuzz_stacks_pinned(self, stacks):
        assert (len(stacks), sum(len(q) for q in stacks)) == (35, 2907)

    def test_values_are_eigvalsh_bit_for_bit(self, stacks):
        for q in stacks:
            np.testing.assert_array_equal(top_eigenpairs(q)[0], np.linalg.eigvalsh(q)[:, -1])

    def test_vectors_match_eigh_up_to_sign_on_gapped_stacks(self, stacks):
        for q in stacks:
            _, _, vectors = top_eigenpairs(q)
            vals, vecs = np.linalg.eigh(q)
            assert (vals[:, -1] - vals[:, -2]).min() > 0.05
            top = vecs[:, :, -1]
            np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=0, atol=1e-14)
            sign = np.sign(np.einsum("ki,ki->k", vectors, top))[:, None]
            np.testing.assert_allclose(vectors, sign * top, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("graph", [
        complete_bipartite(1, 1000),
        path_graph(501),
        # two equal components: a double top eigenvalue
        from_edge_list(6, 8, [(a + 3 * c, b + 4 * c) for c in (0, 1) for a in range(3) for b in range(4)]),
        # two K_{40,40} joined by one edge: a top gap near 0.026
        from_edge_list(80, 80, [(a + 40 * c, b + 40 * c) for c in (0, 1) for a in range(40) for b in range(40)]
                       + [(0, 40)]),
        from_edge_list(3, 4, []),
    ], ids=["K_1,1000", "P_1001", "double-top", "joined-K_40,40", "edgeless"])
    def test_residual_a_tenth_of_tol(self, graph):
        q = signless_laplacian(graph)[None]
        value, residual, vectors = top_eigenpairs(q)
        assert value[0] == np.linalg.eigvalsh(q)[0, -1]
        assert residual[0] <= 1e-11 * max(1.0, value[0])
        assert np.linalg.norm(vectors[0]) == pytest.approx(1.0, abs=1e-13)

    def test_residual_a_tenth_of_tol_on_random_graphs(self):
        rng = random.Random(46)
        for m, n, p in [(600, 600, 0.5), (600, 40, 0.05), (7, 600, 0.3), (250, 350, 0.01)]:
            value, residual, _ = top_eigenpairs(signless_laplacian(random_graph(rng, m, n, p))[None])
            assert residual[0] <= 1e-11 * max(1.0, value[0])

    def test_one_solve_at_default_tol(self, stacks, monkeypatch):
        calls = self.solve_spy(monkeypatch)
        for q in stacks:
            top_eigenpairs(q)
        assert calls == [len(q) for q in stacks]

    def test_second_solve_only_where_one_misses_tol(self, stacks, monkeypatch):
        # a stack takes a second solve iff some one-solve residual misses tol = 1e-13, and then passes
        one = [top_eigenpairs(q) for q in stacks]
        calls = self.solve_spy(monkeypatch)
        twice = 0
        for q, (value, residual, _) in zip(stacks, one):
            del calls[:]
            top_eigenpairs(q, tol=1e-13)
            misses = bool((residual > 1e-13 * np.maximum(1.0, value)).any())
            assert calls == [len(q)] * (1 + misses)
            twice += misses
        assert 0 < twice < len(stacks)

    def test_star_takes_two_solves_at_tol_1e_13(self, monkeypatch):
        # one solve leaves K_{1,1000} a relative residual near 1.6e-12
        calls = self.solve_spy(monkeypatch)
        value, residual, _ = top_eigenpairs(signless_laplacian(complete_bipartite(1, 1000))[None], tol=1e-13)
        assert calls == [1, 1]
        assert value[0] == pytest.approx(1001, abs=1e-10)
        assert residual[0] <= 1e-13 * value[0]

    def test_singular_solve_is_numerical_error(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match="singular"):
            top_eigenpairs(signless_laplacian(complete_bipartite(1, 1))[None])


class TestCollatzWielandt:
    """collatz_wielandt_bounds(rows, m, n, y): the least and greatest
    (Qy)_i / y_i, which bracket q for every positive y."""

    def test_brackets_eigvalsh_on_small_connected_graphs(self):
        rng = random.Random(45)
        for m, n in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (2, 6), (4, 4), (3, 5)]:
            graphs = list(connected_graphs(m, n))
            for g in rng.sample(graphs, min(40, len(graphs))):
                top = oracle_radius(signless_laplacian(g))
                for scale in (1, 10, 1 << 52):
                    y = [rng.randint(1, scale) for _ in range(m + n)]
                    (lo, lo_den), (hi, hi_den) = collatz_wielandt_bounds(g.adj, m, n, y)
                    assert lo / lo_den - 1e-9 <= top <= hi / hi_den + 1e-9
                    assert lo * hi_den <= hi * lo_den

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (2, 3), (3, 7), (6, 2)])
    def test_exact_perron_vector_of_complete_graph(self, m, n):
        # Q(K_{m,n}) y = (m + n) y for y = n on A and m on B
        g = complete_bipartite(m, n)
        lo, hi = collatz_wielandt_bounds(g.adj, m, n, [n] * m + [m] * n)
        assert Fraction(*lo) == Fraction(*hi) == m + n

    def test_diagonal_counted(self):
        # the path a0 - b0 - a1 at y = 1: (Qy) = (2, 2, 4), degree plus neighbours
        assert collatz_wielandt_bounds((1, 1), 2, 1, [1, 1, 1]) == ((2, 1), (4, 1))

    @pytest.mark.parametrize("y", [[1, 1], [1, 1, 1, 1], [1, 0, 1], [1, -2, 1], [1, 1.5, 1], [1, True, 1]])
    def test_rejects_bad_vectors(self, y):
        with pytest.raises(InputError, match="positive integers"):
            collatz_wielandt_bounds((1, 1), 2, 1, y)

    @pytest.mark.parametrize("rows", [(1, 1, 1), (1,), (1, 2), (1, -1), (1, True), (1, 1.0), (1, np.int64(1))],
                             ids=["more-than-m", "fewer-than-m", "bit-at-n", "negative", "bool", "float",
                                  "numpy-int"])
    def test_rejects_bad_rows(self, rows):
        # unchecked, (1, 1, 1) read a third A-row and bounded K_{2,1} (q = 3) above by 8,
        # and a bit at n or a negative row indexed y out of range
        with pytest.raises(InputError, match=re.escape("rows must be 2 integers in [0, 2^1)")):
            collatz_wielandt_bounds(rows, 2, 1, [1, 1, 1])


class TestQuotientMatrix:
    # the test oracle's quotient, on partitions small enough to work by hand
    def test_family_partition_is_equitable(self):
        p = ExtremalParams(3, 3, 7, 1)
        entries, equitable = quotient(build_family(p), [[0], [1, 2], [3, 4], range(5, 10)])
        assert equitable
        assert entries == family_quotient(3, 7, 1, 2)

    def test_unbalanced_partition_not_equitable(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1), (1, 1)])
        _, equitable = quotient(g, [[0, 1], [2, 3]])
        assert not equitable

    def test_rows_average_within_blocks(self):
        g = complete_bipartite(2, 3)
        entries, equitable = quotient(g, [[0, 1], [2, 3, 4]])
        # degrees 3 and 2 on the diagonal, cross counts 3 and 2
        assert entries == (
            (Fraction(3), Fraction(3)),
            (Fraction(2), Fraction(2)),
        )
        assert equitable

    def test_single_part_average(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1), (1, 1)])
        entries, equitable = quotient(g, [range(4)])
        # sole entry is the average Q row sum: 4|E| / (m+n)
        assert entries == ((Fraction(4 * 3, 4),),)
        assert not equitable

    def test_complete_a_b_partition(self):
        entries, equitable = quotient(complete_bipartite(3, 5), [[0, 1, 2], [3, 4, 5, 6, 7]])
        assert entries == (
            (Fraction(5), Fraction(5)),
            (Fraction(3), Fraction(3)),
        )
        assert equitable


class TestExactCharPoly:
    def test_known_2x2(self):
        # x^2 - 5x + 4 has roots 1 and 4
        rows = ((Fraction(2), Fraction(1)), (Fraction(2), Fraction(3)))
        assert exact_char_poly(rows).coeffs == (Fraction(4), Fraction(-5), Fraction(1))

    def test_identity_matrix(self):
        rows = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
        )
        assert exact_char_poly(rows).coeffs == (
            Fraction(-1),
            Fraction(3),
            Fraction(-3),
            Fraction(1),
        )

    def test_matches_numpy_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            t = rng.randint(1, 5)
            rows = tuple(
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(t))
                for _ in range(t)
            )
            coeffs = exact_char_poly(rows).coeffs
            arr = np.array([[float(x) for x in row] for row in rows])
            oracle = np.poly(arr)[::-1]  # ascending
            got = np.array([float(c) for c in coeffs])
            assert np.allclose(got, oracle, atol=1e-6)

    def test_zero_matrix(self):
        rows = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
        assert exact_char_poly(rows).coeffs == (
            Fraction(0),
            Fraction(0),
            Fraction(0),
            Fraction(1),
        )

    def test_identity_2x2(self):
        rows = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        # (x-1)^2 = x^2 - 2x + 1
        assert exact_char_poly(rows).coeffs == (Fraction(1), Fraction(-2), Fraction(1))

    def test_diagonal_product_formula(self):
        # char poly of diag(d1..dt) evaluated at integers matches prod(x - di)
        diag = (2, -1, 5, 0)
        rows = tuple(
            tuple(Fraction(diag[i] if i == j else 0) for j in range(4))
            for i in range(4)
        )
        p = exact_char_poly(rows)
        for x in range(0, 5):
            want = 1
            for d in diag:
                want *= x - d
            assert p.evaluate(Fraction(x)) == want

    def test_entries_that_fraction_maps_to_integers(self):
        rows = [[np.int64(2), 1.0], [Fraction(2), "3"]]
        assert exact_char_poly(rows).coeffs == (4, -5, 1)

    def test_non_integer_entry_rejected(self):
        with pytest.raises(InputError, match="integers"):
            exact_char_poly([[Fraction(1, 2)]])
        with pytest.raises(InputError, match="integers"):
            exact_char_poly([[0.5]])

    @pytest.mark.parametrize("entry", ["x", None, [1], object(), np.True_, math.nan, math.inf],
                             ids=["str", "None", "list", "object", "numpy-bool", "nan", "inf"])
    def test_entry_that_fraction_cannot_read_rejected(self, entry):
        # Fraction raises ValueError, TypeError or OverflowError on each of these
        with pytest.raises(InputError, match=re.escape(f"entries must be integers, got {entry!r}")):
            exact_char_poly([[1, 0], [0, entry]])

    def test_coefficients_are_ints(self):
        rows = [[2, 1, 0], [1, 3, 1], [0, 1, 1]]
        assert all(type(c) is int for c in exact_char_poly(rows).coeffs)

    def test_matches_fraction_reference(self):
        rng = random.Random(11)
        for t in range(1, CHAR_POLY_CAP + 1):
            for _ in range(3):
                rows = [[rng.randint(-4, 4) for _ in range(t)] for _ in range(t)]
                assert exact_char_poly(rows).coeffs == fraction_char_poly(rows)

    def test_order_cap(self):
        assert CHAR_POLY_CAP == 11
        with pytest.raises(CapacityError):
            exact_char_poly([[0] * 12 for _ in range(12)])

    def test_family_quartic_divides_extremal_char_poly(self):
        # q* is an exact eigenvalue of Q(G*): the s=1 quotient quartic
        # divides the order-10 characteristic polynomial with no remainder
        rows = signless_laplacian(extremal_graph(3, 3, 7)).tolist()
        full = exact_char_poly(rows).coeffs
        quartic = family_char_coeffs(3, 7, 1, 2).coeffs
        quotient, remainder = monic_divmod(full, quartic)
        assert len(quotient) == 7
        assert not any(remainder)

    def test_char_poly_requires_integral(self):
        # the A-B quotient of the path 1 - a0 - 0 - a1 averages degrees 2 and 1
        rows = [[Fraction(3, 2), Fraction(3, 2)], [Fraction(3, 2), Fraction(3, 2)]]
        with pytest.raises(InputError, match="integers"):
            exact_char_poly(rows)


def near_2_20(count, seed):
    """count random 4x4 matrices of entries near +-2**20: their row sums near
    2**22 put them past the int64 bound, 4 (2w)**4 >= 2**63."""
    rng = random.Random(seed)
    return [[[rng.choice((-1, 1)) * rng.randint(2 ** 20 - 64, 2 ** 20) for _ in range(4)] for _ in range(4)]
            for _ in range(count)]


def grid_quotients(k_values, m_values, n_extras):
    """family_quotient at every interior point of a proof-sweep grid, in sweep order."""
    return [family_quotient(m, (k - 1) * m + extra, s, (k - 1) * s)
            for k, m, extra in itertools.product(k_values, m_values, n_extras) if extra
            for s in range(1, m)]


class TestExactCharPolys:
    """exact_char_polys: one trace recursion over a stack of matrices of one
    order, checked against the per-matrix oracle."""

    @staticmethod
    def assert_matches_oracle(stack):
        got = exact_char_polys(stack)
        assert [p.coeffs for p in got] == [per_matrix_char_poly(rows).coeffs for rows in stack]
        assert all(type(c) is int for p in got for c in p.coeffs)

    @pytest.mark.parametrize("grid, size", [
        ((range(3, 8), range(3, 9), range(0, 9)), 1080),     # the exact-fuzz workload's sweep
        ((range(3, 5), range(3, 10), range(1, 21)), 1400),   # the largest grid proof-sweep accepts
    ])
    def test_sweep_grid_quotients_match_oracle(self, grid, size):
        stack = grid_quotients(*grid)
        assert len(stack) == size
        self.assert_matches_oracle(stack)

    @pytest.mark.parametrize("t", range(1, CHAR_POLY_CAP + 1))
    def test_random_stacks_past_int64_match_oracle(self, t):
        rng = random.Random(t)
        bound = 10 ** 30
        stack = [[[rng.randint(-bound, bound) for _ in range(t)] for _ in range(t)] for _ in range(4)]
        stack.append([[rng.randint(-4, 4) for _ in range(t)] for _ in range(t)])
        self.assert_matches_oracle(stack)
        assert max(abs(c) for c in exact_char_polys(stack[:1])[0].coeffs) > 2 ** 63

    @staticmethod
    def bound_stack(t, above):
        """Five random t x t matrices whose largest absolute row sum w is the
        largest with t (2w)^t < 2^63, where the recursion runs on int64, or
        one more, where it runs on Python ints."""
        lo, hi = 0, 2 ** 62
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if t * (2 * mid) ** t < 2 ** 63 else (lo, mid)
        w = hi if above else lo
        rng = random.Random(100 + t)

        def row():   # t random integers whose absolute values sum to w
            cuts = sorted(rng.randint(0, w) for _ in range(t - 1))
            return [rng.choice((-1, 1)) * (b - a) for a, b in zip([0, *cuts], [*cuts, w])]

        stack = [[row() for _ in range(t)] for _ in range(3)]
        stack.append([[abs(x) for x in row()] for _ in range(t)])
        stack.append([[-w * (i == j) for j in range(t)] for i in range(t)])
        return stack

    @pytest.fixture
    def matmul_dtypes(self, monkeypatch):
        """The dtype of every stack the recursion multiplies."""
        matmul, dtypes = np.matmul, set()

        def spy(a, b):
            dtypes.add(a.dtype)
            return matmul(a, b)

        monkeypatch.setattr(poly.np, "matmul", spy)
        return dtypes

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("t", range(1, CHAR_POLY_CAP + 1))
    def test_random_stacks_at_int64_bound_match_oracle(self, matmul_dtypes, t, above):
        self.assert_matches_oracle(self.bound_stack(t, above))
        assert matmul_dtypes == (set() if t == 1 else {np.dtype(object) if above else np.dtype(np.int64)})

    @pytest.fixture
    def int_matrix_calls(self, monkeypatch):
        """How many matrices go through poly._int_matrix."""
        calls, int_matrix = [], poly._int_matrix
        monkeypatch.setattr(poly, "_int_matrix", lambda rows: calls.append(None) or int_matrix(rows))
        return calls

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("t", range(1, CHAR_POLY_CAP + 1))
    def test_int64_array_stacks_at_bound_match_oracle(self, matmul_dtypes, int_matrix_calls, t, above):
        # an int64 (N, t, t) array is taken as it is, on the same side of the bound as its rows
        stack = self.bound_stack(t, above)
        got = exact_char_polys(np.array(stack, dtype=np.int64))
        assert [p.coeffs for p in got] == [per_matrix_char_poly(rows).coeffs for rows in stack]
        assert all(type(c) is int for p in got for c in p.coeffs)
        assert matmul_dtypes == (set() if t == 1 else {np.dtype(object) if above else np.dtype(np.int64)})
        assert int_matrix_calls == []

    @pytest.mark.parametrize("stack", [
        near_2_20(3, seed=20),
        # int64 extremes: in int64, |-2**63| and these absolute row sums wrap to 0 or below
        [[[-2 ** 63, -2 ** 63], [0, 0]], [[-2 ** 63, 0], [0, -2 ** 63]]],
        [[[-2 ** 63]]],
    ], ids=["near-2**20", "extremes-2x2", "extremes-1x1"])
    def test_int64_array_past_bound_runs_on_python_ints(self, matmul_dtypes, stack):
        got = exact_char_polys(np.array(stack, dtype=np.int64))
        assert [p.coeffs for p in got] == [per_matrix_char_poly(rows).coeffs for rows in stack]
        assert all(type(c) is int for p in got for c in p.coeffs)
        assert matmul_dtypes <= {np.dtype(object)}

    @pytest.mark.parametrize("t", [0, 4, CHAR_POLY_CAP + 1])
    def test_empty_int64_array(self, t):
        assert exact_char_polys(np.zeros((0, t, t), dtype=np.int64)) == []

    @pytest.mark.parametrize("shape", [(4,), (4, 4), (2, 3, 4), (2, 4, 4, 4)])
    def test_int64_array_of_wrong_shape_rejected(self, shape):
        with pytest.raises(InputError, match=re.escape(f"shape (N, t, t), got {shape}")):
            exact_char_polys(np.zeros(shape, dtype=np.int64))

    def test_bool_and_float_arrays_take_the_list_path(self, int_matrix_calls):
        ints = [[[2, 1], [1, 3]], [[0, -1], [-1, 0]]]
        want = [p.coeffs for p in exact_char_polys(ints)]
        for dtype in (float, np.int32):
            assert [p.coeffs for p in exact_char_polys(np.array(ints, dtype=dtype))] == want
        assert len(int_matrix_calls) == 6
        with pytest.raises(InputError, match="entries must be integers"):
            exact_char_polys(np.array([[[2.0, 0.5], [0.5, 3.0]]]))
        with pytest.raises(InputError, match="entries must be integers"):
            exact_char_polys(np.array(ints, dtype=bool))

    def test_empty_stack(self):
        assert exact_char_polys([]) == []
        assert exact_char_polys(iter(())) == []

    def test_mixed_orders_rejected(self):
        with pytest.raises(InputError, match="one order"):
            exact_char_polys([[[1, 0], [0, 1]], [[1]]])

    def test_non_integral_entry_in_any_matrix_rejected(self):
        good = [[2, 1], [1, 3]]
        for at in range(3):
            stack = [good] * 3
            stack[at] = [[2, Fraction(1, 2)], [1, 3]]
            with pytest.raises(InputError, match="entries must be integers"):
                exact_char_polys(stack)

    def test_order_over_cap(self):
        with pytest.raises(CapacityError, match="order 12 exceeds exact char poly cap 11"):
            exact_char_polys([[[0] * 12 for _ in range(12)]] * 2)

    @pytest.mark.parametrize("call, entry, message", [
        (1, (0, 0), "must be integral"),      # the trace at k = 2 is off by one
        (3, (0, 1), "Cayley-Hamilton"),       # the last product, off its diagonal
    ])
    def test_corrupted_product_raises(self, monkeypatch, call, entry, message):
        matmul, calls = np.matmul, []

        def corrupted(a, b):
            prod = matmul(a, b)
            calls.append(None)
            if len(calls) == call:
                prod[1][entry] += 1            # the middle matrix of three
            return prod

        stack = grid_quotients((3,), (3,), (1,))[:1] * 3
        assert len(stack[0]) == 4
        monkeypatch.setattr(poly.np, "matmul", corrupted)
        with pytest.raises(InternalError, match=message):
            exact_char_polys(stack)


class TestPolyCoeffs:
    def test_evaluate_horner(self):
        p = PolyCoeffs((Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)))
        assert p.evaluate(Fraction(1)) == 0
        assert p.evaluate(Fraction(2)) == 0
        assert p.evaluate(Fraction(3)) == 0
        assert p.evaluate(Fraction(4)) == 6

    def test_monic_required(self):
        with pytest.raises(InputError):
            PolyCoeffs((Fraction(1), Fraction(2)))

    def test_degree(self):
        p = PolyCoeffs((Fraction(0), Fraction(0), Fraction(1)))
        assert p.degree == 2


class TestLargestRealRoot:
    def test_cubic_known_root(self):
        # (x-1)(x-2)(x-5) = x^3 - 8x^2 + 17x - 10
        p = PolyCoeffs((Fraction(-10), Fraction(17), Fraction(-8), Fraction(1)))
        root = largest_real_root(p, (4.0, 6.0))
        assert root == pytest.approx(5.0, abs=1e-12)

    def test_bracket_without_sign_change(self):
        p = PolyCoeffs((Fraction(-10), Fraction(17), Fraction(-8), Fraction(1)))
        from qspan import NumericalError

        with pytest.raises(NumericalError):
            largest_real_root(p, (6.0, 8.0))

    def test_matches_numpy_roots(self):
        p = PolyCoeffs((Fraction(0), Fraction(-40), Fraction(49), Fraction(-14), Fraction(1)))
        root = largest_real_root(p, (9.0, 9.2))
        oracle = max(
            r.real for r in np.roots([1, -14, 49, -40, 0]) if abs(r.imag) < 1e-12
        )
        assert root == pytest.approx(oracle, abs=1e-10)

    def test_simple_quadratics(self):
        p = PolyCoeffs((Fraction(-1), Fraction(0), Fraction(1)))  # x^2 - 1
        assert largest_real_root(p, (0.0, 2.0)) == pytest.approx(1.0, abs=1e-10)
        p = PolyCoeffs((Fraction(0), Fraction(-3), Fraction(1)))  # x(x - 3)
        root = largest_real_root(p, (1.0, 5.0))
        # equals q(K_{1,2}) = m + n
        assert root == pytest.approx(3.0, abs=1e-10)


def correctly_rounded(p, root):
    """The definition of correct rounding: p changes sign or vanishes between
    the two half-ulp midpoints next to root, so a root of p rounds to it."""
    x = Fraction(root)
    below = (x + Fraction(math.nextafter(root, -math.inf))) / 2
    above = (x + Fraction(math.nextafter(root, math.inf))) / 2
    return p.evaluate(below) * p.evaluate(above) <= 0


def isolated_largest_roots(count, seed):
    """(polynomial, bracket, kind) with brackets isolating the largest real
    root; integer coefficients, a quarter of them Fractions instead, and
    float, Fraction or int bracket ends in turn."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        degree = rng.randint(2, 6)
        if rng.random() < 0.25:
            coeffs = [Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(degree)]
        else:
            coeffs = [rng.randint(-60, 60) for _ in range(degree)]
        p = PolyCoeffs(tuple(coeffs) + (1,))
        found = np.roots([float(c) for c in reversed(p.coeffs)])
        real = sorted(r.real for r in found if abs(r.imag) < 1e-9)
        if not real or (len(real) > 1 and real[-1] - real[-2] < 0.1):
            continue
        top, gap = real[-1], min(1.0, real[-1] - real[-2]) / 2 if len(real) > 1 else 0.5
        lo, hi = top - gap * rng.uniform(0.2, 0.9), top + gap * rng.uniform(0.2, 0.9)
        kind = ("float", "fraction", "int")[len(out) % 3]
        if kind == "int" and len(real) > 1 and math.floor(top) <= real[-2] + 0.01:
            kind = "fraction"
        if kind == "fraction":
            lo, hi = Fraction(math.floor(lo * 997), 997), Fraction(math.ceil(hi * 997), 997)
        elif kind == "int":
            lo, hi = math.floor(top), math.floor(top) + 1
        f_lo, f_hi = p.evaluate(Fraction(lo)), p.evaluate(Fraction(hi))
        if f_lo * f_hi <= 0 and f_hi != 0:
            out.append((p, (lo, hi), kind))
    return out


# the points of the benchmark's proof sweep (k 3..7, m 3..8, n offsets 1..8)
# that have a root; offset 0 is the boundary, with no root
SWEEP_POINTS = [(m, (k - 1) * m + extra, s, (k - 1) * s)
                for k in range(3, 8) for m in range(3, 9)
                for extra in range(1, 9) for s in range(1, m)]

# every census point pinned in the tests: the orbit oracle's, the CLI goldens'
# and the larger searches'
CENSUS_POINTS = sorted({(k, 3, n) for k in range(3, 8) for n in range((k - 1) * 3 + 1, 16)}
                       | {(3, 4, 9), (3, 5, 11), (3, 6, 13), (3, 7, 15), (5, 3, 14)})


class TestExactRoot:
    def test_benchmark_grid_roots_correctly_rounded(self):
        assert len(SWEEP_POINTS) == 1080
        for p in SWEEP_POINTS:
            assert correctly_rounded(family_char_coeffs(*p), family_root(*p)), p

    def test_random_polynomials_correctly_rounded(self):
        cases = isolated_largest_roots(200, seed=3)
        kinds = [kind for _, _, kind in cases]
        assert min(kinds.count(kind) for kind in ("float", "fraction", "int")) >= 30
        assert sum(any(isinstance(c, Fraction) for c in p.coeffs) for p, _, _ in cases) >= 30
        for p, (lo, hi), _ in cases:
            root = largest_real_root(p, (lo, hi))
            assert lo <= root <= hi
            assert correctly_rounded(p, root), (p, lo, hi, root)

    def test_root_at_an_end_or_midpoint_is_exact(self):
        p = PolyCoeffs((10, -7, 1))  # (x - 2)(x - 5)
        assert largest_real_root(p, (5, 8)) == 5.0          # at lo
        assert largest_real_root(p, (3, 5)) == 5.0          # at hi
        assert largest_real_root(p, (4, 6)) == 5.0          # first midpoint
        assert largest_real_root(p, (3.5, 5.0)) == 5.0

    @pytest.mark.parametrize("bracket", [
        (1, 2), (Fraction(1), Fraction(3, 2)), (1.0, 1.5), (Fraction(4, 3), 2.0), (1, 1.5),
    ])
    def test_bracket_end_types(self, bracket):
        p = PolyCoeffs((-2, 0, 1))
        assert largest_real_root(p, bracket) == math.sqrt(2)   # sqrt rounds correctly

    def test_fraction_coefficients(self):
        p = PolyCoeffs((Fraction(-1, 3), 1))
        assert largest_real_root(p, (0, 1)) == 1 / 3
        assert largest_real_root(p, (Fraction(1, 3), 1)) == 1 / 3
        p = PolyCoeffs((Fraction(-2, 9), 0, 1))       # root sqrt(2) / 3
        root = largest_real_root(p, (0, 1))
        assert correctly_rounded(p, root)

    def test_root_on_a_rounding_midpoint(self):
        # 1 + 2**-53 lies halfway between 1 and the next float up
        p = PolyCoeffs((-Fraction(2 ** 53 + 1, 2 ** 53), 1))
        assert largest_real_root(p, (0, 2)) == 1.0     # hit exactly, ties to even
        # 7 * j / 2**t never hits the tie; the sign at the ends' midpoint finds it
        assert largest_real_root(p, (0, 7)) == 1.0

    def test_invalid_bracket(self):
        with pytest.raises(InputError):
            largest_real_root(PolyCoeffs((-2, 0, 1)), (2, 1))

    @pytest.mark.parametrize("end", [
        math.nan, math.inf, -math.inf, None, "1", True, np.int64(1),
        pytest.param(10**401, id="10**401"),
        pytest.param(10**400, id="10**400"),
        pytest.param(Fraction(10**401, 3), id="10**401/3"),
    ])
    def test_bracket_end_types_refused(self, end):
        # ends past the float range included, whether the root lies past it
        # (x^2 - 10^800 on (0, 10^401)) or not (x - 1 on (0, 10^400))
        for p in (PolyCoeffs((-2, 0, 1)), PolyCoeffs((-(10**800), 0, 1)), PolyCoeffs((-1, 1))):
            for bracket in ((end, 2), (0, end)):
                with pytest.raises(InputError, match="bracket ends"):
                    largest_real_root(p, bracket)


class TestSeededRoot:
    """largest_real_root returns the root that bisection from the caller's
    bracket alone returns (tests/oracles.bisect_root)."""

    def test_random_polynomials_match_plain_bisection(self):
        for p, bracket, _ in isolated_largest_roots(200, seed=3):
            assert largest_real_root(p, bracket) == bisect_root(p, bracket), (p, bracket)

    def test_sweep_roots_match_plain_bisection(self):
        for p in SWEEP_POINTS:
            assert family_root(*p) == bisect_root(family_char_coeffs(*p), family_bracket(*p)), p

    def test_census_thresholds_match_plain_bisection(self):
        for k, m, n in CENSUS_POINTS:
            star = (m, n, 1, k - 1)
            assert spectral_threshold(k, m, n) == bisect_root(family_char_coeffs(*star), family_bracket(*star))

    @pytest.mark.parametrize("coeffs, bracket", [
        ((-(10 ** 400), 0, 1), (0, 10 ** 201)),         # a coefficient past the float range
        ((-10, 16, -7, 1), (0, 2)),                     # f'(2) = 0: (x - 1)(x^2 - 6x + 10)
        ((1, 0, -(10 ** 200), 0, 1), (1, 10 ** 101)),   # values past the float range
    ])
    def test_seed_never_raises(self, coeffs, bracket):
        p = PolyCoeffs(coeffs)
        assert largest_real_root(p, bracket) == bisect_root(p, bracket)


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        for name in qspan.__all__:
            assert getattr(qspan, name) is not None, name

    def test_polynomial_names_come_from_poly(self):
        assert qspan.PolyCoeffs is qspan.poly.PolyCoeffs
        assert qspan.largest_real_root is qspan.poly.largest_real_root
        assert qspan.verify.exact_char_poly is qspan.poly.exact_char_poly
