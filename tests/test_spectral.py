"""Spectral radius, quotient matrices, and exact characteristic polynomials.

numpy.linalg.eigvalsh serves here as the oracle for the power iteration;
the library reaches LAPACK only through its eigh fallback.
"""

import random
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
    SymMatrix,
    char_poly,
    complete_bipartite,
    extremal_graph,
    family_char_coeffs,
    from_edge_list,
    quotient_matrix,
    signless_laplacian,
    spectral_radius,
)
from qspan.extremal import ExtremalParams, build_family, family_partition
from qspan.poly import CHAR_POLY_CAP, PolyCoeffs, exact_char_poly, largest_real_root
from qspan.spectral import DENSE_CAP


def oracle_radius(mtx: SymMatrix) -> float:
    return float(np.linalg.eigvalsh(mtx.entries)[-1])


def random_graph(rng, m, n, p=0.5):
    adj = tuple(
        sum(1 << b for b in range(n) if rng.random() < p) for _ in range(m)
    )
    return BipartiteGraph(m, n, adj)


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
        q = signless_laplacian(g).entries
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
        q = signless_laplacian(g).entries
        assert np.array_equal(q.sum(axis=1), 2 * q.diagonal())

    def test_order_over_dense_cap_rejected(self):
        with pytest.raises(CapacityError, match="dense cap"):
            signless_laplacian(BipartiteGraph(1, DENSE_CAP, (0,)))

    def test_symmetry_enforced(self):
        with pytest.raises(InputError):
            SymMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(InputError):
            SymMatrix(np.zeros((2, 3)))


class TestSpectralRadius:
    def test_complete_bipartite_closed_form(self):
        for m, n in [(1, 1), (2, 5), (7, 7), (3, 30)]:
            est = spectral_radius(signless_laplacian(complete_bipartite(m, n)))
            assert est.value == pytest.approx(m + n, abs=1e-9)
            assert est.residual <= 1e-10 * max(1.0, est.value)

    def test_matches_dense_oracle(self):
        rng = random.Random(42)
        for _ in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 7)
            g = random_graph(rng, m, n, rng.uniform(0.2, 0.9))
            mtx = signless_laplacian(g)
            est = spectral_radius(mtx)
            assert est.value == pytest.approx(oracle_radius(mtx), abs=1e-8)

    def test_zero_matrix(self):
        est = spectral_radius(signless_laplacian(BipartiteGraph(2, 2, (0, 0))))
        assert est.value == 0.0

    def test_disconnected_still_correct(self):
        # power iteration handles reducible matrices; compare with oracle
        g = from_edge_list(2, 2, [(0, 0), (1, 1)])
        mtx = signless_laplacian(g)
        est = spectral_radius(mtx)
        assert est.value == pytest.approx(oracle_radius(mtx), abs=1e-9)

    def test_rejects_negative_entries(self):
        with pytest.raises(InputError):
            spectral_radius(SymMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]])))

    def test_estimate_reports_method(self):
        est = spectral_radius(signless_laplacian(complete_bipartite(2, 3)))
        assert est.method in ("power", "eigh")
        assert est.iterations >= 1

    def test_stalled_iteration_falls_back_to_eigh(self):
        # no residual reaches 1e-300, so every power step is spent first
        mtx = signless_laplacian(from_edge_list(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)]))
        est = spectral_radius(mtx, tol=1e-300)
        assert est.method == "eigh"
        assert est.iterations == 100 * mtx.order
        assert est.value == pytest.approx(oracle_radius(mtx), abs=1e-12)
        assert est.residual <= 1e-12

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(InputError):
            spectral_radius(signless_laplacian(complete_bipartite(2, 3)), tol=tol)

    @given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_rayleigh_quotient_never_exceeds(self, m, n, rng):
        g = random_graph(rng, m, n)
        mtx = signless_laplacian(g)
        est = spectral_radius(mtx)
        vec = np.array([rng.uniform(-1, 1) for _ in range(m + n)])
        norm = float(vec @ vec)
        if norm == 0.0:
            return
        rayleigh = float(vec @ mtx.entries @ vec) / norm
        assert rayleigh <= est.value + 1e-7

    @given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_row_sum_sandwich(self, m, n, rng):
        # all-ones Rayleigh bound from below, max row sum from above
        g = random_graph(rng, m, n)
        mtx = signless_laplacian(g)
        est = spectral_radius(mtx)
        row_sums = mtx.entries.sum(axis=1)
        assert row_sums.mean() <= est.value + 1e-7
        assert est.value <= row_sums.max() + 1e-7


class TestQuotientMatrix:
    def test_family_partition_is_equitable(self):
        p = ExtremalParams(3, 3, 7, 1)
        qm = quotient_matrix(build_family(p), family_partition(p))
        assert qm.equitable
        assert qm.is_integral()
        assert qm.block_sizes == (1, 2, 2, 5)

    def test_unbalanced_partition_not_equitable(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1), (1, 1)])
        qm = quotient_matrix(g, [[0, 1], [2, 3]])
        assert not qm.equitable

    def test_rows_average_within_blocks(self):
        g = complete_bipartite(2, 3)
        qm = quotient_matrix(g, [[0, 1], [2, 3, 4]])
        # degrees 3 and 2 on the diagonal, cross counts 3 and 2
        assert qm.entries == (
            (Fraction(3), Fraction(3)),
            (Fraction(2), Fraction(2)),
        )
        assert qm.equitable

    def test_single_part_average(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1), (1, 1)])
        qm = quotient_matrix(g, [range(4)])
        # sole entry is the average Q row sum: 4|E| / (m+n)
        assert qm.entries == ((Fraction(4 * 3, 4),),)
        assert not qm.equitable

    def test_complete_a_b_partition(self):
        qm = quotient_matrix(complete_bipartite(3, 5), [[0, 1, 2], [3, 4, 5, 6, 7]])
        assert qm.entries == (
            (Fraction(5), Fraction(5)),
            (Fraction(3), Fraction(3)),
        )
        assert qm.equitable

    def test_partition_must_cover(self):
        g = complete_bipartite(2, 2)
        with pytest.raises(InputError):
            quotient_matrix(g, [[0, 1], [2]])
        with pytest.raises(InputError):
            quotient_matrix(g, [[0, 1], [2, 3], []])
        with pytest.raises(InputError):
            quotient_matrix(g, [[0, 1], [2, 3, 3]])


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
        rows = signless_laplacian(extremal_graph(3, 3, 7)).entries.tolist()
        full = exact_char_poly(rows).coeffs
        quartic = family_char_coeffs(ExtremalParams(3, 3, 7, 1)).coeffs
        quotient, remainder = monic_divmod(full, quartic)
        assert len(quotient) == 7
        assert not any(remainder)

    def test_char_poly_requires_integral(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1), (1, 1)])
        qm = quotient_matrix(g, [[0, 1], [2, 3]])
        with pytest.raises(InputError):
            char_poly(qm)


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


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        for name in qspan.__all__:
            assert getattr(qspan, name) is not None, name

    def test_polynomial_names_come_from_poly(self):
        assert qspan.PolyCoeffs is qspan.poly.PolyCoeffs
        assert qspan.largest_real_root is qspan.poly.largest_real_root
        assert qspan.spectral.exact_char_poly is qspan.poly.exact_char_poly
        assert qspan.verify.strictly_larger_root is qspan.poly.strictly_larger_root
