"""Spectral radius, quotient matrices, and exact characteristic polynomials.

numpy.linalg.eigvalsh serves here as the oracle for spectral_radii, which
makes one LAPACK eigh call per stack of matrices; the radius of one matrix
is spectral_radii on a stack of one.
"""

import math
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
    InternalError,
    NumericalError,
    complete_bipartite,
    extremal_graph,
    family_char_coeffs,
    family_root,
    from_edge_list,
    quotient_matrix,
    signless_laplacian,
    spectral_radii,
)
from qspan import poly
from qspan.extremal import ExtremalParams, build_family, family_bracket, family_partition, spectral_threshold
from qspan.poly import CHAR_POLY_CAP, PolyCoeffs, exact_char_poly, largest_real_root
from qspan.spectral import DENSE_CAP

from oracles import bisect_root


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
        # K_{1,1} has residual 0; the path after it is the first that fails 1e-300
        path = signless_laplacian(from_edge_list(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)]))
        k11 = signless_laplacian(from_edge_list(2, 3, [(0, 0)]))
        with pytest.raises(NumericalError) as info:
            spectral_radii(np.stack([k11, path, path]), tol=1e-300)
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


class TestQuotientMatrix:
    def test_family_partition_is_equitable(self):
        p = ExtremalParams(3, 3, 7, 1)
        qm = quotient_matrix(build_family(p), family_partition(p))
        assert qm.equitable
        assert all(x.denominator == 1 for row in qm.entries for x in row)
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
        rows = signless_laplacian(extremal_graph(3, 3, 7)).tolist()
        full = exact_char_poly(rows).coeffs
        quartic = family_char_coeffs(ExtremalParams(3, 3, 7, 1)).coeffs
        quotient, remainder = monic_divmod(full, quartic)
        assert len(quotient) == 7
        assert not any(remainder)

    def test_char_poly_requires_integral(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1), (1, 1)])
        qm = quotient_matrix(g, [[0, 1], [2, 3]])
        with pytest.raises(InputError, match="integers"):
            exact_char_poly(qm.entries)


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
SWEEP_POINTS = [ExtremalParams(k, m, (k - 1) * m + extra, s)
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
            assert correctly_rounded(family_char_coeffs(p), family_root(p)), p

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

    def test_root_on_a_rounding_midpoint(self, monkeypatch):
        # 1 + 2**-53 lies halfway between 1 and the next float up
        p = PolyCoeffs((-Fraction(2 ** 53 + 1, 2 ** 53), 1))
        assert largest_real_root(p, (0, 2)) == 1.0     # hit exactly, ties to even
        # the seeded bracket 1 -/+ 4 ulp is dyadic, so bisection hits the tie
        assert largest_real_root(p, (0, 7)) == 1.0
        monkeypatch.setattr(poly, "_newton_bracket", lambda *args: None)
        with pytest.raises(InternalError):             # 7 * j / 2**t never hits it
            largest_real_root(p, (0, 7))

    def test_invalid_bracket(self):
        with pytest.raises(InputError):
            largest_real_root(PolyCoeffs((-2, 0, 1)), (2, 1))

    @pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf, None, "1", True, np.int64(1)])
    def test_bracket_end_types_refused(self, end):
        p = PolyCoeffs((-2, 0, 1))
        for bracket in ((end, 2), (0, end)):
            with pytest.raises(InputError, match="bracket ends"):
                largest_real_root(p, bracket)


class TestSeededRoot:
    """largest_real_root starts its bisection from a few-ulp bracket around a
    float Newton iterate once exact signs confirm it; the root it returns is
    the one that bisection from the caller's bracket alone returns."""

    def test_random_polynomials_match_plain_bisection(self):
        for p, bracket, _ in isolated_largest_roots(200, seed=3):
            assert largest_real_root(p, bracket) == bisect_root(p, bracket), (p, bracket)

    def test_sweep_roots_match_plain_bisection(self):
        for p in SWEEP_POINTS:
            assert family_root(p) == bisect_root(family_char_coeffs(p), family_bracket(p)), p

    def test_census_thresholds_match_plain_bisection(self):
        for k, m, n in CENSUS_POINTS:
            p = ExtremalParams(k, m, n, 1)
            assert spectral_threshold(k, m, n) == bisect_root(family_char_coeffs(p), family_bracket(p))

    def test_few_exact_evaluations_per_root(self, monkeypatch):
        calls = []
        horner = poly._horner

        def counted(*args):
            calls.append(None)
            return horner(*args)

        monkeypatch.setattr(poly, "_horner", counted)
        for p in SWEEP_POINTS:
            family_root(p)
        # bisection from the caller's bracket alone takes 55.4 per root
        assert len(calls) <= 12 * len(SWEEP_POINTS)

    @pytest.mark.parametrize("coeffs, bracket", [
        ((-(10 ** 400), 0, 1), (0, 10 ** 201)),         # float(coefficient) overflows
        ((-10, 16, -7, 1), (0, 2)),                     # f'(2) = 0: (x - 1)(x^2 - 6x + 10)
        ((1, 0, -(10 ** 200), 0, 1), (1, 10 ** 101)),   # Newton's values overflow to inf
    ])
    def test_seed_never_raises(self, coeffs, bracket):
        p = PolyCoeffs(coeffs)
        assert largest_real_root(p, bracket) == bisect_root(p, bracket)

    def test_seed_from_an_end_past_the_floats(self):
        # hi = 10**400 / 3 overflows a float; bisection from there would too, so
        # only the seed is asked
        assert poly._newton_bracket([-2, 0, 1], 0, 10 ** 400, 3, -18) is None

    def test_seed_strictly_inside_the_bracket(self):
        # the root 1 sits 1 ulp above the bracket's lower end, so the
        # seeded bracket would leave the caller's and is not used
        lo = math.nextafter(1.0, 0.0)
        lo_num, den = lo.as_integer_ratio()
        p = PolyCoeffs((-1, 1))
        assert poly._newton_bracket([-1, 1], lo_num, 2 * den, den, lo_num - den) is None
        assert largest_real_root(p, (lo, 2.0)) == 1.0


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        for name in qspan.__all__:
            assert getattr(qspan, name) is not None, name

    def test_polynomial_names_come_from_poly(self):
        assert qspan.PolyCoeffs is qspan.poly.PolyCoeffs
        assert qspan.largest_real_root is qspan.poly.largest_real_root
        assert qspan.verify.exact_char_poly is qspan.poly.exact_char_poly
        assert qspan.verify.separates_top_eigenvalues is qspan.poly.separates_top_eigenvalues
