"""Join family construction, quotient closed forms, and threshold roots."""

from fractions import Fraction

import numpy as np
import pytest

from qspan import (
    ExtremalParams,
    InputError,
    build_family,
    complete_bipartite,
    extremal_graph,
    signless_laplacian,
    spectral_threshold,
)
from qspan.extremal import (
    difference_factor,
    difference_factor_coeffs,
    family_bracket,
    family_char_coeffs,
    family_quotient,
    family_root,
    family_rows,
    lower_endpoint_quadratic,
    upper_endpoint_quadratic,
)
from qspan.graph_core import is_connected, join, to_edge_list
from qspan.poly import exact_char_poly
from qspan.spectral import top_eigenpairs

from oracles import part_preserving_isomorphic, quotient

GRID = [
    (k, m, n, s)
    for k in (3, 4, 5)
    for m in (3, 4, 5)
    for n in range((k - 1) * m + 1, (k - 1) * m + 6)
    for s in range(1, m)
]


class TestParams:
    def test_accepts_grid(self):
        for k, m, n, s in GRID:
            p = ExtremalParams(k, m, n, s)
            assert p.r == (k - 1) * s

    def test_rejects_bad(self):
        with pytest.raises(InputError):
            ExtremalParams(2, 3, 7, 1)
        with pytest.raises(InputError):
            ExtremalParams(3, 2, 7, 1)
        with pytest.raises(InputError):
            ExtremalParams(3, 3, 6, 1)  # n below (k-1)m + 1
        with pytest.raises(InputError):
            ExtremalParams(3, 3, 7, 0)
        with pytest.raises(InputError):
            ExtremalParams(3, 3, 7, 3)  # s must stay below m

    @pytest.mark.parametrize("args", [(3.0, 3, 7, 1), (3, 3.0, 7, 1), (3, 3, 7.5, 1),
                                      (3, 3, 7, True), ("3", 3, 7, 1)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(InputError, match="is not an integer"):
            ExtremalParams(*args)

    def test_threshold_rejects_non_integers(self):
        with pytest.raises(InputError, match="k 3.0 is not an integer"):
            spectral_threshold(3.0, 3, 7)

    def test_numpy_fields_stored_as_int(self):
        p = ExtremalParams(np.int64(3), np.int32(3), np.uint16(7), np.int8(1))
        assert p == ExtremalParams(3, 3, 7, 1)
        assert all(type(v) is int for v in (p.k, p.m, p.n, p.s))
        assert spectral_threshold(np.int64(3), 3, 7) == spectral_threshold(3, 3, 7)


class TestBuildFamily:
    def test_structure_s1(self):
        p = ExtremalParams(3, 3, 7, 1)
        g = build_family(p)
        assert (g.m, g.n) == (3, 7)
        assert g.edge_count == 16
        assert is_connected(g)
        # first A-vertex sees exactly the first r B-vertices
        assert g.degree_a(0) == 2
        assert g.has_edge(0, 0) and g.has_edge(0, 1) and not g.has_edge(0, 2)
        # remaining A-vertices see everything
        assert g.degree_a(1) == 7 and g.degree_a(2) == 7

    def test_matches_join_of_completes(self):
        for k, m, n, s in [(3, 3, 7, 2), (4, 4, 13, 2), (5, 3, 13, 1)]:
            p = ExtremalParams(k, m, n, s)
            r = (k - 1) * s
            direct = join(complete_bipartite(s, r), complete_bipartite(m - s, n - r))
            assert build_family(p) == direct

    def test_extremal_graph_is_s1(self):
        g = extremal_graph(3, 3, 7)
        assert g == build_family(ExtremalParams(3, 3, 7, 1))

    def test_edge_count_formula(self):
        for k, m, n, s in GRID:
            g = build_family(ExtremalParams(k, m, n, s))
            r = (k - 1) * s
            # second-block vertices see all n B-vertices after the join
            assert g.edge_count == s * r + (m - s) * n

    def test_fifteen_edges_at_s2(self):
        assert build_family(ExtremalParams(3, 3, 7, 2)).edge_count == 15

    def test_degree_profile(self):
        # s A-vertices of degree r, m-s of degree n;
        # r B-vertices of degree m, n-r of degree m-s
        for k, m, n, s in [(3, 3, 7, 1), (4, 5, 17, 3), (5, 4, 18, 2)]:
            g = build_family(ExtremalParams(k, m, n, s))
            r = (k - 1) * s
            a_degrees = sorted(g.degree_a(a) for a in range(m))
            b_degrees = sorted(g.degree_b(b) for b in range(n))
            assert a_degrees == sorted([r] * s + [n] * (m - s))
            assert b_degrees == sorted([m] * r + [m - s] * (n - r))

    def test_s1_matches_direct_join(self):
        for k, m, n in [(3, 3, 7), (4, 4, 15), (5, 3, 13)]:
            g = build_family(ExtremalParams(k, m, n, 1))
            direct = join(
                complete_bipartite(1, k - 1), complete_bipartite(m - 1, n - k + 1)
            )
            assert part_preserving_isomorphic(g, direct)


class TestQuotient:
    def test_printed_example_s1(self):
        qm = family_quotient(3, 7, 1, 2)
        assert qm == (
            (2, 0, 2, 0),
            (0, 7, 2, 5),
            (1, 2, 3, 0),
            (0, 2, 0, 2),
        )
        assert all(type(x) is int for row in qm for x in row)

    def test_printed_example_s2(self):
        qm = family_quotient(3, 7, 2, 4)
        assert qm == (
            (4, 0, 4, 0),
            (0, 7, 4, 3),
            (2, 1, 3, 0),
            (0, 1, 0, 1),
        )

    def test_closed_form_matches_graph(self):
        # the join's four blocks: sparse A-side, dense A-side, joined B-side, rest of B
        for k, m, n, s in GRID:
            p = ExtremalParams(k, m, n, s)
            g = build_family(p)
            blocks = [range(0, s), range(s, m), range(m, m + p.r), range(m + p.r, m + n)]
            assert quotient(g, blocks) == (family_quotient(m, n, s, p.r), True)
            assert g.adj == family_rows(m, n, s, p.r)


class TestCharPoly:
    def test_printed_example(self):
        c = family_char_coeffs(3, 7, 1, 2)
        assert c.coeffs == (
            Fraction(0),
            Fraction(-40),
            Fraction(49),
            Fraction(-14),
            Fraction(1),
        )

    def test_formula_matches_determinant(self):
        for k, m, n, s in GRID:
            r = ExtremalParams(k, m, n, s).r
            assert family_char_coeffs(m, n, s, r).coeffs == exact_char_poly(family_quotient(m, n, s, r)).coeffs

    def test_difference_factorisation(self):
        # phi at s=1 minus phi at s equals x (s-1) psi(x), coefficientwise
        for k, m, n, s in GRID:
            lhs = [
                a - b
                for a, b in zip(
                    family_char_coeffs(m, n, 1, k - 1).coeffs, family_char_coeffs(m, n, s, (k - 1) * s).coeffs
                )
            ]
            d0, d1, d2 = difference_factor_coeffs(k, m, n, s)
            rhs = [
                Fraction(0),
                (s - 1) * d0,
                (s - 1) * d1,
                (s - 1) * d2,
                Fraction(0),
            ]
            assert lhs == rhs

    def test_difference_factor_evaluates(self):
        d0, d1, d2 = difference_factor_coeffs(3, 4, 9, 2)
        x = Fraction(7, 2)
        assert difference_factor(x, 3, 4, 9, 2) == d0 + d1 * x + d2 * x * x

    def test_difference_identity_at_random_points(self):
        import random

        rng = random.Random(17)
        for k, m, n, s in [(3, 3, 7, 2), (4, 4, 14, 3), (5, 5, 22, 4)]:
            phi1 = family_char_coeffs(m, n, 1, k - 1)
            phis = family_char_coeffs(m, n, s, (k - 1) * s)
            for _ in range(20):
                x = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                lhs = phi1.evaluate(x) - phis.evaluate(x)
                assert lhs == x * (s - 1) * difference_factor(x, k, m, n, s)

    def test_factor_negative_at_root_for_s2(self):
        # the factored term is negative at the family root whenever s >= 2
        for k, m, n, s in GRID:
            if s < 2:
                continue
            assert difference_factor(family_root(m, n, s, (k - 1) * s), k, m, n, s) < 0


class TestEndpointQuadratics:
    def test_upper_zero_at_boundary(self):
        for k in (3, 4, 5):
            for m in (3, 4, 5):
                assert upper_endpoint_quadratic(k, m, (k - 1) * m) == 0

    def test_upper_negative_beyond(self):
        for k, m, n, _ in GRID:
            assert upper_endpoint_quadratic(k, m, n) < 0

    def test_lower_hand_value(self):
        # k=3, m=3, n=7, s=2: h(s) = k(k-1)s^2 - (kn-2k+2)s + m - n
        assert lower_endpoint_quadratic(3, 3, 7, 2) == 6 * 4 - 17 * 2 + 3 - 7
        assert lower_endpoint_quadratic(3, 3, 7, 1) == 6 - 17 - 4

    def test_lower_negative_on_grid(self):
        for k, m, n, s in GRID:
            assert lower_endpoint_quadratic(k, m, n, s) < 0


class TestRoots:
    def test_root_in_printed_interval(self):
        root = family_root(3, 7, 1, 2)
        assert 9.0 < root < 9.2
        assert root == pytest.approx(9.09692409559706, abs=1e-10)

    def test_bracket_contains_root(self):
        for k, m, n, s in GRID:
            lo, hi = family_bracket(m, n, s, (k - 1) * s)
            root = family_root(m, n, s, (k - 1) * s)
            assert lo < root < hi
            assert m + (k - 1) * s - 1e-6 < root < m + n + 1e-6

    def test_root_is_spectral_radius(self):
        for k, m, n, s in [(3, 3, 7, 1), (3, 3, 7, 2), (4, 4, 13, 3), (5, 5, 21, 1)]:
            p = ExtremalParams(k, m, n, s)
            (value,), _ = top_eigenpairs(signless_laplacian(build_family(p))[None])[:2]
            assert family_root(m, n, s, p.r) == pytest.approx(value, abs=1e-8)

    def test_threshold_is_s1_root(self):
        for k, m, n in [(3, 3, 7), (4, 5, 18), (5, 4, 20)]:
            assert spectral_threshold(k, m, n) == family_root(m, n, 1, k - 1)

    def test_root_against_eig_oracle(self):
        p = ExtremalParams(4, 5, 17, 2)
        mtx = signless_laplacian(build_family(p))
        oracle = float(np.linalg.eigvalsh(mtx)[-1])
        assert family_root(5, 17, 2, 6) == pytest.approx(oracle, abs=1e-8)


class TestExtremalCopies:
    def test_relabelled_copy_detected(self):
        g = extremal_graph(3, 3, 7)
        # move the low-degree A-vertex to the end and shuffle B
        edges = [((a + 1) % 3, (b + 3) % 7) for a, b in to_edge_list(g)]
        from qspan import from_edge_list

        h = from_edge_list(3, 7, edges)
        assert part_preserving_isomorphic(g, h)

    def test_other_family_member_differs(self):
        g1 = build_family(ExtremalParams(3, 3, 7, 1))
        g2 = build_family(ExtremalParams(3, 3, 7, 2))
        assert not part_preserving_isomorphic(g1, g2)


class TestRunnerUp:
    """The member (m, n, 1, k-2): G* less one edge of its sparse A-vertex,
    join(K_{1,k-2}, K_{m-1,n-k+2}). No admissible (k, m, n, s) names it."""

    def test_closed_forms_match_the_built_graph(self):
        points = {(k, m, n) for k, m, n, _ in GRID}
        for k, m, n in sorted(points):
            g = join(complete_bipartite(1, k - 2), complete_bipartite(m - 1, n - k + 2))
            entries, equitable = quotient(g, [range(1), range(1, m), range(m, m + k - 2), range(m + k - 2, m + n)])
            assert g.adj == family_rows(m, n, 1, k - 2)
            assert (entries, equitable) == (family_quotient(m, n, 1, k - 2), True)
            assert exact_char_poly(entries) == family_char_coeffs(m, n, 1, k - 2)
        assert len(points) == 45


class TestSymbolic:
    """The closed forms as polynomial identities: each uses only +, - and *,
    so it runs on sympy symbols unchanged."""

    @pytest.fixture(scope="class")
    def sym(self):
        sympy = pytest.importorskip("sympy")
        return sympy, sympy.symbols("x k m n s r")

    def test_quartic_is_the_quotient_char_poly(self, sym):
        sympy, (x, _, m, n, s, r) = sym
        det = sympy.Matrix(family_quotient(m, n, s, r)).charpoly(x).as_expr()
        assert sympy.expand(family_char_coeffs(m, n, s, r).evaluate(x) - det) == 0

    def test_separation_identities(self, sym):
        sympy, (x, k, m, n, s, _) = sym
        p1 = family_char_coeffs(m, n, 1, k - 1).evaluate(x)
        ps = family_char_coeffs(m, n, s, (k - 1) * s).evaluate(x)
        psi = difference_factor(x, k, m, n, s)
        upper = upper_endpoint_quadratic(k, m, n)
        for zero in (
            p1 - ps - x * (s - 1) * psi,
            psi.subs(x, m + (k - 1) * s) - (k - 1) * lower_endpoint_quadratic(k, m, n, s),
            psi.subs(x, m + n) - upper - (k - 1) * (m + n) * (s + 1 - m),
            upper - (m + n) * ((k - 1) * m - n),
            upper - (-n * n + (k - 2) * m * n + (k - 1) * m * m),
        ):
            assert sympy.expand(zero) == 0, zero

    def test_runner_up_difference(self, sym):
        # p_{1,k-1} - p_{1,k-2} = -x phi(x): k cancels
        sympy, (x, k, m, n, _, _) = sym
        phi = x * x - (2 * m + n - 2) * x + (m - 1) * (m + n)
        diff = family_char_coeffs(m, n, 1, k - 1).evaluate(x) - family_char_coeffs(m, n, 1, k - 2).evaluate(x)
        assert sympy.expand(diff + x * phi) == 0
