"""Acceptance run: nine verification criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every criterion states its own tolerance; exact claims use
integer or Fraction arithmetic and carry no tolerance at all.
"""

import time
from fractions import Fraction

from qspan import (
    DegreeDemand,
    ExtremalParams,
    InternalError,
    build_family,
    certify_threshold,
    complete_bipartite,
    construct_tree,
    difference_factor,
    difference_factor_coeffs,
    family_char_coeffs,
    family_quotient,
    family_root,
    find_violation_bruteforce,
    find_violation_flow,
    is_violation,
    lower_endpoint_quadratic,
    signless_laplacian,
    spectral_radii,
    spectral_threshold,
    subgraph_monotonicity_fuzz,
    upper_endpoint_quadratic,
    verify_certificate,
)
from qspan.poly import exact_char_poly

from oracles import connected_graphs, random_demand_instances

GRID = [
    (k, m, n, s)
    for k in (3, 4, 5)
    for m in (3, 4, 5)
    for n in range((k - 1) * m + 1, (k - 1) * m + 6)
    for s in range(1, m)
]


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_complete_bipartite_formula():
    t0 = time.time()
    worst = 0.0
    for m in range(1, 31):
        for n in range(m, 31):
            (value,), _ = spectral_radii(signless_laplacian(complete_bipartite(m, n))[None])
            worst = max(worst, abs(value - (m + n)))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10
    report(1, ok, f"q(K_mn)=m+n for m,n<=30, max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_quotient_matches_eigensolve():
    t0 = time.time()
    worst = 0.0
    for k, m, n, s in GRID:
        p = ExtremalParams(k, m, n, s)
        root = family_root(m, n, s, p.r)
        (value,), _ = spectral_radii(signless_laplacian(build_family(p))[None])
        worst = max(worst, abs(root - value))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 30
    report(2, ok, f"{len(GRID)} grid points, max |quotient-eigen| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_exact_coefficient_identity():
    bad = 0
    for k, m, n, s in GRID:
        r = ExtremalParams(k, m, n, s).r
        formula = family_char_coeffs(m, n, s, r).coeffs
        determinant = exact_char_poly(family_quotient(m, n, s, r)).coeffs
        if formula != determinant:
            bad += 1
            continue
        diff = [
            a - b
            for a, b in zip(family_char_coeffs(m, n, 1, k - 1).coeffs, formula)
        ]
        d0, d1, d2 = difference_factor_coeffs(k, m, n, s)
        want = [Fraction(0), (s - 1) * d0, (s - 1) * d1, (s - 1) * d2, Fraction(0)]
        if diff != want:
            bad += 1
    printed = family_char_coeffs(3, 7, 1, 2).coeffs
    expected = (Fraction(0), Fraction(-40), Fraction(49), Fraction(-14), Fraction(1))
    ok = bad == 0 and printed == expected
    report(3, ok, f"{len(GRID)} points exact, {bad} mismatches, s=1 printout matches")


def test_criterion_4_proof_inequalities_exact():
    bad = []
    for k in (3, 4, 5):
        for m in (3, 4, 5):
            if upper_endpoint_quadratic(k, m, (k - 1) * m) != 0:
                bad.append(("f-zero", k, m))
    for k, m, n, s in GRID:
        if not upper_endpoint_quadratic(k, m, n) < 0:
            bad.append(("f-neg", k, m, n))
        if not lower_endpoint_quadratic(k, m, n, 2) < 0:
            bad.append(("h2", k, m, n))
        if not lower_endpoint_quadratic(k, m, n, m - 1) < 0:
            bad.append(("hm1", k, m, n))
        if not difference_factor(Fraction(m + n), k, m, n, s) < 0:
            bad.append(("psi-top", k, m, n, s))
        at_lower = difference_factor(Fraction(m + (k - 1) * s), k, m, n, s)
        if at_lower != (k - 1) * lower_endpoint_quadratic(k, m, n, s):
            bad.append(("psi-h-identity", k, m, n, s))
        if not at_lower < 0:
            bad.append(("psi-lower", k, m, n, s))
    report(4, not bad, f"endpoint signs and identities exact on grid, {len(bad)} failures")


def test_criterion_5_ordering_and_separation():
    bad = []
    for k, m, n, s in GRID:
        p = ExtremalParams(k, m, n, s)
        phi = family_char_coeffs(m, n, s, p.r)
        lo, hi = m + (k - 1) * s, m + n
        # exact signs bracket the root strictly between the endpoints
        if not (phi.evaluate(Fraction(lo)) < 0 and phi.evaluate(Fraction(hi)) > 0):
            bad.append(("bracket-sign", k, m, n, s))
        q1 = family_root(m, n, s, p.r)
        if not (lo < q1 < hi):
            bad.append(("root-window", k, m, n, s))
        qstar = spectral_threshold(k, m, n)
        if s == 1 and abs(q1 - qstar) > 1e-8:
            bad.append(("s1-agree", k, m, n))
        if s >= 2 and not qstar - q1 > 1e-8:
            bad.append(("separation", k, m, n, s))
    report(5, not bad, f"ordering strict and s>=2 separated on grid, {len(bad)} failures")


def test_criterion_6_flagship_census():
    t0 = time.time()
    rep = certify_threshold(3, 3, 7)
    elapsed = time.time() - t0
    ok = (
        rep.graphs_total == 2 ** 21
        and rep.graphs_connected == 778765
        and rep.graphs_above_bound == 505
        and rep.counterexamples == []
        and rep.extremal_found
        and abs(rep.qstar - 9.09692409559706) < 1e-9
        and elapsed < 60
    )
    report(
        6,
        ok,
        f"(3,3,7) census: {rep.graphs_connected} connected, "
        f"{rep.graphs_above_bound} above, {len(rep.counterexamples)} counterexamples, "
        f"extremal_found={rep.extremal_found}, {elapsed:.1f}s",
    )


def test_criterion_7_checker_equivalence():
    t0 = time.time()
    disagreements = 0
    bad_witness = 0
    total = 0
    for g, f in random_demand_instances(10000, seed=1):
        total += 1
        v_flow = find_violation_flow(g, f)
        v_brute = find_violation_bruteforce(g, f)
        if (v_flow is None) != (v_brute is None):
            disagreements += 1
            continue
        if v_flow is not None:
            if not is_violation(g, f, v_flow.vertices):
                bad_witness += 1
            if not is_violation(g, f, v_brute.vertices):
                bad_witness += 1
    elapsed = time.time() - t0
    ok = disagreements == 0 and bad_witness == 0 and total == 10000 and elapsed < 120
    report(
        7,
        ok,
        f"{total} instances, {disagreements} disagreements, "
        f"{bad_witness} bad witnesses, {elapsed:.1f}s",
    )


def test_criterion_8_constructor_correctness():
    t0 = time.time()
    f3 = DegreeDemand.uniform(3, 3)
    mismatches = 0
    bad_cert = 0
    internal_errors = 0
    feasible = 0
    scanned = 0
    for g in connected_graphs(3, 7):
        scanned += 1
        want = find_violation_bruteforce(g, f3) is None
        try:
            res = construct_tree(g, f3)
        except InternalError:
            internal_errors += 1
            continue
        if res.feasible != want:
            mismatches += 1
            continue
        if res.feasible:
            feasible += 1
            if not verify_certificate(g, f3, res.tree):
                bad_cert += 1
        elif not is_violation(g, f3, res.violation.vertices):
            bad_cert += 1
    corpus_mismatch = 0
    for g, f in random_demand_instances(10000, seed=1):
        want = find_violation_bruteforce(g, f) is None
        try:
            res = construct_tree(g, f)
        except InternalError:
            internal_errors += 1
            continue
        if res.feasible != want:
            corpus_mismatch += 1
        elif res.feasible and not verify_certificate(g, f, res.tree):
            bad_cert += 1
    elapsed = time.time() - t0
    ok = (
        scanned == 778765
        and mismatches == 0
        and corpus_mismatch == 0
        and bad_cert == 0
        and internal_errors == 0
        and elapsed < 200
    )
    report(
        8,
        ok,
        f"(3,7) full scan {scanned} graphs ({feasible} feasible) + 10000 corpus, "
        f"{mismatches + corpus_mismatch} verdict mismatches, {bad_cert} bad "
        f"certificates, {internal_errors} internal errors, {elapsed:.1f}s",
    )


def test_criterion_9_subgraph_monotonicity():
    t0 = time.time()
    rep = subgraph_monotonicity_fuzz(trials=10000, seed=0)
    elapsed = time.time() - t0
    ok = (
        rep.trials == 10000
        and (rep.equal_pairs, rep.strict_checks, rep.violations, rep.strict_failures)
        == (4742, 400, [], [])
        and elapsed < 60
    )
    report(
        9,
        ok,
        f"10000 subgraph pairs, {len(rep.violations)} violations, "
        f"{rep.strict_checks} exact strict checks ({len(rep.strict_failures)} failed), "
        f"{elapsed:.1f}s",
    )
