"""End-to-end verification at desk scale.

Three entry points:

* certify_threshold: exhaustively enumerate every labeled bipartite graph on
  (m, n), filter to connected, compute each signless Laplacian spectral
  radius, and check that every graph at or above the threshold either admits
  a qualifying spanning tree or is the extremal graph itself.
* separation_sweep: re-derive, per parameter point, every exact identity and
  strict inequality that places the family members below the threshold.
* subgraph_monotonicity_fuzz: randomized check that the spectral radius
  never grows when edges are deleted, with exact strictness spot checks
  (integer characteristic polynomials compared by Sturm chains, both from
  qspan.poly).

The enumeration engine works on numpy chunks of edge bitmasks: a vectorized
connectivity filter, then the Anderson-Morley degree bound, which prunes every
graph that cannot reach the threshold, then one batched LAPACK eigvalsh over
the survivors. Everything it certifies is re-checked through the ordinary
object-level code paths (construct_tree, part_preserving_isomorphic) on the
handful of graphs near the bound.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .errors import CapacityError, InputError, InternalError
from .extremal import (
    ExtremalParams,
    difference_factor,
    difference_factor_coeffs,
    extremal_graph,
    family_char_coeffs,
    family_quotient,
    family_root,
    lower_endpoint_quadratic,
    spectral_threshold,
    upper_endpoint_quadratic,
)
from .graph_core import (
    BipartiteGraph,
    DegreeDemand,
    complete_bipartite,
    is_connected,
    join,
    part_preserving_isomorphic,
    to_edge_list,
)
from .poly import exact_char_poly, strictly_larger_root
from .spectral import char_poly, check_tol, signless_laplacian, spectral_radius
from .trees import construct_tree, find_violation_flow, verify_certificate

ENUMERATION_CAP = 24      # at most 2**24 labeled graphs per census
ENGINE_CHUNK = 1 << 16    # masks per worker task


@dataclass(frozen=True)
class TheoremReport:
    """Census outcome; counterexamples must be empty and the extremal graph
    must appear, attain the threshold, and be infeasible."""

    params: dict
    qstar: float
    graphs_total: int
    graphs_connected: int
    graphs_above_bound: int
    counterexamples: list
    extremal_found: bool


@dataclass(frozen=True)
class SweepReport:
    """Per-point identity/inequality checks over a parameter grid."""

    grid: dict
    points: list
    failures: list


@dataclass(frozen=True)
class MonotonicityReport:
    trials: int
    seed: int
    violations: list
    equal_pairs: int
    strict_checks: int
    strict_failures: list


def enumerate_bipartite(m: int, n: int, connected_only: bool = False):
    """Yield every labeled bipartite graph on parts (m, n) in edge-bitmask
    order: bit a*n + b of the mask is edge (a, b)."""
    if m < 1 or n < 1:
        raise InputError(f"both parts must be nonempty, got m={m}, n={n}")
    if m * n > ENUMERATION_CAP:
        raise CapacityError(f"m*n={m * n} exceeds enumeration cap {ENUMERATION_CAP}")

    def gen():
        total = 1 << (m * n)
        for lo in range(0, total, ENGINE_CHUNK):
            masks = np.arange(lo, min(lo + ENGINE_CHUNK, total), dtype=np.int64)
            if connected_only:
                masks = masks[_connected_filter(masks, m, n)]
            for mask in masks.tolist():
                yield _graph_from_mask(mask, m, n)

    return gen()


# --- batched enumeration engine ----------------------------------------------


def _connected_filter(masks: np.ndarray, m: int, n: int) -> np.ndarray:
    """Boolean connectivity per mask, vectorized over the whole chunk."""
    full_b = (1 << n) - 1
    nb = [(masks >> (a * n)) & full_b for a in range(m)]
    member = np.zeros((m, masks.size), dtype=bool)
    member[0] = True
    reach = nb[0].copy()
    for _ in range(m):
        for a in range(1, m):
            member[a] |= (nb[a] & reach) != 0
        acc = np.zeros_like(reach)
        for a in range(m):
            acc |= np.where(member[a], nb[a], 0)
        reach = acc
    return member.all(axis=0) & (reach == full_b)


def _anderson_morley_bound(masks: np.ndarray, m: int, n: int) -> np.ndarray:
    """max over edges ab of d(a) + d(b) for each mask.

    For bipartite G the signless Laplacian Q is similar to the Laplacian L,
    so this bound on the largest Laplacian eigenvalue (Anderson & Morley,
    Lin. Multilin. Alg. 1985) is also an upper bound on q(G). It is computed
    as the max over a of d(a) + (largest degree among the neighbours of a).
    Degrees are at most ENUMERATION_CAP, so int8 holds every sum.
    """
    bit = [[((masks >> (a * n + b)) & 1).astype(np.int8) for b in range(n)] for a in range(m)]
    deg_b = [sum(bit[a][b] for a in range(m)) for b in range(n)]
    return np.maximum.reduce([
        sum(row) + np.maximum.reduce([x * d for x, d in zip(row, deg_b)]) for row in bit
    ])


def _batched_radius(masks: np.ndarray, m: int, n: int) -> np.ndarray:
    """Spectral radius of Q for each mask, from one batched LAPACK eigvalsh.

    Each matrix of the stack is solved on its own, so a graph's value does
    not depend on which chunk it was batched with.
    """
    t = m + n
    count = masks.size
    shifts = np.arange(m * n, dtype=np.int64)
    bits = ((masks[:, None] >> shifts) & 1).astype(np.float64).reshape(count, m, n)
    q = np.zeros((count, t, t), dtype=np.float64)
    q[:, :m, m:] = bits
    q[:, m:, :m] = bits.transpose(0, 2, 1)
    idx_a = np.arange(m)
    idx_b = np.arange(m, t)
    q[:, idx_a, idx_a] = bits.sum(axis=2)
    q[:, idx_b, idx_b] = bits.sum(axis=1)
    return np.linalg.eigvalsh(q)[:, -1]


def _graph_from_mask(mask: int, m: int, n: int) -> BipartiteGraph:
    full = (1 << n) - 1
    return BipartiteGraph(m, n, tuple((mask >> (a * n)) & full for a in range(m)))


@dataclass
class ScanStats:
    graphs_connected: int
    graphs_above_bound: int
    feasible_above: int
    counterexample_masks: list
    extremal_copies: list    # (mask, attains_within_tol) pairs


def _near_band(masks: np.ndarray, m: int, n: int, qstar: float, tol: float):
    """(masks, radii) of the graphs with q >= qstar - tol. The Anderson-Morley
    bound drops only graphs it proves to lie below; eigvalsh solves the rest."""
    candidates = masks[_anderson_morley_bound(masks, m, n) >= qstar - tol]
    lam = _batched_radius(candidates, m, n)
    keep = lam >= qstar - tol
    return candidates[keep], lam[keep]


def _scan_chunk(args) -> ScanStats:
    k, m, n, qstar, tol, lo, hi = args
    masks = np.arange(lo, hi, dtype=np.int64)
    connected = masks[_connected_filter(masks, m, n)]
    near, near_lam = _near_band(connected, m, n, qstar, tol)
    stats = ScanStats(int(connected.size), int(near.size), 0, [], [])
    gstar = extremal_graph(k, m, n)
    demand = DegreeDemand.uniform(m, k)
    for mask, value in zip(near.tolist(), near_lam.tolist()):
        g = _graph_from_mask(mask, m, n)
        result = construct_tree(g, demand)
        if result.feasible:
            if not verify_certificate(g, demand, result.tree):
                raise InternalError(f"certificate failed re-verification on mask {mask}")
            stats.feasible_above += 1
        elif part_preserving_isomorphic(g, gstar):
            stats.extremal_copies.append((mask, abs(value - qstar) <= tol))
        else:
            stats.counterexample_masks.append(mask)
    return stats


def scan_stats(k: int, m: int, n: int, tol: float = 1e-7, jobs: int | None = None) -> ScanStats:
    """Run the census engine over all 2**(m*n) masks and merge chunk stats
    in mask order (identical output for any job count). jobs defaults to the
    number of CPUs this process may run on."""
    check_tol(tol)
    if jobs is not None and jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    total = 1 << (m * n)
    qstar = spectral_threshold(k, m, n)
    ranges = [(k, m, n, qstar, tol, lo, min(lo + ENGINE_CHUNK, total))
              for lo in range(0, total, ENGINE_CHUNK)]
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    if jobs > 1 and len(ranges) > 1:
        with Pool(processes=jobs) as pool:
            parts = pool.map(_scan_chunk, ranges)
    else:
        parts = [_scan_chunk(r) for r in ranges]
    merged = ScanStats(0, 0, 0, [], [])
    for part in parts:
        merged.graphs_connected += part.graphs_connected
        merged.graphs_above_bound += part.graphs_above_bound
        merged.feasible_above += part.feasible_above
        merged.counterexample_masks.extend(part.counterexample_masks)
        merged.extremal_copies.extend(part.extremal_copies)
    return merged


def certify_threshold(k: int, m: int, n: int, tol: float = 1e-7,
                      jobs: int | None = None) -> TheoremReport:
    """Exhaustive census of the threshold claim at one parameter point.

    Every connected enumerated graph with spectral radius >= qstar - tol
    must admit a qualifying spanning tree or be a relabeling of the extremal
    graph; the extremal graph itself must show up, attain the threshold, and
    be infeasible.
    """
    check_tol(tol)
    if k < 3 or m < 3:
        raise InputError(f"need k >= 3 and m >= 3, got k={k}, m={m}")
    if n < (k - 1) * m + 1:
        raise InputError(f"need n >= (k-1)*m + 1 = {(k - 1) * m + 1}, got n={n}")
    if m * n > ENUMERATION_CAP:
        raise CapacityError(f"m*n={m * n} exceeds enumeration cap {ENUMERATION_CAP}")

    qstar = spectral_threshold(k, m, n)
    gstar = extremal_graph(k, m, n)
    demand = DegreeDemand.uniform(m, k)
    gstar_infeasible = find_violation_flow(gstar, demand) is not None
    gstar_attains = abs(spectral_radius(signless_laplacian(gstar)).value - qstar) <= tol

    stats = scan_stats(k, m, n, tol=tol, jobs=jobs)
    counterexamples = []
    for mask in stats.counterexample_masks:
        g = _graph_from_mask(mask, m, n)
        counterexamples.append({"mask": mask, "edges": [[a, b] for a, b in to_edge_list(g)]})
    extremal_found = (
        bool(stats.extremal_copies)
        and all(attains for _, attains in stats.extremal_copies)
        and gstar_infeasible
        and gstar_attains
    )
    return TheoremReport(
        params={"k": k, "m": m, "n": n},
        qstar=qstar,
        graphs_total=1 << (m * n),
        graphs_connected=stats.graphs_connected,
        graphs_above_bound=stats.graphs_above_bound,
        counterexamples=counterexamples,
        extremal_found=extremal_found,
    )


# --- proof sweep --------------------------------------------------------------

DEFAULT_K_VALUES = (3, 4, 5)
DEFAULT_M_VALUES = (3, 4, 5)
DEFAULT_N_EXTRAS = (1, 2, 3, 4, 5)
JOIN_CHAIN_SAMPLES = 3


def point_checks(p: ExtremalParams, rng: random.Random) -> dict:
    """All identity and inequality checks for one parameter point.

    Exact integer arithmetic wherever the claim is exact; the two float
    checks (root ordering interval, threshold separation) lean on exact sign
    evaluations at the bracket endpoints.
    """
    k, m, n, s = p.k, p.m, p.n, p.s
    fam = family_char_coeffs(p)
    checks = {}

    checks["coeff_identity"] = char_poly(family_quotient(p)).coeffs == fam.coeffs

    base = family_char_coeffs(ExtremalParams(k, m, n, 1))
    d0, d1, d2 = difference_factor_coeffs(p)
    expected = (0, (s - 1) * d0, (s - 1) * d1, (s - 1) * d2, 0)
    diff = tuple(bc - fc for bc, fc in zip(base.coeffs, fam.coeffs))
    checks["difference_identity"] = diff == expected

    psi_hi = difference_factor(m + n, p)
    fn = upper_endpoint_quadratic(n, k, m)
    checks["upper_endpoint_negative"] = psi_hi <= fn < 0

    psi_lo = difference_factor(m + p.r, p)
    hs = lower_endpoint_quadratic(s, k, m, n)
    checks["lower_endpoint_identity"] = psi_lo == (k - 1) * hs
    checks["lower_endpoint_negative"] = (
        psi_lo < 0
        and lower_endpoint_quadratic(2, k, m, n) < 0
        and lower_endpoint_quadratic(m - 1, k, m, n) < 0
    )

    lo = m + p.r
    hi = m + n
    q1 = family_root(p)
    checks["ordering"] = fam.evaluate(lo) < 0 and fam.evaluate(hi) > 0 and lo < q1 < hi

    qstar = spectral_threshold(k, m, n)
    if s == 1:
        checks["separation"] = abs(q1 - qstar) <= 1e-8
    else:
        checks["separation"] = qstar - q1 > 1e-8

    r_max = p.r
    sample = sorted(rng.sample(range(1, r_max + 1), min(JOIN_CHAIN_SAMPLES, r_max)))
    chain_ok = True
    for r in sample:
        g = join(complete_bipartite(s, r), complete_bipartite(m - s, n - r))
        qg = spectral_radius(signless_laplacian(g)).value
        chain_ok = chain_ok and qg <= q1 + 1e-9
    checks["join_chain"] = chain_ok
    return checks


def separation_sweep(k_values=None, m_values=None, n_extras=None, seed: int = 0) -> SweepReport:
    """Run point_checks over a parameter grid.

    n_extras are offsets added to (k-1)*m; offset 0 is the out-of-hypothesis
    boundary where the upper endpoint quadratic must vanish exactly, recorded
    as an expected boundary rather than a failure.
    """
    k_values = tuple(k_values) if k_values is not None else DEFAULT_K_VALUES
    m_values = tuple(m_values) if m_values is not None else DEFAULT_M_VALUES
    n_extras = tuple(n_extras) if n_extras is not None else DEFAULT_N_EXTRAS
    if any(k < 3 for k in k_values):
        raise InputError("grid k values must be >= 3")
    if any(m < 3 for m in m_values):
        raise InputError("grid m values must be >= 3")
    if any(e < 0 for e in n_extras):
        raise InputError("grid n offsets must be >= 0")

    rng = random.Random(seed)
    points = []
    failures = []
    for k in k_values:
        for m in m_values:
            for extra in n_extras:
                n = (k - 1) * m + extra
                if extra == 0:
                    ok = upper_endpoint_quadratic(n, k, m) == 0
                    point = {
                        "k": k, "m": m, "n": n,
                        "expected_boundary": True,
                        "checks": {"upper_endpoint_zero": ok},
                    }
                    points.append(point)
                    if not ok:
                        failures.append({"k": k, "m": m, "n": n, "check": "upper_endpoint_zero"})
                    continue
                for s in range(1, m):
                    p = ExtremalParams(k, m, n, s)
                    checks = point_checks(p, rng)
                    point = {
                        "k": k, "m": m, "n": n, "s": s,
                        "expected_boundary": False,
                        "checks": checks,
                    }
                    points.append(point)
                    for name, ok in checks.items():
                        if not ok:
                            failures.append({"k": k, "m": m, "n": n, "s": s, "check": name})
    grid = {
        "k_values": list(k_values),
        "m_values": list(m_values),
        "n_extras": list(n_extras),
        "seed": seed,
    }
    return SweepReport(grid=grid, points=points, failures=failures)


# --- monotonicity fuzz ---------------------------------------------------------

FUZZ_MAX_M = 6
FUZZ_MAX_N = 8
STRICT_CHECK_BUDGET = 400


def _random_connected(rng: random.Random, m: int, n: int) -> BipartiteGraph:
    full = (1 << n) - 1
    for _ in range(300):
        p = rng.uniform(0.3, 0.9)
        adj = tuple(
            sum(1 << b for b in range(n) if rng.random() < p)
            for _ in range(m)
        )
        g = BipartiteGraph(m, n, adj)
        if is_connected(g):
            return g
    return complete_bipartite(m, n)


def _random_spanning_subgraph(rng: random.Random, g: BipartiteGraph) -> BipartiteGraph:
    edges = set(to_edge_list(g))
    slack = len(edges) - (g.m + g.n - 1)
    removals = rng.randint(0, slack) if slack > 0 else 0
    for _ in range(removals):
        candidates = []
        for a, b in sorted(edges):
            trial = edges - {(a, b)}
            adj = [0] * g.m
            for x, y in trial:
                adj[x] |= 1 << y
            if is_connected(BipartiteGraph(g.m, g.n, tuple(adj))):
                candidates.append((a, b))
        if not candidates:
            break
        edges.discard(candidates[rng.randrange(len(candidates))])
    adj = [0] * g.m
    for a, b in edges:
        adj[a] |= 1 << b
    return BipartiteGraph(g.m, g.n, tuple(adj))


def subgraph_monotonicity_fuzz(trials: int = 10000, seed: int = 0) -> MonotonicityReport:
    """Random connected graph G, random connected spanning subgraph H:
    q(H) must never exceed q(G) + 1e-9. On small pairs (at most 8 vertices)
    with H != G, strictness is additionally certified in exact arithmetic
    via Sturm sequences on the two characteristic polynomials."""
    rng = random.Random(seed)
    violations = []
    strict_failures = []
    equal_pairs = 0
    strict_checks = 0
    for trial in range(trials):
        m = rng.randint(1, FUZZ_MAX_M)
        n = rng.randint(1, FUZZ_MAX_N)
        g = _random_connected(rng, m, n)
        h = _random_spanning_subgraph(rng, g)
        mat_g = signless_laplacian(g)
        mat_h = signless_laplacian(h)
        qg = spectral_radius(mat_g).value
        qh = spectral_radius(mat_h).value
        if qh > qg + 1e-9:
            violations.append({"trial": trial, "m": m, "n": n, "qg": qg, "qh": qh})
        if h.adj == g.adj:
            equal_pairs += 1
        elif m + n <= 8 and strict_checks < STRICT_CHECK_BUDGET:
            strict_checks += 1
            # small integer entries, so the float64 rows are exact
            pg = exact_char_poly(mat_g.entries.tolist()).coeffs
            ph = exact_char_poly(mat_h.entries.tolist()).coeffs
            if not strictly_larger_root(pg, ph):
                strict_failures.append({"trial": trial, "m": m, "n": n})
    return MonotonicityReport(
        trials=trials,
        seed=seed,
        violations=violations,
        equal_pairs=equal_pairs,
        strict_checks=strict_checks,
        strict_failures=strict_failures,
    )


# --- shared fuzz corpus for the demand checkers --------------------------------


def random_demand_instances(count: int, seed: int = 0):
    """Deterministic corpus of (connected graph, demand vector) pairs used to
    cross-validate the two condition checkers and the constructor."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 8)
        n = rng.randint(1, 12)
        g = _random_connected(rng, m, n)
        f = DegreeDemand(tuple(rng.choice((2, 3, 4)) for _ in range(m)))
        yield g, f
