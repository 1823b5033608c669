"""End-to-end verification at desk scale.

Three entry points:

* certify_threshold: exhaustively census every labeled bipartite graph on
  (m, n): each connected graph at or above the threshold must admit a
  qualifying spanning tree or be the extremal graph itself.
* separation_sweep: re-derive, per parameter point, every exact identity and
  strict inequality that places the family members below the threshold.
* subgraph_monotonicity_fuzz: randomized check that the spectral radius
  never grows when edges are deleted (each a uniformly random non-bridge, by
  one shuffle and is_connected), from one batched eigh per shape, with exact
  strictness spot checks (a positive-definiteness certificate in integers).

The census is a breadth-first search of single-edge deletions down from
K_{m,n}: adding an edge never lowers q, so the graphs with
q >= q* - CENSUS_SLACK form an up-set that it finds without touching the rest.
They are all connected: each component of a disconnected graph lies inside
some K_{a,b} with a + b <= m + n - 1, so its q is at most m + n - 1, and q*
exceeds that (Perron-Frobenius: G* strictly contains K_{m-1,n} plus an
isolated vertex). It runs over B-relabelling classes (ascending tuples of n
columns, weighted by their size n!/prod(multiplicity!)), one chunked batched
eigvalsh per level. Classes above q* + CENSUS_SLACK are re-checked through
construct_tree; those within CENSUS_SLACK of q* must be extremal copies (known
by their A-degrees, at q* exactly) or InternalError.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, InternalError
from .extremal import (
    ExtremalParams,
    build_family,
    difference_factor,
    difference_factor_coeffs,
    extremal_graph,
    family_char_coeffs,
    family_partition,
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
    iter_bits,
    join,
    to_edge_list,
)
from .poly import exact_char_poly, separates_top_eigenvalues
from .spectral import (
    DENSE_CAP,
    mask_bits,
    q_matrices,
    quotient_matrix,
    spectral_radii,
)
from .trees import construct_tree, find_violation_flow

CENSUS_CAP = 1 << 25      # census: at most 2**25 Q-matrix entries solved in all
EIGEN_CHUNK = 1 << 16     # census: Q-matrix entries per batched eigvalsh
CENSUS_SLACK = 1e-9       # census: eigvalsh q this close to q* must be an extremal copy


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


def _graph_from_mask(mask: int, m: int, n: int) -> BipartiteGraph:
    full = (1 << n) - 1
    return BipartiteGraph(m, n, tuple((mask >> (a * n)) & full for a in range(m)))


# --- up-set census engine ------------------------------------------------------


def connected_bipartite_count(m: int, n: int) -> int:
    """Connected labelled bipartite graphs on parts of sizes m and n, exactly, by
    inclusion-exclusion over the component of A-vertex 0 (i A- and j B-vertices):
    2^(mn) = sum over (i, j) of C(m-1, i-1) C(n, j) c(i, j) 2^((m-i)(n-j))."""
    c = {}
    for i, j in itertools.product(range(1, m + 1), range(n + 1)):
        c[i, j] = (1 << i * j) - sum(
            math.comb(i - 1, s - 1) * math.comb(j, t) * c[s, t] << (i - s) * (j - t)
            for s, t in itertools.product(range(1, i + 1), range(j + 1)) if (s, t) != (i, j))
    return c[m, n]


def _class_size(cols: tuple) -> int:
    """Labelled graphs in the class of an ascending column tuple: n!/prod(multiplicity!)."""
    runs = (len(list(run)) for _, run in itertools.groupby(cols))
    return math.factorial(len(cols)) // math.prod(map(math.factorial, runs))


def _class_mask(cols: tuple, m: int, n: int) -> int:
    """Mask of the labelling that gives B-vertex b the column cols[b]."""
    return sum(1 << (a * n + b) for b, c in enumerate(cols) for a in iter_bits(c))


def _radii(level: list, m: int, n: int) -> np.ndarray:
    """q of each class, by batched eigvalsh over chunks of EIGEN_CHUNK matrix entries."""
    step = max(1, EIGEN_CHUNK // (m + n) ** 2)
    out = []
    for lo in range(0, len(level), step):
        bits = mask_bits([c for cols in level[lo:lo + step] for c in cols], m).reshape(-1, n, m)
        out.append(np.linalg.eigvalsh(q_matrices(bits.swapaxes(1, 2)))[:, -1])
    return np.concatenate(out)


def _up_set(m: int, n: int, floor: float) -> list:
    """(class, q) for every B-relabelling class (ascending tuple of n columns,
    subsets of A) with q >= floor, by breadth-first search down from K_{m,n}.
    q never falls when an edge is added, so deleting one edge per distinct
    column of every member reaches them all. Connectivity is not tested: a
    disconnected class has q <= m + n - 1, below q* at every admissible point,
    so at the census's own floor the eigen-solve drops it. The whole search
    solves at most CENSUS_CAP Q-matrix entries, (m + n)^2 per class: the class
    past that raises CapacityError before its level's matrices are built."""
    limit, solved = CENSUS_CAP // (m + n) ** 2, 1
    level, found = [((1 << m) - 1,) * n], []
    while level:
        q = _radii(level, m, n).tolist()
        members = [(cols, x) for cols, x in zip(level, q) if x >= floor]
        found += members
        children = {}   # the next level, in insertion order
        for cols, _ in members:
            for i, c in enumerate(cols):
                if i and c == cols[i - 1]:
                    continue
                for a in iter_bits(c):
                    d = c & ~(1 << a)
                    j = bisect.bisect_right(cols, d, 0, i)
                    children[cols[:j] + (d,) + cols[j:i] + cols[i + 1:]] = None
                    if solved + len(children) > limit:
                        raise CapacityError(f"(m, n) = ({m}, {n}): the census would solve more "
                                            f"than {CENSUS_CAP} Q-matrix entries")
        solved += len(children)
        level = list(children)
    return found


def _labellings(cols: list[int], m: int, n: int) -> list[int]:
    """Masks of the distinct B-labellings of an ascending column list."""
    if not cols:
        return [0]
    out = []
    for i, c in enumerate(cols):
        if i == 0 or c != cols[i - 1]:   # column c goes to B-vertex 0
            head = sum(1 << (a * n) for a in range(m) if c >> a & 1)
            out += [head | rest << 1 for rest in _labellings(cols[:i] + cols[i + 1:], m, n)]
    return out


@dataclass
class ScanStats:
    qstar: float
    graphs_connected: int
    graphs_above_bound: int
    feasible_above: int
    counterexample_masks: list
    extremal_copies: list    # one mask per extremal class


def _check_point(m: int, n: int) -> None:
    if (m + n) ** 2 > EIGEN_CHUNK:
        raise CapacityError(f"order m + n = {m + n}: one Q matrix exceeds the "
                            f"{EIGEN_CHUNK}-entry eigen chunk")


def scan_stats(k: int, m: int, n: int) -> ScanStats:
    """Census over the connected B-relabelling classes, in labelled counts.

    _up_set gives the classes with q >= qstar - CENSUS_SLACK, qstar being
    spectral_threshold. A disconnected class, which can only show up when
    qstar is moved below m + n - 1 (its q bound), is skipped. A class above qstar + CENSUS_SLACK gets one
    construct_tree, which verifies the tree it returns, or the extremal-copy
    test; a counterexample class adds its labelled masks, kept in ascending
    order. A class within CENSUS_SLACK of qstar must be an extremal copy
    (cospectral, so exactly at qstar); any other raises InternalError. The
    copy test is exact: m-1 A-vertices that see all of B and one that sees
    k-1 of B are the extremal graph up to relabelling A and B.
    """
    ExtremalParams(k, m, n, 1)    # admissibility first, then capacity
    _check_point(m, n)
    qstar = spectral_threshold(k, m, n)
    stats = ScanStats(qstar, 0, 0, 0, [], [])
    demand = DegreeDemand.uniform(m, k)
    for cols, q in _up_set(m, n, qstar - CENSUS_SLACK):
        mask = _class_mask(cols, m, n)
        g = _graph_from_mask(mask, m, n)
        if q <= m + n - 1 + CENSUS_SLACK and not is_connected(g):
            continue
        weight = _class_size(cols)
        stats.graphs_above_bound += weight
        above = q > qstar + CENSUS_SLACK
        result = construct_tree(g, demand) if above else None
        if above and result.feasible:
            stats.feasible_above += weight
        elif sorted(map(int.bit_count, g.adj)) == [k - 1] + [n] * (m - 1):
            stats.extremal_copies.append(mask)
        elif above:
            stats.counterexample_masks.extend(_labellings(list(cols), m, n))
        else:
            raise InternalError(f"mask {mask}: within CENSUS_SLACK of q* but not an extremal copy")
    stats.counterexample_masks.sort()
    stats.graphs_connected = connected_bipartite_count(m, n)
    return stats


def certify_threshold(k: int, m: int, n: int) -> TheoremReport:
    """Exhaustive census of the threshold claim at one parameter point.

    Every connected labelled graph at or above qstar (decided as in scan_stats)
    must admit a qualifying spanning tree or be a relabeling of the extremal
    graph; the extremal graph itself must show up, attain the threshold, and
    be infeasible. It attains q* exactly if its family quotient is equitable
    with the s=1 quartic as characteristic polynomial. A point whose order
    m + n does not fit one eigen chunk, or whose search would solve more than
    CENSUS_CAP Q-matrix entries, raises CapacityError before any tree is built.
    """
    stats = scan_stats(k, m, n)
    p1 = ExtremalParams(k, m, n, 1)
    gstar = extremal_graph(k, m, n)
    demand = DegreeDemand.uniform(m, k)
    gstar_infeasible = find_violation_flow(gstar, demand) is not None
    quotient = quotient_matrix(gstar, family_partition(p1))
    gstar_attains = quotient.equitable and exact_char_poly(quotient.entries) == family_char_coeffs(p1)
    counterexamples = [{"mask": mask, "edges": [list(e) for e in to_edge_list(_graph_from_mask(mask, m, n))]}
                       for mask in stats.counterexample_masks]
    extremal_found = bool(stats.extremal_copies) and gstar_infeasible and gstar_attains
    return TheoremReport(
        params={"k": k, "m": m, "n": n},
        qstar=stats.qstar,
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
SWEEP_POINT_CAP = 1400    # separation_sweep: at most this many points per grid
SWEEP_ORDER_CAP = 64      # separation_sweep: family order m + n at most this


def point_checks(p: ExtremalParams) -> dict:
    """All identity and inequality checks for one parameter point.

    Every check is exact. At s = 1 separation asks that the two quartics
    coincide. For s >= 2, q1 is correctly rounded, so the float above it
    exceeds the s root; separation asks that it still lie below q*, where the
    s=1 quartic is negative in its bracket. join_chain asks that the (m, n)
    join at each r = 1..(k-1)s lie row by row in the next one, the last being
    the family member, so q only rises. m + n > DENSE_CAP is a CapacityError.
    """
    if p.m + p.n > DENSE_CAP:
        raise CapacityError(f"order {p.m + p.n} exceeds dense cap {DENSE_CAP}")
    k, m, n, s = p.k, p.m, p.n, p.s
    fam = family_char_coeffs(p)
    checks = {}

    checks["coeff_identity"] = exact_char_poly(family_quotient(p).entries).coeffs == fam.coeffs

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

    if s == 1:
        checks["separation"] = fam == base
    else:
        checks["separation"] = base.evaluate(Fraction(math.nextafter(q1, math.inf))) < 0

    rows, chain_ok = (0,) * m, True
    for r in range(1, p.r + 1):
        g = join(complete_bipartite(s, r), complete_bipartite(m - s, n - r))
        chain_ok = chain_ok and all(x & ~y == 0 for x, y in zip(rows, g.adj))
        rows = g.adj
    checks["join_chain"] = chain_ok and g == build_family(p)
    return checks


def _grid_axis(values, default) -> tuple:
    """The axis as a tuple, cut one value past SWEEP_POINT_CAP so that a huge
    range is refused by the caps instead of being materialised."""
    return default if values is None else tuple(itertools.islice(values, SWEEP_POINT_CAP + 1))


def separation_sweep(k_values=None, m_values=None, n_extras=None, seed: int = 0) -> SweepReport:
    """Run point_checks over a parameter grid.

    n_extras are offsets added to (k-1)*m; offset 0 is the out-of-hypothesis
    boundary where the upper endpoint quadratic must vanish exactly, recorded
    as an expected boundary rather than a failure. A grid of more than
    SWEEP_POINT_CAP points, or with a family order m + n above SWEEP_ORDER_CAP,
    raises CapacityError before any point runs. seed is only a grid label.
    """
    k_values = _grid_axis(k_values, DEFAULT_K_VALUES)
    m_values = _grid_axis(m_values, DEFAULT_M_VALUES)
    n_extras = _grid_axis(n_extras, DEFAULT_N_EXTRAS)
    if any(k < 3 for k in k_values):
        raise InputError("grid k values must be >= 3")
    if any(m < 3 for m in m_values):
        raise InputError("grid m values must be >= 3")
    if any(e < 0 for e in n_extras):
        raise InputError("grid n offsets must be >= 0")
    # each (k, m, offset) gives at least one point, so the axes' product is a lower bound
    axes = (k_values, m_values, n_extras)
    if max(map(len, axes)) > SWEEP_POINT_CAP or math.prod(map(len, axes)) > SWEEP_POINT_CAP:
        raise CapacityError(f"grid has more than {SWEEP_POINT_CAP} points or axis values")
    grid_points = list(itertools.product(*axes))
    size = sum(1 if extra == 0 else m - 1 for _, m, extra in grid_points)
    if size > SWEEP_POINT_CAP:
        raise CapacityError(f"grid has {size} points, more than {SWEEP_POINT_CAP}")
    order = max((k * m + extra for k, m, extra in grid_points), default=0)
    if order > SWEEP_ORDER_CAP:
        raise CapacityError(f"grid reaches family order m + n = {order}, above {SWEEP_ORDER_CAP}")

    points = []
    failures = []
    for k, m, extra in grid_points:
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
            checks = point_checks(p)
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
    """g less a uniform number, 0 to its cycle rank, of removals, each of a
    uniformly random non-bridge, by one shuffle and is_connected: each edge in
    turn is dropped if g stays connected without it. Removals only make bridges,
    so the first non-bridge left in the order is a uniform pick among them."""
    slack = g.edge_count - (g.m + g.n - 1)
    removals = rng.randint(0, slack) if slack > 0 else 0
    edges = to_edge_list(g)
    rng.shuffle(edges)
    for a, b in edges:
        if not removals:
            break
        h = BipartiteGraph(g.m, g.n, g.adj[:a] + (g.adj[a] & ~(1 << b),) + g.adj[a + 1:])
        if is_connected(h):
            g, removals = h, removals - 1
    return g


def _fuzz_pairs(trials: int, seed: int):
    """Yield the fuzz's (G, H) pairs in trial order from one seeded stream."""
    rng = random.Random(seed)
    for _ in range(trials):
        m = rng.randint(1, FUZZ_MAX_M)
        n = rng.randint(1, FUZZ_MAX_N)
        g = _random_connected(rng, m, n)
        yield g, _random_spanning_subgraph(rng, g)


def _short_dyadic(qh: float, qg: float) -> Fraction:
    """The dyadic j / 2**t, least t >= 0 then least j, in the middle half
    [qh + gap/4, qg - gap/4] of finite floats qh < qg, gap = qg - qh. The
    bounds are exact, so no float overflows; t stops once 2**t > 2 / gap."""
    lo, hi = (3 * Fraction(qh) + Fraction(qg)) / 4, (Fraction(qh) + 3 * Fraction(qg)) / 4
    t = 0   # j = ceil(lo * 2**t)
    while (j := -((-lo.numerator << t) // lo.denominator)) * hi.denominator > hi.numerator << t:
        t += 1
    return Fraction(j, 1 << t)


def subgraph_monotonicity_fuzz(trials: int = 10000, seed: int = 0) -> MonotonicityReport:
    """Random connected graph G, random connected spanning subgraph H:
    q(H) must never exceed q(G) + 1e-9. The radii come from one batched eigh
    per (m, n) shape. On the first STRICT_CHECK_BUDGET small pairs (at most
    8 vertices) with H != G, strictness is additionally certified in exact
    arithmetic: at x, the _short_dyadic of q(H) < q(G) (short, so the
    integers stay small), x I - Q(H) must be positive definite, x I - Q(G) not."""
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 0:
        raise InputError(f"trials must be a non-negative integer, got {trials!r}")
    shapes = {}   # (m, n) -> (trials, adjacency rows of G then H per trial)
    equal_pairs = 0
    checked = set()
    for trial, (g, h) in enumerate(_fuzz_pairs(trials, seed)):
        group, rows = shapes.setdefault((g.m, g.n), ([], []))
        group.append(trial)
        rows += g.adj + h.adj
        if h.adj == g.adj:
            equal_pairs += 1
        elif g.m + g.n <= 8 and len(checked) < STRICT_CHECK_BUDGET:
            checked.add(trial)
    violations = []
    strict_failures = []
    for (m, n), (group, rows) in shapes.items():
        q = q_matrices(mask_bits(rows, n).reshape(-1, m, n))
        top = spectral_radii(q)[0].tolist()
        for j, trial in enumerate(group):
            qg, qh = top[2 * j], top[2 * j + 1]
            if qh > qg + 1e-9:
                violations.append({"trial": trial, "m": m, "n": n, "qg": qg, "qh": qh})
            # small integer entries, so the float64 matrices convert exactly
            if trial in checked and not (qh < qg and separates_top_eigenvalues(
                    q[2 * j].astype(int).tolist(), q[2 * j + 1].astype(int).tolist(),
                    _short_dyadic(qh, qg))):
                strict_failures.append({"trial": trial, "m": m, "n": n})
    violations.sort(key=lambda v: v["trial"])
    strict_failures.sort(key=lambda f: f["trial"])
    return MonotonicityReport(
        trials=trials,
        seed=seed,
        violations=violations,
        equal_pairs=equal_pairs,
        strict_checks=len(checked),
        strict_failures=strict_failures,
    )
