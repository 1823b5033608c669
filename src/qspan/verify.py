"""End-to-end verification at desk scale.

Three entry points:

* certify_threshold: exhaustively census every labeled bipartite graph on
  (m, n): each connected graph at or above the threshold must admit a
  qualifying spanning tree or be the extremal graph itself.
* separation_sweep: re-derive, per parameter point, every exact identity and
  strict inequality that places the family members below the threshold.
* subgraph_monotonicity_fuzz: samples Perron-Frobenius monotonicity, q(H)
  <= q(G) for a connected spanning subgraph H of a connected G (each removal
  a uniformly random non-bridge, by one shuffle and a test on the A-rows),
  solving each distinct matrix once per shape; strictness is spot-checked in
  integers by Collatz-Wielandt bounds from the rounded top eigenvectors.

The census is a breadth-first search of single-edge deletions down from
K_{m,n}: adding an edge never lowers q, so the graphs with
q >= q* - CENSUS_SLACK form an up-set that it finds without touching the rest.
They are all connected: each component of a disconnected graph lies inside
some K_{a,b} with a + b <= m + n - 1, so its q is at most m + n - 1, and q*
exceeds that (Perron-Frobenius: G* strictly contains K_{m-1,n} plus an
isolated vertex). Under a uniform demand, relabelling A or B changes neither
q nor feasibility, so it runs over A×B relabelling classes, one chunked
batched eigvalsh per level. A class is its canonical form: the least
ascending tuple of n columns over the placements of its non-full A-rows that
keep them in degree order (full rows above), weighted by its size
m! n! / (f! h prod(multiplicity!)), f its full rows and h the placements that
attain the form. Classes above q* + CENSUS_SLACK are re-checked through
construct_tree; those within CENSUS_SLACK of q* must be extremal copies (known
by their A-degrees, at q* exactly) or InternalError.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, InternalError
from .extremal import (
    ExtremalParams,
    build_family,
    difference_factor,
    difference_factor_coeffs,
    extremal_graph,
    family_bracket,
    family_char_coeffs,
    family_quotient,
    family_rows,
    lower_endpoint_quadratic,
    spectral_threshold,
    upper_endpoint_quadratic,
)
from .graph_core import (
    BipartiteGraph,
    DegreeDemand,
    as_index,
    complete_bipartite,
    is_connected,
    iter_bits,
    to_edge_list,
)
from .poly import exact_char_poly, exact_char_polys
from .spectral import DENSE_CAP, collatz_wielandt_bounds, mask_bits, q_matrices, top_eigenpairs
from .trees import construct_tree, is_violation

CENSUS_CAP = 1 << 25      # census: at most 2**25 Q-matrix and relabelled-column entries in all
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


def _class_weight(cols: tuple, deg: list, h: int) -> int:
    """Labelled graphs in the class of a canonical tuple whose rows have
    degrees deg: m! n! / (f! h prod(multiplicity!)), f the full rows and h
    the candidates that attain the form (h f! is the A-stabiliser)."""
    runs = (len(list(run)) for _, run in itertools.groupby(cols))
    m, n = len(deg), len(cols)
    return (math.factorial(m) * math.factorial(n)
            // (math.factorial(deg.count(n)) * h * math.prod(map(math.factorial, runs))))


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


def _blocks(deg: list, n: int) -> tuple[list, tuple]:
    """The non-full rows in degree order (canonical positions 0, 1, ...) and
    the sizes of its runs of equal degree; full rows take the positions above."""
    rows = sorted((d, a) for a, d in enumerate(deg) if d < n)
    sizes = tuple(len(list(run)) for _, run in itertools.groupby(d for d, _ in rows))
    return [a for _, a in rows], sizes


def _canonical(cols: tuple, rows: list, sizes: tuple, m: int) -> tuple[tuple, int]:
    """(form, h) of a column tuple: the least ascending tuple of relabelled
    columns over the candidates (rows, the non-full rows in degree order,
    moved only inside blocks of equal degree), and how many attain it. Full
    columns stay full, the largest value, so only the others are relabelled."""
    full = (1 << m) - 1
    top, part = full ^ ((1 << len(rows)) - 1), [c for c in cols if c != full]
    present = [[i for i, a in enumerate(rows) if c >> a & 1] for c in part]
    starts = itertools.accumulate(sizes, initial=0)
    blocks = [itertools.permutations(range(b, b + s)) for b, s in zip(starts, sizes)]
    best, h = None, 0
    for pos in itertools.product(*blocks):
        w = [1 << p for block in pos for p in block]
        form = sorted(top + sum(w[i] for i in idx) for idx in present)
        if best is None or form < best:
            best, h = form, 1
        elif form == best:
            h += 1
    return tuple(best) + (full,) * (len(cols) - len(part)), h


def _up_set(m: int, n: int, floor: float) -> list:
    """(class, weight, q) for every A×B relabelling class (canonical tuple of
    n columns, subsets of A) with q >= floor, by breadth-first search down
    from K_{m,n}. q never falls when an edge is added, so deleting one edge
    per distinct column of every member reaches them all. A level's children
    are deduplicated as column tuples and solved; each one at or above the
    floor is then put in canonical form once. Connectivity is not tested: a
    disconnected class has q <= m + n - 1, below q* at every admissible
    point, so at the census's own floor the eigen-solve drops it. The whole
    search spends at most CENSUS_CAP entries: (m + n)^2 per column tuple
    solved and n per canonical candidate tried. The level or canonical form
    that would pass that raises CapacityError before its matrices or its
    candidates are built."""
    spent, found = 0, []
    kids = {((1 << m) - 1,) * n: [n] * m}   # column tuple -> its row degrees

    def spend(entries):
        nonlocal spent
        spent += entries
        if spent > CENSUS_CAP:
            raise CapacityError(f"(m, n) = ({m}, {n}): the census would spend more than "
                                f"{CENSUS_CAP} Q-matrix and relabelled-column entries")

    while kids:
        spend(len(kids) * (m + n) ** 2)
        level = {}   # form -> (degrees at its positions, h, q)
        for (cols, deg), q in zip(kids.items(), _radii(list(kids), m, n).tolist()):
            if q < floor:
                continue
            rows, sizes = _blocks(deg, n)
            spend(n * math.prod(map(math.factorial, sizes)))
            form, h = _canonical(cols, rows, sizes, m)
            level.setdefault(form, (sorted(deg), h, q))
        kids = {}
        for cols, (deg, h, q) in level.items():
            found.append((cols, _class_weight(cols, deg, h), q))
            for i, c in enumerate(cols):
                if i and c == cols[i - 1]:
                    continue
                for a in iter_bits(c):
                    d = c & ~(1 << a)
                    j = bisect.bisect_right(cols, d, 0, i)
                    kid = cols[:j] + (d,) + cols[j:i] + cols[i + 1:]
                    if kid not in kids:
                        kids[kid] = deg[:a] + [deg[a] - 1] + deg[a + 1:]
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


def _b_classes(cols: tuple, m: int) -> list:
    """The ascending column tuples of a class's A-relabellings, each once and
    in order: every placement of its non-full rows, the full rows filling the
    other positions in any order."""
    common = functools.reduce(int.__and__, cols, (1 << m) - 1)
    rows = [a for a in range(m) if not common >> a & 1]
    out = set()
    for pos in itertools.permutations(range(m), len(rows)):
        rest = (1 << m) - 1 - sum(1 << p for p in pos)
        moved = (rest | sum(1 << p for a, p in zip(rows, pos) if c >> a & 1) for c in cols)
        out.add(tuple(sorted(moved)))
    return sorted(out)


@dataclass
class ScanStats:
    qstar: float
    graphs_connected: int
    graphs_above_bound: int
    feasible_above: int
    counterexample_masks: list
    extremal_copies: list    # one mask per B-relabelling class of an extremal copy


def _check_point(m: int, n: int) -> None:
    if (m + n) ** 2 > EIGEN_CHUNK:
        raise CapacityError(f"order m + n = {m + n}: one Q matrix exceeds the "
                            f"{EIGEN_CHUNK}-entry eigen chunk")


def scan_stats(k: int, m: int, n: int) -> ScanStats:
    """Census over the connected A×B relabelling classes, in labelled counts.

    _up_set gives the classes with q >= qstar - CENSUS_SLACK, qstar being
    spectral_threshold. A disconnected class, which can only show up when
    qstar is moved below m + n - 1 (its q bound), is skipped. A class above qstar + CENSUS_SLACK gets one
    construct_tree, which verifies the tree it returns, or the extremal-copy
    test; a counterexample class adds the masks of all its labellings, over
    A and B, kept in ascending order; an extremal class adds one mask per
    B-relabelling class in it. A class within CENSUS_SLACK of qstar must be an extremal copy
    (cospectral, so exactly at qstar); any other raises InternalError. The
    copy test is exact: m-1 A-vertices that see all of B and one that sees
    k-1 of B are the extremal graph up to relabelling A and B.
    """
    p = ExtremalParams(k, m, n, 1)    # admissibility first, then capacity
    k, m, n = p.k, p.m, p.n
    _check_point(m, n)
    qstar = spectral_threshold(k, m, n)
    stats = ScanStats(qstar, 0, 0, 0, [], [])
    demand = DegreeDemand.uniform(m, k)
    for cols, weight, q in _up_set(m, n, qstar - CENSUS_SLACK):
        mask = _class_mask(cols, m, n)
        g = _graph_from_mask(mask, m, n)
        if q <= m + n - 1 + CENSUS_SLACK and not is_connected(g):
            continue
        stats.graphs_above_bound += weight
        above = q > qstar + CENSUS_SLACK
        result = construct_tree(g, demand) if above else None
        if above and result.feasible:
            stats.feasible_above += weight
        elif sorted(map(int.bit_count, g.adj)) == [k - 1] + [n] * (m - 1):
            stats.extremal_copies += [_class_mask(b, m, n) for b in _b_classes(cols, m)]
        elif above:
            stats.counterexample_masks += [x for b in _b_classes(cols, m)
                                           for x in _labellings(list(b), m, n)]
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
    be infeasible, both read off its closed form: its rows are family_rows,
    so its four blocks are equitable with quotient family_quotient, whose
    characteristic polynomial must be the s=1 quartic; A-vertex 0 alone
    violates the Hall condition. A point whose order m + n does not fit one
    eigen chunk, or whose search would spend more than CENSUS_CAP entries
    (see _up_set), raises CapacityError before any tree is built.
    """
    p1 = ExtremalParams(k, m, n, 1)
    k, m, n = p1.k, p1.m, p1.n
    stats = scan_stats(k, m, n)
    star = (p1.m, p1.n, p1.s, p1.r)
    gstar = extremal_graph(k, m, n)
    gstar_infeasible = is_violation(gstar, DegreeDemand.uniform(m, k), (0,))
    gstar_attains = (gstar.adj == family_rows(*star)
                     and exact_char_poly(family_quotient(*star)) == family_char_coeffs(*star))
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


def _algebraic_checks(k, m, n, s, quotient_coeffs) -> dict:
    """point_checks' checks but join_chain, at a point of ints or at int64 columns
    of points alike: only +, -, *, comparisons, & and |, so each is a bool or a bool column."""
    r = (k - 1) * s
    lo, hi = family_bracket(m, n, s, r)
    fam = family_char_coeffs(m, n, s, r)
    base = family_char_coeffs(m, n, 1, k - 1)
    d0, d1, d2 = difference_factor_coeffs(k, m, n, s)
    diff = tuple(bc - fc for bc, fc in zip(base.coeffs, fam.coeffs))
    psi_lo, psi_hi = difference_factor(lo, k, m, n, s), difference_factor(hi, k, m, n, s)
    fn = upper_endpoint_quadratic(k, m, n)

    def equal(xs, ys):   # xs == ys, element by element
        return functools.reduce(operator.and_, map(operator.eq, xs, ys))
    identity = equal(diff, (0, (s - 1) * d0, (s - 1) * d1, (s - 1) * d2, 0))
    return {
        "coeff_identity": equal(quotient_coeffs, fam.coeffs),
        "difference_identity": identity,
        "upper_endpoint_negative": (psi_hi <= fn) & (fn < 0),
        "lower_endpoint_identity": psi_lo == (k - 1) * lower_endpoint_quadratic(k, m, n, s),
        "lower_endpoint_negative": ((psi_lo < 0) & (lower_endpoint_quadratic(k, m, n, 2) < 0)
                                    & (lower_endpoint_quadratic(k, m, n, m - 1) < 0)),
        "ordering": (fam.evaluate(lo) < 0) & (fam.evaluate(hi) > 0),
        "separation": ((s == 1) & equal(fam.coeffs, base.coeffs)
                       | (s != 1) & identity & (d2 >= 0) & (psi_lo < 0) & (psi_hi < 0)),
    }


def point_checks(p: ExtremalParams, algebraic=None) -> dict:
    """All identity and inequality checks for one parameter point.

    Every check is an exact sign or identity; no root is computed. The
    closed forms get p's (m, n, s, r), and p_1 is the quartic at (m, n, 1, k-1).
    coeff_identity compares the closed-form quartic p_s with the characteristic
    polynomial of family_quotient. ordering asks that p_s change sign on the
    bracket (lo, hi), which holds its root q_s. At s = 1 separation asks that
    the two quartics coincide; for s >= 2 it asks for the paper's premises
    p_1 - p_s = x (s - 1) psi(x), d2 >= 0 and psi(lo), psi(hi) < 0, so
    psi < 0 on the bracket and p_1(q_s) < 0, i.e. q_s < q*. separation_sweep
    passes these seven as algebraic, evaluated on int64 columns, which is
    exact: at m + n <= 64 no closed-form value reaches 2^21.
    join_chain asks that the family member have s rows 2^r - 1, r = (k-1)s,
    then m - s rows 2^n - 1 (family_rows). A join at any r has that form, and
    2^r - 1 lies in 2^r' - 1 for r <= r', so the chain nests and q only rises;
    the one built graph ties this to the family's definition. m + n >
    DENSE_CAP is a CapacityError.
    """
    if p.m + p.n > DENSE_CAP:
        raise CapacityError(f"order {p.m + p.n} exceeds dense cap {DENSE_CAP}")
    if algebraic is None:
        quotient_poly = exact_char_poly(family_quotient(p.m, p.n, p.s, p.r))
        algebraic = _algebraic_checks(p.k, p.m, p.n, p.s, quotient_poly.coeffs)
    return {**algebraic, "join_chain": build_family(p).adj == family_rows(p.m, p.n, p.s, p.r)}


def _grid_axis(values, default, what: str) -> tuple:
    """The axis as a tuple of ints (as_index), cut one value past
    SWEEP_POINT_CAP so that a huge range is refused by the caps instead of
    being materialised."""
    return default if values is None else tuple(
        as_index(v, what) for v in itertools.islice(values, SWEEP_POINT_CAP + 1))


def separation_sweep(k_values=None, m_values=None, n_extras=None, seed: int = 0) -> SweepReport:
    """Run point_checks over a parameter grid.

    n_extras are offsets added to (k-1)*m; offset 0 is the out-of-hypothesis
    boundary where the upper endpoint quadratic must vanish exactly, recorded
    as an expected boundary rather than a failure. A grid of more than
    SWEEP_POINT_CAP points, or with a family order m + n above SWEEP_ORDER_CAP,
    raises CapacityError before any point runs. The checks but join_chain run
    once over int64 columns (k, m, n, s) of all interior points, exact as at
    m + n <= SWEEP_ORDER_CAP = 64 no closed-form value reaches 2^21; one
    exact_char_polys call takes their (N, 4, 4) int64 quotient stack. seed is
    only a grid label.
    """
    k_values = _grid_axis(k_values, DEFAULT_K_VALUES, "grid k value")
    m_values = _grid_axis(m_values, DEFAULT_M_VALUES, "grid m value")
    n_extras = _grid_axis(n_extras, DEFAULT_N_EXTRAS, "grid n offset")
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

    ks, ms, ns, ss = np.array([(k, m, (k - 1) * m + extra, s) for k, m, extra in grid_points if extra
                               for s in range(1, m)], dtype=np.int64).reshape(-1, 4).T
    entries = np.broadcast_arrays(*itertools.chain(*family_quotient(ms, ns, ss, (ks - 1) * ss)))
    polys = exact_char_polys(np.stack(entries, axis=1).reshape(-1, 4, 4))
    coeffs = np.array([q.coeffs for q in polys], dtype=np.int64).reshape(-1, 5).T   # ascending quartics
    columns = {name: check.tolist() for name, check in _algebraic_checks(ks, ms, ns, ss, coeffs).items()}
    rows = zip(*columns.values())
    points = []
    failures = []
    for k, m, extra in grid_points:
        n = (k - 1) * m + extra
        if extra == 0:
            ok = upper_endpoint_quadratic(k, m, n) == 0
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
            checks = point_checks(ExtremalParams(k, m, n, s), dict(zip(columns, next(rows))))
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
        "seed": as_index(seed, "seed"),
    }
    return SweepReport(grid=grid, points=points, failures=failures)


# --- monotonicity fuzz ---------------------------------------------------------

FUZZ_MAX_M = 6
FUZZ_MAX_N = 8
STRICT_CHECK_BUDGET = 400


def _rows_connected(rows: list, full_b: int) -> bool:
    """True iff the A-rows (B-neighbour masks) make a connected graph on B =
    full_b: the B-set reached from row 0 grows by every row that meets it
    until none does, and then no row may be left and the set must be full_b."""
    seen, left = rows[0], rows[1:]
    while True:
        rest = []
        for row in left:
            if row & seen:
                seen |= row
            else:
                rest.append(row)
        if not rest:
            return seen == full_b
        if len(rest) == len(left):
            return False
        left = rest


def _random_connected(rng: random.Random, m: int, n: int) -> BipartiteGraph:
    """A random connected graph on (m, n): up to 300 draws, each with its own
    edge probability and one rng.random() per (a, b) in row order, kept once
    its rows pass _rows_connected; K_{m,n} if none does."""
    draw, bits, full_b = rng.random, [1 << b for b in range(n)], (1 << n) - 1
    for _ in range(300):
        p = rng.uniform(0.3, 0.9)
        rows = []
        for _ in range(m):
            row = 0
            for bit in bits:
                if draw() < p:
                    row |= bit
            rows.append(row)
        if _rows_connected(rows, full_b):
            return BipartiteGraph(m, n, tuple(rows))
    return complete_bipartite(m, n)


def _random_spanning_subgraph(rng: random.Random, g: BipartiteGraph) -> BipartiteGraph:
    """g less a uniform number, 0 to its cycle rank, of removals, each of a
    uniformly random non-bridge, by one shuffle of to_edge_list(g): each edge
    in turn is dropped if the rows without it still pass _rows_connected.
    Removals only make bridges, so the first non-bridge left in the order is
    a uniform pick among them."""
    edge_count = g.edge_count
    slack = edge_count - (g.m + g.n - 1)
    removals = rng.randint(0, slack) if slack > 0 else 0
    if not removals:
        rng.shuffle([None] * edge_count)   # shuffle draws by length alone; keeps the stream
        return g
    edges = to_edge_list(g)
    rng.shuffle(edges)
    rows, full_b = list(g.adj), (1 << g.n) - 1
    for a, b in edges:
        rows[a] ^= 1 << b
        if _rows_connected(rows, full_b):
            removals -= 1
            if not removals:
                break
        else:
            rows[a] |= 1 << b
    return BipartiteGraph(g.m, g.n, tuple(rows))


def _fuzz_pairs(trials: int, seed: int):
    """Yield the fuzz's (G, H) pairs in trial order from one seeded stream."""
    rng = random.Random(seed)
    for _ in range(trials):
        m = rng.randint(1, FUZZ_MAX_M)
        n = rng.randint(1, FUZZ_MAX_N)
        g = _random_connected(rng, m, n)
        yield g, _random_spanning_subgraph(rng, g)


def subgraph_monotonicity_fuzz(trials: int = 10000, seed: int = 0) -> MonotonicityReport:
    """Random connected G, random connected spanning subgraph H: q(H) must
    not exceed q(G) + 1e-9. Each distinct adjacency of a shape is solved once,
    in one top_eigenpairs stack per shape, every residual checked; H = G is
    only counted. The first STRICT_CHECK_BUDGET pairs with H != G and at most
    8 vertices are certified strict in integers: y_i = max(1, rint(2^52 |v_i|
    / max |v|)) from each top eigenvector v gives Collatz-Wielandt bounds, and
    H's upper bound must lie below G's lower bound."""
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 0:
        raise InputError(f"trials must be a non-negative integer, got {trials!r}")
    shapes = {}   # (m, n) -> {adjacency rows: position in the shape's stack}
    pairs = []    # (trial, m, n, G's position, H's position, checked) when H != G
    equal_pairs = checks = 0
    for trial, (g, h) in enumerate(_fuzz_pairs(trials, seed)):
        if h.adj == g.adj:
            equal_pairs += 1
            continue
        index = shapes.setdefault((g.m, g.n), {})
        ig = index.setdefault(g.adj, len(index))
        check = g.m + g.n <= 8 and checks < STRICT_CHECK_BUDGET
        checks += check
        pairs.append((trial, g.m, g.n, ig, index.setdefault(h.adj, len(index)), check))
    solved = {}   # (m, n) -> (radii, scaled top eigenvectors, adjacency rows) by position
    for (m, n), index in shapes.items():
        top, _, vec = top_eigenpairs(q_matrices(mask_bits([r for adj in index for r in adj], n).reshape(-1, m, n)))
        vec = np.abs(vec)
        y = np.maximum(1, np.rint(vec * 2.0 ** 52 / vec.max(axis=1, keepdims=True))).astype(np.int64)
        solved[m, n] = top.tolist(), y, list(index)
    violations, strict_failures = [], []
    for trial, m, n, ig, ih, check in pairs:
        top, y, adj = solved[m, n]
        qg, qh = top[ig], top[ih]
        if qh > qg + 1e-9:
            violations.append({"trial": trial, "m": m, "n": n, "qg": qg, "qh": qh})
        if check:
            (lo, lo_den), _ = collatz_wielandt_bounds(adj[ig], m, n, y[ig].tolist())
            _, (hi, hi_den) = collatz_wielandt_bounds(adj[ih], m, n, y[ih].tolist())
            if hi * lo_den >= lo * hi_den:
                strict_failures.append({"trial": trial, "m": m, "n": n})
    return MonotonicityReport(trials=trials, seed=seed, violations=violations, equal_pairs=equal_pairs,
                              strict_checks=checks, strict_failures=strict_failures)
