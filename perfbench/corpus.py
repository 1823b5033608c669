"""Seeded decide-tight corpus and the benchmark's own certificate checks.

Nothing here imports qspan: the corpus is plain graph text plus demand
vectors, and the checks re-derive every verdict from the benchmark's own copy
of the edges, so a wrong answer cannot be confirmed by the code that made it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

M_RANGE = range(6, 25)
K_VALUES = (3, 4, 5)
SLACKS = (0, 1, 2)                               # n = sum(f) - m + 1 + slack
DENSITY_BANDS = ((0.25, 0.35), (0.35, 0.45), (0.45, 0.55))
PLANTED_PATTERN = (True, False, False)           # one planted violation in three
CELL_COPIES = 2                                  # slack/band/planted mixes per cell
CONNECT_TRIES = 100


@dataclass(frozen=True)
class Instance:
    m: int
    n: int
    k: int
    per_vertex: bool
    density: float
    demand: tuple[int, ...]
    adj: tuple[int, ...]      # adj[a] = bitmask of B-neighbours of A-vertex a
    planted: tuple[int, ...]  # planted violating set, () when none
    text: str                 # the graph in `p bip` file format


def _connected(m: int, n: int, adj) -> bool:
    cols = [0] * n
    for a, row in enumerate(adj):
        for b in range(n):
            if row >> b & 1:
                cols[b] |= 1 << a
    seen_a, seen_b, frontier = 1, 0, 1
    while frontier:
        reach_b = 0
        for a in range(m):
            if frontier >> a & 1:
                reach_b |= adj[a]
        new_b = reach_b & ~seen_b
        seen_b |= new_b
        reach_a = 0
        for b in range(n):
            if new_b >> b & 1:
                reach_a |= cols[b]
        frontier = reach_a & ~seen_a
        seen_a |= frontier
    return seen_a == (1 << m) - 1 and seen_b == (1 << n) - 1


def _instance(rng: random.Random, m: int, k: int, per_vertex: bool, slack: int,
              band: tuple[float, float], planted: bool) -> Instance:
    demand = tuple(max(2, k + rng.choice((-1, 0, 1))) if per_vertex else k for _ in range(m))
    n = sum(demand) - m + 1 + slack
    density = rng.uniform(*band)
    full = (1 << n) - 1
    for _ in range(CONNECT_TRIES):
        allowed = [full] * m
        subset: tuple[int, ...] = ()
        if planted:
            size = rng.randint(1, max(1, m // 4))
            subset = tuple(sorted(rng.sample(range(m), size)))
            budget = sum(demand[a] for a in subset) - size
            reserved = sum(1 << b for b in rng.sample(range(n), budget))
            for a in subset:
                allowed[a] = reserved
        adj = []
        for a in range(m):
            row = sum(1 << b for b in range(n) if allowed[a] >> b & 1 and rng.random() < density)
            if row == 0:
                row = 1 << rng.choice([b for b in range(n) if allowed[a] >> b & 1])
            adj.append(row)
        free = [a for a in range(m) if a not in subset]
        for b in range(n):
            if not any(row >> b & 1 for row in adj):
                adj[rng.choice(free)] |= 1 << b
        if _connected(m, n, adj):
            break
    else:
        raise RuntimeError(f"no connected instance at m={m} k={k} after {CONNECT_TRIES} tries")
    edges = [(a, b) for a in range(m) for b in range(n) if adj[a] >> b & 1]
    rng.shuffle(edges)
    text = "\n".join([f"p bip {m} {n}"] + [f"e {a} {b}" for a, b in edges]) + "\n"
    return Instance(m, n, k, per_vertex, density, demand, tuple(adj), subset, text)


def decide_corpus(seed: int) -> list[Instance]:
    """Stratified corpus: every (m, k, demand kind) cell gets the same mix of
    budget slacks, density bands and planted violations, so corpora from
    different seeds differ in their edges, not in their proportions."""
    rng = random.Random(seed)
    cells = []
    for m in M_RANGE:
        for k in K_VALUES:
            for per_vertex in (False, True):
                for _ in range(CELL_COPIES):
                    slacks, bands, planted = (list(SLACKS), list(DENSITY_BANDS),
                                              list(PLANTED_PATTERN))
                    for column in (slacks, bands, planted):
                        rng.shuffle(column)
                    cells.extend(zip([m] * len(slacks), [k] * len(slacks),
                                     [per_vertex] * len(slacks), slacks, bands, planted))
    rng.shuffle(cells)
    return [_instance(rng, *cell) for cell in cells]


def corpus_shape(corpus: list[Instance], feasible: int) -> dict:
    count = len(corpus)
    return {
        "instances": count,
        "m": [min(i.m for i in corpus), max(i.m for i in corpus)],
        "n": [min(i.n for i in corpus), max(i.n for i in corpus)],
        "k": [min(i.k for i in corpus), max(i.k for i in corpus)],
        "density": [round(min(i.density for i in corpus), 3), round(max(i.density for i in corpus), 3)],
        "per_vertex_share": sum(i.per_vertex for i in corpus) / count,
        "planted_share": sum(bool(i.planted) for i in corpus) / count,
        "feasible_share": feasible / count,
        "infeasible_share": (count - feasible) / count,
    }


# --- independent certificate checks ------------------------------------------


def tree_error(inst: Instance, edges) -> str | None:
    """None when edges form a spanning tree of the instance meeting every
    A-side demand; otherwise the reason it does not."""
    m, n = inst.m, inst.n
    edges = [tuple(e) for e in edges]
    if len(edges) != m + n - 1:
        return f"{len(edges)} edges, a spanning tree has {m + n - 1}"
    parent = list(range(m + n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degree = [0] * m
    for a, b in edges:
        if not (0 <= a < m and 0 <= b < n) or not inst.adj[a] >> b & 1:
            return f"({a}, {b}) is not an edge of the graph"
        ra, rb = root(a), root(m + b)
        if ra == rb:
            return f"({a}, {b}) closes a cycle"
        parent[ra] = rb
        degree[a] += 1
    short = [a for a in range(m) if degree[a] < inst.demand[a]]
    if short:
        return f"A-vertices {short[:5]} miss their demand"
    return None


def violation_error(inst: Instance, subset) -> str | None:
    """None when subset S satisfies |N(S)| <= sum_S f - |S|, which rules out
    every qualifying spanning tree; otherwise the reason it does not."""
    subset = list(subset)
    if not subset or len(set(subset)) != len(subset):
        return "violating set is empty or repeats a vertex"
    if any(not 0 <= a < inst.m for a in subset):
        return "violating set names a vertex outside A"
    union = 0
    for a in subset:
        union |= inst.adj[a]
    need = sum(inst.demand[a] for a in subset) - len(subset)
    if bin(union).count("1") > need:
        return f"|N(S)| = {bin(union).count('1')} exceeds sum f - |S| = {need}"
    return None
