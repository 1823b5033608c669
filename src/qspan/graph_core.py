"""Bipartite graph type, constructors, queries, and file I/O.

Graphs have a part A of m vertices and a part B of n vertices, with edges
only across the parts. Each A-vertex stores its B-neighborhood as an int
bitmask, so unions over vertex subsets are word-parallel; the Hall-type
checker in qspan.trees unions up to 2**m of these per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import InputError

PART_SIZE_CAP = 1 << 14   # per part in graph files and complete_bipartite; rows fit in 32 MiB


def iter_bits(mask: int):
    """Yield the set bit positions of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable bipartite graph on parts of size m (A) and n (B).

    adj[a] is the bitmask of B-indices adjacent to A-vertex a. Instances
    are safe to share across threads and processes.
    """

    m: int
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InputError(f"both parts must be nonempty, got m={self.m}, n={self.n}")
        if len(self.adj) != self.m:
            raise InputError(f"adj has {len(self.adj)} rows, expected m={self.m}")
        full = (1 << self.n) - 1
        try:
            if 0 <= reduce(or_, self.adj, 0) <= full:
                return
        except (TypeError, OverflowError):   # a row that | rejects, or mixed numpy widths
            pass
        for a, mask in enumerate(self.adj):    # some row is bad: name the first
            try:
                bad = not 0 <= mask | 0 <= full
            except TypeError:
                raise InputError(f"neighborhood of A-vertex {a} is not an int bitmask: {mask!r}") from None
            if bad:
                raise InputError(f"neighborhood of A-vertex {a} has bits outside [0, {self.n})")

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adj)

    def degree_a(self, a: int) -> int:
        return self.adj[a].bit_count()

    def degree_b(self, b: int) -> int:
        bit = 1 << b
        return sum(1 for mask in self.adj if mask & bit)

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.adj[a] >> b & 1)

    def b_adj(self) -> tuple[int, ...]:
        """Adjacency from the B side: a bitmask of A-indices per B-vertex."""
        rows = [0] * self.n
        for a, mask in enumerate(self.adj):
            for b in iter_bits(mask):
                rows[b] |= 1 << a
        return tuple(rows)


def from_edge_list(m: int, n: int, edges) -> BipartiteGraph:
    """Build a graph from (a, b) index pairs; duplicates are collapsed."""
    if m < 1 or n < 1:
        raise InputError(f"both parts must be nonempty, got m={m}, n={n}")
    adj = [0] * m
    for a, b in edges:
        if not (0 <= a < m):
            raise InputError(f"A-index {a} out of range [0, {m})")
        if not (0 <= b < n):
            raise InputError(f"B-index {b} out of range [0, {n})")
        adj[a] |= 1 << b
    return BipartiteGraph(m, n, tuple(adj))


def to_edge_list(g: BipartiteGraph) -> list[tuple[int, int]]:
    """Edges sorted lexicographically by (a, b)."""
    return [(a, b) for a in range(g.m) for b in iter_bits(g.adj[a])]


def complete_bipartite(m: int, n: int) -> BipartiteGraph:
    if m < 1 or n < 1:
        raise InputError(f"both parts must be nonempty, got m={m}, n={n}")
    if max(m, n) > PART_SIZE_CAP:
        raise InputError(f"part sizes must be <= {PART_SIZE_CAP}, got m={m}, n={n}")
    full = (1 << n) - 1
    return BipartiteGraph(m, n, (full,) * m)


def join(g1: BipartiteGraph, g2: BipartiteGraph) -> BipartiteGraph:
    """Join two bipartite graphs: keep both edge sets, then connect every
    A-vertex of g2 to every B-vertex of g1.

    Indices of g1 come first on both sides, so the result's A is A1 then A2
    and its B is B1 then B2.
    """
    full_b1 = (1 << g1.n) - 1
    adj = list(g1.adj)
    for mask in g2.adj:
        adj.append((mask << g1.n) | full_b1)
    return BipartiteGraph(g1.m + g2.m, g1.n + g2.n, tuple(adj))


def is_connected(g: BipartiteGraph) -> bool:
    """True iff a breadth-first search from A-vertex 0 reaches all m+n vertices."""
    b_rows = g.b_adj()
    seen_a = 1
    seen_b = 0
    frontier_a = 1
    while frontier_a:
        reached_b = 0
        for a in iter_bits(frontier_a):
            reached_b |= g.adj[a]
        new_b = reached_b & ~seen_b
        seen_b |= new_b
        reached_a = 0
        for b in iter_bits(new_b):
            reached_a |= b_rows[b]
        frontier_a = reached_a & ~seen_a
        seen_a |= frontier_a
    return seen_a == (1 << g.m) - 1 and seen_b == (1 << g.n) - 1


@dataclass(frozen=True)
class DegreeDemand:
    """Per-A-vertex degree lower bounds, each at least 2.

    Demands of 1 are excluded: any spanning tree meets them, so they carry
    no information for the feasibility question this package answers.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise InputError("demand vector is empty")
        for a, v in enumerate(self.values):
            if not isinstance(v, int) or v < 2:
                raise InputError(f"demand for A-vertex {a} must be an integer >= 2, got {v!r}")

    @classmethod
    def uniform(cls, m: int, k: int) -> "DegreeDemand":
        if m < 1:
            raise InputError(f"need at least one A-vertex, got m={m}")
        return cls((k,) * m)

    @property
    def total(self) -> int:
        return sum(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, a: int) -> int:
        return self.values[a]


# --- file formats -----------------------------------------------------------
#
# Graph file:   `p bip <m> <n>` header, then `e <a> <b>` lines (0-based).
# Demand file:  one integer >= 2 per line, m lines.
# `#` starts a comment line in both; blank lines are ignored.


def format_graph(g: BipartiteGraph) -> str:
    lines = [f"p bip {g.m} {g.n}"]
    lines.extend(f"e {a} {b}" for a, b in to_edge_list(g))
    return "\n".join(lines) + "\n"


def parse_graph(text: str, source: str = "<string>") -> BipartiteGraph:
    """Parse the graph file format, reporting errors as source:line: message."""
    m = n = None
    adj = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split() or ["#"]   # a blank line reads as a comment
        if fields[0] == "e":
            if adj is None:
                raise InputError(f"{source}:{lineno}: edge before problem line")
            if len(fields) != 3:
                raise InputError(f"{source}:{lineno}: expected 'e <a> <b>'")
            try:
                a, b = int(fields[1]), int(fields[2])
            except ValueError:
                raise InputError(f"{source}:{lineno}: endpoints must be integers") from None
            if not (0 <= a < m):
                raise InputError(f"{source}:{lineno}: A-index {a} out of range [0, {m})")
            if not (0 <= b < n):
                raise InputError(f"{source}:{lineno}: B-index {b} out of range [0, {n})")
            adj[a] |= 1 << b
        elif fields[0][0] == "#":
            continue
        elif fields[0] == "p":
            if m is not None:
                raise InputError(f"{source}:{lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "bip":
                raise InputError(f"{source}:{lineno}: expected 'p bip <m> <n>'")
            try:
                m, n = int(fields[2]), int(fields[3])
            except ValueError:
                raise InputError(f"{source}:{lineno}: part sizes must be integers") from None
            if m < 1 or n < 1:
                raise InputError(f"{source}:{lineno}: part sizes must be >= 1")
            if max(m, n) > PART_SIZE_CAP:
                raise InputError(f"{source}:{lineno}: part sizes must be <= {PART_SIZE_CAP}")
            adj = [0] * m
        else:
            raise InputError(f"{source}:{lineno}: unknown line type {fields[0]!r}")
    if adj is None:
        raise InputError(f"{source}: missing problem line")
    return BipartiteGraph(m, n, tuple(adj))


def _read_text(path) -> str:
    """File contents as text; a byte that is not UTF-8 is an InputError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line}: not UTF-8 text") from None


def read_graph(path) -> BipartiteGraph:
    return parse_graph(_read_text(path), source=str(path))


def write_graph(g: BipartiteGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def parse_demands(text: str, source: str = "<string>") -> DegreeDemand:
    """Parse the demand file format: one integer per line."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            v = int(line)
        except ValueError:
            raise InputError(f"{source}:{lineno}: expected an integer, got {line!r}") from None
        if v < 2:
            raise InputError(f"{source}:{lineno}: demands must be >= 2, got {v}")
        values.append(v)
    if not values:
        raise InputError(f"{source}: no demands found")
    return DegreeDemand(tuple(values))


def read_demands(path) -> DegreeDemand:
    return parse_demands(_read_text(path), source=str(path))
