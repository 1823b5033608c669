"""Bipartite graph type, constructors, queries, and file I/O.

Graphs have a part A of m vertices and a part B of n vertices, with edges
only across the parts. Each A-vertex stores its B-neighborhood as an int
bitmask, so unions over vertex subsets are word-parallel; the brute-force
Hall checker, trees.find_violation_bruteforce, unions up to 2**m per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import index, or_
import re

import numpy as np

from .errors import InputError

PART_SIZE_CAP = 1 << 14   # per part in graph files and complete_bipartite; rows fit in 32 MiB


def as_index(value, what: str) -> int:
    """value as an int; a bool or a value without __index__ is an InputError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InputError(f"{what} {value!r} is not an integer")
    return index(value)


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
            union = reduce(or_, self.adj, 0)
            if type(union) is int and 0 <= union <= full:   # no row is bad or a numpy scalar
                return
        except (TypeError, OverflowError):   # a row that | rejects, or mixed numpy widths
            pass
        rows = []   # name the first bad row, or store the rows as int (numpy lacks bit_length)
        for a, mask in enumerate(self.adj):
            try:
                bad = not 0 <= mask | 0 <= full
                rows.append(index(mask))
            except TypeError:
                raise InputError(f"neighborhood of A-vertex {a} is not an int bitmask: {mask!r}") from None
            if bad:
                raise InputError(f"neighborhood of A-vertex {a} has bits outside [0, {self.n})")
        object.__setattr__(self, "adj", tuple(rows))

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
        """Adjacency from the B side: a bitmask of A-indices per B-vertex.

        The columns are computed at most once per graph (parse_graph's fast
        path packs them from the edge indices, as it does the rows) and
        cached outside the fields, so ==, hash and repr do not see them. A
        race between threads at worst computes the same columns twice.
        """
        cols = self.__dict__.get("_cols")
        if cols is None:
            cols = _transpose(self.adj, self.n)
            object.__setattr__(self, "_cols", cols)
        return cols


def _transpose(adj, n: int) -> tuple[int, ...]:
    """Columns of the rows adj: a bitmask of row indices per column below n."""
    cols = [0] * n
    for a, mask in enumerate(adj):
        bit = 1 << a
        while mask:
            low = mask & -mask
            cols[low.bit_length() - 1] |= bit
            mask ^= low
    return tuple(cols)


def from_edge_list(m: int, n: int, edges) -> BipartiteGraph:
    """Build a graph from (a, b) index pairs; duplicates are collapsed. An edge
    that is no pair, or a bool or non-integer index or size, is an InputError."""
    m, n = as_index(m, "part size"), as_index(n, "part size")
    if m < 1 or n < 1:
        raise InputError(f"both parts must be nonempty, got m={m}, n={n}")
    adj = [0] * m
    for edge in edges:
        try:
            a, b = edge
        except (TypeError, ValueError):
            raise InputError(f"edge {edge!r} is not an (a, b) pair") from None
        a, b = as_index(a, "A-index"), as_index(b, "B-index")
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
    m, n = as_index(m, "part size"), as_index(n, "part size")
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


def reach(start: int, a_rows, b_rows) -> tuple[int, int]:
    """(A-mask, B-mask) of the vertices a breadth-first search reaches from
    the B-vertices in start: B-vertex b reaches b_rows[b], A-vertex a reaches
    a_rows[a]."""
    seen_a, seen_b = 0, start
    frontier_b = start
    while frontier_b:
        reached_a = 0
        while frontier_b:
            low = frontier_b & -frontier_b
            reached_a |= b_rows[low.bit_length() - 1]
            frontier_b ^= low
        frontier_a = reached_a & ~seen_a
        seen_a |= frontier_a
        reached_b = 0
        while frontier_a:
            low = frontier_a & -frontier_a
            reached_b |= a_rows[low.bit_length() - 1]
            frontier_a ^= low
        frontier_b = reached_b & ~seen_b
        seen_b |= frontier_b
    return seen_a, seen_b


def is_connected(g: BipartiteGraph) -> bool:
    """True iff a breadth-first search from A-vertex 0 reaches all m+n vertices."""
    return reach(g.adj[0], g.adj, g.b_adj()) == ((1 << g.m) - 1, (1 << g.n) - 1)


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
        if all(type(v) is int for v in self.values) and min(self.values) >= 2:
            return
        values = []   # as_index's rule: numpy ints are stored as int, bools refused
        for a, v in enumerate(self.values):
            try:
                value = as_index(v, "demand")
            except InputError:
                value = None
            if value is None or value < 2:
                raise InputError(f"demand for A-vertex {a} must be an integer >= 2, got {v!r}")
            values.append(value)
        object.__setattr__(self, "values", tuple(values))

    @classmethod
    def uniform(cls, m: int, k: int) -> "DegreeDemand":
        if as_index(m, "A-part size") < 1:
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


def _decimal(*fields: str) -> None:
    """A ValueError unless each field is ASCII -?[0-9]+. int() also reads 1_0,
    +3 and non-ASCII digits, but none of them in an ASCII text without + or _."""
    for field in fields:
        if not (field.isascii() and field.removeprefix("-").isdigit()):
            raise ValueError(field)


# format_graph's output, up to edge order, duplicates and leading zeros
_CANONICAL = re.compile(r"p bip [0-9]{1,5} [0-9]{1,5}\n(?:e [0-9]{1,5} [0-9]{1,5}\n)*")


def parse_graph(text: str, source: str = "<string>") -> BipartiteGraph:
    """Parse the graph file format, reporting errors as source:line: message.

    A canonical text, one `p bip <m> <n>` header and then only `e <a> <b>`
    lines, each field 1 to 5 ASCII digits and each line ended by a newline,
    with every size and index in range, has its edge block decoded by one
    numpy call; _pack_rows then builds the rows and the cached columns
    (BipartiteGraph.b_adj) from the decoded indices in bit-packed blocks of
    at most _BLOCK_ENTRIES entries. Any other text (comments, blank lines,
    CRLF, tabs, signs, a missing final newline, an error) takes the line
    loop, which names the line at fault.
    """
    return _parse_canonical(text) or _parse_lines(text, source)


def _parse_canonical(text: str) -> BipartiteGraph | None:
    """The graph of a canonical text, or None for the line loop to read.

    One np.fromstring call decodes the edge block, its `e`s blanked, as
    whitespace-separated ints. _pack_rows turns the (A, B) indices into the
    rows and the (B, A) indices into the columns; no m-by-n array is built,
    and no block holds more than _BLOCK_ENTRIES bools."""
    if not _CANONICAL.fullmatch(text):
        return None
    head = text.index("\n")
    m, n = map(int, text[:head].split()[2:])
    if not (1 <= m <= PART_SIZE_CAP and 1 <= n <= PART_SIZE_CAP):
        return None
    ids = np.fromstring(text[head + 1:].replace("e", " "), dtype=np.intp, sep=" ")
    if ids.size != 2 * text.count("\n", head + 1):   # two ints per edge line, or the line loop
        return None
    a_ids, b_ids = ids[0::2], ids[1::2]
    if a_ids.size and (a_ids.max() >= m or b_ids.max() >= n):
        return None
    g = BipartiteGraph(m, n, tuple(_pack_rows(m, n, a_ids, b_ids)))
    object.__setattr__(g, "_cols", tuple(_pack_rows(n, m, b_ids, a_ids)))
    return g


_BLOCK_ENTRIES = 1 << 20   # bool entries per _pack_rows block: bounds its scratch memory at 1 MiB


def _pack_rows(count: int, width: int, heads, tails) -> list[int]:
    """count rows of width bits as ints, bit tails[i] set in row heads[i].

    The bits are set in a bool block, np.packbits packs it little-endian
    along each row, and one int.from_bytes reads each row. If all count
    rows fit in one block of _BLOCK_ENTRIES they are packed as they are.
    Otherwise the edges are sorted by row, and only rows with an edge take
    a slot in a block, _BLOCK_ENTRIES // width rows at a time."""
    per_block = _BLOCK_ENTRIES // width   # width <= PART_SIZE_CAP, so at least 64
    if count <= per_block:
        return _pack_block(count, width, heads, tails)
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    new = np.diff(heads, prepend=-1) != 0   # the first edge of each row with an edge
    slots = np.cumsum(new) - 1
    starts = np.append(np.flatnonzero(new), heads.size)
    used = heads[new].tolist()
    rows = [0] * count
    for lo in range(0, len(used), per_block):
        hi = min(lo + per_block, len(used))
        edges = slice(starts[lo], starts[hi])
        packed = _pack_block(hi - lo, width, slots[edges] - lo, tails[edges])
        for a, row in zip(used[lo:hi], packed):
            rows[a] = row
    return rows


def _pack_block(count: int, width: int, heads, tails) -> list[int]:
    """_pack_rows for rows that fit in one block."""
    block = np.zeros((count, width), dtype=bool)
    block[heads, tails] = True
    packed = np.packbits(block, axis=1, bitorder="little")
    data, step = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]


def _parse_lines(text: str, source: str) -> BipartiteGraph:
    """Read any graph text line by line; errors name source:line."""
    plain = text.isascii() and "+" not in text and "_" not in text   # edges need no _decimal
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
                if not plain:
                    _decimal(fields[1], fields[2])
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
                _decimal(fields[2], fields[3])
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


def _file_path(path):
    """path, unless it has __index__: open() would take an int or bool as a
    file descriptor, and close it."""
    if hasattr(type(path), "__index__"):
        raise InputError(f"path must be a str or os.PathLike, got {path!r}")
    return path


def _read_text(path) -> str:
    """File contents as text; a byte that is not UTF-8 is an InputError at its line."""
    with open(_file_path(path), "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line}: not UTF-8 text") from None


def read_graph(path) -> BipartiteGraph:
    return parse_graph(_read_text(path), source=str(path))


def write_graph(g: BipartiteGraph, path) -> None:
    with open(_file_path(path), "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def parse_demands(text: str, source: str = "<string>") -> DegreeDemand:
    """Parse the demand file format: one integer per line."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            _decimal(line)
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
