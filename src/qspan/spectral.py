"""Signless Laplacian assembly and spectral computations.

Provides the dense signless Laplacian Q = D + A of a bipartite graph as a
float array, the spectral radii of a stack of such arrays from one LAPACK eigh
call with a residual check, and quotient matrices of vertex partitions (their
exact characteristic polynomials come from qspan.poly.exact_char_poly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InputError, NumericalError
from .graph_core import BipartiteGraph, iter_bits

DENSE_CAP = 4096        # largest order accepted for dense spectral work


@dataclass(frozen=True)
class QuotientMatrix:
    """Average block row sums of Q(G) under a vertex partition.

    entries[i][j] is the average, over vertices of block i, of the row sum
    of the (i, j) block of Q. The partition is equitable when every row in
    each block attains that average exactly. Entries are exact (ints in family_quotient).
    """

    entries: tuple[tuple[Fraction | int, ...], ...]
    block_sizes: tuple[int, ...]
    equitable: bool

    def __post_init__(self):
        p = len(self.block_sizes)
        if len(self.entries) != p or any(len(row) != p for row in self.entries):
            raise InputError("entries shape does not match block count")
        if any(size < 1 for size in self.block_sizes):
            raise InputError("blocks must be nonempty")
        if any(x < 0 for row in self.entries for x in row):
            raise InputError("quotient entries must be nonnegative")


def q_matrices(bits: np.ndarray) -> np.ndarray:
    """Q for each m x n 0/1 biadjacency block of a (..., m, n) stack, A-vertices first."""
    m, n = bits.shape[-2:]
    q = np.zeros(bits.shape[:-2] + (m + n, m + n))
    q[..., :m, m:] = bits
    q[..., m:, :m] = np.swapaxes(bits, -1, -2)
    diag = np.arange(m + n)
    q[..., diag, diag] = q.sum(axis=-1)
    return q


def mask_bits(masks, width: int) -> np.ndarray:
    """0/1 rows of shape (len(masks), width): entry [i, j] is bit j of masks[i]."""
    size = (width + 7) // 8
    packed = np.frombuffer(b"".join(mask.to_bytes(size, "little") for mask in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(-1, size), axis=1, count=width, bitorder="little")


def signless_laplacian(g: BipartiteGraph) -> np.ndarray:
    """Q(G) = degree diagonal + adjacency as an (m+n, m+n) float array,
    A-vertices indexed first."""
    if g.m + g.n > DENSE_CAP:
        raise CapacityError(f"order {g.m + g.n} exceeds dense cap {DENSE_CAP}")
    return q_matrices(mask_bits(g.adj, g.n))


def spectral_radii(q: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalues and their residuals for a (k, t, t) stack of
    symmetric nonnegative matrices, from one LAPACK eigh call. If the residual
    ||Q v - value v|| of a top eigenvector v exceeds tol * max(1, value),
    NumericalError is raised with the first such (value, residual) as best."""
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and > 0, got {tol!r}")
    if q.ndim != 3 or q.shape[1] != q.shape[2]:
        raise InputError(f"expected a stack of square matrices, got shape {q.shape}")
    if q.size == 0:
        raise InputError(f"expected at least one matrix of order >= 1, got shape {q.shape}")
    if q.shape[1] > DENSE_CAP:
        raise CapacityError(f"order {q.shape[1]} exceeds dense cap {DENSE_CAP}")
    if not np.isfinite(q).all():
        raise InputError("matrix has non-finite entries")
    if not np.array_equal(q, np.swapaxes(q, 1, 2)):
        raise InputError("matrix is not symmetric")
    if float(q.min()) < 0.0:
        raise InputError("matrix has negative entries")
    vals, vecs = np.linalg.eigh(q)
    value, vec = vals[:, -1], vecs[:, :, -1:]
    r = q @ vec - value[:, None, None] * vec
    residual = np.sqrt(np.swapaxes(r, 1, 2) @ r)[:, 0, 0]
    bad = np.flatnonzero(residual > tol * np.maximum(1.0, value))
    if bad.size:
        best = float(value[bad[0]]), float(residual[bad[0]])
        raise NumericalError(f"eigh residual {best[1]:.3e} exceeds tol {tol:.3e}", best=best)
    return value, residual


def _partition_masks(g: BipartiteGraph, partition):
    """Split each part into (A-mask, B-mask) pairs and validate the cover."""
    t = g.m + g.n
    seen = 0
    masks = []
    for i, part in enumerate(partition):
        amask = bmask = 0
        empty = True
        for v in part:
            empty = False
            if not (0 <= v < t):
                raise InputError(f"partition block {i}: vertex {v} out of range [0, {t})")
            bit = 1 << v
            if seen & bit:
                raise InputError(f"partition block {i}: vertex {v} repeated")
            seen |= bit
            if v < g.m:
                amask |= 1 << v
            else:
                bmask |= 1 << (v - g.m)
        if empty:
            raise InputError(f"partition block {i} is empty")
        masks.append((amask, bmask))
    if seen != (1 << t) - 1:
        raise InputError("partition does not cover all vertices")
    return masks


def quotient_matrix(g: BipartiteGraph, partition) -> QuotientMatrix:
    """Average block row sums of Q(G) for the given partition of all m+n
    vertices (A-vertices are global indices 0..m-1, B-vertices m..m+n-1).

    Row sums are computed exactly in integers; the equitable flag records
    whether every block of Q has constant row sums.
    """
    masks = _partition_masks(g, partition)
    b_rows = g.b_adj()
    p = len(masks)
    entries = []
    equitable = True
    for i, (amask_i, bmask_i) in enumerate(masks):
        row_sums = [[] for _ in range(p)]
        for a in iter_bits(amask_i):
            for j, (amask_j, bmask_j) in enumerate(masks):
                s = (g.adj[a] & bmask_j).bit_count()
                if amask_j >> a & 1:
                    s += g.degree_a(a)
                row_sums[j].append(s)
        for b in iter_bits(bmask_i):
            for j, (amask_j, bmask_j) in enumerate(masks):
                s = (b_rows[b] & amask_j).bit_count()
                if bmask_j >> b & 1:
                    s += g.degree_b(b)
                row_sums[j].append(s)
        row = []
        for j in range(p):
            sums = row_sums[j]
            if any(x != sums[0] for x in sums[1:]):
                equitable = False
            row.append(Fraction(sum(sums), len(sums)))
        entries.append(tuple(row))
    return QuotientMatrix(tuple(entries), tuple(m[0].bit_count() + m[1].bit_count() for m in masks), equitable)
