"""Signless Laplacian assembly and spectral computations.

Provides the dense signless Laplacian Q = D + A of a bipartite graph, its
spectral radius via power iteration (LAPACK eigh fallback), and quotient
matrices of vertex partitions with their exact characteristic polynomials
(computed by qspan.poly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InputError
from .graph_core import BipartiteGraph, iter_bits
from .poly import PolyCoeffs, exact_char_poly

DENSE_CAP = 4096        # largest order accepted for dense spectral work


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric nonnegative matrix, stored as a read-only float array."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError(f"expected a square matrix, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise InputError("matrix is not symmetric")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralEstimate:
    """Largest-eigenvalue estimate with its convergence evidence."""

    value: float
    residual: float
    iterations: int
    method: str


@dataclass(frozen=True)
class QuotientMatrix:
    """Average block row sums of Q(G) under a vertex partition.

    entries[i][j] is the average, over vertices of block i, of the row sum
    of the (i, j) block of Q. The partition is equitable when every row in
    each block attains that average exactly.
    """

    entries: tuple[tuple[Fraction, ...], ...]
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

    @property
    def order(self) -> int:
        return len(self.block_sizes)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)


def signless_laplacian(g: BipartiteGraph) -> SymMatrix:
    """Q(G) = degree diagonal + adjacency, A-vertices indexed first."""
    t = g.m + g.n
    if t > DENSE_CAP:
        raise CapacityError(f"order {t} exceeds dense cap {DENSE_CAP}")
    q = np.zeros((t, t), dtype=np.float64)
    for a in range(g.m):
        for b in iter_bits(g.adj[a]):
            q[a, g.m + b] = 1.0
            q[g.m + b, a] = 1.0
        q[a, a] = g.degree_a(a)
    for b in range(g.n):
        q[g.m + b, g.m + b] = g.degree_b(b)
    return SymMatrix(q)


def _power_iteration(arr: np.ndarray, tol: float, cap: int):
    t = arr.shape[0]
    x = np.full(t, 1.0 / np.sqrt(t))
    value = 0.0
    residual = np.inf
    for it in range(1, cap + 1):
        y = arr @ x
        value = float(x @ y)
        residual = float(np.linalg.norm(y - value * x))
        if residual <= tol:
            return value, residual, it, True
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            # zero matrix: the all-ones vector is already an eigenvector
            return 0.0, 0.0, it, True
        x = y / norm
    return value, residual, cap, False


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not a finite positive number."""
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and > 0, got {tol!r}")


def spectral_radius(mtx: SymMatrix, tol: float = 1e-10) -> SpectralEstimate:
    """Largest eigenvalue of a symmetric nonnegative matrix.

    Power iteration with the all-ones start vector and Rayleigh readout;
    for the signless Laplacian of a connected graph the target is a simple
    Perron root, so the start vector is never orthogonal to it. If the
    iteration stalls (tiny spectral gap), falls back to LAPACK eigh; the
    estimate then reports the power steps spent before the fallback.
    """
    check_tol(tol)
    if mtx.order > DENSE_CAP:
        raise CapacityError(f"order {mtx.order} exceeds dense cap {DENSE_CAP}")
    arr = mtx.entries
    if float(arr.min()) < 0.0:
        raise InputError("matrix has negative entries")
    value, residual, iters, ok = _power_iteration(arr, tol, cap=100 * mtx.order)
    if ok:
        return SpectralEstimate(value, residual, iters, "power")
    vals, vecs = np.linalg.eigh(arr)
    value, vec = float(vals[-1]), vecs[:, -1]
    return SpectralEstimate(value, float(np.linalg.norm(arr @ vec - value * vec)), iters, "eigh")


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


def char_poly(qm: QuotientMatrix) -> PolyCoeffs:
    """Exact characteristic polynomial of an integer quotient matrix."""
    if not qm.is_integral():
        raise InputError("quotient matrix has non-integer entries")
    return exact_char_poly(qm.entries)
