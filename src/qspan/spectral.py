"""Signless Laplacian assembly and spectral computations.

Provides the dense signless Laplacian Q = D + A of a bipartite graph as a
float array, the spectral radii and top eigenvectors of a stack of such
arrays from one LAPACK eigh call with a residual check, and Collatz-Wielandt
bounds on q in integers from a graph's rows and a positive integer vector.
Exact characteristic polynomials (of the join family's closed-form quotient,
for one) come from qspan.poly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, InputError, NumericalError
from .graph_core import BipartiteGraph, iter_bits

DENSE_CAP = 4096        # largest order accepted for dense spectral work


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


def top_eigenpairs(q: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Largest eigenvalues, their residuals and unit top eigenvectors (rows)
    of a (k, t, t) stack of symmetric nonnegative matrices, from one LAPACK
    eigh call. If the residual ||Q v - value v|| of a top eigenvector v
    exceeds tol * max(1, value), NumericalError is raised with the first
    such (value, residual) as best."""
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
    return value, residual, vec[:, :, 0]


def spectral_radii(q: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """The values and residuals of top_eigenpairs(q, tol)."""
    value, residual, _ = top_eigenpairs(q, tol)
    return value, residual


def collatz_wielandt_bounds(rows, m: int, n: int, y) -> tuple[tuple[int, int], tuple[int, int]]:
    """(lo, hi) with lo <= q(G) <= hi as (numerator, denominator) int pairs:
    the least and greatest (Qy)_i / y_i over the vertices, A first, of the
    graph with A-rows rows, for positive ints y (Collatz-Wielandt; Horn and
    Johnson, Matrix Analysis, ch. 8). Each edge adds y_a + y_b to (Qy) at
    both ends, its share of the degree and of the neighbour sum."""
    if len(y) != m + n or not all(type(v) is int and v > 0 for v in y):
        raise InputError(f"y must be {m + n} positive integers")
    qy = [0] * (m + n)
    for a, row in enumerate(rows):
        for b in iter_bits(row):
            s = y[a] + y[m + b]
            qy[a] += s
            qy[m + b] += s
    lo = hi = (qy[0], y[0])
    for num, den in zip(qy, y):
        if num * lo[1] < lo[0] * den:
            lo = (num, den)
        elif num * hi[1] > hi[0] * den:
            hi = (num, den)
    return lo, hi
