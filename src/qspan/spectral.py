"""Signless Laplacian assembly and spectral computations.

Provides the dense signless Laplacian Q = D + A of a bipartite graph as a
float array, the spectral radii of a stack of such arrays from one LAPACK
eigvalsh call and their top eigenvectors by at most two shifted solves
(inverse iteration), with a residual check, and Collatz-Wielandt bounds on
q in integers from a graph's rows and a positive integer vector. The
spectral report's "iterations": 0 and "method": "eigh" are schema-1 labels.
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
    of a (k, t, t) real ndarray stack of symmetric nonnegative matrices, taken
    as float64. Values come from one LAPACK eigvalsh call, vectors from one
    shifted solve (Q - mu I) w = 1 with mu just above the value (inverse
    iteration; all-ones is never orthogonal to a nonnegative top eigenvector).
    If a residual ||Q v - value v|| exceeds tol * max(1, value), every vector
    takes one more solve; if one still does, NumericalError is raised with
    the first such (value, residual) as best. No iteration count or method
    name comes back: the spectral report's are fixed schema-1 labels."""
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and > 0, got {tol!r}")
    if not isinstance(q, np.ndarray) or q.dtype.kind not in "biuf":
        raise InputError(f"expected a real ndarray stack, got {getattr(q, 'dtype', type(q).__name__)}")
    q = q.astype(np.float64, copy=False)
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
    value = np.linalg.eigvalsh(q)[:, -1]
    # relative shift 1e-13: >= 30x eigvalsh's rounding at DENSE_CAP (3.1e-15 on K_2048,2048), <= default tol / 1000
    shifted = q.copy()
    np.einsum("kii->ki", shifted)[...] -= (value + 1e-13 * np.maximum(1.0, value))[:, None]
    vec = np.ones((q.shape[0], q.shape[1], 1))
    for _ in range(2):
        try:
            vec = np.linalg.solve(shifted, vec)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"shifted matrix for inverse iteration is singular: {exc}") from None
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        residual = np.linalg.norm(q @ vec - value[:, None, None] * vec, axis=1)[:, 0]
        bad = np.flatnonzero(residual > tol * np.maximum(1.0, value))
        if not bad.size:
            return value, residual, vec[:, :, 0]
    best = float(value[bad[0]]), float(residual[bad[0]])
    raise NumericalError(f"top eigenvector residual {best[1]:.3e} exceeds tol {tol:.3e}", best=best)


def spectral_radii(q: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """The values and residuals of top_eigenpairs(q, tol)."""
    value, residual, _ = top_eigenpairs(q, tol)
    return value, residual


def collatz_wielandt_bounds(rows, m: int, n: int, y) -> tuple[tuple[int, int], tuple[int, int]]:
    """(lo, hi) with lo <= q(G) <= hi as (numerator, denominator) int pairs:
    the least and greatest (Qy)_i / y_i over the vertices, A first, of the
    graph whose A-rows are the m ints rows, each in [0, 2^n), for positive
    ints y (Collatz-Wielandt; Horn and Johnson, Matrix Analysis, ch. 8). Each
    edge adds y_a + y_b to (Qy) at both ends, its share of the degree and of
    the neighbour sum."""
    if len(y) != m + n or not all(type(v) is int and v > 0 for v in y):
        raise InputError(f"y must be {m + n} positive integers")
    if len(rows) != m or not all(type(r) is int and 0 <= r < 1 << n for r in rows):
        raise InputError(f"rows must be {m} integers in [0, 2^{n})")
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
