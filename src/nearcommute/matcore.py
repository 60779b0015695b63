"""Dense complex matrix kernel: Hermitian eigendecomposition, operator norm,
functional calculus, orthonormal bases.

Everything downstream (bound checkers, subspace engines, the commuting-pair
pipeline) is built on the functions here.  All operations are pure: inputs are
never mutated and outputs are freshly allocated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "HermitianEig",
    "as_matrix",
    "eig_hermitian",
    "op_norm",
    "commutator",
    "random_hermitian",
    "random_unitary",
]

# Relative tolerance for accepting an input as Hermitian.
HERMITICITY_RTOL = 1e-10


class MatrixShapeError(ValueError):
    """Raised when an input is not a finite square complex matrix."""


class NotHermitianError(ValueError):
    """Raised when an input exceeds the Hermiticity tolerance."""


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex128 ndarray."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise MatrixShapeError("matrix has non-finite entries")
    return m


# Smallest Hermitian matrix whose nonzero pattern is scanned for diagonal
# blocks: below it one eigvalsh costs about as much as the scan.
BLOCK_SCAN_MIN = 64


def _hermitian_norm(h: np.ndarray) -> float:
    """Largest eigenvalue modulus of an exactly Hermitian h.

    When n >= BLOCK_SCAN_MIN, the corner entry h[n-1, 0] is 0 and the first
    superdiagonal has a zero (each is necessary for a split), the contiguous
    diagonal blocks of h's nonzero pattern are found by one scan, and the
    norm is the largest block norm: |h_ii| for a 1x1 block, ``eigvalsh`` of
    the block otherwise.  Any other h takes one ``eigvalsh``."""
    n = h.shape[0]
    if n >= BLOCK_SCAN_MIN and h.item(n - 1, 0) == 0 and not np.diagonal(h, 1).all():
        # reach[i]: the last column of row i's pattern, the diagonal counted;
        # a block ends at i when no row up to i reaches past it
        nz = h != 0
        np.fill_diagonal(nz, True)
        reach = n - 1 - np.argmax(nz[:, ::-1], axis=1)
        ends = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(n)) + 1
        if ends.size > 1:
            return max(abs(h.item(i, i)) if j - i == 1
                       else float(np.abs(np.linalg.eigvalsh(h[i:j, i:j])).max())
                       for i, j in zip([0, *ends[:-1].tolist()], ends.tolist()))
    return float(np.abs(np.linalg.eigvalsh(h)).max())


def op_norm(a) -> float:
    """Operator norm (largest singular value); accepts rectangular blocks.

    The kernel follows the exact structure of the argument.  An all-zero
    matrix gives 0.0 without a decomposition.  A square matrix equal to its
    conjugate transpose, or to minus it, entry for entry, gives the largest
    eigenvalue modulus of m (of ``1j*m`` in the second case), split over the
    diagonal blocks of its nonzero pattern when it is large and may have
    several (``_hermitian_norm``).  Everything else, rectangular blocks
    included, takes the first (largest) singular value from
    ``np.linalg.svd`` of the whole matrix.  The structure test has no
    tolerance: a matrix that is Hermitian only up to roundoff has a different
    norm from its Hermitian part.  A general matrix is told apart by one
    corner entry pair before any full comparison.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise MatrixShapeError(f"expected a matrix, got shape {m.shape}")
    if 0 in m.shape:
        return 0.0
    if not np.all(np.isfinite(m)):
        raise MatrixShapeError("matrix has non-finite entries")
    if not m.any():
        return 0.0
    n = m.shape[0]
    if n == m.shape[1]:
        corner, mirror = m.item(n - 1, 0), m.item(0, n - 1).conjugate()
        if corner == mirror and np.array_equal(m, m.conj().T):
            return _hermitian_norm(m)
        if corner == -mirror and np.array_equal(m, -m.conj().T):
            return _hermitian_norm(1j * m)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def op_norm_exceeds(x, tol: float) -> bool:
    """op_norm(x) > tol, for a pass/fail gate that reports no value: op_norm
    is taken only when ||x||_F, an upper bound, exceeds tol.  A NaN fails
    that screen and reaches op_norm, which rejects it."""
    return not np.linalg.norm(x) <= tol and op_norm(x) > tol


def hermitian_norm_within(h: np.ndarray, c: float) -> bool:
    """Whether ||h|| < c for an exactly Hermitian h, by a test that reports
    no norm: cI - h and cI + h both have a Cholesky factorization, which
    reads one triangle of each.  An h whose norm is c, or within roundoff of
    it, may go either way."""
    shift = c * np.eye(h.shape[0])
    try:
        np.linalg.cholesky(shift - h)
        np.linalg.cholesky(shift + h)
    except np.linalg.LinAlgError:
        return False
    return True


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise MatrixShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are ascending; columns of ``vectors`` are the matching
    orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ self.vectors.conj().T

    def matrix_function(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        vals = np.asarray(f(self.eigenvalues), dtype=np.complex128)
        return (self.vectors * vals) @ self.vectors.conj().T


def _gram_schmidt_span(columns: np.ndarray, target_rank: int, tol: float) -> np.ndarray:
    """Deterministic modified Gram-Schmidt over ``columns``, keeping
    ``target_rank`` directions.

    Columns are consumed largest-residual-first (ties broken by input order),
    which keeps the basis numerically orthonormal even when the input columns
    are strongly dependent; the selection is still a pure function of the
    input."""
    work = columns.astype(np.complex128).copy()
    kept: list[np.ndarray] = []
    for _ in range(target_rank):
        norms = np.linalg.norm(work, axis=0)
        j = int(np.argmax(norms))
        if norms[j] <= tol:
            raise np.linalg.LinAlgError("Gram-Schmidt failed to recover cluster basis")
        v = work[:, j] / norms[j]
        kept.append(v)
        work -= np.outer(v, v.conj() @ work)
    return np.column_stack(kept)


def cluster_bounds(w: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop indices of the runs of ascending values ``w`` whose
    consecutive gaps are at most ``tol`` (empty arrays for an empty ``w``)."""
    if w.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    edges = np.flatnonzero(np.diff(w) > tol) + 1
    return np.concatenate(([0], edges)), np.concatenate((edges, [w.size]))


def eig_hermitian(a, *, rtol: float = HERMITICITY_RTOL) -> HermitianEig:
    """Eigendecomposition of a (numerically) Hermitian matrix given by a
    caller: the checked entry to ``eig_hermitian_part``.

    ``a`` must be a finite square matrix (``as_matrix``) whose Hermiticity
    defect ||A - A*||/2 is at most ``rtol * ||A||``; the decomposition is
    that of the Hermitian part (A + A*)/2.  Library code whose matrix is
    Hermitian by construction, or was validated where it entered, calls
    ``eig_hermitian_part`` and pays for neither norm.
    """
    m = as_matrix(a)
    scale = max(op_norm(m), np.finfo(float).tiny)
    defect = op_norm(m - m.conj().T) / 2.0
    if defect > rtol * scale:
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds {rtol:.1e} * ||A|| = {rtol * scale:.3e}"
        )
    return eig_hermitian_part(m)


def eig_hermitian_part(m: np.ndarray) -> HermitianEig:
    """Deterministic eigendecomposition of the Hermitian part (m + m*)/2 of a
    square complex128 array m, with no check: the caller has validated m or
    built it Hermitian (``eig_hermitian`` checks a caller's input first).

    Eigenvalues ascend, every eigenvector carries a canonical phase, and
    degenerate clusters are re-orthonormalized by Gram-Schmidt over the
    cluster projector's columns in input order, which removes any dependence
    on LAPACK's arbitrary in-cluster basis choice.  Clusters are the runs of
    eigenvalues whose consecutive gaps are at most ``1e-12 * n * max(||h||,
    1)`` (``cluster_bounds``), ||h|| read off the computed eigenvalues, and
    only clusters of two or more eigenvalues are re-orthonormalized.  The
    phases are fixed for all columns at once: each column is scaled so that
    its first largest-modulus entry is real and positive (a zero column is
    left as it is).
    """
    n = m.shape[0]
    if n == 0:
        return HermitianEig(np.zeros(0), np.zeros((0, 0), dtype=np.complex128))
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)

    # Degenerate-cluster canonicalization.
    scale = max(abs(w.item(0)), abs(w.item(-1)), 1.0)
    starts, stops = cluster_bounds(w, 1e-12 * n * scale)
    multiple = stops - starts > 1
    for i, j in zip(starts[multiple].tolist(), stops[multiple].tolist()):
        p = v[:, i:j] @ v[:, i:j].conj().T
        v[:, i:j] = _gram_schmidt_span(p, j - i, 1e-8)
    top = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
    mag = np.abs(top)
    v *= np.divide(mag, top, out=np.ones_like(top), where=mag != 0.0)
    return HermitianEig(w, v)


@dataclass(frozen=True)
class NormalEig:
    """Joint spectral data of a normal matrix: complex eigenvalues + unitary basis."""

    eigenvalues: np.ndarray  # complex
    vectors: np.ndarray


def random_hermitian(rng: np.random.Generator, n: int, *, norm: float | None = None) -> np.ndarray:
    """Random Hermitian matrix; if ``norm`` is given, rescaled to that operator norm."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    if norm is not None:
        cur = op_norm(h)
        if cur > 0:
            h *= norm / cur
    return h


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def orthonormal_columns(cols: np.ndarray, *, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span of ``cols`` (rank-revealing SVD)."""
    c = np.asarray(cols, dtype=np.complex128)
    if c.ndim == 1:
        c = c[:, None]
    if c.shape[1] == 0:
        return c.reshape(c.shape[0], 0)
    u, s, _ = np.linalg.svd(c, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]


def orthonormal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the span of the
    orthonormal columns ``basis`` (n x k); n x 0 when they span C^n."""
    b = np.asarray(basis, dtype=np.complex128)
    return orthonormal_columns(np.eye(b.shape[0]) - b @ b.conj().T, tol=0.5)
