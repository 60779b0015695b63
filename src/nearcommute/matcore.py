"""Dense complex matrix kernel: Hermitian eigendecomposition, operator norm,
functional calculus, orthonormal bases, and the library's input gates.

Everything downstream (bound checkers, subspace engines, the commuting-pair
pipeline) is built on the functions here.  All operations are pure: inputs are
never mutated and outputs are freshly allocated arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "HermitianEig",
    "adjoint",
    "as_matrix",
    "eig_hermitian",
    "op_norm",
    "gram_norm",
    "commutator",
    "hermitian_commutator",
    "random_hermitian",
    "random_unitary",
]


class MatrixShapeError(ValueError):
    """Raised when an input is not a finite square complex matrix."""


class NotHermitianError(ValueError):
    """Raised when an input exceeds the Hermiticity tolerance."""


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex128 ndarray."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise MatrixShapeError("matrix has non-finite entries")
    return m


def require_same_shape(*mats: np.ndarray) -> None:
    """Raise MatrixShapeError at the first matrix whose shape is not the first's."""
    for m in mats[1:]:
        if m.shape != mats[0].shape:
            raise MatrixShapeError(f"dimension mismatch: {mats[0].shape} vs {m.shape}")


def adjoint(m: np.ndarray) -> np.ndarray:
    """m*, the conjugate transpose, as a fresh C-ordered array: a transposing
    copy conjugated in place.  Never a view of m, whatever m's layout."""
    out = m.T.copy()
    np.conjugate(out, out=out)
    return out


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*)/2, built in place on ``adjoint(m)``."""
    h = adjoint(m)
    h += m
    h /= 2
    return h


def skew(m: np.ndarray) -> np.ndarray:
    """m - m*, built in place on ``adjoint(m)``."""
    k = adjoint(m)
    return np.subtract(m, k, out=k)


# Smallest Hermitian matrix whose nonzero pattern is scanned for diagonal
# blocks: below it one eigvalsh costs about as much as the scan.
BLOCK_SCAN_MIN = 64


def hermitian_norm(h: np.ndarray) -> float:
    """Operator norm of a square complex128 h that the caller built Hermitian
    entry for entry, with no check: op_norm's Hermitian kernel, as
    ``eig_hermitian_part`` is ``eig_hermitian``'s.  For an exactly
    anti-Hermitian X, pass 1j * X, as op_norm does.  An empty or all-zero h
    gives 0.0 without a decomposition.

    The norm is h's largest eigenvalue modulus.  When n >= BLOCK_SCAN_MIN,
    the corner entry h[n-1, 0] is 0 and the first superdiagonal has a zero
    (each is necessary for a split), the contiguous diagonal blocks of h's
    nonzero pattern are found by one scan, and the norm is the largest block
    norm: |h_ii| for a 1x1 block, ``eigvalsh`` of the block otherwise.  Any
    other h takes one ``eigvalsh``."""
    if not h.any():
        return 0.0
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
    several (``hermitian_norm``).  Everything else, rectangular blocks
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
    if not np.isfinite(m).all():
        raise MatrixShapeError("matrix has non-finite entries")
    n = m.shape[0]
    if n == m.shape[1]:
        corner, mirror = m.item(n - 1, 0), m.item(0, n - 1).conjugate()
        if corner == mirror and (m == adjoint(m)).all():
            return hermitian_norm(m)
        if corner == -mirror and (m == -adjoint(m)).all():
            return hermitian_norm(1j * m)
    if not m.any():
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def gram_norm(x) -> float:
    """Operator norm of a square matrix X with no SVD: s * sqrt(lambda_max(G))
    for s = max |x_ij| and G the Gram matrix Y*Y of Y = X/s, symmetrised.

    The scaling keeps every entry of Y at most 1 and its largest at 1, so
    no scale of X overflows or underflows G.  lambda_max is G's largest
    eigenvalue modulus by op_norm's Hermitian path (``hermitian_norm``).  A
    zero or empty matrix gives 0.0; a non-finite one raises
    MatrixShapeError, as op_norm does.

    Error bound: relative O(n*eps) times the stable rank r = ||X||_F^2 /
    ||X||^2, which is at most n.  The rounded G is off Y*Y by at most about
    n*u*||Y||_F^2 (u the unit roundoff) and eigvalsh adds O(n*u*||G||); the
    square root halves the relative error, so the result is within about
    (n*u/2)*(1 + r) of ||X||, relative.  The roundoff terms have mixed
    signs, and on general, normal, rank-one, U - U' and [A, U] inputs up to
    n = 40 the error stayed below 1e-15*n.  No structure of X (unitarity,
    normality) is assumed.
    """
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    s = float(np.abs(m).max())
    if not math.isfinite(s):
        raise MatrixShapeError("matrix has non-finite entries")
    if s == 0.0:
        return 0.0
    y = m / s
    g = y.conj().T @ y
    return s * math.sqrt(hermitian_norm(hermitian_part(g)))


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


# Input gates: one test, with one tolerance, per property of a caller's matrix.
HERMITIAN_TOL = 1e-9    # ||m - m*||/2 <= HERMITIAN_TOL * max(1, ||m||)
CONTRACTION_TOL = 1e-9  # ||h|| <= 1 + CONTRACTION_TOL
UNITARY_TOL = 1e-9      # ||U*U - I|| <= UNITARY_TOL
NORMAL_TOL = 1e-10      # ||[N, N*]|| <= NORMAL_TOL * max(1, ||N||)^2
HERMITICITY_RTOL = 1e-10  # eig_hermitian, on caller input: ||A - A*||/2 <= HERMITICITY_RTOL * ||A||


def require_hermitian(m, name: str) -> tuple[np.ndarray, float]:
    """(h, defect) = ((m + m*)/2, ||m - m*||/2) for a finite square m within
    HERMITIAN_TOL, else NotHermitianError "{name} must be Hermitian".  An m
    equal to m* entry for entry gives a copy of m and 0.0.  As in
    ``op_norm_exceeds``, ||m - m*||_F/2 screens the norm: within the tolerance
    it is the defect reported, and ||m|| is taken only for a defect above it."""
    mm = as_matrix(m)
    k = skew(mm)
    if not k.any():
        return mm.copy(), 0.0
    defect = float(np.linalg.norm(k)) / 2
    if defect > HERMITIAN_TOL:
        defect = op_norm(k) / 2
        if defect > HERMITIAN_TOL and defect > HERMITIAN_TOL * op_norm(mm):
            raise NotHermitianError(f"{name} must be Hermitian")
    return hermitian_part(mm), defect


def require_contraction(h, name: str) -> np.ndarray | HermitianEig:
    """h, an exactly Hermitian matrix (by Cholesky: ``hermitian_norm_within``)
    or a ``HermitianEig`` (by its eigenvalues), within CONTRACTION_TOL, else
    ValueError "{name} must be a contraction"."""
    bound = 1.0 + CONTRACTION_TOL
    within = (np.abs(h.eigenvalues).max(initial=0.0) <= bound if isinstance(h, HermitianEig)
              else hermitian_norm_within(h, bound))
    if not within:
        raise ValueError(f"{name} must be a contraction")
    return h


def require_unitary(m, name: str) -> np.ndarray:
    """A finite square m within UNITARY_TOL (by ``op_norm_exceeds``), else
    ValueError "{name} must be unitary"."""
    mm = as_matrix(m)
    if op_norm_exceeds(mm.conj().T @ mm - np.eye(mm.shape[0]), UNITARY_TOL):
        raise ValueError(f"{name} must be unitary")
    return mm


def require_normal(m) -> np.ndarray:
    """A finite square m within NORMAL_TOL, else ValueError with the measured
    ||[m, m*]||.  ||[m, m*]||_F screens both norms; a NaN fails the screen and
    reaches op_norm, which rejects it."""
    mm = as_matrix(m)
    c = commutator(mm, mm.conj().T)
    if not np.linalg.norm(c) <= NORMAL_TOL:
        defect = op_norm(c)
        if defect > NORMAL_TOL * max(op_norm(mm), 1.0) ** 2:
            raise ValueError(f"matrix is not normal: ||[N,N*]|| = {defect:.3e}")
    return mm


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_matrix(a)
    b = as_matrix(b)
    require_same_shape(a, b)
    return a @ b - b @ a


def hermitian_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] for exactly Hermitian A and B that the caller validated or
    built: K - K* with K = AB, since BA = (AB)*.  One product instead of two,
    and the result is anti-Hermitian entry for entry."""
    require_same_shape(a, b)
    return skew(a @ b)


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
    input.  Only inner products of the columns enter, so running it on the
    coordinates Y of columns V Y in an orthonormal V gives the coordinates of
    the result on V Y."""
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


def eig_hermitian(a) -> HermitianEig:
    """Eigendecomposition of a (numerically) Hermitian matrix given by a
    caller: the checked entry to ``eig_hermitian_part``.

    ``a`` must be a finite square matrix (``as_matrix``) whose Hermiticity
    defect ||A - A*||/2 is at most ``HERMITICITY_RTOL * ||A||``; the
    decomposition is that of the Hermitian part (A + A*)/2.  Library code
    calls it only on caller input: a matrix the library built or validated
    goes to ``eig_hermitian_part``, which pays for neither norm.
    """
    m = as_matrix(a)
    bound = HERMITICITY_RTOL * max(op_norm(m), np.finfo(float).tiny)
    defect = op_norm(skew(m)) / 2.0
    if defect > bound:
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_RTOL:.1e} * ||A|| = {bound:.3e}"
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
    only clusters of two or more eigenvalues are re-orthonormalized; no run
    is looked for when no gap is that small.  The projector P = V_c V_c* of
    a cluster's k columns V_c is never formed: its columns are V_c times
    those of V_c*, so the Gram-Schmidt runs on the k x n coordinates V_c*,
    at O(k^2 n), and V_c is replaced by V_c U for the k x k result U.  The
    phases are fixed for all columns at once: each column is scaled so that
    its first largest-modulus entry is real and positive (a zero column is
    left as it is).
    """
    n = m.shape[0]
    if n == 0:
        return HermitianEig(np.zeros(0), np.zeros((0, 0), dtype=np.complex128))
    w, v = np.linalg.eigh(hermitian_part(m))

    # Degenerate-cluster canonicalization.
    tol = 1e-12 * n * max(abs(w.item(0)), abs(w.item(-1)), 1.0)
    if n > 1 and np.diff(w).min() <= tol:
        starts, stops = cluster_bounds(w, tol)
        multiple = stops - starts > 1
        for i, j in zip(starts[multiple].tolist(), stops[multiple].tolist()):
            vc = v[:, i:j]
            v[:, i:j] = vc @ _gram_schmidt_span(vc.conj().T, j - i, 1e-8)
    mag = np.abs(v)
    rows, cols = np.argmax(mag, axis=0), np.arange(n)
    top, mag = v[rows, cols], mag[rows, cols]
    v *= np.divide(mag, top, out=np.ones_like(top), where=mag != 0.0)
    return HermitianEig(w, v)


@dataclass(frozen=True)
class NormalEig:
    """Joint spectral data of a normal matrix: complex eigenvalues + unitary
    basis.  ``exact`` says whether V diag(eigenvalues) V* reproduces the
    matrix to roundoff, so that norms of it may be taken in V's coordinates;
    where it does not, they are taken against ``matrix``, the N decomposed
    (the array given, not a copy)."""

    eigenvalues: np.ndarray  # complex
    vectors: np.ndarray
    exact: bool
    matrix: np.ndarray = field(repr=False)


def random_hermitian(rng: np.random.Generator, n: int, *, norm: float | None = None) -> np.ndarray:
    """Random Hermitian matrix; if ``norm`` is given, rescaled to that operator norm."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = hermitian_part(g)
    if norm is not None and n:
        # h is Hermitian entry for entry: op_norm's structure test is not needed
        cur = hermitian_norm(h)
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
    return u[:, :svd_rank(s, tol)]


def svd_rank(s: np.ndarray, tol: float = 1e-10) -> int:
    """Rank from descending singular values: the count above tol * max(1, s[0])."""
    return int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))


def orthonormal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the span of the
    orthonormal columns ``basis`` (n x k); n x 0 when they span C^n."""
    b = np.asarray(basis, dtype=np.complex128)
    return orthonormal_columns(np.eye(b.shape[0]) - b @ b.conj().T, tol=0.5)
