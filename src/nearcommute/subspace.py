"""W-subspace engines for block-tridiagonal contractions.

Given a Hermitian contraction J that is block tridiagonal with respect to
ordered orthogonal blocks V_1..V_L, both engines produce a subspace W with
V_1 <= W perp V_L exactly (after projection repair) and measure how nearly
J-invariant W is.  szarek_W is the fully constructive spectral-interval
route; hastings_W is the smooth-partition construction, with Jacobi joint
diagonalization supplying the commuting pairs where the argument calls a
nonconstructive oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .checks import BoundCheck
from .matcore import (
    as_matrix,
    eig_hermitian_part,
    op_norm,
    op_norm_exceeds,
    orthonormal_columns,
    orthonormal_complement,
    require_contraction,
    require_hermitian,
)
from .projgeom import jordan_basis, nest_projection_core
from .smoothing import (
    _s_tail,
    default_F,
    default_G,
    partition_of_unity,
    smooth_profile,
    tail_tables,
)

__all__ = [
    "TridiagonalSystem",
    "verify_tridiagonal",
    "random_block_tridiagonal",
    "WCertificate",
    "certify_W",
    "KrylovReduction",
    "krylov_reduce",
    "trivial_reducing_basis",
    "select_intervals",
    "jacobi_commuting_pair",
    "LinProjection",
    "lin_oracle_projection",
    "joint_jacobi",
    "szarek_W",
    "HastingsConfig",
    "hastings_W",
    "hastings_reference_bounds",
    "proof_matrix_M",
    "decay_check_U",
    "DegenerateSystemError",
]

EXACT_TOL = 1e-10

# relative singular-value threshold for the rank of a coupling J[V_{k+1}, V_k]
RANK_TOL = 1e-10

# joint_jacobi: sweep cap, and the rotation size below which a pair is left alone
JACOBI_SWEEPS = 60
JACOBI_TOL = 1e-12

OFF_TRIDIAGONAL_TOL = 1e-8  # verify_tridiagonal: largest off-tridiagonal coupling
TRIVIAL_COUPLING_TOL = 1e-12  # trivial_reducing_basis: a coupling norm this small vanishes
RANDOM_TRIDIAGONAL_NORM = 1.0  # random_block_tridiagonal: ||J||
DECAY_SAMPLES_PER_BLOCK = 2  # decay_check_U: random y_i per block


class DegenerateSystemError(ValueError):
    """The system is too small for a V_1 <= W perp V_L sandwich."""


class StageError(RuntimeError):
    """A pipeline stage violated one of its sub-postconditions."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# Systems and certificates
# ---------------------------------------------------------------------------

@dataclass
class TridiagonalSystem:
    """A Hermitian contraction with a verified block-tridiagonal structure.

    Each block V_k is a set of coordinates: a 1-D integer index array.  The
    blocks are disjoint and together cover range(dim).  coupling_svals[k]
    holds the singular values of the coupling J[V_{k+1}, V_k] (empty when
    either block is empty).  max_offtridiag is the norm of J outside its
    tridiagonal band, which bounds every coupling J[V_i, V_k] with |i-k| >= 2.
    It is a bound, not the largest of those couplings: a system whose every
    coupling is within OFF_TRIDIAGONAL_TOL can still report more.
    """

    j: np.ndarray
    blocks: list[np.ndarray]
    max_offtridiag: float
    coupling_svals: list[np.ndarray]

    @property
    def dim(self) -> int:
        return self.j.shape[0]

    @property
    def L(self) -> int:
        return len(self.blocks)

    @property
    def dims(self) -> list[int]:
        return [b.size for b in self.blocks]

    @property
    def coupling_norms(self) -> np.ndarray:
        return np.array([s[0] if s.size else 0.0 for s in self.coupling_svals])

    def coupling_rank(self, k: int) -> int:
        """Rank of J[V_{k+1}, V_k]: singular values above RANK_TOL * max(1, norm)."""
        s = self.coupling_svals[k]
        return int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 1.0)))


def _coordinates(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The coordinates of the given blocks, concatenated in block order."""
    return np.concatenate([np.zeros(0, dtype=np.intp), *blocks])


def _identity_columns(n: int, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Identity columns spanning the given coordinate blocks, in order."""
    return np.eye(n, dtype=np.complex128)[:, _coordinates(blocks)]


def verify_tridiagonal(j, blocks: Sequence[np.ndarray]) -> TridiagonalSystem:
    """Check the block-tridiagonal invariants and package the system.

    J must pass matcore's Hermitian and contraction gates.  ``blocks`` are
    coordinate sets: 1-D integer index arrays that are disjoint and together
    cover range(n).  Raises ValueError when they do not, and with the
    offending block pair when an off-tridiagonal coupling exceeds
    OFF_TRIDIAGONAL_TOL.  The couplings are checked pair by pair only when
    ``max_offtridiag``, the norm of J outside its tridiagonal band, exceeds it.
    """
    jm = as_matrix(j)
    n = jm.shape[0]
    bl = []
    for i, b in enumerate(blocks):
        b = np.asarray(b)
        if b.ndim != 1 or not np.issubdtype(b.dtype, np.integer):
            raise ValueError(f"block {i} is not a 1-D integer index array")
        if b.size and (b.min() < 0 or b.max() >= n):
            raise ValueError(f"block {i} has an index outside range({n})")
        bl.append(b)
    counts = np.bincount(_coordinates(bl), minlength=n)
    if np.any(counts > 1):
        raise ValueError(f"coordinate {int(np.argmax(counts > 1))} lies in "
                         "more than one block")
    if np.any(counts == 0):
        raise ValueError("blocks do not jointly span the space")
    require_contraction(require_hermitian(jm, "J")[0], "J")
    labels = np.empty(n, dtype=np.intp)
    for i, b in enumerate(bl):
        labels[b] = i
    off_band = np.abs(labels[:, None] - labels[None, :]) >= 2
    worst = op_norm(np.where(off_band, jm, 0.0))
    if worst > OFF_TRIDIAGONAL_TOL:
        # The off-band norm only bounds the pair norms: find the pair.
        for i in range(len(bl)):
            for k in range(len(bl)):
                if abs(i - k) >= 2 and bl[i].size and bl[k].size:
                    c = op_norm(jm[np.ix_(bl[i], bl[k])])
                    if c > OFF_TRIDIAGONAL_TOL:
                        raise ValueError(
                            f"off-tridiagonal coupling {c:.3e} between blocks {i} and {k}")
    svals = [np.linalg.svd(jm[np.ix_(bl[i + 1], bl[i])], compute_uv=False)
             if bl[i].size and bl[i + 1].size else np.zeros(0)
             for i in range(len(bl) - 1)]
    return TridiagonalSystem(jm, bl, worst, svals)


def random_block_tridiagonal(rng: np.random.Generator, dims: Sequence[int]) -> TridiagonalSystem:
    """Random Hermitian contraction of norm RANDOM_TRIDIAGONAL_NORM, block
    tridiagonal w.r.t. consecutive coordinate blocks of the given dimensions."""
    n = int(sum(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    labels = np.repeat(np.arange(len(dims)), dims)
    h = h * (np.abs(labels[:, None] - labels[None, :]) <= 1)
    nrm = op_norm(h)
    if nrm > 0:
        h *= RANDOM_TRIDIAGONAL_NORM / nrm
    return verify_tridiagonal(h, [np.flatnonzero(labels == i)
                                  for i in range(len(dims))])


@dataclass
class WCertificate:
    """Measured quality of a candidate subspace W for a tridiagonal system.

    eps3: how much of V_1 escapes W; eps4 = ||P_W^perp J P_W||, how much J
    leaks out of W; eps5: overlap with V_L.
    """

    w_basis: np.ndarray
    eps3: float
    eps4: float
    eps5: float
    contains_V1: bool
    perp_VL: bool

    @property
    def rank(self) -> int:
        return self.w_basis.shape[1]

    def summary(self) -> dict:
        return {
            "rank": self.rank,
            "eps3": self.eps3,
            "eps4": self.eps4,
            "eps5": self.eps5,
            "contains_V1": self.contains_V1,
            "perp_VL": self.perp_VL,
        }


def certify_W(sys: TridiagonalSystem, w_basis: np.ndarray) -> WCertificate:
    """Measure eps3/eps4/eps5 of a subspace and the exact containment flags.

    With W the orthonormal columns of the subspace, eps3 = ||(1 - P_W) P_V1||
    is the norm of the n x |V_1| matrix (1 - W W*)[:, V_1], eps4 =
    ||(1 - P_W) J P_W|| that of the n x k matrix (1 - W W*) J W, and eps5 =
    ||P_VL P_W|| that of the |V_L| x k rows W[V_L].  The dual form of the
    V_L statement, ||P_W P_VL|| = ||W W[V_L]*||, must agree with eps5 to
    1e-10.
    """
    w = np.asarray(w_basis, dtype=np.complex128)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape[1] and op_norm_exceeds(w.conj().T @ w - np.eye(w.shape[1]), 1e-9):
        w = orthonormal_columns(w)
    v1, vl = sys.blocks[0], sys.blocks[-1]
    eps3 = op_norm(_identity_columns(sys.dim, [v1]) - w @ w[v1].conj().T)
    jw = sys.j @ w
    eps4 = op_norm(jw - w @ (w.conj().T @ jw))
    eps5 = op_norm(w[vl])
    if abs(eps5 - op_norm(w @ w[vl].conj().T)) > EXACT_TOL:
        raise AssertionError("primal/dual eps5 disagree beyond 1e-10")
    return WCertificate(w, eps3, eps4, eps5, eps3 <= EXACT_TOL, eps5 <= EXACT_TOL)


# ---------------------------------------------------------------------------
# Trivial reductions and the Krylov chain
# ---------------------------------------------------------------------------

def trivial_reducing_basis(sys: TridiagonalSystem) -> np.ndarray | None:
    """Exact reducing subspace W with V_1 <= W perp V_L when some interior
    block is empty or some consecutive coupling vanishes (norm at most
    TRIVIAL_COUPLING_TOL); None otherwise."""
    dims = sys.dims
    for k in range(sys.L):
        if dims[k] == 0:
            return _identity_columns(sys.dim, sys.blocks[:k])
    norms = sys.coupling_norms
    for k in range(sys.L - 1):
        if norms[k] <= TRIVIAL_COUPLING_TOL:
            return _identity_columns(sys.dim, sys.blocks[:k + 1])
    return None


@dataclass
class KrylovReduction:
    """Result of the block-Krylov reduction at a chosen coupling index."""

    reversed: bool
    chain: list[np.ndarray]         # H_1..H_{n+}, each of dim <= the coupling's rank
    trivial_w: np.ndarray | None    # exact reducing subspace (oriented) if found


def krylov_reduce(sys: TridiagonalSystem, i: int) -> KrylovReduction:
    """Reduce to a chain whose blocks have dimension at most
    m = rank P_{V_{i+1}} J P_{V_i}.

    Starting from M_0 = V_1 + .. + V_i, repeatedly apply J and peel off the
    orthogonal increments H_k.  If the chain stops before reaching the last
    block, the accumulated space reduces J exactly and is returned as
    ``trivial_w``.  For i past the midpoint the same construction runs on the
    reversed block order.
    """
    if not (1 <= i < sys.L):
        raise ValueError("need 1 <= i < L")
    rev = i > math.ceil(sys.L / 2)
    blocks = list(reversed(sys.blocks)) if rev else sys.blocks
    oi = sys.L - i if rev else i

    accumulated = current = _identity_columns(sys.dim, blocks[:oi])
    chain: list[np.ndarray] = []
    while True:
        if current.shape[1] == 0:
            break
        img = sys.j @ current
        for _ in range(2):  # twice for numerical orthogonality
            if accumulated.shape[1]:
                img = img - accumulated @ (accumulated.conj().T @ img)
        new = orthonormal_columns(img, tol=1e-9)
        if new.shape[1] == 0:
            break
        chain.append(new)
        accumulated = np.column_stack([accumulated, new])
        current = new
    trivial = accumulated if oi + len(chain) < sys.L else None
    return KrylovReduction(rev, chain, trivial)


# ---------------------------------------------------------------------------
# Interval selection on an atomic measure
# ---------------------------------------------------------------------------

@dataclass
class IntervalSelection:
    intervals: list[tuple[float, float]]
    excluded_mass: float

    @property
    def r(self) -> int:
        return len(self.intervals)


def select_intervals(positions, masses, kappa: float, eta: float
                     ) -> IntervalSelection:
    """Choose disjoint intervals covering most of an atomic measure on [0,1].

    Guarantees (verified before returning): at most 2/kappa intervals, each of
    diameter <= kappa, pairwise at distance >= eta, and excluded mass at most
    (4 eta / kappa) times the total.  Requires kappa > 8 eta > 0, masses
    finite and nonnegative, and positions in [0,1] (a NaN is in neither).
    """
    pos = np.asarray(positions, dtype=float)
    mas = np.asarray(masses, dtype=float)
    if pos.shape != mas.shape:
        raise ValueError("positions and masses must align")
    if not (kappa > 8 * eta > 0):
        raise ValueError("need kappa > 8 eta > 0")
    if not np.all((pos >= -1e-12) & (pos <= 1 + 1e-12)):
        raise ValueError("measure must be supported on [0,1]")
    if not np.all((mas >= 0) & np.isfinite(mas)):
        raise ValueError("masses must be finite and nonnegative")
    pos = np.clip(pos, 0.0, 1.0)
    total = float(np.sum(mas))

    def mass_in(lo, hi):
        return float(np.sum(mas[(pos >= lo) & (pos < hi)]))

    cuts: list[tuple[float, float]] = []
    s = 0.0
    if kappa < 1.0:
        while 1.0 - s > kappa:
            lo = s + kappa / 2.0
            hi = min(s + kappa, 1.0) - eta
            n_cand = int(np.floor((hi - lo) / eta)) + 1
            starts = lo + eta * np.arange(n_cand)
            cand_mass = np.array([mass_in(t, t + eta) for t in starts])
            t = float(starts[int(np.argmin(cand_mass))])
            cuts.append((t, t + eta))
            s = t + eta

    # components between cuts
    intervals: list[tuple[float, float]] = []
    start = 0.0
    for (a, b) in cuts:
        intervals.append((start, a))
        start = b
    intervals.append((start, 1.0))
    # keep only intervals that carry mass
    kept = []
    for (a, b) in intervals:
        if float(np.sum(mas[(pos >= a) & (pos <= b)])) > 0.0 or total == 0.0:
            kept.append((a, b))
    covered = np.zeros_like(mas, dtype=bool)
    for (a, b) in kept:
        covered |= (pos >= a) & (pos <= b)
    excluded = float(np.sum(mas[~covered]))

    # verify the four conclusions
    r = len(kept)
    if r > 2.0 / kappa + 1e-9:
        raise AssertionError(f"interval count {r} exceeds 2/kappa = {2.0 / kappa:.3f}")
    for (a, b) in kept:
        if b - a > kappa + 1e-12:
            raise AssertionError("interval diameter exceeds kappa")
    for x, y in zip(kept, kept[1:]):
        if y[0] - x[1] < eta - 1e-12:
            raise AssertionError("interval spacing below eta")
    if excluded > (4 * eta / kappa) * total + 1e-12:
        raise AssertionError("excluded mass exceeds (4 eta / kappa) * total")
    return IntervalSelection(kept, excluded)


# ---------------------------------------------------------------------------
# Oracle: joint diagonalization and the Lin-oracle projection
# ---------------------------------------------------------------------------

def joint_jacobi(mats: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Jacobi sweeps minimizing the joint off-diagonal weight of a Hermitian
    family under a shared unitary.

    Returns (U, rotated) with rotated[k] = U* mats[k] U as nearly diagonal as
    JACOBI_SWEEPS sweeps achieve.  Deterministic under the fixed (p, q) sweep
    order.  A pair with |m[p, q]| <= JACOBI_TOL * max(1, max|m|) in every
    matrix is skipped: a rotation of the pair changes the off-diagonal weight
    only through that entry, so such a pair (a jointly degenerate one
    included) is left unrotated.
    """
    ms = [as_matrix(m).copy() for m in mats]
    n = ms[0].shape[0]
    tols = [JACOBI_TOL * max(1.0, float(np.abs(m).max(initial=0.0))) for m in ms]
    u = np.eye(n, dtype=np.complex128)
    for _ in range(JACOBI_SWEEPS):
        changed = False
        for p in range(n):
            for q in range(p + 1, n):
                if all(abs(m[p, q]) <= t for m, t in zip(ms, tols)):
                    continue
                g = np.zeros((3, 3))
                for m in ms:
                    h = np.array([m[p, p] - m[q, q],
                                  m[p, q] + m[q, p],
                                  1j * (m[q, p] - m[p, q])])
                    g += np.real(np.outer(np.conj(h), h))
                w, v = np.linalg.eigh(g)
                vec = v[:, -1]
                if vec[0] < 0:
                    vec = -vec
                x, y, z = vec
                r = math.sqrt(max(x * x + y * y + z * z, 1e-300))
                c = math.sqrt((x + r) / (2 * r))
                s = (y - 1j * z) / math.sqrt(2 * r * (x + r)) if (x + r) > 0 else 0.0
                if abs(s) <= JACOBI_TOL:
                    continue
                changed = True
                rot = np.array([[c, np.conj(s)], [-s, c]], dtype=np.complex128)
                for m in ms:
                    m[[p, q], :] = rot @ m[[p, q], :]
                    m[:, [p, q]] = m[:, [p, q]] @ rot.conj().T
                u[:, [p, q]] = u[:, [p, q]] @ rot.conj().T
        if not changed:
            break
    return u, ms


def jacobi_commuting_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Commuting pair near (A, B): Jacobi joint diagonalization, then the
    diagonal parts conjugated back."""
    u, rot = joint_jacobi([a, b])
    ap = u @ np.diag(np.real(np.diag(rot[0]))) @ u.conj().T
    bp = u @ np.diag(np.real(np.diag(rot[1]))) @ u.conj().T
    return ap, bp


@dataclass
class LinProjection:
    """A projection sandwiched between spectral projections of A and nearly
    commuting with B, held as an orthonormal basis of its range."""

    basis: np.ndarray
    commutator_norm: float
    check: BoundCheck


def _sandwich_bases(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvectors of A for its spectrum in [-1, -1/2], (-1/2, 1/2) and
    [1/2, 1]: bases of Ran E, Ran(G - E) and Ran(1 - G) for the sandwich
    E = E_{[-1,-1/2]}(A) <= P <= G = 1 - E_{[1/2,1]}(A)."""
    ea = eig_hermitian_part(a)
    lam = ea.eigenvalues
    return (ea.vectors[:, lam <= -0.5], ea.vectors[:, (lam > -0.5) & (lam < 0.5)],
            ea.vectors[:, lam >= 0.5])


def lin_oracle_projection(a, b) -> LinProjection:
    """Projection P with E_{[-1,-1/2]}(A) <= P <= 1 - E_{[1/2,1]}(A) and small
    ||[P, B]||.

    P is built from the commuting pair (A', B') of jacobi_commuting_pair; the
    returned check measures ||[P,B]|| <= 20||A-A'|| + 2||B-B'||.  For
    Hermitian B and Q an orthonormal basis of Ran P, ||[P,B]|| equals
    ||(1 - QQ*) B Q||, which is the form measured.  A and B must pass
    matcore's Hermitian and contraction gates; their Hermitian parts are used.
    """
    am, bm = (require_contraction(require_hermitian(m, name)[0], name)
              for m, name in ((a, "A"), (b, "B")))
    ap, bp = jacobi_commuting_pair(am, bm)
    dist_a = op_norm(am - ap)
    dist_b = op_norm(bm - bp)
    low, mid, high = _sandwich_bases(am)
    eap = eig_hermitian_part(ap)
    basis = nest_projection_core(low, mid, eap.vectors[:, eap.eigenvalues < 0])
    if op_norm_exceeds(low - basis @ (basis.conj().T @ low), EXACT_TOL) or \
       op_norm_exceeds(high.conj().T @ basis, EXACT_TOL):
        raise AssertionError("sandwich E <= P <= G failed structurally")
    bq = bm @ basis
    measured = op_norm(bq - basis @ (basis.conj().T @ bq))
    check = BoundCheck(measured, 20 * dist_a + 2 * dist_b,
                       "lin-oracle ||[P,B]|| <= 20||A-A'|| + 2||B-B'||")
    return LinProjection(basis, measured, check)


# ---------------------------------------------------------------------------
# Szarek engine
# ---------------------------------------------------------------------------

# Interval construction: kappa = (2/11) eps, eta = eps^6 / m and a = eps^1.5.
SZAREK_KAPPA_C = 2.0 / 11.0
SZAREK_ETA_EXP = 6.0
SZAREK_A_EXP = 1.5


def _certify_repaired(sys: TridiagonalSystem, w_raw: np.ndarray) -> WCertificate:
    """Repair a raw subspace against (V_1, V_L) and certify it: E = P_V1,
    G = 1 - P_VL, and F' the span of the orthonormal columns ``w_raw``."""
    n = sys.dim
    basis = nest_projection_core(_identity_columns(n, sys.blocks[:1]),
                                 _identity_columns(n, sys.blocks[1:-1]), w_raw)
    cert = certify_W(sys, basis)
    if not (cert.contains_V1 and cert.perp_VL):
        raise AssertionError("projection repair failed to enforce the exact sandwich")
    return cert


def szarek_W(sys: TridiagonalSystem) -> WCertificate:
    """Constructive W via spectral intervals, polar truncation, and repair.

    Degenerate inputs (empty blocks, vanishing couplings, early Krylov
    termination) short-circuit to exact reducing subspaces.  The
    certificate's eps values are always measured.
    """
    if sys.L < 2:
        raise DegenerateSystemError("need at least two blocks for V_1 <= W perp V_L")

    triv = trivial_reducing_basis(sys)
    if triv is not None:
        return _certify_repaired(sys, triv)

    ranks = [sys.coupling_rank(k) for k in range(sys.L - 1)]
    red = krylov_reduce(sys, int(np.argmin(ranks)) + 1)
    if red.trivial_w is not None:
        w = red.trivial_w
        if red.reversed:
            w = orthonormal_complement(w)
        return _certify_repaired(sys, w)

    m = sys.dims[0]
    v1 = sys.blocks[0]
    eps = min(1.0, (max(m, 1) * math.sqrt(2.0) / max(sys.L - 2, 1)) ** (1.0 / 9.0))
    eta_nom = eps ** SZAREK_ETA_EXP / max(m, 1)
    a_cut = eps ** SZAREK_A_EXP
    kappa = min(SZAREK_KAPPA_C * eps, 0.999)
    eta = eta_nom if kappa > 8 * eta_nom else kappa / 8.0000001

    ej = eig_hermitian_part(sys.j)  # checked by verify_tridiagonal
    lam_pos = np.clip((ej.eigenvalues + 1.0) / 2.0, 0.0, 1.0)
    phi_sq = np.sum(np.abs(ej.vectors[v1, :]) ** 2, axis=0)
    sel = select_intervals(lam_pos, phi_sq, kappa, eta)

    sing_max = 0.0
    pieces = []
    for (lo, hi) in sel.intervals:
        mask = (lam_pos >= lo) & (lam_pos <= hi)
        chi_cols = ej.vectors[:, mask]
        a_j = chi_cols @ chi_cols[v1, :].conj().T
        gram = a_j.conj().T @ a_j
        w_g, v_g = np.linalg.eigh((gram + gram.conj().T) / 2)
        sig = np.sqrt(np.maximum(w_g, 0.0))
        sing_max = max(sing_max, float(sig[-1]))
        pieces.append((a_j, sig, v_g))
    if sing_max > 0 and a_cut >= sing_max:
        a_cut = 0.5 * sing_max

    # V_1 is not empty, so the phi^2 mass is |V_1| > 0: a kept interval
    # carries mass, its top singular value is positive, and the largest one
    # passes a_cut < sing_max; W' has at least one column
    kept_cols = []
    for a_j, sig, v_g in pieces:
        keep = sig > a_cut
        if np.any(keep):
            cols = a_j @ v_g[:, keep]
            kept_cols.append(orthonormal_columns(cols))
    return _certify_repaired(sys, orthonormal_columns(np.column_stack(kept_cols)))


# ---------------------------------------------------------------------------
# Hastings engine
# ---------------------------------------------------------------------------

# Pruning constants chi in (0,1) and eta in (0, chi/4), and the exponent
# schedule n_b ~ L^beta0, n_win ~ L^beta1 / F(L), lambda_min ~ 1/(L^beta2 (n_win+1)).
# The slow-growth functions G and F are smoothing.default_G and default_F.
HASTINGS_CHI = 0.5
HASTINGS_ETA = 0.1
HASTINGS_BETA0 = 0.5
HASTINGS_BETA1 = 1.0
HASTINGS_BETA2 = 0.5


@dataclass
class HastingsConfig:
    """Parameters of the smooth-partition construction.

    n_win windows of width kappa = 2/n_win; superblocks of l_b windows
    (l_b a multiple of 4); n_b superblocks (odd, derived from n_win and l_b);
    lambda_min is the small-singular-value cutoff.
    """

    n_win: int
    l_b: int
    lambda_min: float

    def __post_init__(self):
        if self.l_b % 4 != 0 or self.l_b <= 0:
            raise ValueError("l_b must be a positive multiple of 4")
        if self.n_b < 1:
            raise ValueError("n_win too small for the superblock structure")

    @property
    def kappa(self) -> float:
        return 2.0 / self.n_win

    @property
    def n_b(self) -> int:
        k_b = (self.n_win + 1) // self.l_b - 1
        return k_b if k_b % 2 == 1 else k_b - 1

    @classmethod
    def from_system_size(cls, L: int) -> "HastingsConfig":
        """Defaults following the exponent schedule n_win ~ L^beta1 / F(L),
        n_b ~ L^beta0, lambda_min ~ 1/(L^beta2 (n_win+1))."""
        n_win = max(8, math.ceil(L ** HASTINGS_BETA1 / float(default_F(L))))
        n_b_target = max(3, round(L ** HASTINGS_BETA0))
        l_b = max(4, 4 * round((n_win + 1) / (n_b_target + 1) / 4))
        lam = 1.0 / (L ** HASTINGS_BETA2 * (n_win + 1))
        return cls(n_win=n_win, l_b=l_b, lambda_min=lam)


@dataclass
class HastingsDiagnostics:
    """Per-stage record of the smooth-partition pipeline."""

    config: HastingsConfig
    r_dims: list[int]
    a_map: np.ndarray
    rho: np.ndarray
    r_blocks: list[np.ndarray]
    y_sets: dict
    n_bases: dict
    n_prime_bases: dict
    u_basis: np.ndarray
    u_perp_basis: np.ndarray
    stage_checks: list[BoundCheck] = field(default_factory=list)
    stage_values: dict = field(default_factory=dict)
    decay_fit: dict | None = None

    @classmethod
    def empty(cls, cfg: HastingsConfig, a_map: np.ndarray,
              r_dims: list[int] | None = None) -> "HastingsDiagnostics":
        """Record of a run that short-circuited before the oracle stages:
        every N_i and odd N'_i has a zero-width basis."""
        zero = np.zeros((0, 0), dtype=np.complex128)
        return cls(cfg, r_dims or [], a_map, zero, [], _block_ranges(cfg),
                   {i: zero for i in range(1, cfg.n_b + 1)},
                   {i: zero for i in range(1, cfg.n_b + 1, 2)}, zero, zero)

    def to_json_dict(self) -> dict:
        return {
            "r_dims": self.r_dims,
            "stage_values": {k: v for k, v in self.stage_values.items()},
            "checks": [c.as_dict() for c in self.stage_checks],
            "decay_fit": self.decay_fit,
            "config": {
                "n_win": self.config.n_win,
                "l_b": self.config.l_b,
                "n_b": self.config.n_b,
                "lambda_min": self.config.lambda_min,
                "chi": HASTINGS_CHI,
                "eta": HASTINGS_ETA,
            },
        }


def _block_ranges(cfg: HastingsConfig) -> dict:
    """Index windows (in R-block units) for Y_i, Y_i' and the edge
    sentinels.  Blocks are numbered 0..n_win."""
    lb, nb, nw = cfg.l_b, cfg.n_b, cfg.n_win

    def rng(lo, hi):
        lo = max(0, int(math.ceil(lo)))
        hi = min(nw + 1, int(math.ceil(hi)))
        return range(lo, hi)

    y, yp = {}, {}
    for i in range(1, nb + 1):
        if i < nb:
            y[i] = rng((i - 1) * lb, (i + 1) * lb)
            yp[i] = rng((i - 0.75) * lb, (i + 0.75) * lb) if i > 1 else rng(0, 1.75 * lb)
        else:
            y[i] = rng((nb - 1) * lb, nw + 1)
            yp[i] = rng((nb - 0.75) * lb, nw + 1)
    yp[0] = rng(0, 0.75 * lb)
    yp[nb + 1] = rng((nb + 0.25) * lb, nw + 1)
    return {"Y": y, "Yp": yp}


def _coords(r_blocks: Sequence[np.ndarray], block_range) -> np.ndarray:
    """Coordinates of the representation space covered by a range of R-blocks."""
    return _coordinates([r_blocks[jb] for jb in block_range])


def _even_basis(n_bases: dict, n_b: int, total: int) -> np.ndarray:
    """Stacked bases of the even N_i: a basis of Ran N^e when they are
    orthonormal together."""
    cols = [n_bases[i] for i in range(2, n_b + 1, 2) if n_bases[i].shape[1]]
    return (np.column_stack(cols) if cols
            else np.zeros((total, 0), dtype=np.complex128))


def hastings_W(sys: TridiagonalSystem, cfg: HastingsConfig
               ) -> tuple[WCertificate, HastingsDiagnostics]:
    """Smooth-partition W construction with measured stage postconditions.

    Stages: (a) windowed images of V_1 with small singular values removed;
    (b) the representation map A and its Gram matrix rho; (c) near-kernel
    projections N_i from the oracle, sandwiched exactly; (d) pruning of odd
    N_i against the even sum; (e) W = A(U) for U the complement;
    (f) repair + certification.  Raises StageError naming the stage and the
    violated condition.
    """
    triv = trivial_reducing_basis(sys)
    if triv is not None:
        return _certify_repaired(sys, triv), HastingsDiagnostics.empty(
            cfg, np.zeros((sys.dim, 0)))

    n = sys.dim
    v1 = sys.blocks[0]
    ej = eig_hermitian_part(sys.j)  # checked by verify_tridiagonal
    windows = partition_of_unity(cfg.n_win)

    # ---- stage (a): X_i = range of tau_i with small singular values cut ----
    x_bases: list[np.ndarray] = []
    for prof in windows:
        wvals = np.asarray(prof(ej.eigenvalues), dtype=float)
        tau = (ej.vectors * wvals) @ ej.vectors[v1, :].conj().T
        gram = tau.conj().T @ tau
        w_g, v_g = np.linalg.eigh((gram + gram.conj().T) / 2)
        keep = w_g > cfg.lambda_min
        if np.any(keep):
            basis = tau @ (v_g[:, keep] / np.sqrt(w_g[keep]))
        else:
            basis = np.zeros((n, 0), dtype=np.complex128)
        x_bases.append(basis)
    r_dims = [b.shape[1] for b in x_bases]

    # ---- stage (b): representation map A and rho = A*A ----
    a_map = (np.column_stack([b for b in x_bases if b.shape[1]])
             if any(r_dims) else np.zeros((n, 0), dtype=np.complex128))
    total = a_map.shape[1]
    if total == 0:
        cert = _certify_repaired(sys, np.zeros((n, 0), dtype=np.complex128))
        return cert, HastingsDiagnostics.empty(cfg, a_map, r_dims)
    rho = a_map.conj().T @ a_map
    labels = np.repeat(np.arange(len(r_dims)), r_dims)
    r_blocks = np.split(np.arange(total), np.cumsum(r_dims)[:-1])
    checks: list[BoundCheck] = []
    diag_defect = max(op_norm(rho[np.ix_(b, b)] - np.eye(b.size))
                      for b in r_blocks if b.size)
    if diag_defect > EXACT_TOL:
        raise StageError("b", f"rho diagonal blocks deviate from identity by {diag_defect:.3e}")
    checks.append(BoundCheck(diag_defect, EXACT_TOL, "rho diagonal blocks = identity"))
    off_band = np.abs(labels[:, None] - labels[None, :]) >= 2
    offtri = float(np.max(np.abs(rho[off_band]), initial=0.0))
    if offtri > EXACT_TOL:
        raise StageError("b", f"rho has off-tridiagonal coupling {offtri:.3e}")
    checks.append(BoundCheck(offtri, EXACT_TOL, "rho off-tridiagonal blocks vanish"))

    sets = _block_ranges(cfg)
    yp_sets = sets["Yp"]

    # ---- stage (c): N_i from the oracle, sandwiched exactly ----
    nb = cfg.n_b
    g_lb = float(default_G(cfg.l_b)) / cfg.l_b
    f_prof = smooth_profile(g_lb, g_lb)
    n_bases: dict[int, np.ndarray] = {}
    comm_vals = {}
    for i in range(1, nb + 1):
        idx = _coords(r_blocks, yp_sets[i])
        if idx.size == 0:
            n_bases[i] = np.zeros((total, 0), dtype=np.complex128)
            continue
        rho_i = rho[np.ix_(idx, idx)]
        ramp = (2.0 / (cfg.l_b / 2 + 1)) * (labels[idx] - (i + 0.25) * cfg.l_b) + 1.0
        b_hat = np.diag(np.clip(ramp, -1.0, 1.0))
        er = eig_hermitian_part(rho_i)
        f_rho = er.matrix_function(
            lambda x: 1.0 - 2.0 * np.asarray(f_prof(x), dtype=np.complex128))
        res = lin_oracle_projection(f_rho, b_hat)
        comm_vals[i] = res.commutator_norm
        checks.append(res.check)
        if res.commutator_norm > 1.0 - HASTINGS_CHI + 1e-9:
            raise StageError("c", f"||[N_{i}, B^_{i}]|| = {res.commutator_norm:.4f} "
                                  f"exceeds 1 - chi = {1 - HASTINGS_CHI}")
        # exact sandwich against rho_i's spectral projections
        low = er.vectors[:, er.eigenvalues <= g_lb]
        high = er.vectors[:, er.eigenvalues >= 2 * g_lb]
        # with Q = res.basis: E*(1 - N)E = 1 - (Q*E)*(Q*E), F* N F = (Q*F)*(Q*F)
        q_low, q_high = res.basis.conj().T @ low, res.basis.conj().T @ high
        if low.size and op_norm_exceeds(np.eye(low.shape[1]) - q_low.conj().T @ q_low, EXACT_TOL):
            raise StageError("c", f"lower sandwich E_[0,G/l_b](rho_{i}) <= N_{i} fails")
        if high.size and op_norm_exceeds(q_high.conj().T @ q_high, EXACT_TOL):
            raise StageError("c", f"upper sandwich N_{i} <= Y' - E_[2G/l_b,inf) fails")
        emb = np.zeros((total, res.basis.shape[1]), dtype=np.complex128)
        emb[idx, :] = res.basis
        n_bases[i] = emb
    checks.append(BoundCheck(max(comm_vals.values(), default=0.0), 1.0 - HASTINGS_CHI,
                             "max_i ||[N_i, B^_i]|| <= 1 - chi"))

    # semi-orthogonality ||Y'_{i+1} N_i Y'_{i-1}|| <= 1/2 - chi/2
    semi = 0.0
    for i in range(1, nb + 1):
        bN = n_bases[i]
        if bN.shape[1] == 0:
            continue
        left = _coords(r_blocks, yp_sets.get(i - 1, []))
        right = _coords(r_blocks, yp_sets.get(i + 1, []))
        if left.size and right.size:
            semi = max(semi, op_norm(bN[right] @ bN[left].conj().T))
    if semi > 0.5 - HASTINGS_CHI / 2 + 1e-9:
        raise StageError("d", f"semi-orthogonality {semi:.4f} exceeds 1/2 - chi/2")
    checks.append(BoundCheck(semi, 0.5 - HASTINGS_CHI / 2,
                             "||Y'_{i+1} N_i Y'_{i-1}|| <= 1/2 - chi/2"))

    # ---- stage (d): prune odd N_i against N^e ----
    n_even = _even_basis(n_bases, nb, total)
    if n_even.shape[1] and op_norm_exceeds(n_even.conj().T @ n_even - np.eye(n_even.shape[1]),
                                           1e-9):
        raise StageError("d", "even N_i do not sum to a projection")
    n_prime_bases: dict[int, np.ndarray] = {}
    for i in range(1, nb + 1, 2):
        basis = jordan_basis(n_bases[i], n_even)
        # ||N^e v||^2 = ||n_even* v||^2 for each column v
        weight = np.linalg.norm(n_even.conj().T @ basis, axis=0) ** 2
        n_prime_bases[i] = basis[:, weight <= 0.5 + HASTINGS_ETA]

    # ---- stage (e): U = complement of the span; W = A(U) ----
    span_cols = [b for b in [n_even] + [n_prime_bases[i] for i in range(1, nb + 1, 2)]
                 if b.shape[1]]
    u_perp = (orthonormal_columns(np.column_stack(span_cols))
              if span_cols else np.zeros((total, 0), dtype=np.complex128))
    u_basis = orthonormal_complement(u_perp)

    c3 = _c3_constant(HASTINGS_ETA)
    if u_basis.shape[1]:
        au = a_map @ u_basis
        sigma_min = float(np.linalg.svd(au, compute_uv=False)[-1])
        lower_ref = math.sqrt(1.0 / (c3 * cfg.l_b))
        checks.append(BoundCheck(lower_ref, sigma_min,
                                 "|Au| >= sqrt(1/(C3 l_b)) |u| (measured)"))
        w_raw = orthonormal_columns(au)
    else:
        sigma_min = 0.0
        w_raw = np.zeros((n, 0), dtype=np.complex128)

    # ---- stage (f): repair + certificate + reference bounds ----
    cert = _certify_repaired(sys, w_raw)
    refs = hastings_reference_bounds(cfg, sys.L)
    stage_values = {
        "commutators": comm_vals,
        "semi_orthogonality": semi,
        "sigma_min_AU": sigma_min,
        "T(l_b)": refs["T(l_b)"],
        "G(l_b)": float(default_G(cfg.l_b)),
        "r_dims": r_dims,
    }
    stage_values.update(refs)
    diagn = HastingsDiagnostics(cfg, r_dims, a_map, rho, r_blocks, sets,
                                n_bases, n_prime_bases, u_basis, u_perp,
                                checks, stage_values)
    return cert, diagn


def _c3_constant(eta: float) -> float:
    """Explicit C3(eta) from the |Au| lower bound: 1/(1 - C^2) with
    C = max((1+sqrt(1-eta))/2, sqrt(1-p^2)), p = (sqrt((1-eta)/(1-2eta))-1)^2."""
    p = (math.sqrt((1 - eta) / (1 - 2 * eta)) - 1.0) ** 2
    c = max((1 + math.sqrt(1 - eta)) / 2, math.sqrt(max(1 - p * p, 0.0)))
    return 1.0 / max(1.0 - c * c, 1e-12)


def hastings_reference_bounds(cfg: HastingsConfig, L: int) -> dict:
    """Explicit reference expressions for the three certificate quantities.

    The decay constants come from the banded-inverse bound applied to the
    Gram matrix whose eigenvalues are at least x = chi/(2-2chi) and at most
    7(1+x)/(1-2 eta); they are enormously loose at desk scale and serve as
    comparison lines, never as substitutes for the measured values.  The
    tail values they use are returned with them: T(l_b) from tail_tables,
    and S(L) for the cfg.n_win windows the engine runs (tail_tables' own S
    column assumes ceil(L / F(L)) windows).
    """
    chi, eta = HASTINGS_CHI, HASTINGS_ETA
    x = chi / (2.0 - 2.0 * chi)
    b_m = 7.0 * (1.0 + x) / (1.0 - 2.0 * eta)
    kappa_cond = b_m / x
    q = (math.sqrt(kappa_cond) - 1.0) / (math.sqrt(kappa_cond) + 1.0)
    c_inv = max(1.0 / x, (1.0 + math.sqrt(kappa_cond)) ** 2 / (2.0 * b_m))
    alpha = math.sqrt(q)
    c_tt = (2.0 * (1.0 + x) / (1.0 - 2.0 * eta)) * 3.0 * c_inv / alpha
    c1 = c_tt * (alpha + 1.0 / alpha)
    c_alpha_sum = 1.0 + alpha + 1.0 / alpha
    c2 = c_alpha_sum * c1
    c4 = c1 * math.sqrt(2.0 * c_alpha_sum) * (1.0 + alpha) / (1.0 - alpha)
    c3 = _c3_constant(eta)
    g_lb = float(default_G(cfg.l_b))
    s_l = _s_tail(L, cfg.n_win)
    c_alpha_peak = max((m + 3.0) * alpha ** (m / 2.0) for m in range(200))
    k_const = 2.0 * math.sqrt(3.0) * cfg.kappa * cfg.l_b
    eps3_ref = c4 * math.sqrt(2.0 * g_lb / cfg.l_b) \
        + math.sqrt(2.0 * cfg.lambda_min * (cfg.n_win + 1))
    eps4_ref = math.sqrt(c_alpha_sum) * c_alpha_peak * c2 * k_const \
        * ((2.0 + alpha) / (2.0 - alpha)) * math.sqrt(c3 * cfg.l_b)
    eps5_ref = s_l * math.sqrt(c3 * (cfg.n_win + 1) * cfg.l_b / cfg.lambda_min)
    return {
        "alpha_ref": alpha,
        "C1_ref": c1,
        "C2_ref": c2,
        "C3": c3,
        "C4_ref": c4,
        "S(L)": s_l,
        "T(l_b)": float(tail_tables([cfg.l_b], [])["T"].tails[0]),
        "eps3_ref": eps3_ref,
        "eps4_ref": eps4_ref,
        "eps5_ref": eps5_ref,
    }


def proof_matrix_M(diagn: HastingsDiagnostics) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Assemble the tridiagonal Gram matrix from one unit vector per odd
    pruned block, with the (c_s, d_s) arrays and the positivity threshold x.

    M_{kl} = (2(1+x)/(1-2 eta)) <(1-N^e) m_k, (1-N^e) m_l>; its positivity
    above x certifies the invertibility driving the exponential decay fit.
    """
    cfg = diagn.config
    x = HASTINGS_CHI / (2.0 - 2.0 * HASTINGS_CHI)
    n_even = _even_basis(diagn.n_bases, cfg.n_b, diagn.rho.shape[0])

    reps, cs, ds, labels = [], [], [], []
    yp = diagn.y_sets["Yp"]

    for i in sorted(diagn.n_prime_bases):
        b = diagn.n_prime_bases[i]
        if b.shape[1] == 0:
            continue
        vec = b[:, 0]
        reps.append(vec)
        labels.append(i)
        left = _coords(diagn.r_blocks, yp.get(i - 1, []))
        right = _coords(diagn.r_blocks, yp.get(i + 1, []))
        cs.append(float(np.linalg.norm(vec[left])) if left.size else 0.0)
        ds.append(float(np.linalg.norm(vec[right])) if right.size else 0.0)
    if not reps:
        return np.zeros((0, 0)), np.zeros(0), np.zeros(0), x
    k = len(reps)
    scale = 2.0 * (1.0 + x) / (1.0 - 2.0 * HASTINGS_ETA)
    m = np.zeros((k, k), dtype=np.complex128)
    resid = [v - n_even @ (n_even.conj().T @ v) for v in reps]
    for a in range(k):
        for b in range(k):
            if abs(labels[a] - labels[b]) <= 2:
                m[a, b] = scale * np.vdot(resid[a], resid[b])
    return m, np.array(cs), np.array(ds), x


def decay_check_U(diagn: HastingsDiagnostics, *, rng: np.random.Generator | None = None) -> dict:
    """Fit the geometric decay of the N-family coefficients of U^perp y_i.

    For DECAY_SAMPLES_PER_BLOCK sampled unit y_i in each Y_i, solve
    U^perp y_i = sum_j n_j^i over the (linearly independent) even N / odd N'
    bases and fit |n_j^i| <= C1 alpha^{|i-j|}; also tabulate ||Y_j U Y_i||.
    Raises StageError when the fitted alpha >= 1.
    """
    cfg = diagn.config
    rng = rng or np.random.default_rng(0)
    cols, owners = [], []
    for i in range(2, cfg.n_b + 1, 2):
        b = diagn.n_bases[i]
        for c in range(b.shape[1]):
            cols.append(b[:, c])
            owners.append(i)
    for i in range(1, cfg.n_b + 1, 2):
        b = diagn.n_prime_bases[i]
        for c in range(b.shape[1]):
            cols.append(b[:, c])
            owners.append(i)
    if not cols:
        return {"C1": 0.0, "alpha": 0.0, "offsets": {}, "u_table": {}}
    phi = np.column_stack(cols)
    owners = np.asarray(owners)
    u_perp = diagn.u_perp_basis

    offsets: dict[int, float] = {}
    for i in range(1, cfg.n_b + 1):
        idx = _coords(diagn.r_blocks, diagn.y_sets["Y"][i])
        if idx.size == 0:
            continue
        for _ in range(DECAY_SAMPLES_PER_BLOCK):
            raw = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
            # U^perp y for the unit y supported on Y_i
            target = u_perp @ (u_perp[idx].conj().T @ (raw / np.linalg.norm(raw)))
            coef, *_ = np.linalg.lstsq(phi, target, rcond=None)
            for j in range(1, cfg.n_b + 1):
                sel = owners == j
                if np.any(sel):
                    size = float(np.linalg.norm(coef[sel]))
                    off = abs(i - j)
                    offsets[off] = max(offsets.get(off, 0.0), size)
    ms = sorted(k for k, v in offsets.items() if v > 1e-14 and k >= 1)
    if len(ms) >= 2:
        logs = np.log([offsets[k] for k in ms])
        slope, intercept = np.polyfit(ms, logs, 1)
        alpha = float(np.exp(slope))
        c1 = max(float(np.exp(intercept)), offsets.get(0, 0.0), 1.0)
    else:
        alpha = 0.0
        c1 = max(offsets.get(0, 0.0), 1.0)
    if alpha >= 1.0:
        raise StageError("decay", f"fitted alpha = {alpha:.4f} >= 1")

    # ||Y_j U Y_i|| table against C2 alpha^{|i-j|}, compared for |i-j| >= 2
    # only: for alpha > 0, C2 >= 1/alpha puts the bound at |i-j| <= 1 at 1 or
    # more, which no block of the projection U exceeds.  The (b, a) block of
    # U = 1 - U^perp U^perp* is delta_ab - U^perp[b] U^perp[a]*
    c_alpha = 1.0 + alpha + (1.0 / alpha if alpha > 0 else 1.0)
    c2 = c_alpha * c1
    u_table: dict[tuple[int, int], float] = {}
    table_violations = []
    for i in range(1, cfg.n_b + 1):
        for j in range(1, cfg.n_b + 1):
            a_idx = _coords(diagn.r_blocks, diagn.y_sets["Y"][i])
            b_idx = _coords(diagn.r_blocks, diagn.y_sets["Y"][j])
            if a_idx.size and b_idx.size:
                val = op_norm(np.equal.outer(b_idx, a_idx)
                              - u_perp[b_idx] @ u_perp[a_idx].conj().T)
                u_table[(i, j)] = val
                if abs(i - j) >= 2 and val > c2 * alpha ** abs(i - j) + 1e-9:
                    table_violations.append((i, j, val))
    fit = {"C1": c1, "alpha": alpha, "C2": c2,
           "offsets": offsets, "u_table": u_table,
           "table_violations": table_violations}
    diagn.decay_fit = {"C1": c1, "alpha": alpha, "C2": c2,
                       "offsets": {str(k): v for k, v in offsets.items()},
                       "table_violations": len(table_violations)}
    return fit
