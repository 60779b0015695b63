"""Measured-vs-predicted checkers for the commutator / spectral-projection /
Lieb-Robinson inequalities.

Each checker computes both sides of its inequality and returns a BoundCheck,
so callers assert ``lhs <= rhs`` explicitly.  Set arguments are predicates on
the real line; distances between sets are evaluated on the realized
eigenvalues, which is exactly what the projections see.  A spectral
projection E_S(B) enters through V_S, the eigenvector columns of B over S:
||E_{S1}(B) X E_{S2}(B)|| = ||V_{S1}* X V_{S2}||, so no n x n projection is
formed.

Each Hermitian matrix that a checker decomposes comes as its
``HermitianEig``: A and B of Davis-Kahan, D of the commutator-projection
bound, A of the Fourier bound, and H and B of Lieb-Robinson.  A caller
decomposes a matrix once, with the checked ``eig_hermitian`` for outside
input or ``eig_hermitian_part`` for one it built Hermitian, and hands the
same eigensystem to several checkers.  A norm of the matrix itself is the
caller's, by required keyword: ``diff`` = ||A-B|| for Davis-Kahan and
``comm`` = ||[C,D]|| or ||[A,B]|| for the commutator bounds.  Each checker
tests its hypotheses on what it receives: set separation on the
eigenvalues, and for Lieb-Robinson ||H|| <= 1 on H's eigenvalues and H's
finite range in B's eigen-coordinates.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .checks import BoundCheck
from .matcore import (
    HermitianEig,
    as_matrix,
    commutator,
    eig_hermitian,
    eig_hermitian_part,
    op_norm,
    require_contraction,
)
from .smoothing import Profile, mollifier_profile

__all__ = [
    "BoundCheck",
    "check_davis_kahan",
    "check_comm_proj",
    "schur_divide",
    "check_spectral_gap",
    "fourier_commutator_bound",
    "lieb_robinson_decay",
    "lieb_robinson_function",
    "lieb_robinson_nested",
    "verify_finite_range",
    "DAVIS_KAHAN_GENERAL_C",
]

# The general-geometry Davis-Kahan constant is not pinned anywhere; it is
# configuration, not an asserted value.  All acceptance tests use the
# sandwich form, whose constant is 1/delta.
DAVIS_KAHAN_GENERAL_C = math.pi / 2
SPECTRAL_GAP_MOLLIFIER = mollifier_profile  # check_spectral_gap's rho, built on first call
FINITE_RANGE_TOL = 1e-10  # verify_finite_range: largest far coupling of H

def _mask(eig: HermitianEig, s) -> np.ndarray:
    """Boolean selection over the eigenvalues of ``eig`` by the predicate
    ``s`` on the reals (boolean also for an empty spectrum)."""
    return np.array([bool(s(float(x))) for x in eig.eigenvalues], dtype=bool)


def _set_distance(vals1: np.ndarray, vals2: np.ndarray) -> float:
    if vals1.size == 0 or vals2.size == 0:
        return math.inf
    return float(np.min(np.abs(vals1[:, None] - vals2[None, :])))


def check_davis_kahan(ea: HermitianEig, eb: HermitianEig, s1, s2,
                      delta_gap: float | None = None, *, diff: float) -> BoundCheck:
    """||E_{S1}(A) E_{S2}(B)|| against the Davis-Kahan sin-theta bound, for
    the eigensystems of A and B and ``diff`` = ||A-B||.

    With ``delta_gap`` the interval-sandwich form is used (S1 inside an
    interval, S2 outside its delta_gap-enlargement): rhs = ||A-B|| / delta_gap.
    Otherwise the general form with DAVIS_KAHAN_GENERAL_C applies.
    """
    m1, m2 = _mask(ea, s1), _mask(eb, s2)
    v1 = ea.eigenvalues[m1]
    v2 = eb.eigenvalues[m2]
    dist = _set_distance(v1, v2)
    if dist <= 0:
        raise ValueError("S1 and S2 are not disjoint on the realized spectra")
    lhs = op_norm(ea.vectors[:, m1].conj().T @ eb.vectors[:, m2])
    if delta_gap is not None:
        if delta_gap <= 0:
            raise ValueError("delta_gap must be positive")
        if v1.size and v2.size:
            alpha, beta = float(v1.min()), float(v1.max())
            if np.any((v2 > alpha - delta_gap) & (v2 < beta + delta_gap)):
                raise ValueError("sandwich hypothesis fails: S2 intrudes within delta_gap of [alpha, beta]")
        return BoundCheck(lhs, diff / delta_gap, "davis-kahan sandwich")
    return BoundCheck(lhs, DAVIS_KAHAN_GENERAL_C * diff / dist, "davis-kahan general (configured c)")


def check_comm_proj(c, ed: HermitianEig, s1, s2, *, comm: float) -> BoundCheck:
    """||E_{S1}(D) C E_{S2}(D)|| <= ||[C,D]|| / dist(S1, S2), for a matrix C,
    the eigensystem of D and ``comm`` = ||[C,D]||.  With S1 or S2 empty on
    D's spectrum both sides are 0."""
    m1, m2 = _mask(ed, s1), _mask(ed, s2)
    dist = _set_distance(ed.eigenvalues[m1], ed.eigenvalues[m2])
    if not (dist > 0):
        raise ValueError("dist(S1, S2) must be positive")
    lhs = op_norm(ed.vectors[:, m1].conj().T @ as_matrix(c) @ ed.vectors[:, m2])
    if math.isinf(dist):
        return BoundCheck(lhs, 0.0, "comm-proj (one side empty)")
    return BoundCheck(lhs, comm / dist, "comm-proj")


def schur_divide(t, a: Sequence[float], b: Sequence[float], d: float) -> BoundCheck:
    """||(T_ij / (a_i - b_j))|| <= ||T|| / d, given a_i - b_j >= d > 0."""
    tm = np.asarray(t, dtype=np.complex128)
    if tm.ndim != 2:
        raise ValueError("T must be a matrix")
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape[0] != tm.shape[0] or bv.shape[0] != tm.shape[1]:
        raise ValueError("a, b lengths must match T's shape")
    gaps = av[:, None] - bv[None, :]
    if d <= 0 or np.any(gaps < d - 1e-15 * max(1.0, abs(d))):
        raise ValueError("hypothesis a_i - b_j >= d violated")
    lhs = float(np.linalg.norm(tm / gaps, 2))
    rhs = float(np.linalg.norm(tm, 2)) / d
    return BoundCheck(lhs, rhs, "schur-divide")


def check_spectral_gap(a, b, gap_lo: float, gap_hi: float) -> BoundCheck:
    """||[E_{(-inf, gap_lo]}(A), B]|| <= c2 ||[A,B]|| / (gap_hi - gap_lo) for A
    with no spectrum inside (gap_lo, gap_hi).

    c2 = 4 ||rho^||_1 for rho = SPECTRAL_GAP_MOLLIFIER(): the spectral
    projection is a mollified indicator f = chi * rho_eps, whose transform is
    2pi chi^ rho_eps^ under the (1/2pi) e^{-ikx} convention, so
    C_f <= 2pi (1/pi) ||rho^||_1 / eps with eps = (gap width)/2.  (A smaller
    constant that drops the 2pi convolution factor is measurably violated on
    random instances; any valid constant here is at least 1.)"""
    if not gap_hi > gap_lo:
        raise ValueError("need gap_hi > gap_lo")
    ea = eig_hermitian(a)
    inside = (ea.eigenvalues > gap_lo) & (ea.eigenvalues < gap_hi)
    if np.any(inside):
        raise ValueError("spectrum intrudes into the declared gap")
    c2 = 4.0 * SPECTRAL_GAP_MOLLIFIER().c1
    # [P, B] = P B (1-P) - (1-P) B P has the norm of its larger corner
    low = ea.eigenvalues <= gap_lo
    v_in, v_out = ea.vectors[:, low], ea.vectors[:, ~low]
    bm = as_matrix(b)
    lhs = max(op_norm(v_in.conj().T @ bm @ v_out), op_norm(v_out.conj().T @ bm @ v_in))
    rhs = c2 * op_norm(commutator(a, b)) / (gap_hi - gap_lo)
    return BoundCheck(lhs, rhs, f"spectral-gap (c2={c2:.6f})")


def fourier_commutator_bound(profile: Profile, ea: HermitianEig, b, *,
                             comm: float) -> BoundCheck:
    """||[f(A), B]|| <= C_f ||[A,B]|| with C_f = int |k f^(k)| dk computed by
    quadrature, for the eigensystem of A, a matrix B and ``comm`` =
    ||[A,B]||."""
    fa = ea.matrix_function(lambda x: np.asarray(profile(x), dtype=np.complex128))
    lhs = op_norm(commutator(fa, as_matrix(b)))
    rhs = profile.c0 * comm
    return BoundCheck(lhs, rhs, f"fourier-commutator (C_f={profile.c0:.6f})")


def verify_finite_range(eh: HermitianEig, eig_b: HermitianEig,
                        delta: float) -> tuple[np.ndarray, float]:
    """(V* H V, worst) for the eigensystem of H and the eigenvectors V of B,
    where worst is the largest |entry| of V* H V between eigenvectors at
    eigenvalue distance >= Delta; raises if it exceeds FINITE_RANGE_TOL
    (finite-range hypothesis is verified, not assumed).  V* H V is
    X diag(lam_H) X* for X = V* V_H."""
    x = eig_b.vectors.conj().T @ eh.vectors
    ht = (x * eh.eigenvalues) @ x.conj().T
    lam = eig_b.eigenvalues
    far = np.abs(lam[:, None] - lam[None, :]) >= delta
    worst = float(np.max(np.abs(ht[far]))) if np.any(far) else 0.0
    if worst > FINITE_RANGE_TOL:
        raise ValueError(f"finite-range hypothesis fails: coupling {worst:.3e} at distance >= {delta}")
    return ht, worst


def _lieb_robinson_setup(eh: HermitianEig, eb: HermitianEig, delta: float, s1, s2
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H in B's eigen-coordinates, mask of S1, mask of S2) for the
    eigensystems of H and B, after checking ||H|| <= 1 on H's eigenvalues
    and verifying H's finite range Delta in B's eigen-coordinates."""
    ht, _ = verify_finite_range(require_contraction(eh, "H"), eb, delta)
    return ht, _mask(eb, s1), _mask(eb, s2)


def lieb_robinson_decay(eh: HermitianEig, eb: HermitianEig, delta: float, s1, s2,
                        t: float) -> BoundCheck:
    """||E_{S1}(B) e^{itH} E_{S2}(B)|| <= e^{-dist(S1,S2)/Delta} for |t| up to
    dist/(e^2 Delta), given ||H|| <= 1 and verified finite range Delta, for
    the eigensystems of H and B.  An empty S1 or S2 gives lhs = rhs = 0."""
    _, m1, m2 = _lieb_robinson_setup(eh, eb, delta, s1, s2)
    dist = _set_distance(eb.eigenvalues[m1], eb.eigenvalues[m2])
    if not (dist > 0):
        raise ValueError("S1, S2 must be separated")
    v_lr = math.e ** 2 * delta
    if math.isfinite(dist) and abs(t) > dist / v_lr + 1e-12:
        raise ValueError(f"|t| = {abs(t)} exceeds dist/v_LR = {dist / v_lr}")
    u_t = eh.matrix_function(lambda x: np.exp(1j * t * x))
    lhs = op_norm(eb.vectors[:, m1].conj().T @ u_t @ eb.vectors[:, m2])
    rhs = math.exp(-dist / delta) if math.isfinite(dist) else 0.0
    return BoundCheck(lhs, rhs, "lieb-robinson evolution")


def lieb_robinson_function(eh: HermitianEig, eb: HermitianEig, delta: float, s1, s2,
                           profile: Profile) -> BoundCheck:
    """||E_{S1}(B) f(H) E_{S2}(B)|| <= tail(f, dist/(e^2 Delta)) +
    ||f^||_1 e^{-dist/Delta}, for the eigensystems of H and B.  An empty
    spectrum gives lhs = rhs = 0."""
    _, m1, m2 = _lieb_robinson_setup(eh, eb, delta, s1, s2)
    if eb.eigenvalues.size == 0:
        return BoundCheck(0.0, 0.0, "lieb-robinson function")
    dist = _set_distance(eb.eigenvalues[m1], eb.eigenvalues[m2])
    if not (dist > 0 and math.isfinite(dist)):
        raise ValueError("S1, S2 must be separated and nonempty")
    fh = eh.matrix_function(lambda x: np.asarray(profile(x), dtype=np.complex128))
    lhs = op_norm(eb.vectors[:, m1].conj().T @ fh @ eb.vectors[:, m2])
    rhs = profile.tail(dist / (math.e ** 2 * delta)) + profile.c1 * math.exp(-dist / delta)
    return BoundCheck(lhs, rhs, "lieb-robinson function")


def lieb_robinson_nested(eh: HermitianEig, eb: HermitianEig, delta: float, s_inner,
                         s_outer, profile: Profile) -> BoundCheck:
    """||[f(H) - f(H')] E_{S''}(B)|| <= 2 tail(f, d/(e^2 Delta)) +
    3 ||f^||_1 e^{-d/Delta}, for the eigensystems of H and B, where
    H' = E_{S'}(B) H E_{S'}(B) and d is the distance from S'' to the
    complement of S'.  S'' lies in S', so f(H')V'' = V' f(T) V'*V'' for the
    eigenvectors V' (V'') of B over S' (S'') and T, H's checked coordinates
    over V': one k x k eigensystem, decomposed unchecked.  With S' the whole
    spectrum (d infinite) H' = H and the bound is 0."""
    ht, m_in, m_out = _lieb_robinson_setup(eh, eb, delta, s_inner, s_outer)
    if np.any(m_in & ~m_out):
        raise ValueError("S'' must be contained in S'")
    dist = _set_distance(eb.eigenvalues[m_in], eb.eigenvalues[~m_out])
    if not (dist > 0):
        raise ValueError("S'' must be separated from the complement of S'")
    f = lambda x: np.asarray(profile(x), dtype=np.complex128)
    ft = eig_hermitian_part(ht[np.ix_(m_out, m_out)]).matrix_function(f)
    lhs = op_norm(eh.matrix_function(f) @ eb.vectors[:, m_in]
                  - eb.vectors[:, m_out] @ ft[:, m_in[m_out]])
    if math.isinf(dist):
        rhs = 0.0
    else:
        rhs = 2.0 * profile.tail(dist / (math.e ** 2 * delta)) + 3.0 * profile.c1 * math.exp(-dist / delta)
    return BoundCheck(lhs, rhs, "lieb-robinson nested")
