"""Counterexample generators, the winding-number obstruction, the
quarter-tridiagonal leakage example, and macroscopic-observable (tensor-lift)
operators with their exact identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    as_matrix,
    commutator,
    eig_hermitian_part,
    op_norm,
    require_same_shape,
)

__all__ = [
    "voiculescu",
    "WindingResult",
    "winding_number",
    "quarter_tridiag",
    "tn_lift",
    "tn_identities",
]

DIMENSION_BUDGET = 4096  # tn_lift, tn_identities: largest n^N built


def voiculescu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The standard almost-commuting unitary pair: the root-of-unity diagonal
    and the cyclic shift.  ||[U_n, V_n]|| = |1 - omega_n|."""
    if n < 1:
        raise ValueError("n must be >= 1")
    omega = np.exp(2j * math.pi / n)
    u = np.diag(omega ** np.arange(1, n + 1))
    v = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        v[(j + 1) % n, j] = 1.0
    return u, v


@dataclass
class WindingResult:
    """Integer winding of the determinant path, with a stability flag set only
    when halving the step leaves the value unchanged and the path stays away
    from zero."""

    winding: int
    min_abs: float
    steps: int
    stable: bool


def _r_loop(u, v, steps: int) -> np.ndarray:
    """det((1-r) UV + r VU) over r in [0,1]; a closed loop since
    det(UV) = det(VU)."""
    uv = u @ v
    vu = v @ u
    rs = np.linspace(0.0, 1.0, steps + 1)
    return np.asarray([complex(np.linalg.det((1 - r) * uv + r * vu)) for r in rs])


def _loop_winding(points: np.ndarray) -> tuple[float, float]:
    min_abs = float(np.min(np.abs(points)))
    if min_abs < 1e-12:
        return 0.0, min_abs
    args = np.angle(points)
    d = np.diff(args)
    d = (d + math.pi) % (2 * math.pi) - math.pi
    return float(np.sum(d)) / (2 * math.pi), min_abs


def _square_winding(u, v, u2, v2, steps: int) -> tuple[int, float]:
    """Argument accumulation of det((1-r)U(t)V(t) + rV(t)U(t)) around the
    boundary of the (t, r) square.

    The two t-edges traverse det(U(t)V(t)) = det(V(t)U(t)) in opposite
    directions and cancel exactly, so the boundary total equals the r-loop
    winding at t=0 minus the r-loop winding at t=1; computing it that way
    avoids sampling the (possibly singular) straight-line edge."""
    w0, m0 = _loop_winding(_r_loop(u, v, steps))
    w1, m1 = _loop_winding(_r_loop(u2, v2, steps))
    return int(round(w0 - w1)), min(m0, m1)


def winding_number(u, v, u2, v2, steps: int = 256) -> WindingResult:
    """Winding of det((1-r)UV + rVU) around the homotopy square from (U, V)
    to the commuting pair (U2, V2).

    A nonzero stable value obstructs deforming (U, V) to (U2, V2) through
    pairs whose determinant loop avoids zero.  Loops passing within 1e-12 of
    zero clear the stability flag instead of guessing a branch.
    """
    u, v, u2, v2 = (as_matrix(m) for m in (u, v, u2, v2))
    require_same_shape(u, v, u2, v2)
    if op_norm(commutator(u2, v2)) > 1e-10 * max(1.0, op_norm(u2) * op_norm(v2)):
        raise ValueError("(U2, V2) must commute")
    w1, m1 = _square_winding(u, v, u2, v2, steps)
    w2, m2 = _square_winding(u, v, u2, v2, 2 * steps)
    min_abs = min(m1, m2)
    stable = (w1 == w2) and min_abs >= 1e-12
    return WindingResult(w2, min_abs, steps, stable)


def quarter_tridiag(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tridiagonal matrix with 1/4 couplings and a 1/2 corner, plus the
    leakage vector: the spectral window [5/8 - 1/100, 5/8 + 1/100] applied to
    the first basis vector.

    The isolated top eigenvector decays by a factor ~2 per site away from the
    corner, so the leakage is tiny in norm but concentrated at the far end.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    j = np.zeros((n, n))
    for i in range(n - 1):
        j[i, i + 1] = 0.25
        j[i + 1, i] = 0.25
    j[n - 1, n - 1] = 0.5
    eig = eig_hermitian_part(j.astype(np.complex128))
    window = (eig.eigenvalues >= 5 / 8 - 0.01) & (eig.eigenvalues <= 5 / 8 + 0.01)
    cols = eig.vectors[:, window]
    leak = cols @ (cols.conj().T @ np.eye(n)[:, 0])
    return j, np.real(leak)


def tn_lift(a, big_n: int) -> np.ndarray:
    """Macroscopic observable: the normalized sum of A acting on each tensor
    factor of an N-fold product.

    The k-th term I_p (x) A (x) I_q (p = n^(N-1-k), q = n^k) is added in
    place: A goes on the diagonal of both identity factors of the
    (p, n, q, p, n, q) view of the output, one term after the other, so no
    Kronecker product is formed.  n^N may not exceed DIMENSION_BUDGET."""
    am = as_matrix(a)
    n = am.shape[0]
    if big_n < 1:
        raise ValueError("N must be >= 1")
    if n ** big_n > DIMENSION_BUDGET:
        raise ValueError(f"dimension {n}^{big_n} exceeds the budget {DIMENSION_BUDGET}")
    dim = n ** big_n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(big_n):
        p, q = n ** (big_n - 1 - k), n ** k
        diagonal = np.einsum("iajibj->ijab", out.reshape(p, n, q, p, n, q))
        diagonal += am  # a writeable view of out
    return out / big_n


def _transposition(n: int, big_n: int, k: int) -> np.ndarray:
    """Basis permutation of (C^n)^{x N} swapping tensor factors k and k+1,
    for 0 <= k < N - 1."""
    digits = np.arange(n ** big_n).reshape((n,) * big_n)
    return digits.swapaxes(big_n - 1 - k, big_n - 2 - k).reshape(-1)


def tn_identities(a, b, big_n: int) -> dict:
    """Residuals of the exact tensor-lift identities.

    commutator: [T_N(A), T_N(B)] = (1/N) T_N([A,B]); recursion: T_{N+1} from
    T_N; covariance: T_N(UAU*) = U^{xN} T_N(A) (U*)^{xN}; the norm sandwich
    ||A||/2 <= ||T_N(A)|| <= ||A||; and commutation with the symmetric-group
    representation (adjacent transpositions generate it).  Each identity
    holds exactly, so its residual is roundoff, and the four residuals are
    Frobenius norms: upper bounds on the operator norms that need no
    decomposition.  The two norms of the sandwich are operator norms.
    """
    am, bm = as_matrix(a), as_matrix(b)
    n = am.shape[0]
    ta = tn_lift(am, big_n)
    tb = tn_lift(bm, big_n)
    comm_res = float(np.linalg.norm(commutator(ta, tb)
                                    - tn_lift(commutator(am, bm), big_n) / big_n))
    rec_res = None
    if n ** (big_n + 1) <= DIMENSION_BUDGET:
        # exact append-site recursion carrying the N/(N+1) prefactor:
        # T_{N+1}(A) = N/(N+1) T_N(A) (x) I_n + I_{n^N} (x) A/(N+1), each
        # term added on the (writeable) diagonal view of its identity factor
        d = ta.shape[0]
        rhs = np.zeros((d, n, d, n), dtype=np.complex128)
        np.einsum("iaja->aij", rhs)[...] += (big_n / (big_n + 1)) * ta
        np.einsum("iaib->iab", rhs)[...] += am / (big_n + 1)
        rec_res = float(np.linalg.norm(tn_lift(am, big_n + 1) - rhs.reshape(d * n, d * n)))
    rng = np.random.default_rng(721)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    u_small = q * (np.diag(r) / np.abs(np.diag(r)))
    # U^{xN} T_N(A) (U*)^{xN}, one tensor axis at a time: each step contracts
    # the leading axis and appends the result, so 2N steps restore the order
    conj = ta.reshape((n,) * (2 * big_n))
    for factor in [u_small.T] * big_n + [u_small.conj().T] * big_n:
        conj = np.tensordot(conj, factor, axes=(0, 0))
    cov_res = float(np.linalg.norm(tn_lift(u_small @ am @ u_small.conj().T, big_n)
                                   - conj.reshape(ta.shape)))
    norm_a = op_norm(am)
    norm_ta = op_norm(ta)
    perm_res = 0.0
    for k in range(big_n - 1):
        # [T_N(A), P] = T_N(A)[:, sigma] - T_N(A)[sigma, :]: sigma is an involution
        sigma = _transposition(n, big_n, k)
        perm_res = max(perm_res, float(np.linalg.norm(ta[:, sigma] - ta[sigma, :])))
    return {
        "dim": n ** big_n,
        "commutator_residual": comm_res,
        "recursion_residual": rec_res,
        "covariance_residual": cov_res,
        "norm_A": norm_a,
        "norm_TN": norm_ta,
        "norm_sandwich_ok": (norm_a / 2 - 1e-12 <= norm_ta <= norm_a + 1e-12),
        "permutation_residual": perm_res,
    }
