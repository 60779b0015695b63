"""Geometry of projection pairs: two-projection block decomposition,
nested-projection repair, and tridiagonal positivity certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import BoundCheck
from .matcore import (
    as_matrix,
    eig_hermitian_part,
    op_norm,
    op_norm_exceeds,
    orthonormal_columns,
    orthonormal_complement,
    require_hermitian,
)

__all__ = [
    "JordanBlock",
    "JordanDecomposition",
    "jordan_blocks",
    "jordan_basis",
    "nest_projection",
    "nest_projection_core",
    "tridiag_positive_test",
]

PROJ_TOL = 1e-8
JORDAN_TOL = 1e-10  # jordan_blocks: cos^2 within 10 JORDAN_TOL of 0 or 1 makes 1-dim blocks
NEST_MAX_EPS = 0.1  # nest_projection: eps must be below it


def _require_projection(p, name: str) -> np.ndarray:
    m = as_matrix(p)
    if op_norm_exceeds(m @ m - m, PROJ_TOL) or op_norm_exceeds(m - m.conj().T, PROJ_TOL):
        raise ValueError(f"{name} is not an orthogonal projection to tolerance")
    return m


def _require_orthonormal(basis: np.ndarray, name: str) -> None:
    """Raise ValueError unless the k x k Gram matrix of ``basis`` is the
    identity to PROJ_TOL."""
    if op_norm_exceeds(basis.conj().T @ basis - np.eye(basis.shape[1]), PROJ_TOL):
        raise ValueError(f"the {name} columns are not orthonormal")


@dataclass(frozen=True)
class JordanBlock:
    """One invariant block of a projection pair: 1 or 2 orthonormal columns
    plus the restrictions of P and Q to the block."""

    basis: np.ndarray
    p_restricted: np.ndarray
    q_restricted: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class JordanDecomposition:
    blocks: list[JordanBlock]

    @property
    def dims(self) -> list[int]:
        return [b.dim for b in self.blocks]

    def full_basis(self) -> np.ndarray:
        return np.column_stack([b.basis for b in self.blocks])

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, Q) rebuilt from the block restrictions."""
        n = self.blocks[0].basis.shape[0]
        p = np.zeros((n, n), dtype=np.complex128)
        q = np.zeros((n, n), dtype=np.complex128)
        for blk in self.blocks:
            p += blk.basis @ blk.p_restricted @ blk.basis.conj().T
            q += blk.basis @ blk.q_restricted @ blk.basis.conj().T
        return p, q


def jordan_blocks(p, q) -> JordanDecomposition:
    """Orthogonal decomposition into blocks of dimension <= 2, each invariant
    under both projections.

    The generic part comes from the eigenvectors of Q compressed to Ran(P);
    an eigenvalue cos^2(theta) farther than 10 JORDAN_TOL from 0 and 1 pairs
    its eigenvector with its Q-image into a 2-dim block.  Everything else
    splits into 1-dim blocks.
    """
    pm = _require_projection(p, "P")
    qm = _require_projection(q, "Q")
    if pm.shape != qm.shape:
        raise ValueError("P and Q must act on the same space")
    n = pm.shape[0]
    blocks: list[JordanBlock] = []
    used: list[np.ndarray] = []

    up = orthonormal_columns(pm, tol=0.5)
    if up.shape[1]:
        comp = up.conj().T @ qm @ up
        ec = eig_hermitian_part(comp)
        for idx in range(ec.dim):
            lam = float(ec.eigenvalues[idx])
            pvec = up @ ec.vectors[:, idx]
            if lam <= JORDAN_TOL * 10 or lam >= 1 - JORDAN_TOL * 10:
                basis = pvec[:, None]
                used.append(pvec)
                blocks.append(JordanBlock(
                    basis,
                    np.array([[1.0 + 0j]]),
                    np.array([[complex(lam >= 0.5)]]),
                ))
            else:
                qv = qm @ pvec
                w = qv - (pvec.conj() @ qv) * pvec
                w = w / np.linalg.norm(w)
                basis = np.column_stack([pvec, w])
                used.extend([pvec, w])
                blocks.append(JordanBlock(
                    basis,
                    basis.conj().T @ pm @ basis,
                    basis.conj().T @ qm @ basis,
                ))
    # Remainder lives in ker(P); Q restricts to it.
    rem = orthonormal_complement(np.column_stack(used) if used else np.zeros((n, 0)))
    if rem.shape[1]:
        comp = rem.conj().T @ qm @ rem
        ec = eig_hermitian_part(comp)
        for idx in range(ec.dim):
            lam = float(ec.eigenvalues[idx])
            vec = rem @ ec.vectors[:, idx]
            blocks.append(JordanBlock(
                vec[:, None],
                np.array([[0.0 + 0j]]),
                np.array([[complex(lam >= 0.5)]]),
            ))
    return JordanDecomposition(blocks)


def jordan_basis(p_basis: np.ndarray, q_basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis {p_i} of Ran(P) with (p_i, Q p_j) = 0 for i != j,
    from orthonormal bases of Ran(P) and Ran(Q).

    Columns are the eigenvectors of Q compressed to Ran(P), lifted back.
    Raises ValueError when either basis is not orthonormal to PROJ_TOL.
    """
    _require_orthonormal(p_basis, "P")
    _require_orthonormal(q_basis, "Q")
    if p_basis.shape[1] == 0:
        return p_basis
    c = q_basis.conj().T @ p_basis
    return p_basis @ eig_hermitian_part(c.conj().T @ c).vectors


def nest_projection_core(e_basis, mid_basis, f_basis) -> np.ndarray:
    """Structural construction of F with E <= F <= G, from orthonormal bases
    of Ran E, Ran(G - E) and Ran F'.

    Returns an orthonormal basis of F: the columns of ``e_basis`` followed by
    the above-half eigenvectors of F' compressed to Ran(G - E).  Raises
    ValueError when the Gram matrix of [e_basis | mid_basis] or of
    ``f_basis`` is not the identity to PROJ_TOL.
    """
    _require_orthonormal(np.column_stack([e_basis, mid_basis]), "[E | G - E]")
    _require_orthonormal(f_basis, "F'")
    c = mid_basis.conj().T @ f_basis
    ec = eig_hermitian_part(c @ c.conj().T)
    return np.column_stack([e_basis, mid_basis @ ec.vectors[:, ec.eigenvalues > 0.5]])


def nest_projection(e, g, f_prime) -> tuple[np.ndarray, BoundCheck]:
    """Repair F' into F with E <= F <= G exactly, keeping ||F - F'|| <= 5 eps
    where eps = max(||E F'perp||, ||F' Gperp||).

    Returns an orthonormal basis of F.  The sandwich holds by construction;
    the 5-eps distance is returned as a BoundCheck.  Requires eps <
    NEST_MAX_EPS (the bound is vacuous otherwise).
    """
    em = _require_projection(e, "E")
    gm = _require_projection(g, "G")
    fm = _require_projection(f_prime, "F'")
    n = em.shape[0]
    eps = max(op_norm(em @ (np.eye(n) - fm)), op_norm(fm @ (np.eye(n) - gm)))
    if eps >= NEST_MAX_EPS:
        raise ValueError(f"eps = {eps:.3e} too large for nest_projection (>= {NEST_MAX_EPS})")
    if op_norm_exceeds(em - gm @ em, PROJ_TOL):
        raise ValueError("E <= G fails")
    basis = nest_projection_core(*(orthonormal_columns(m, tol=0.5)
                                   for m in (em, gm - em, fm)))
    check = BoundCheck(op_norm(basis @ basis.conj().T - fm), 5.0 * eps,
                       "nest_projection ||F-F'|| <= 5eps")
    return basis, check


@dataclass
class TridiagPositivity:
    """Result of the tridiagonal positivity certificate."""

    positive: bool
    witness: np.ndarray          # the comparison matrix D
    witness_factor: np.ndarray   # G with G*G + |b_n|^2 e_nn = D
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.positive


def tridiag_positive_test(m, c, d) -> TridiagPositivity:
    """Certify positivity of a Hermitian tridiagonal M with M_ii >= c_i^2+d_i^2
    and |M_{i,i+1}| <= d_i c_{i+1}.

    Builds the comparison matrix D (with factor G satisfying G*G + |b_n|^2
    e_nn = D) whose off-diagonal matches M and whose diagonal is dominated by
    M's; then M >= D >= 0.  Raises when the hypotheses fail - that is
    "test not applicable", not "not positive".

    The hypotheses themselves give M >= D >= 0 (up to their 1e-12
    tolerances), so ``positive``, min eig(M) >= -1e-10 max(1, ||M||), is the
    lemma's conclusion measured, and no input meeting them is expected to
    return False; a falsy record is built directly where one is needed.
    """
    mm = as_matrix(m)
    n = mm.shape[0]
    cv = np.asarray(c, dtype=float)
    dv = np.asarray(d, dtype=float)
    if cv.shape != (n,) or dv.shape != (n,):
        raise ValueError("c, d must have one entry per row")
    if np.any(cv < 0) or np.any(dv < 0):
        raise ValueError("c, d must be nonnegative")
    h, _ = require_hermitian(mm, "M")
    scale = max(1.0, op_norm(mm))
    band_max = float(np.max(np.triu(np.abs(mm), 2))) if n > 2 else 0.0
    if band_max > 1e-12 * scale:
        raise ValueError("M must be tridiagonal")
    diag = np.real(np.diag(mm))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(mm))))
    if np.any(diag + tol < cv ** 2 + dv ** 2):
        raise ValueError("hypothesis M_ii >= c_i^2 + d_i^2 violated")
    off = np.diag(mm, 1)
    if np.any(np.abs(off) > dv[:-1] * cv[1:] + tol):
        raise ValueError("hypothesis |M_{i,i+1}| <= d_i c_{i+1} violated")

    # comparison matrix: a_i = c_i; b_i matched to M's off-diagonal phases
    a = cv.astype(np.complex128)
    b = np.zeros(n, dtype=np.complex128)
    coupled = dv[:-1] * cv[1:] > 0
    b[:-1][coupled] = np.conj(off[coupled]) / cv[1:][coupled]
    b[n - 1] = dv[n - 1]
    upper = np.conj(b[:-1]) * a[1:]
    dd = np.diag(np.abs(a) ** 2 + np.abs(b) ** 2) + np.diag(upper, 1) + np.diag(np.conj(upper), -1)
    gmat = np.diag(a) + np.diag(b[:-1], -1)
    ident = gmat.conj().T @ gmat
    ident[n - 1, n - 1] += np.abs(b[n - 1]) ** 2
    if op_norm_exceeds(ident - dd, 1e-10 * max(1.0, op_norm(dd))):
        raise AssertionError("witness identity G*G + b_n^2 e_nn = D failed")

    min_eig = float(np.min(np.linalg.eigvalsh(h)))
    positive = min_eig >= -1e-10 * scale
    return TridiagPositivity(positive, dd, gmat, min_eig)
