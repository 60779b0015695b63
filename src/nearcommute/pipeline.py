"""End-to-end constructors of exactly commuting pairs near almost-commuting
inputs: the Hermitian pair pipeline, the cheap few-eigenvalue construction,
the three-Hermitian corollary, and the Hermitian-unitary / gapped-unitary
variants.

The output commuting pair is produced by pinching along an explicitly built
orthogonal decomposition, so the final commutator is roundoff, never an
approximation to be tuned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .checks import BoundCheck
from .matcore import (
    as_matrix,
    cluster_bounds,
    commutator,
    eig_hermitian,
    eig_hermitian_part,
    hermitian_norm_within,
    op_norm,
    op_norm_exceeds,
    orthonormal_complement,
)
from .matio import encode_entries
from .smoothing import finite_range, finite_range_normal, normal_eig
from .subspace import (
    HastingsConfig,
    hastings_W,
    szarek_W,
    verify_tridiagonal,
)

__all__ = [
    "CommuteReport",
    "choose_exponents",
    "commute_hermitian_pair",
    "cheap_commute",
    "three_hermitian",
    "commute_hermitian_unitary",
    "unitary_pair_gap",
    "delta_sweep",
]

DELTA_FLOOR = 1e-16
SZAREK_BLOCK_THRESHOLD = 4


@dataclass
class CommuteReport:
    """Commuting outputs with measured distances and the per-stage log."""

    a_prime: np.ndarray
    b_prime: np.ndarray
    dist_a: float
    dist_b: float
    comm_residual: float
    stage_log: dict = field(default_factory=dict)
    checks: list[BoundCheck] = field(default_factory=list)
    c_prime: np.ndarray | None = None
    dist_c: float | None = None

    def to_json_dict(self, include_matrices: bool = False) -> dict:
        out = {
            "dist_a": self.dist_a,
            "dist_b": self.dist_b,
            "comm_residual": self.comm_residual,
            "stage_log": _jsonable(self.stage_log),
            "checks": [c.as_dict() for c in self.checks],
        }
        if self.dist_c is not None:
            out["dist_c"] = self.dist_c
        if include_matrices:
            out["a_prime"] = encode_entries(self.a_prime)
            out["b_prime"] = encode_entries(self.b_prime)
            if self.c_prime is not None:
                out["c_prime"] = encode_entries(self.c_prime)
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, BoundCheck):
        return obj.as_dict()
    return obj


def choose_exponents(gamma2, finite_range_needed: bool = True):
    """Exponent bookkeeping (gamma0, gamma1, gamma) for the pipeline rates.

    With the finite-range averaging step the three error exponents balance at
    gamma = gamma2/(1 + 2 gamma2); without it (A already finite range) at
    gamma = gamma2/(1 + gamma2).  Exact over Fraction inputs.
    """
    if gamma2 <= 0:
        raise ValueError("gamma2 must be positive")
    one = gamma2 * 0 + 1  # preserves Fraction/float type
    gamma1 = gamma2 / (one + gamma2)
    if finite_range_needed:
        gamma0 = one / (one + gamma1)
        gamma = gamma2 / (one + 2 * gamma2)
    else:
        gamma0 = one
        gamma = gamma2 / (one + gamma2)
    return gamma0, gamma1, gamma


def _require_contraction(norm: float, name: str) -> None:
    if norm > 1.0 + 1e-9:
        raise ValueError(f"{name} must be a contraction")


def _require_contraction_cholesky(h: np.ndarray, name: str) -> None:
    """The contraction gate on an exactly Hermitian h, ||h|| <= 1 + 1e-9, by
    Cholesky factorizations (``hermitian_norm_within``): no norm is taken."""
    if not hermitian_norm_within(h, 1.0 + 1e-9):
        raise ValueError(f"{name} must be a contraction")


def _require_hermitian_contraction(m, name: str, defects: dict | None = None, *,
                                   contraction: bool = True) -> np.ndarray:
    """The Hermitian part h = (m + m*)/2 of m, after checking that m's
    Hermiticity defect is at most 1e-9 * max(1, ||m||) and, with
    ``contraction``, that ||h|| <= 1 (``_require_contraction_cholesky``).
    ||m|| is taken only for a defect above 1e-9: below it the Hermiticity
    test passes whatever the norm.  Without ``contraction`` the caller checks
    the norm."""
    mm = as_matrix(m)
    defect = op_norm(mm - mm.conj().T) / 2
    if defect > 1e-9 and defect > 1e-9 * op_norm(mm):
        raise ValueError(f"{name} must be Hermitian")
    h = (mm + mm.conj().T) / 2
    if contraction:
        _require_contraction_cholesky(h, name)
    if defects is not None:
        defects[name] = defect
    return h


def _unmoved(a: np.ndarray, b: np.ndarray, residual: float) -> CommuteReport:
    """An exactly commuting pair, returned as it came: no cut, no interval."""
    log = {"delta": residual, "n_cut": 0, "eps2_max": 0.0, "intervals": [],
           "degenerate_intervals": False}
    return CommuteReport(a, b, 0.0, 0.0, residual, log,
                         [BoundCheck(residual, 0.0, "||[A,B]|| = 0: inputs returned unmoved")])


def _cluster_step(ea, delta: float, floor: float
                  ) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Merge the eigenvalue runs of A at gaps <= sqrt(2) delta^(1/2) (``floor``
    for delta = 0).  Returns the threshold, the eigenvector columns of each
    run, and A' = sum over runs of the run's midpoint times V_g V_g*."""
    lam = ea.eigenvalues
    thresh = math.sqrt(2.0) * math.sqrt(delta) if delta > 0 else floor
    blocks, a_prime = [], np.zeros((lam.size, lam.size), dtype=np.complex128)
    for i, j in zip(*cluster_bounds(lam, thresh)):
        cols = ea.vectors[:, i:j]
        a_prime += (lam[i] + lam[j - 1]) / 2.0 * (cols @ cols.conj().T)
        blocks.append(cols)
    return thresh, blocks, a_prime


def _first_empty_subinterval(sub_ids: np.ndarray, n_sub: int) -> int | None:
    """Smallest subinterval index with no eigenvalue, or None if all occupied."""
    present = np.unique(sub_ids)
    if present.size == 0:
        return 0
    if present[0] > 0:
        return 0
    jumps = np.where(np.diff(present) > 1)[0]
    if jumps.size:
        return int(present[jumps[0]]) + 1
    if present[-1] < n_sub - 1:
        return int(present[-1]) + 1
    return None


def _interval_subspace_engine(j_block: np.ndarray, sub_ids: np.ndarray,
                              n_sub: int) -> tuple[np.ndarray, dict]:
    """Run the W-engine on one interval's compressed block.

    j_block acts on the eigenvectors of B inside the interval, grouped by
    Delta-subinterval ids; returns (W basis in block coordinates, log entry).
    An empty subinterval yields the exact reducing subspace directly, without
    materializing the (possibly enormous) block list.  Otherwise the engine
    is Szarek's when some subinterval holds at most SZAREK_BLOCK_THRESHOLD
    eigenvalues, Hastings' when every one holds more.
    """
    d = j_block.shape[0]
    log: dict = {"dim": d, "L": n_sub}
    if d == 0:
        return np.zeros((0, 0), dtype=np.complex128), log
    eye = np.eye(d, dtype=np.complex128)
    if n_sub < 2:
        # no room for a V_1 <= W perp V_L sandwich: keep the whole block
        log["degenerate"] = True
        log["eps2"] = 0.0
        return eye, log
    gap = _first_empty_subinterval(sub_ids, n_sub)
    if gap is not None:
        below = sub_ids < gap
        log["trivial_gap"] = gap
        # ||(1 - P_W) J P_W|| for W the coordinates below the gap
        log["eps2"] = op_norm(j_block[np.ix_(~below, below)])
        return eye[:, below], log
    # the engines take a contraction
    scale = max(1.0, op_norm(j_block))
    js = j_block / scale
    log["rescale"] = scale
    sys = verify_tridiagonal(js, [np.flatnonzero(sub_ids == k) for k in range(n_sub)])
    if min(sys.dims) <= SZAREK_BLOCK_THRESHOLD:
        log["engine"] = "szarek"
        cert = szarek_W(sys)
    else:
        log["engine"] = "hastings"
        cert, _ = hastings_W(sys, HastingsConfig.from_system_size(sys.L))
    log["eps2"] = cert.eps4 * scale
    log["certificate"] = cert.summary()
    return cert.w_basis, log


def _interval_b_distance(lam: np.ndarray, w: np.ndarray, on_w: float,
                         off_w: float) -> float:
    """||B - B'|| on one interval, in B's eigen-coordinates there: B' is
    ``on_w`` on the span of W and ``off_w`` on its complement, so the block
    is diag(lam) - off_w - (on_w - off_w) W W*."""
    return op_norm(np.diag(lam - off_w) - (on_w - off_w) * (w @ w.conj().T))


def _cut_and_pinch(ht: np.ndarray, vecs: np.ndarray, coords: np.ndarray,
                   origin: float, n_cut: int, cell: float, min_sub: float,
                   value, *, cyclic: bool):
    """Cut B's spectrum into cells, build W per cell, regroup and pinch H,
    all in B's eigen-coordinates.

    ``ht`` is H there (V*HV, Hermitian, for the columns V of ``vecs``) and
    ``coords`` the positions of B's eigenvalues (the eigenvalues on the line,
    their phases on the circle), ascending, so each cell is a contiguous
    index range; cell i is [origin + i*cell, origin + (i+1)*cell).
    Uniform sub-cells at least ``min_sub`` wide fill each cell exactly:
    non-adjacent sub-cells are then far apart even across cell boundaries,
    so H stays tridiagonal on the global sub-cell list.  The regrouped space
    W_j^perp + W_{j+1} (W_1 again after W_{n_cut} when ``cyclic``) lies on
    at most two cells' ranges and carries the constant B-value value(j) and
    the pinching of H.

    On the line B - B' is block diagonal over the cells, so ||B - B'|| is
    the largest of the cells' norms.  On the circle it is left to the
    caller (None here): the phases are not B's eigenvalues, and the
    V diag(mu) V* of ``normal_eig`` need not reproduce B to roundoff.

    Returns (A', B' before any symmetrisation, ||B-B'||, the pinching log,
    the ||H-H'|| <= 2 max eps2 check unless some interval was degenerate).
    """
    n = ht.shape[0]
    ids = np.floor((coords - origin) / cell).astype(int)
    ids = np.maximum(np.minimum(ids, n_cut - 1), 0)
    n_sub = max(1, int(math.floor(cell / min_sub)))
    sub_width = cell / n_sub
    # W_j is indexed 1..n_cut: W_{i+1} lives over cell i; each entry is the
    # cell's index range and a basis in the cell's coordinates
    w_parts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    wperp_parts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    interval_log: list[dict] = []
    eps2_max = 0.0
    dist_b = None if cyclic else 0.0
    any_degenerate = False
    for s, e in zip(*cluster_bounds(ids, 0.5)):
        i = int(ids[s])
        sub = np.floor((coords[s:e] - (origin + i * cell)) / sub_width).astype(int)
        sub = np.maximum(np.minimum(sub, n_sub - 1), 0)
        w_local, log = _interval_subspace_engine(ht[s:e, s:e], sub, n_sub)
        log["interval"] = i
        interval_log.append(log)
        if log.get("degenerate"):
            any_degenerate = True
        eps2_max = max(eps2_max, log.get("eps2", 0.0))
        rows = np.arange(s, e)
        w_parts[i + 1] = (rows, w_local)
        wperp_parts[i + 1] = (rows, orthonormal_complement(w_local))
        if not cyclic:
            # W_{i+1} joins the space regrouped under index i, its
            # complement the one under i + 1
            dist_b = max(dist_b, _interval_b_distance(
                coords[s:e], w_local, value(i), value(i + 1)))

    a_coords = np.zeros_like(ht)
    q_blocks, qc_blocks, values, dims = [], [], [], []
    for j in range(1 if cyclic else 0, n_cut + 1):
        nxt = j % n_cut + 1 if cyclic else j + 1
        pieces = [p for p in (wperp_parts.get(j), w_parts.get(nxt))
                  if p is not None and p[1].shape[1]]
        if not pieces:
            continue
        idx = np.concatenate([rows for rows, _ in pieces])
        basis = np.zeros((idx.size, sum(b.shape[1] for _, b in pieces)),
                         dtype=np.complex128)
        r = c = 0
        for rows, b in pieces:
            basis[r:r + rows.size, c:c + b.shape[1]] = b
            r, c = r + rows.size, c + b.shape[1]
        block = np.ix_(idx, idx)
        compressed = basis.conj().T @ ht[block] @ basis
        a_coords[block] += basis @ compressed @ basis.conj().T
        # the regrouped basis in the original coordinates
        q = vecs[:, idx] @ basis
        q_blocks.append(q)
        qc_blocks.append(q @ compressed)
        values.append(value(j))
        dims.append(c)
    if sum(dims) != n:
        raise AssertionError("regrouped subspaces do not span the space")

    q_all = np.column_stack(q_blocks)
    a_prime = np.column_stack(qc_blocks) @ q_all.conj().T
    a_prime = (a_prime + a_prime.conj().T) / 2
    b_prime = (q_all * np.repeat(values, dims)) @ q_all.conj().T

    a_coords = (a_coords + a_coords.conj().T) / 2
    h_h_prime = op_norm(ht - a_coords)
    checks = [] if any_degenerate else [
        BoundCheck(h_h_prime, 2.0 * eps2_max + 1e-10, "||H-H'|| <= 2 max eps2")]
    log = {
        "eps2_max": eps2_max,
        "h_to_pinched": h_h_prime,
        "degenerate_intervals": any_degenerate,
        "intervals": interval_log,
    }
    return a_prime, b_prime, dist_b, log, checks


def commute_hermitian_pair(a, b, gamma2: float = 1.0) -> CommuteReport:
    """Construct commuting Hermitian (A', B') near almost-commuting (A, B).

    Steps: finite-range averaging of A against B at range Delta = delta^g0;
    partition of [-1,1] into n_cut = ceil(1/Delta^g1) intervals; per interval,
    a block-tridiagonal system over Delta-subintervals and a W-subspace from
    the engine its block sizes select; regrouped spaces W_i^perp + W_{i+1}
    carry constant B-values (left interval endpoints) and the pinching of H.
    """
    defects: dict = {}
    am = _require_hermitian_contraction(a, "A", defects)
    bm = _require_hermitian_contraction(b, "B", defects, contraction=False)
    delta = op_norm(commutator(am, bm))
    if delta == 0.0:
        _require_contraction_cholesky(bm, "B")
        return _unmoved(am, bm, delta)
    g0, g1, gamma = choose_exponents(float(gamma2), True)
    big_delta = max(delta, DELTA_FLOOR) ** g0
    n_cut = int(math.ceil(1.0 / big_delta ** g1))
    width = 2.0 / n_cut

    # bm was validated above: decomposed once, with no norm taken; B's
    # contraction is read off its eigenvalues
    eb = eig_hermitian_part(bm)
    _require_contraction(np.abs(eb.eigenvalues).max(initial=0.0), "B")
    fr = finite_range(am, eb, big_delta, comm=delta)
    checks = list(fr.checks)
    a_prime, b_prime, dist_b, pinch_log, pinch_checks = _cut_and_pinch(
        fr.coords, eb.vectors, eb.eigenvalues, -1.0, n_cut, width,
        big_delta, lambda j: 1.0 if j >= n_cut else -1.0 + j * width,
        cyclic=False)
    b_prime = (b_prime + b_prime.conj().T) / 2

    dist_a = op_norm(am - a_prime)
    res = op_norm(commutator(a_prime, b_prime))
    checks.append(BoundCheck(dist_b, 2.0 / n_cut + 1e-10, "||B-B'|| <= 2/n_cut"))
    checks += pinch_checks
    log = {
        "delta": delta,
        "Delta": big_delta,
        "n_cut": n_cut,
        "gamma0": g0,
        "gamma1": g1,
        "gamma": gamma,
        "profile": fr.profile_name,
        "symmetrization_defects": defects,
        **pinch_log,
    }
    return CommuteReport(a_prime, b_prime, dist_a, dist_b, res, log, checks)


def cheap_commute(a, b, *, cluster_rtol: float = 1e-8) -> CommuteReport:
    """Few-eigenvalue construction: merge near-collisions of A's spectrum,
    project B onto the merged blocks.

    With m distinct eigenvalues (under the clustering tolerance) both
    distances are at most (m / sqrt(2)) ||[A,B]||^(1/2).
    """
    am = _require_hermitian_contraction(a, "A")
    bm = as_matrix(b)
    ea = eig_hermitian_part(am)
    delta = op_norm(commutator(am, bm))
    lam = ea.eigenvalues
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    # distinct eigenvalues under the clustering tolerance
    m_count = max(1, len(cluster_bounds(lam, cluster_rtol * scale)[0]))
    thresh, groups, a_prime = _cluster_step(ea, delta, cluster_rtol * scale)
    b_prime = np.zeros_like(a_prime)
    for cols in groups:
        b_prime += cols @ (cols.conj().T @ bm @ cols) @ cols.conj().T
    dist_a = op_norm(am - a_prime)
    dist_b = op_norm(bm - b_prime)
    bound = m_count / math.sqrt(2.0) * math.sqrt(delta)
    checks = [
        BoundCheck(dist_a, bound + 1e-12, "||A-A'|| <= (m/sqrt2) delta^(1/2)"),
        BoundCheck(dist_b, bound + 1e-12, "||B-B'|| <= (m/sqrt2) delta^(1/2)"),
    ]
    ps_reference = math.sqrt(max(m_count - 1, 0) / 2.0 * delta)
    log = {
        "delta": delta,
        "m": m_count,
        "merge_threshold": thresh,
        "groups": len(groups),
        "pearcy_shields_reference": ps_reference,
    }
    res = op_norm(commutator(a_prime, b_prime))
    return CommuteReport(a_prime, b_prime, dist_a, dist_b, res, log, checks)


def three_hermitian(a, b, c, *, gamma2: float = 1.0) -> CommuteReport:
    """Triple repair: cluster A's spectrum, pinch B and C onto the blocks,
    then repair (B, C) inside each block with the pair pipeline."""
    am = _require_hermitian_contraction(a, "A")
    bm = _require_hermitian_contraction(b, "B")
    cm = _require_hermitian_contraction(c, "C")
    delta_ab = op_norm(commutator(am, bm))
    delta_ac = op_norm(commutator(am, cm))
    delta_a = max(delta_ab, delta_ac)
    _, groups, a_prime = _cluster_step(eig_hermitian_part(am), delta_a, 1e-8)
    b_prime = np.zeros_like(a_prime)
    c_prime = np.zeros_like(a_prime)
    block_logs = []
    for cols in groups:
        size = cols.shape[1]
        b_blk = cols.conj().T @ bm @ cols
        c_blk = cols.conj().T @ cm @ cols
        b_blk = (b_blk + b_blk.conj().T) / 2
        c_blk = (c_blk + c_blk.conj().T) / 2
        if op_norm(commutator(b_blk, c_blk)) <= 1e-13 * size:
            # the compressed pair already commutes: keep it unchanged
            blk_b, blk_c = b_blk, c_blk
            block_logs.append({"size": size, "dist_b": 0.0, "dist_c": 0.0,
                               "residual": op_norm(commutator(b_blk, c_blk))})
        else:
            rep = commute_hermitian_pair(b_blk, c_blk, gamma2)
            blk_b, blk_c = rep.a_prime, rep.b_prime
            block_logs.append({"size": size, "dist_b": rep.dist_a,
                               "dist_c": rep.dist_b, "residual": rep.comm_residual})
        b_prime += cols @ blk_b @ cols.conj().T
        c_prime += cols @ blk_c @ cols.conj().T
    res = max(op_norm(commutator(a_prime, b_prime)),
              op_norm(commutator(a_prime, c_prime)),
              op_norm(commutator(b_prime, c_prime)))
    log = {
        "delta_ab": delta_ab,
        "delta_ac": delta_ac,
        "delta_bc": op_norm(commutator(bm, cm)),
        "clusters": len(groups),
        "blocks": block_logs,
    }
    return CommuteReport(a_prime, b_prime, op_norm(am - a_prime),
                         op_norm(bm - b_prime), res, log, [],
                         c_prime=c_prime, dist_c=op_norm(cm - c_prime))


def _require_unitary(m, name: str) -> np.ndarray:
    mm = as_matrix(m)
    if op_norm_exceeds(mm.conj().T @ mm - np.eye(mm.shape[0]), 1e-9):
        raise ValueError(f"{name} must be unitary")
    return mm


def commute_hermitian_unitary(a, u, gamma2: float = 1.0) -> CommuteReport:
    """Commuting (A', U') near an almost-commuting Hermitian/unitary pair.

    The circle is cut into arcs indexed cyclically; the finite-range step uses
    the normal variant of the averaging (range sqrt(2) Delta in the plane) and
    the last regrouped space wraps around to the first.
    """
    am = _require_hermitian_contraction(a, "A")
    um = _require_unitary(u, "U")
    delta = op_norm(commutator(am, um))
    if delta == 0.0:
        return _unmoved(am, um, delta)
    g0, g1, _ = choose_exponents(float(gamma2), True)
    big_delta = max(delta, DELTA_FLOOR) ** g0
    n_cut = max(3, int(math.ceil(1.0 / big_delta ** g1)))
    arc = 2.0 * math.pi / n_cut

    fr = finite_range_normal(am, um, big_delta, comm=delta)
    checks = list(fr.checks)
    eu = fr.eig
    phases = np.mod(np.angle(eu.eigenvalues), 2.0 * math.pi)
    order = np.argsort(phases)
    # sub-arc width: chords at two sub-arcs' separation exceed sqrt(2)*Delta
    phi_sub = 2.0 * math.asin(min(1.0, math.sqrt(2.0) * big_delta / 2.0))
    phi_sub = max(phi_sub, 1e-12)
    a_prime, u_prime, _, pinch_log, pinch_checks = _cut_and_pinch(
        fr.coords[np.ix_(order, order)], eu.vectors[:, order], phases[order],
        0.0, n_cut, arc, phi_sub, lambda j: np.exp(1j * arc * j),
        cyclic=True)

    dist_a = op_norm(am - a_prime)
    dist_u = op_norm(um - u_prime)
    res = op_norm(commutator(a_prime, u_prime))
    checks.append(BoundCheck(dist_u, 2.0 * math.sin(min(arc / 2.0, math.pi / 2)) + 1e-10,
                             "||U-U'|| <= chord of one arc width"))
    checks += pinch_checks
    log = {
        "delta": delta,
        "Delta": big_delta,
        "n_cut": n_cut,
        "arc_width": arc,
        **pinch_log,
    }
    return CommuteReport(a_prime, u_prime, dist_a, dist_u, res, log, checks)


def unitary_pair_gap(u, v, theta: float | None = None, *,
                     gamma2: float = 1.0) -> CommuteReport:
    """Commuting unitaries near (U, V) when V has a spectral arc gap.

    V is rotated so the largest gap sits at 1, mapped to a Hermitian W by the
    Cayley transform, repaired against U, and mapped back.
    """
    um = _require_unitary(u, "U")
    vm = _require_unitary(v, "V")
    ev = normal_eig(vm)
    phases = np.sort(np.mod(np.angle(ev.eigenvalues), 2.0 * math.pi))
    gaps = np.diff(np.concatenate([phases, [phases[0] + 2.0 * math.pi]]))
    k = int(np.argmax(gaps))
    gap_width = float(gaps[k])
    theta_detected = gap_width / 2.0
    # a usable gap must stand out from the typical spacing, not just exist
    typical = float(np.median(gaps)) if gaps.size > 1 else 0.0
    if theta_detected < 1e-6 or gap_width < 3.0 * typical:
        raise ValueError("no detectable spectral gap on the circle")
    if theta is None:
        theta = theta_detected
    elif theta > theta_detected + 1e-12:
        raise ValueError(f"requested gap radius {theta} exceeds detected {theta_detected}")
    gap_center = float(phases[k] + gap_width / 2.0)
    # rotate so the gap midpoint lands at phase 0 (the point 1 on the circle)
    rot = complex(np.exp(-1j * gap_center))
    v_rot = rot * vm

    w = cayley_matrix_to_line(v_rot)
    delta_uv = op_norm(commutator(um, vm))
    comm_check = BoundCheck(op_norm(commutator(um, w)),
                            delta_uv / (1.0 - math.cos(theta)) + 1e-12,
                            "||[U,W]|| <= ||[U,V]||/(1-cos theta)")
    scale = max(1.0, op_norm(w))
    rep = commute_hermitian_unitary(w / scale, um, gamma2)
    w_prime = scale * rep.a_prime
    u_prime = rep.b_prime
    v_prime = cayley_matrix_to_circle(w_prime) / rot
    dist_w = op_norm(w - w_prime)
    v_check = BoundCheck(op_norm(vm - v_prime), 2.0 * dist_w + 1e-12,
                         "||V-V'|| <= 2||W-W'||")
    res = op_norm(commutator(u_prime, v_prime))
    log = {
        "theta_detected": theta_detected,
        "theta": theta,
        "gap_center": gap_center,
        "w_norm": op_norm(w),
        "w_rescale": scale,
        "dist_w": dist_w,
        "inner": rep.stage_log,
    }
    return CommuteReport(u_prime, v_prime, op_norm(um - u_prime),
                         op_norm(vm - v_prime), res, log,
                         [comm_check, v_check] + rep.checks)


def cayley_matrix_to_line(v: np.ndarray) -> np.ndarray:
    """W = i (1 + V)(1 - V)^{-1} for unitary V without spectrum at 1."""
    n = v.shape[0]
    w = 1j * (np.eye(n) + v) @ np.linalg.inv(np.eye(n) - v)
    return (w + w.conj().T) / 2


def cayley_matrix_to_circle(w: np.ndarray) -> np.ndarray:
    """V = f(W) = (W - i)(W + i)^{-1} for Hermitian W (via eigendecomposition)."""
    ew = eig_hermitian(w, rtol=1e-8)
    return ew.matrix_function(lambda x: (x - 1j) / (x + 1j))


def delta_sweep(a0, b0, perturbation, deltas: Sequence[float],
                gamma2: float = 1.0) -> list[dict]:
    """Run the pair pipeline on (A0 + t G)/(1+t) for a scaled perturbation G,
    one row per requested commutator size.

    A0, B0 must commute; the scaling t is chosen so the measured ||[A,B]||
    matches each requested delta.
    """
    a0 = _require_hermitian_contraction(a0, "A0")
    b0 = _require_hermitian_contraction(b0, "B0")
    g = as_matrix(perturbation)
    g = (g + g.conj().T) / 2
    gn = op_norm(g)
    if gn > 0:
        g = g / gn
    if op_norm(commutator(a0, b0)) > 1e-10:
        raise ValueError("base pair must commute")
    base = op_norm(commutator(g, b0))
    if base <= 0:
        raise ValueError("perturbation commutes with B0; sweep is empty")
    rows = []
    for want in deltas:
        t = want / base
        a = (a0 + t * g) / (1.0 + t)
        rep = commute_hermitian_pair(a, b0, gamma2)
        rows.append({
            "delta": rep.stage_log["delta"],
            "requested_delta": want,
            "dist_a": rep.dist_a,
            "dist_b": rep.dist_b,
            "eps2_max": rep.stage_log["eps2_max"],
            "n_cut": rep.stage_log["n_cut"],
            "comm_residual": rep.comm_residual,
        })
    return rows
