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
    adjoint,
    as_matrix,
    cluster_bounds,
    commutator,
    eig_hermitian_part,
    gram_norm,
    hermitian_commutator,
    hermitian_norm,
    hermitian_part,
    op_norm,
    orthonormal_complement,
    require_contraction,
    require_hermitian,
    require_unitary,
)
from .matio import encode_entries
from .smoothing import _normal_basis, finite_range, finite_range_normal, unitary_eig
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
GAMMA2 = 1.0  # the W-engines' error exponent: Delta = delta^(2/3), n_cut = ceil(delta^(-1/3))
SZAREK_BLOCK_THRESHOLD = 4
CHEAP_CLUSTER_RTOL = 1e-8  # cheap_commute: eigenvalues of A within it * max(1, ||A||) merge


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
            "stage_log": self.stage_log,
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


def choose_exponents(gamma2, finite_range_needed: bool = True):
    """Exponent bookkeeping (gamma0, gamma1, gamma) for the pipeline rates.

    With the finite-range averaging step the three error exponents balance at
    gamma = gamma2/(1 + 2 gamma2); without it (A already finite range) at
    gamma = gamma2/(1 + gamma2).  Exact over Fraction inputs.  The one check
    of gamma2: a value that is not finite and positive raises ValueError.
    """
    if not 0 < gamma2 < math.inf:
        raise ValueError(f"gamma2 must be finite and positive, got {gamma2}")
    one = gamma2 * 0 + 1  # preserves Fraction/float type
    gamma1 = gamma2 / (one + gamma2)
    if finite_range_needed:
        gamma0 = one / (one + gamma1)
        gamma = gamma2 / (one + 2 * gamma2)
    else:
        gamma0 = one
        gamma = gamma2 / (one + gamma2)
    return gamma0, gamma1, gamma


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


def _interval_subspace_engine(j_block: np.ndarray, dims: np.ndarray
                              ) -> tuple[int, np.ndarray | None, dict]:
    """Run the W-engine on one interval's compressed block.

    j_block acts on the eigenvectors of B inside the interval, ascending, so
    Delta-subinterval k is a run of dims[k] coordinates; returns (dim W, T,
    log entry).  T is None when W is a coordinate set, the first dim W
    coordinates: below the first empty subinterval, which is the exact
    reducing subspace, or the whole block when there is no room for a sandwich.
    Otherwise the engine is Szarek's when some subinterval holds at most
    SZAREK_BLOCK_THRESHOLD eigenvalues, Hastings' when every one holds more,
    and T = [W | W^perp] is the unitary that turns the block's coordinates
    into a basis of W followed by one of its complement.
    """
    d, n_sub = j_block.shape[0], len(dims)
    log: dict = {"dim": d, "L": n_sub}
    if n_sub < 2:
        # no room for a V_1 <= W perp V_L sandwich: keep the whole block
        log["degenerate"] = True
        log["eps2"] = 0.0
        return d, None, log
    gap = int(np.argmin(dims))  # the first empty subinterval, if any
    if dims[gap] == 0:
        k = int(sum(dims[:gap]))
        log["trivial_gap"] = gap
        # ||(1 - P_W) J P_W|| for W the coordinates below the gap
        log["eps2"] = op_norm(j_block[k:, :k])
        return k, None, log
    # the engines take a contraction
    scale = max(1.0, op_norm(j_block))
    js = j_block / scale
    log["rescale"] = scale
    sys = verify_tridiagonal(js, dims)
    if min(sys.dims) <= SZAREK_BLOCK_THRESHOLD:
        log["engine"] = "szarek"
        cert = szarek_W(sys)
    else:
        log["engine"] = "hastings"
        cfg = HastingsConfig.from_system_size(sys.L)
        cert, _ = hastings_W(sys, cfg)
        log["config"] = cfg.to_json_dict()
    log["eps2"] = cert.eps4 * scale
    # ||J_21||, rescaled: the eps2 that W = V_1 would give, to roundoff and
    # the off-band norm
    log["first_cell_eps2"] = float(sys.coupling_norms[0]) * scale
    log["certificate"] = cert.summary()
    w = cert.w_basis
    t = np.column_stack([w, orthonormal_complement(w)])
    if t.shape[1] != d:
        raise AssertionError("W and its complement do not span the interval")
    return w.shape[1], t, log


def _cell_b_distance(c: np.ndarray, on: complex, off: complex, k: int,
                     t: np.ndarray | None) -> float:
    """||B - B'|| on one cell, in B's eigen-coordinates there: B is diag(c)
    and B' is ``on`` on W, the first k columns of the cell's basis T, and
    ``off`` on W^perp, the rest.  A coordinate cell (T None) gives the
    largest |c_k - B'_kk|; a turned one the norm of its block,
    diag(c - off) - (on - off) W W*."""
    if t is None:
        return float(max(np.abs(c[:k] - on).max(initial=0.0),
                         np.abs(c[k:] - off).max(initial=0.0)))
    w = t[:, :k]
    return op_norm(np.diag(c - off) - (on - off) * (w @ w.conj().T))


def _cut_and_pinch(ht: np.ndarray, vecs: np.ndarray, spectrum: np.ndarray | None,
                   coords: np.ndarray, origin: float, n_cut: int, cell: float,
                   min_sub: float, value, *, cyclic: bool):
    """Cut B's spectrum into cells, build W per cell, regroup and pinch H,
    all in B's eigen-coordinates.

    ``ht`` is H there (V*HV, Hermitian, for the columns V of ``vecs``),
    ``spectrum`` B's eigenvalues in the same order, and ``coords`` their
    positions (the eigenvalues on the line, their phases on the circle),
    ascending, so each cell is a contiguous index range; cell i is
    [origin + i*cell, origin + (i+1)*cell).
    Uniform sub-cells at least ``min_sub`` wide fill each cell exactly:
    non-adjacent sub-cells are then far apart even across cell boundaries,
    so H stays tridiagonal on the global sub-cell list.

    Each cell contributes a square basis T_c = [W | W^perp] in its own
    coordinates and one label per column: i for W's columns (n_cut for cell
    0 on the circle, whose W joins the last regrouped space), i + 1 for
    W^perp's.  The regrouped space W_j^perp + W_{j+1} is the span of the
    columns labelled j, with the constant B-value value(j).  A gap or
    degenerate cell's W is a coordinate set, so its T_c is the identity and
    only its labels are kept; an engine cell's T_c turns its block.  With T
    the block-diagonal of the T_c and Y = T*H~T, A' = (VT)(Y o [label_l =
    label_m])(VT)* and B' = (VT diag(value(label)))(VT)*.

    B is diag(spectrum) in V's coordinates, so B - B' is block diagonal
    over the cells and ||B - B'|| is the largest cell norm
    (``_cell_b_distance``).  On the circle that holds only where
    ``unitary_eig`` reproduces B to roundoff; ``spectrum`` is None otherwise,
    and ||B - B'|| is left to the caller (None here).

    Returns (A', B' before any symmetrisation, ||B-B'||, the pinching log,
    the ||H-H'|| <= 2 max eps2 check unless some interval was degenerate).
    """
    n = ht.shape[0]
    ids = np.floor((coords - origin) / cell).astype(int)
    ids = np.maximum(np.minimum(ids, n_cut - 1), 0)
    n_sub = max(1, int(math.floor(cell / min_sub)))
    sub_width = cell / n_sub
    values = np.array([value(j) for j in range(n_cut + 1)])
    labels = np.empty(n, dtype=np.intp)
    turned: list[tuple[int, int, np.ndarray]] = []
    interval_log: list[dict] = []
    eps2_max = 0.0
    dist_b = None if spectrum is None else 0.0
    any_degenerate = False
    for s, e in zip(*cluster_bounds(ids, 0.5)):
        i = int(ids[s])
        sub = np.floor((coords[s:e] - (origin + i * cell)) / sub_width).astype(int)
        sub = np.maximum(np.minimum(sub, n_sub - 1), 0)
        k, t, log = _interval_subspace_engine(ht[s:e, s:e], np.bincount(sub, minlength=n_sub))
        log["interval"] = i
        interval_log.append(log)
        if log.get("degenerate"):
            any_degenerate = True
        eps2_max = max(eps2_max, log.get("eps2", 0.0))
        on = n_cut if cyclic and i == 0 else i
        labels[s:s + k] = on
        labels[s + k:e] = i + 1
        if t is not None:
            turned.append((s, e, t))
        if spectrum is not None:
            dist_b = max(dist_b, _cell_b_distance(spectrum[s:e], values[on],
                                                  values[i + 1], k, t))

    # Y = T*H~T and VT, turned only on the engine cells; H~ and V
    # themselves when no cell turns
    y, vt = ht, vecs
    if turned:
        y, vt = ht.copy(), vecs.copy()
        for s, e, t in turned:
            y[:, s:e] = y[:, s:e] @ t
            y[s:e, :] = t.conj().T @ y[s:e, :]
            vt[:, s:e] = vecs[:, s:e] @ t
        y += adjoint(y)
        y *= 0.5
    # per regrouped space: its share of (VT)(Y o [label_l = label_m]); its
    # block of Y is then zeroed, which leaves the part of H that H' drops.
    # When Y is this function's own copy that is done in place: the label
    # blocks are disjoint, and each is read before it is zeroed.  Labels
    # do not decrease along the index, so each space is one run, a slice,
    # except on the circle, where cell 0's W (label n_cut) leads: the run
    # labelled n_cut at the end joins it, in index order.
    dropped = y if turned else y.copy()
    edges = (np.flatnonzero(np.diff(labels)) + 1).tolist()
    spaces = [slice(s, e) for s, e in zip([0, *edges], [*edges, n])]
    if len(spaces) > 1 and labels[0] == labels[-1]:
        spaces = spaces[1:-1] + [np.r_[spaces[0], spaces[-1]]]
    vty = np.empty_like(vt)
    for idx in spaces:
        block = (idx, idx) if isinstance(idx, slice) else np.ix_(idx, idx)
        vty[:, idx] = vt[:, idx] @ y[block]
        dropped[block] = 0.0
    a_prime = vty @ vt.conj().T
    a_prime = hermitian_part(a_prime)
    b_prime = (vt * values[labels]) @ vt.conj().T

    h_h_prime = hermitian_norm(dropped)
    checks = [] if any_degenerate else [
        BoundCheck(h_h_prime, 2.0 * eps2_max + 1e-10, "||H-H'|| <= 2 max eps2")]
    log = {
        "eps2_max": eps2_max,
        "h_to_pinched": h_h_prime,
        "degenerate_intervals": any_degenerate,
        "intervals": interval_log,
    }
    return a_prime, b_prime, dist_b, log, checks


def commute_hermitian_pair(a, b) -> CommuteReport:
    """Construct commuting Hermitian (A', B') near almost-commuting (A, B).

    Steps: finite-range averaging of A against B at range Delta = delta^g0;
    partition of [-1,1] into n_cut = ceil(1/Delta^g1) intervals; per interval,
    a block-tridiagonal system over Delta-subintervals and a W-subspace from
    the engine its block sizes select; regrouped spaces W_i^perp + W_{i+1}
    carry constant B-values (left interval endpoints) and the pinching of H.
    """
    am, defect_a = require_hermitian(a, "A")
    require_contraction(am, "A")
    bm, defect_b = require_hermitian(b, "B")
    g0, g1, gamma = choose_exponents(GAMMA2, True)
    # A, B and everything built from them below are exactly Hermitian (their
    # commutators anti-Hermitian), so their norms take op_norm's kernel
    delta = hermitian_norm(1j * hermitian_commutator(am, bm))
    if delta == 0.0:
        require_contraction(bm, "B")
        return _unmoved(am, bm, delta)
    big_delta = max(delta, DELTA_FLOOR) ** g0
    n_cut = int(math.ceil(1.0 / big_delta ** g1))
    width = 2.0 / n_cut

    # bm was validated above: decomposed once, B's contraction read off its eigenvalues
    eb = require_contraction(eig_hermitian_part(bm), "B")
    fr = finite_range(am, eb, big_delta, comm=delta)
    checks = list(fr.checks)
    a_prime, b_prime, dist_b, pinch_log, pinch_checks = _cut_and_pinch(
        fr.coords, eb.vectors, eb.eigenvalues, eb.eigenvalues, -1.0, n_cut,
        width, big_delta, lambda j: 1.0 if j >= n_cut else -1.0 + j * width,
        cyclic=False)
    b_prime = hermitian_part(b_prime)

    dist_a = hermitian_norm(am - a_prime)
    res = hermitian_norm(1j * hermitian_commutator(a_prime, b_prime))
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
        "symmetrization_defects": {"A": defect_a, "B": defect_b},
        **pinch_log,
    }
    return CommuteReport(a_prime, b_prime, dist_a, dist_b, res, log, checks)


def cheap_commute(a, b) -> CommuteReport:
    """Few-eigenvalue construction: merge near-collisions of A's spectrum,
    project B onto the merged blocks.

    With m distinct eigenvalues (under CHEAP_CLUSTER_RTOL) both
    distances are at most (m / sqrt(2)) ||[A,B]||^(1/2).
    """
    am = require_contraction(require_hermitian(a, "A")[0], "A")
    bm = as_matrix(b)
    ea = eig_hermitian_part(am)
    delta = op_norm(commutator(am, bm))
    lam = ea.eigenvalues
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    # distinct eigenvalues under the clustering tolerance
    m_count = max(1, len(cluster_bounds(lam, CHEAP_CLUSTER_RTOL * scale)[0]))
    thresh, groups, a_prime = _cluster_step(ea, delta, CHEAP_CLUSTER_RTOL * scale)
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


def three_hermitian(a, b, c) -> CommuteReport:
    """Triple repair: cluster A's spectrum, pinch B and C onto the blocks,
    then repair (B, C) inside each block with the pair pipeline."""
    am, bm, cm = (require_contraction(require_hermitian(m, name)[0], name)
                  for m, name in ((a, "A"), (b, "B"), (c, "C")))
    # A, B, C and everything built from them below are exactly Hermitian
    # (their commutators anti-Hermitian), so their norms take op_norm's kernel
    delta_ab = hermitian_norm(1j * hermitian_commutator(am, bm))
    delta_ac = hermitian_norm(1j * hermitian_commutator(am, cm))
    delta_a = max(delta_ab, delta_ac)
    _, groups, a_prime = _cluster_step(eig_hermitian_part(am), delta_a, 1e-8)
    b_prime = np.zeros_like(a_prime)
    c_prime = np.zeros_like(a_prime)
    block_logs = []
    for cols in groups:
        size = cols.shape[1]
        b_blk = hermitian_part(cols.conj().T @ bm @ cols)
        c_blk = hermitian_part(cols.conj().T @ cm @ cols)
        blk_residual = hermitian_norm(1j * hermitian_commutator(b_blk, c_blk))
        if blk_residual <= 1e-13 * size:
            # the compressed pair already commutes: keep it unchanged
            blk_b, blk_c = b_blk, c_blk
            block_logs.append({"size": size, "dist_b": 0.0, "dist_c": 0.0,
                               "residual": blk_residual})
        else:
            rep = commute_hermitian_pair(b_blk, c_blk)
            blk_b, blk_c = rep.a_prime, rep.b_prime
            block_logs.append({"size": size, "dist_b": rep.dist_a,
                               "dist_c": rep.dist_b, "residual": rep.comm_residual})
        b_prime += cols @ blk_b @ cols.conj().T
        c_prime += cols @ blk_c @ cols.conj().T
    a_prime, b_prime, c_prime = map(hermitian_part, (a_prime, b_prime, c_prime))
    res = max(hermitian_norm(1j * hermitian_commutator(a_prime, b_prime)),
              hermitian_norm(1j * hermitian_commutator(a_prime, c_prime)),
              hermitian_norm(1j * hermitian_commutator(b_prime, c_prime)))
    log = {
        "delta_ab": delta_ab,
        "delta_ac": delta_ac,
        "delta_bc": hermitian_norm(1j * hermitian_commutator(bm, cm)),
        "clusters": len(groups),
        "blocks": block_logs,
    }
    return CommuteReport(a_prime, b_prime, hermitian_norm(am - a_prime),
                         hermitian_norm(bm - b_prime), res, log, [],
                         c_prime=c_prime, dist_c=hermitian_norm(cm - c_prime))


def commute_hermitian_unitary(a, u) -> CommuteReport:
    """Commuting (A', U') near an almost-commuting Hermitian/unitary pair.

    The circle is cut into arcs indexed cyclically; the finite-range step uses
    the normal variant of the averaging (range sqrt(2) Delta in the plane) and
    the last regrouped space wraps around to the first.
    """
    am = require_contraction(require_hermitian(a, "A")[0], "A")
    um = require_unitary(u, "U")
    g0, g1, _ = choose_exponents(GAMMA2, True)
    delta = gram_norm(commutator(am, um))
    if delta == 0.0:
        return _unmoved(am, um.copy(), delta)
    big_delta = max(delta, DELTA_FLOOR) ** g0
    n_cut = max(3, int(math.ceil(1.0 / big_delta ** g1)))
    arc = 2.0 * math.pi / n_cut

    # U is checked once, by the unitary gate, which also bounds ||[U, U*]||
    fr = finite_range_normal(am, unitary_eig(um), big_delta, comm=delta)
    checks = list(fr.checks)
    eu = fr.eig
    phases = np.mod(np.angle(eu.eigenvalues), 2.0 * math.pi)
    order = np.argsort(phases)
    # sub-arc width: chords at two sub-arcs' separation exceed sqrt(2)*Delta
    phi_sub = 2.0 * math.asin(min(1.0, math.sqrt(2.0) * big_delta / 2.0))
    phi_sub = max(phi_sub, 1e-12)
    a_prime, u_prime, dist_u, pinch_log, pinch_checks = _cut_and_pinch(
        fr.coords[np.ix_(order, order)], eu.vectors[:, order],
        eu.eigenvalues[order] if eu.exact else None, phases[order], 0.0,
        n_cut, arc, phi_sub, lambda j: np.exp(1j * arc * j), cyclic=True)
    if dist_u is None:
        # V diag(mu) V* misses U by more than roundoff: measure against U
        dist_u = gram_norm(um - u_prime)

    dist_a = hermitian_norm(am - a_prime)
    res = gram_norm(commutator(a_prime, u_prime))
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


def unitary_pair_gap(u, v) -> CommuteReport:
    """Commuting unitaries near (U, V) when V has a spectral arc gap.

    V is rotated so the largest gap sits at 1, mapped to a Hermitian W by the
    Cayley transform, repaired against U, and mapped back.
    """
    um = require_unitary(u, "U")
    vm = require_unitary(v, "V")
    # V's eigenvalues only locate the gap: the Rayleigh quotients of
    # unitary_eig's uncorrected basis are accurate to second order
    basis, _ = _normal_basis(vm, unitary=True)
    spectrum = np.einsum("ij,ij->j", basis.conj(), vm @ basis)
    phases = np.sort(np.mod(np.angle(spectrum), 2.0 * math.pi))
    gaps = np.diff(np.concatenate([phases, phases[:1] + 2.0 * math.pi]))
    gap_width = float(gaps.max(initial=0.0))  # an empty V has no gap
    theta_detected = gap_width / 2.0
    # a usable gap must stand out from the typical spacing, not just exist
    typical = float(np.median(gaps)) if gaps.size > 1 else 0.0
    if theta_detected < 1e-6 or gap_width < 3.0 * typical:
        raise ValueError("no detectable spectral gap on the circle")
    k = int(np.argmax(gaps))
    gap_center = float(phases[k] + gap_width / 2.0)
    # rotate so the gap midpoint lands at phase 0 (the point 1 on the circle)
    rot = complex(np.exp(-1j * gap_center))
    v_rot = rot * vm

    w = cayley_matrix_to_line(v_rot)
    delta_uv = op_norm(commutator(um, vm))
    comm_check = BoundCheck(op_norm(commutator(um, w)),
                            delta_uv / (1.0 - math.cos(theta_detected)) + 1e-12,
                            "||[U,W]|| <= ||[U,V]||/(1-cos theta)")
    w_norm = op_norm(w)
    scale = max(1.0, w_norm)
    rep = commute_hermitian_unitary(w / scale, um)
    w_prime = scale * rep.a_prime
    u_prime = rep.b_prime
    v_prime = cayley_matrix_to_circle(w_prime) / rot
    dist_w = op_norm(w - w_prime)
    dist_v = op_norm(vm - v_prime)
    v_check = BoundCheck(dist_v, 2.0 * dist_w + 1e-12, "||V-V'|| <= 2||W-W'||")
    res = op_norm(commutator(u_prime, v_prime))
    log = {
        "theta_detected": theta_detected,
        "gap_center": gap_center,
        "w_norm": w_norm,
        "w_rescale": scale,
        "dist_w": dist_w,
        "inner": rep.stage_log,
    }
    return CommuteReport(u_prime, v_prime, op_norm(um - u_prime), dist_v, res, log,
                         [comm_check, v_check] + rep.checks)


def cayley_matrix_to_line(v: np.ndarray) -> np.ndarray:
    """W = i (1 + V)(1 - V)^{-1} for unitary V without spectrum at 1."""
    n = v.shape[0]
    w = 1j * (np.eye(n) + v) @ np.linalg.inv(np.eye(n) - v)
    return hermitian_part(w)


def cayley_matrix_to_circle(w: np.ndarray) -> np.ndarray:
    """V = f(W) = (W - i)(W + i)^{-1} for a built complex Hermitian W (eig_hermitian_part)."""
    ew = eig_hermitian_part(w)
    return ew.matrix_function(lambda x: (x - 1j) / (x + 1j))


def delta_sweep(a0, b0, perturbation, deltas: Sequence[float]) -> list[dict]:
    """Run the pair pipeline on (A0 + t G)/(1+t) for a scaled perturbation G,
    one row per requested commutator size.

    A0, B0 must commute; the scaling t is chosen so the measured ||[A,B]||
    matches each requested delta, which must be finite and nonnegative.
    """
    if not all(0.0 <= want < math.inf for want in deltas):
        raise ValueError(f"each delta must be finite and nonnegative, got {list(deltas)}")
    a0 = require_contraction(require_hermitian(a0, "A0")[0], "A0")
    b0 = require_contraction(require_hermitian(b0, "B0")[0], "B0")
    g = hermitian_part(as_matrix(perturbation))
    # A0, B0 and G are exactly Hermitian: their norms take op_norm's kernel
    gn = hermitian_norm(g)
    if gn > 0:
        g = g / gn
    if hermitian_norm(1j * hermitian_commutator(a0, b0)) > 1e-10:
        raise ValueError("base pair must commute")
    base = hermitian_norm(1j * hermitian_commutator(g, b0))
    if base <= 0:
        raise ValueError("perturbation commutes with B0; sweep is empty")
    rows = []
    for want in deltas:
        t = want / base
        a = (a0 + t * g) / (1.0 + t)
        rep = commute_hermitian_pair(a, b0)
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
