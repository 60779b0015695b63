"""Acceptance criteria.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS/FAIL line (run with -s to see them).  Tolerances are pinned
here; nothing is deferred to later calibration.
"""

import math
import time
from fractions import Fraction

import numpy as np

from nearcommute import bounds as bd
from nearcommute import gallery as gl
from nearcommute import matcore as mc
from nearcommute import pipeline as pl
from nearcommute import projgeom as pg
from nearcommute import smoothing as sm
from nearcommute import subspace as sb


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE [{name}]: {status} {detail}")
    assert ok, f"{name}: {detail}"


QUARTER_N10 = [0.0016, 0.0040, 0.0084, 0.0171, 0.0343, 0.0686,
               0.1373, 0.2747, 0.5493, 1.0987]


def test_quarter_tridiagonal_reproduction():
    t0 = time.monotonic()
    _, leak10 = gl.quarter_tridiag(10)
    ok10 = all(abs(got - want) <= 1.05e-4
               for got, want in zip(leak10 * 1e3, QUARTER_N10))
    _, leak50 = gl.quarter_tridiag(50)
    tail = leak50[-3:] * 1e15
    ok50_vals = all(abs(got / want - 1.0) <= 0.05
                    for got, want in zip(tail, (0.251, 0.502, 1.004)))
    r1 = leak50[-1] / leak50[-2]
    r2 = leak50[-2] / leak50[-3]
    ok50_ratio = (1.9 <= r1 <= 2.1) and (1.9 <= r2 <= 2.1)
    elapsed = time.monotonic() - t0
    _report("quarter-tridiagonal", ok10 and ok50_vals and ok50_ratio and elapsed < 1.0,
            f"n10_match={ok10} n50_pattern={ok50_vals} ratios=({r1:.3f},{r2:.3f}) "
            f"time={elapsed:.2f}s")


def test_finite_range_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    prof = sm.poly_bump_profile()
    worst_coupling = 0.0
    worst_slack = math.inf
    for trial in range(200):
        n = int(rng.integers(4, 33))
        a = mc.random_hermitian(rng, n, norm=1.0)
        b = mc.random_hermitian(rng, n, norm=1.0)
        delta = float(rng.uniform(0.15, 1.0))
        eb = mc.eig_hermitian(b)
        comm = mc.op_norm(mc.commutator(a, b))
        res = sm.finite_range(a, eb, delta, comm=comm)
        lam = eb.eigenvalues
        for cut in np.linspace(lam[0], lam[-1] - delta, 4):
            v1, v2 = eb.vectors[:, lam <= cut], eb.vectors[:, lam >= cut + delta]
            worst_coupling = max(worst_coupling, mc.op_norm(v1.conj().T @ res.matrix @ v2))
        slack = (prof.c0 / delta) * comm - mc.op_norm(a - res.matrix)
        worst_slack = min(worst_slack, slack)
    elapsed = time.monotonic() - t0
    _report("finite-range-exactness",
            worst_coupling <= 1e-10 and worst_slack >= -1e-9 and elapsed < 30.0,
            f"max_coupling={worst_coupling:.2e} min_slack={worst_slack:.3e} "
            f"time={elapsed:.1f}s")


def test_inequality_suites():
    t0 = time.monotonic()
    trials = 500
    violations = {}

    rng = np.random.default_rng(11)
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(4, 17))
        a = mc.random_hermitian(rng, n, norm=1.0)
        b = a + mc.random_hermitian(rng, n, norm=float(rng.uniform(0.01, 0.3)))
        lo, hi = np.sort(rng.uniform(-1, 1, 2))
        gap = float(rng.uniform(0.05, 0.5))
        try:
            chk = bd.check_davis_kahan(mc.eig_hermitian(a), mc.eig_hermitian(b),
                                       lambda x: lo <= x <= hi,
                                       lambda x: x < lo - gap or x > hi + gap,
                                       delta_gap=gap, diff=mc.op_norm(a - b))
            bad += 0 if chk.passed else 1
        except ValueError:
            pass
    violations["davis_kahan"] = bad

    rng = np.random.default_rng(12)
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(4, 21))
        c = mc.random_hermitian(rng, n, norm=1.0)
        d = mc.random_hermitian(rng, n, norm=1.0)
        med = float(np.median(np.linalg.eigvalsh(d)))
        sep = float(rng.uniform(0.05, 0.4))
        try:
            chk = bd.check_comm_proj(c, mc.eig_hermitian(d), lambda x: x <= med,
                                     lambda x: x > med + sep,
                                     comm=mc.op_norm(mc.commutator(c, d)))
            bad += 0 if chk.passed else 1
        except ValueError:
            pass
    violations["comm_proj"] = bad

    rng = np.random.default_rng(13)
    bad = 0
    for _ in range(trials):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        t = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        dsep = float(rng.uniform(0.05, 2.0))
        av = rng.uniform(dsep, dsep + 4, rows)
        bv = -rng.uniform(0, 4, cols)
        bad += 0 if bd.schur_divide(t, av, bv, dsep).passed else 1
    violations["schur_divide"] = bad

    rng = np.random.default_rng(14)
    prof = sm.smooth_profile(0.1, 0.9)
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(4, 13))
        a = mc.random_hermitian(rng, n, norm=1.0)
        b = mc.random_hermitian(rng, n, norm=1.0)
        chk = bd.fourier_commutator_bound(prof, mc.eig_hermitian(a), b,
                                          comm=mc.op_norm(mc.commutator(a, b)))
        bad += 0 if chk.passed else 1
    violations["fourier"] = bad

    rng = np.random.default_rng(15)
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(12, 30))
        b = np.diag(np.arange(1.0, n + 1.0))
        h = mc.random_hermitian(rng, n)
        band = int(rng.integers(1, 4))
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= band
        h = h * mask
        h = h / max(1.0, mc.op_norm(h))
        delta = band + 1.0
        cut = int(rng.integers(2, n - int(delta) - 3))
        sep = int(rng.integers(int(delta) + 1, int(delta) + 4))
        tval = float(rng.uniform(0, sep / (math.e ** 2 * delta)))
        try:
            chk = bd.lieb_robinson_decay(mc.eig_hermitian(h), mc.eig_hermitian(b), delta,
                                         lambda x: x <= cut,
                                         lambda x: x >= cut + sep, tval)
            bad += 0 if chk.passed else 1
        except ValueError:
            pass
    violations["lieb_robinson"] = bad

    # sharpness: the projection compression of the off-diagonal 2x2 equals
    # the commutator bound exactly
    d = np.diag([0.15, 0.85]).astype(complex)
    c = 0.31 * np.array([[0, 1], [1, 0]], dtype=complex)
    sharp = bd.check_comm_proj(c, mc.eig_hermitian(d), lambda x: x < 0.5, lambda x: x > 0.5,
                               comm=mc.op_norm(mc.commutator(c, d)))
    sharp_ok = abs(sharp.lhs - sharp.rhs) <= 1e-12

    elapsed = time.monotonic() - t0
    total = sum(violations.values())
    _report("inequality-suites", total == 0 and sharp_ok and elapsed < 120.0,
            f"violations={violations} sharpness_gap={abs(sharp.lhs - sharp.rhs):.2e} "
            f"time={elapsed:.1f}s")


def test_projection_geometry():
    rng = np.random.default_rng(31)
    recon_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        q1, q2 = mc.random_unitary(rng, n), mc.random_unitary(rng, n)
        r1, r2 = int(rng.integers(1, n)), int(rng.integers(1, n))
        pb, qb = q1[:, :r1], q2[:, :r2]
        dec = pg.jordan_blocks(pb, qb)
        pr, qr = dec.reconstruct()
        recon_worst = max(recon_worst, mc.op_norm(pr - pb @ pb.conj().T),
                          mc.op_norm(qr - qb @ qb.conj().T))

    rng = np.random.default_rng(32)
    nest_bad = 0
    sandwich_worst = 0.0
    n = 12
    for _ in range(500):
        cols = mc.random_unitary(rng, n)[:, :8]
        g = cols @ cols.conj().T
        e = cols[:, :3] @ cols[:, :3].conj().T
        mid = cols[:, :5] @ cols[:, :5].conj().T
        h = mc.random_hermitian(rng, n, norm=float(rng.uniform(0.002, 0.04)))
        w, v = np.linalg.eigh(mid + h)
        f, chk = pg.nest_projection(cols[:, :3], cols[:, 3:], v[:, w > 0.5])
        nest_bad += 0 if chk.passed else 1
        pf = f @ f.conj().T
        sandwich_worst = max(sandwich_worst,
                             mc.op_norm(e @ (np.eye(n) - pf)),
                             mc.op_norm(pf @ (np.eye(n) - g)))
    _report("projection-geometry",
            recon_worst <= 1e-10 and nest_bad == 0 and sandwich_worst <= 1e-10,
            f"jordan_recon={recon_worst:.2e} nest_violations={nest_bad} "
            f"sandwich={sandwich_worst:.2e}")


def test_szarek_engine():
    rng = np.random.default_rng(41)
    all_ok = True
    worst_eps4 = 0.0
    for trial in range(50):
        sys = sb.random_block_tridiagonal(rng, [1] * 40)
        cert = sb.szarek_W(sys)
        all_ok = all_ok and cert.contains_V1 and cert.perp_VL and np.isfinite(cert.eps4)
        worst_eps4 = max(worst_eps4, cert.eps4)
    # decoupled system: exact reducing subspace
    sys = sb.random_block_tridiagonal(rng, [1] * 40)
    j = sys.j.copy()
    j[20, 19] = j[19, 20] = 0.0
    sys2 = sb.verify_tridiagonal(j / max(1.0, mc.op_norm(j)), sys.dims)
    cert2 = sb.szarek_W(sys2)
    decoupled_ok = cert2.eps4 <= 1e-10
    _report("szarek-engine", all_ok and decoupled_ok,
            f"structural_flags={all_ok} max_eps4={worst_eps4:.3f} "
            f"decoupled_eps4={cert2.eps4:.2e}")


def test_hastings_engine_desk_scale():
    rng = np.random.default_rng(7)
    sys = sb.random_block_tridiagonal(rng, [2] * 60)
    cfg = sb.HastingsConfig(n_win=24, l_b=4, lambda_min=1e-4)
    chi = sb.HASTINGS_CHI
    cert, diag = sb.hastings_W(sys, cfg)  # stage gates raise on failure
    comm_max = max(diag.stage_values["commutators"].values())
    semi = diag.stage_values["semi_orthogonality"]
    fit = sb.decay_check_U(diag, rng=np.random.default_rng(11))
    m, cs, ds, x = sb.proof_matrix_M(diag)
    m_ok = m.shape[0] > 0
    if m_ok:
        res = pg.tridiag_positive_test(m - x * np.eye(m.shape[0]), cs, ds)
        m_ok = res.positive
    ok = (cert.contains_V1 and cert.perp_VL
          and comm_max <= 1 - chi + 1e-9
          and semi <= 0.5 - chi / 2 + 1e-9
          and m_ok and fit["alpha"] < 1.0)
    _report("hastings-engine", ok,
            f"comm_max={comm_max:.3f}<=({1 - chi}) semi={semi:.2e} "
            f"M_positive_at_x={m_ok} alpha={fit['alpha']:.4f}")


def test_end_to_end_pipeline():
    t0 = time.monotonic()
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    a = gl.tn_lift(x, 6)
    b = gl.tn_lift(z, 6)
    rep = pl.commute_hermitian_pair(a, b, 1.0)
    tensor_ok = (rep.comm_residual <= 1e-10
                 and rep.dist_b <= 2.0 / rep.stage_log["n_cut"] + 1e-10)

    rng = np.random.default_rng(51)
    lam = np.sort(rng.uniform(-1, 1, 32))
    q = mc.random_unitary(rng, 32)
    a0 = q @ np.diag(lam) @ q.conj().T
    b0 = q @ np.diag(0.9 * np.cos(3 * lam)) @ q.conj().T
    a0, b0 = (a0 + a0.conj().T) / 2, (b0 + b0.conj().T) / 2
    g = mc.random_hermitian(rng, 32, norm=1.0)
    rows = pl.delta_sweep(a0, b0, g, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    da = [r["dist_a"] for r in rows]
    db = [r["dist_b"] for r in rows]
    sweep_ok = (all(da[i] >= da[i + 1] - 1e-12 for i in range(4))
                and all(db[i] >= db[i + 1] - 1e-12 for i in range(4)))
    elapsed = time.monotonic() - t0
    _report("end-to-end-pipeline", tensor_ok and sweep_ok and elapsed < 120.0,
            f"residual={rep.comm_residual:.2e} dist_b={rep.dist_b:.3f}"
            f"<=2/{rep.stage_log['n_cut']} sweep_monotone={sweep_ok} "
            f"time={elapsed:.1f}s")


def test_tensor_lift_identities():
    worst = 0.0
    ok = True
    rng = np.random.default_rng(61)
    for n in (2, 3):
        for big_n in range(2, 6):
            if n ** big_n > 4096 or n ** (big_n + 1) > 4096:
                continue
            a = mc.random_hermitian(rng, n, norm=1.0)
            b = mc.random_hermitian(rng, n, norm=1.0)
            out = gl.tn_identities(a, b, big_n)
            dim = out["dim"]
            for key in ("commutator_residual", "recursion_residual",
                        "covariance_residual", "permutation_residual"):
                if out[key] is None:
                    continue
                worst = max(worst, out[key] / (1e-12 * dim))
                ok = ok and out[key] <= 1e-12 * dim
            ok = ok and out["norm_sandwich_ok"]
    t3 = gl.tn_lift(np.diag([0.0, 1.0]), 3)
    w = np.round(np.linalg.eigvalsh(t3), 10)
    spectrum = {}
    for val in w:
        spectrum[float(val)] = spectrum.get(float(val), 0) + 1
    want = {0.0: 1, round(1 / 3, 10): 3, round(2 / 3, 10): 3, 1.0: 1}
    spec_ok = spectrum == want
    _report("tensor-lift-identities", ok and spec_ok,
            f"worst_residual_ratio={worst:.3f} spectrum_ok={spec_ok}")


def test_voiculescu_and_winding():
    worst = 0.0
    for n in range(1, 65):
        u, v = gl.voiculescu(n)
        target = abs(1 - np.exp(2j * math.pi / n)) if n > 1 else 0.0
        worst = max(worst, abs(mc.op_norm(mc.commutator(u, v)) - target))
    u8, v8 = gl.voiculescu(8)
    eye = np.eye(8, dtype=complex)
    res = gl.winding_number(u8, v8, eye, eye, steps=256)
    d = np.diag(np.exp(1j * np.linspace(0.3, 2.0, 8)))
    res0 = gl.winding_number(d, eye, d, eye, steps=128)
    ok = (worst <= 1e-10 and res.winding != 0 and res.stable
          and res0.winding == 0 and res0.stable)
    _report("voiculescu-winding", ok,
            f"max_norm_error={worst:.2e} winding={res.winding} "
            f"stable={res.stable} self={res0.winding}")


def test_exponent_bookkeeping():
    _, _, g_one = pl.choose_exponents(Fraction(1), True)
    _, _, g_ninth = pl.choose_exponents(Fraction(1, 9), False)
    _, _, g_quarter = pl.choose_exponents(Fraction(1, 4), True)
    ok = (g_one == Fraction(1, 3) and g_ninth == Fraction(1, 10)
          and g_quarter == Fraction(1, 6))
    _report("exponent-bookkeeping", ok,
            f"gamma(1)={g_one} gamma(1/9,noFR)={g_ninth} gamma(1/4)={g_quarter}")
