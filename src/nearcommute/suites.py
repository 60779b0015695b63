"""Seeded property suites behind `nearcommute verify` and the test harness.

Every suite draws hypothesis-satisfying random instances, evaluates the
corresponding checkers, and counts slack violations; the inequalities are
theorems, so any violation is a bug.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as bd
from .checks import BoundCheck
from .matcore import (
    eig_hermitian,
    interval_projection,
    op_norm,
    random_hermitian,
    random_unitary,
)
from .projgeom import jordan_blocks, nest_projection
from .smoothing import (
    finite_range,
    partition_of_unity,
    poly_bump_profile,
    scaling_identity_residual,
    smooth_profile,
)
from .gallery import tn_identities, tn_lift

__all__ = ["run_suite", "SUITES"]


def _tally(name: str, trials: int, failures: list[str]) -> dict:
    return {
        "suite": name,
        "trials": trials,
        "violations": len(failures),
        "failures": failures[:20],
    }


def _record(failures: list[str], check: BoundCheck) -> None:
    if not check.passed:
        failures.append(f"{check.context}: lhs={check.lhs:.6e} rhs={check.rhs:.6e}")


def suite_bounds(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    prof = smooth_profile(0.0, 1.0)
    for t in range(trials):
        n = int(rng.integers(4, 17))
        a = random_hermitian(rng, n, norm=1.0)
        b = a + random_hermitian(rng, n, norm=float(rng.uniform(0.01, 0.3)))
        # davis-kahan sandwich around a random spectral window of a
        ea = eig_hermitian(a)
        lo, hi = np.sort(rng.uniform(-1, 1, 2))
        gap = float(rng.uniform(0.05, 0.5))
        picked = (ea.eigenvalues >= lo) & (ea.eigenvalues <= hi)
        if np.any(picked):
            try:
                chk = bd.check_davis_kahan(
                    a, b,
                    lambda x: lo <= x <= hi,
                    lambda x: x < lo - gap or x > hi + gap,
                    delta_gap=gap)
                _record(failures, chk)
            except ValueError:
                pass
        # comm-proj
        c = random_hermitian(rng, n, norm=1.0)
        d = random_hermitian(rng, n, norm=1.0)
        med = float(np.median(np.linalg.eigvalsh(d)))
        try:
            chk = bd.check_comm_proj(c, d, lambda x: x <= med, lambda x: x > med + 0.1)
            _record(failures, chk)
        except ValueError:
            pass
        # schur divide
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        t_mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        dsep = float(rng.uniform(0.1, 2.0))
        av = rng.uniform(dsep, dsep + 3, rows)
        bv = -rng.uniform(0, 3, cols)
        _record(failures, bd.schur_divide(t_mat, av, bv, dsep))
        # fourier commutator
        _record(failures, bd.fourier_commutator_bound(prof, a, b))
    return _tally("bounds", trials, failures)


def suite_lieb_robinson(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    prof = smooth_profile(0.0, 1.0)
    for t in range(trials):
        n = int(rng.integers(10, 30))
        b = np.diag(np.arange(1.0, n + 1.0))
        band = int(rng.integers(1, 4))
        h = random_hermitian(rng, n)
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= band
        h = h * mask
        h = h / max(1.0, op_norm(h))
        delta = band + 1.0
        cut = int(rng.integers(2, n - 2))
        sep = int(rng.integers(int(delta) + 1, int(delta) + 5))
        s1 = lambda x, c=cut: x <= c
        s2 = lambda x, c=cut, s=sep: x >= c + s
        dist = sep
        tmax = dist / (math.e ** 2 * delta)
        tval = float(rng.uniform(0, tmax))
        try:
            _record(failures, bd.lieb_robinson_decay(h, b, delta, s1, s2, tval))
            _record(failures, bd.lieb_robinson_function(h, b, delta, s1, s2, prof))
            inner = lambda x, c=cut, s=sep: c + 2 <= x <= c + s - 2
            outer = lambda x, c=cut, s=sep: c + 1 <= x <= c + s - 1
            _record(failures, bd.lieb_robinson_nested(h, b, delta, inner, outer, prof))
        except ValueError:
            pass
    return _tally("lieb-robinson", trials, failures)


def suite_projections(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for t in range(trials):
        n = int(rng.integers(4, 17))
        q1 = random_unitary(rng, n)
        q2 = random_unitary(rng, n)
        r1, r2 = int(rng.integers(1, n)), int(rng.integers(1, n))
        p = q1[:, :r1] @ q1[:, :r1].conj().T
        q = q2[:, :r2] @ q2[:, :r2].conj().T
        dec = jordan_blocks(p, q)
        pr, qr = dec.reconstruct()
        if op_norm(pr - p) > 1e-10 or op_norm(qr - q) > 1e-10:
            failures.append(f"jordan reconstruction failed at trial {t}")
        if any(d not in (1, 2) for d in dec.dims):
            failures.append(f"jordan block of bad dimension at trial {t}")
        # nested-projection repair on an admissible triple
        qq = random_unitary(rng, 12)
        ge = qq[:, :8]
        g = ge @ ge.conj().T
        e = ge[:, :3] @ ge[:, :3].conj().T
        mid = ge[:, :5] @ ge[:, :5].conj().T
        h = random_hermitian(rng, 12, norm=float(rng.uniform(0.005, 0.04)))
        w, v = np.linalg.eigh(mid + h)
        fp = v[:, w > 0.5] @ v[:, w > 0.5].conj().T
        try:
            f, chk = nest_projection(e, g, fp)
        except ValueError:
            continue
        _record(failures, chk)
        if op_norm(e @ (np.eye(12) - f.matrix)) > 1e-10 or \
           op_norm(f.matrix @ (np.eye(12) - g)) > 1e-10:
            failures.append(f"nest sandwich failed at trial {t}")
    return _tally("projections", trials, failures)


def suite_smoothing(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    parts = partition_of_unity(8)
    x = np.linspace(-1, 1, 4001)
    s = sum(np.asarray(p(x)) for p in parts)
    if float(np.max(np.abs(s - 1))) > 1e-10:
        failures.append("partition of unity sum deviates")
    for j, w in ((0.0, 1.0), (1.0, 0.5), (2.0, 0.25)):
        if scaling_identity_residual(j if j else 0.0, w, 0.8) > 0.01:
            failures.append(f"scaling identity fails at j={j}, w={w}")
    prof = poly_bump_profile()
    for t in range(trials):
        n = int(rng.integers(4, 17))
        a = random_hermitian(rng, n, norm=1.0)
        b = random_hermitian(rng, n, norm=1.0)
        delta = float(rng.uniform(0.2, 1.0))
        res = finite_range(a, b, delta, prof)
        for chk in res.checks:
            _record(failures, chk)
        if op_norm(res.matrix - res.matrix.conj().T) > 1e-12 * n:
            failures.append(f"finite-range output not Hermitian at trial {t}")
        eb = res.eig  # the decomposition of B the averaging used
        lam = eb.eigenvalues
        mid = float(np.median(lam))
        p1 = interval_projection(eb, -np.inf, mid).matrix
        p2 = interval_projection(eb, mid + delta, np.inf).matrix
        if op_norm(p1 @ res.matrix @ p2) > 1e-10:
            failures.append(f"finite-range zero pattern fails at trial {t}")
    return _tally("smoothing", trials, failures)


def suite_tn(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for t in range(trials):
        n = int(rng.integers(2, 4))
        big_n = int(rng.integers(2, 5 if n == 3 else 6))
        a = random_hermitian(rng, n, norm=1.0)
        b = random_hermitian(rng, n, norm=1.0)
        out = tn_identities(a, b, big_n)
        dim = out["dim"]
        for key in ("commutator_residual", "covariance_residual", "permutation_residual"):
            if out[key] > 1e-12 * dim:
                failures.append(f"{key}={out[key]:.2e} at trial {t}")
        if out["recursion_residual"] is not None and out["recursion_residual"] > 1e-12 * dim * n:
            failures.append(f"recursion={out['recursion_residual']:.2e} at trial {t}")
        if not out["norm_sandwich_ok"]:
            failures.append(f"norm sandwich fails at trial {t}")
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tg = tn_lift(g, big_n)
        if not (op_norm(g) / 2 - 1e-10 <= op_norm(tg) <= op_norm(g) + 1e-10):
            failures.append(f"non-normal norm sandwich fails at trial {t}")
    return _tally("tn", trials, failures)


SUITES = {
    "bounds": suite_bounds,
    "lieb-robinson": suite_lieb_robinson,
    "projections": suite_projections,
    "smoothing": suite_smoothing,
    "tn": suite_tn,
}


def run_suite(name: str, seed: int, trials: int) -> dict:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed, trials)
