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
from .matcore import eig_hermitian, op_norm, random_hermitian, random_unitary
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


class _Tally:
    """The failures of one suite run and the number of BoundChecks it
    evaluated."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []

    def record(self, check: BoundCheck, *, exact: bool = False) -> None:
        """Count ``check`` and keep it as a failure when it does not pass;
        with ``exact`` any negative slack fails it, for a roundoff tolerance
        finer than the pass floor of ``BoundCheck.passed``."""
        self.checks += 1
        if not (check.slack >= 0.0 if exact else check.passed):
            self.failures.append(f"{check.context}: lhs={check.lhs:.6e} rhs={check.rhs:.6e}")

    def result(self, name: str, trials: int) -> dict:
        return {
            "suite": name,
            "trials": trials,
            "checks": self.checks,
            "violations": len(self.failures),
            "failures": self.failures[:20],
        }


def suite_bounds(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    tally = _Tally()
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
            tally.record(bd.check_davis_kahan(
                a, b,
                lambda x: lo <= x <= hi,
                lambda x: x < lo - gap or x > hi + gap,
                delta_gap=gap))
        # comm-proj
        c = random_hermitian(rng, n, norm=1.0)
        d = random_hermitian(rng, n, norm=1.0)
        med = float(np.median(np.linalg.eigvalsh(d)))
        tally.record(bd.check_comm_proj(c, d, lambda x: x <= med, lambda x: x > med + 0.1))
        # schur divide
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        t_mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        dsep = float(rng.uniform(0.1, 2.0))
        av = rng.uniform(dsep, dsep + 3, rows)
        bv = -rng.uniform(0, 3, cols)
        tally.record(bd.schur_divide(t_mat, av, bv, dsep))
        # fourier commutator
        tally.record(bd.fourier_commutator_bound(prof, a, b))
    return tally.result("bounds", trials)


def suite_lieb_robinson(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    tally = _Tally()
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
        # sep first, so that S2 = [cut + sep, n] is never empty
        sep = int(rng.integers(int(delta) + 1, int(delta) + 5))
        cut = int(rng.integers(2, n - sep + 1))
        s1 = lambda x, c=cut: x <= c
        s2 = lambda x, c=cut, s=sep: x >= c + s
        tval = float(rng.uniform(0, sep / (math.e ** 2 * delta)))
        tally.record(bd.lieb_robinson_decay(h, b, delta, s1, s2, tval))
        tally.record(bd.lieb_robinson_function(h, b, delta, s1, s2, prof))
        inner = lambda x, c=cut, s=sep: c + 2 <= x <= c + s - 2
        outer = lambda x, c=cut, s=sep: c + 1 <= x <= c + s - 1
        tally.record(bd.lieb_robinson_nested(h, b, delta, inner, outer, prof))
    return tally.result("lieb-robinson", trials)


def suite_projections(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    tally = _Tally()
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
            tally.failures.append(f"jordan reconstruction failed at trial {t}")
        if any(d not in (1, 2) for d in dec.dims):
            tally.failures.append(f"jordan block of bad dimension at trial {t}")
        # nested-projection repair on an admissible triple
        qq = random_unitary(rng, 12)
        ge = qq[:, :8]
        g = ge @ ge.conj().T
        e = ge[:, :3] @ ge[:, :3].conj().T
        mid = ge[:, :5] @ ge[:, :5].conj().T
        h = random_hermitian(rng, 12, norm=float(rng.uniform(0.005, 0.04)))
        w, v = np.linalg.eigh(mid + h)
        fp = v[:, w > 0.5] @ v[:, w > 0.5].conj().T
        f, chk = nest_projection(e, g, fp)
        tally.record(chk)
        # E <= F <= G: E (1 - FF*) = 0 and F* (1 - G) = 0
        fh = f.conj().T
        if op_norm(e - (e @ f) @ fh) > 1e-10 or op_norm(fh - fh @ g) > 1e-10:
            tally.failures.append(f"nest sandwich failed at trial {t}")
    return tally.result("projections", trials)


def suite_smoothing(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    tally = _Tally()
    parts = partition_of_unity(8)
    x = np.linspace(-1, 1, 4001)
    s = sum(np.asarray(p(x)) for p in parts)
    if float(np.max(np.abs(s - 1))) > 1e-10:
        tally.failures.append("partition of unity sum deviates")
    for j, w in ((0.0, 1.0), (1.0, 0.5), (2.0, 0.25)):
        if scaling_identity_residual(j if j else 0.0, w, 0.8) > 0.01:
            tally.failures.append(f"scaling identity fails at j={j}, w={w}")
    prof = poly_bump_profile()
    for t in range(trials):
        n = int(rng.integers(4, 17))
        a = random_hermitian(rng, n, norm=1.0)
        b = random_hermitian(rng, n, norm=1.0)
        delta = float(rng.uniform(0.2, 1.0))
        res = finite_range(a, b, delta, prof)
        for chk in res.checks:
            tally.record(chk)
        if op_norm(res.matrix - res.matrix.conj().T) > 1e-12 * n:
            tally.failures.append(f"finite-range output not Hermitian at trial {t}")
        eb = res.eig  # the decomposition of B the averaging used
        lam = eb.eigenvalues
        mid = float(np.median(lam))
        v1, v2 = eb.vectors[:, lam <= mid], eb.vectors[:, lam >= mid + delta]
        if op_norm(v1.conj().T @ res.matrix @ v2) > 1e-10:
            tally.failures.append(f"finite-range zero pattern fails at trial {t}")
    return tally.result("smoothing", trials)


def suite_tn(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for t in range(trials):
        n = int(rng.integers(2, 4))
        big_n = int(rng.integers(2, 5 if n == 3 else 6))
        a = random_hermitian(rng, n, norm=1.0)
        b = random_hermitian(rng, n, norm=1.0)
        out = tn_identities(a, b, big_n)
        dim = out["dim"]
        for key in ("commutator_residual", "covariance_residual", "permutation_residual"):
            tally.record(BoundCheck(out[key], 1e-12 * dim, f"tn {key} (trial {t})"), exact=True)
        if out["recursion_residual"] is not None:
            tally.record(BoundCheck(out["recursion_residual"], 1e-12 * dim * n,
                                    f"tn recursion_residual (trial {t})"), exact=True)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norm_g, norm_tg = op_norm(g), op_norm(tn_lift(g, big_n))
        for norm, lifted, tol, kind in ((out["norm_A"], out["norm_TN"], 1e-12, "Hermitian"),
                                        (norm_g, norm_tg, 1e-10, "non-normal")):
            tally.record(BoundCheck(norm / 2 - tol, lifted,
                                    f"tn {kind} ||A||/2 <= ||T_N(A)|| (trial {t})"), exact=True)
            tally.record(BoundCheck(lifted, norm + tol,
                                    f"tn {kind} ||T_N(A)|| <= ||A|| (trial {t})"), exact=True)
    return tally.result("tn", trials)


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
