"""Profile functions, smooth partitions of unity, numerically computed Fourier
constants and tails, and finite-range averaging.

A Profile is a real, even, compactly supported window function together with
its numerically computed Fourier data: the constants c0 = int |k f^(k)| dk and
c1 = int |f^(k)| dk and the tail function tail(c) = int_{|k|>=c} |f^(k)| dk.
The Fourier convention is f^(k) = (1/2pi) int f(x) e^{-ikx} dx, so c1 >= f(0).

Everything is quadrature: constants are never assumed, and each value carries
a refinement-halving error estimate.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .checks import BoundCheck
from .matcore import (
    HermitianEig,
    NormalEig,
    as_matrix,
    cluster_bounds,
    commutator,
    eig_hermitian,
    op_norm,
)

__all__ = [
    "SmoothStep",
    "Profile",
    "make_smooth_step",
    "smooth_profile",
    "poly_bump_profile",
    "mollifier_profile",
    "partition_of_unity",
    "FiniteRangeResult",
    "finite_range",
    "finite_range_normal",
    "normal_eig",
    "TailTable",
    "tail_tables",
    "default_G",
    "default_F",
]

FOURIER_GRID = 2 ** 16
SPAN_FACTOR = 64.0  # spatial zero-padding factor; sets k-resolution 2*pi/(span*support)


class QuadratureDivergence(RuntimeError):
    """Raised when a Fourier integral shows no sign of converging."""


class SmoothStep:
    """The base ramp F on [0,1]: smooth, strictly decreasing, F(0)=1, F(1)=0,
    flat to all orders at both ends, and F(x) + F(1-x) = 1."""

    @staticmethod
    def _g(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x, dtype=float)
        pos = x > 0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            out[pos] = np.exp(-1.0 / x[pos])
        return out

    def __call__(self, x) -> np.ndarray | float:
        t = np.asarray(x, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(np.clip(t, 0.0, 1.0))
        g1 = self._g(1.0 - t)
        g2 = self._g(t)
        val = g1 / (g1 + g2)
        return float(val[0]) if scalar else val


def make_smooth_step() -> SmoothStep:
    """Base profile used by every smooth window in this module."""
    return SmoothStep()


_BASE_STEP = make_smooth_step()


@dataclass(frozen=True)
class _FourierData:
    """What callers read of a profile's Fourier transform: the constants, their
    error estimates and the k >= 0 table behind tail(c)."""

    c0: float
    c1: float
    c0_err: float
    c1_err: float
    tail_beyond_grid: float  # Sobolev-style estimate of int_{|k|>kmax}|f^|
    tail_k: np.ndarray = field(repr=False)    # the k >= 0 grid, ascending
    tail_cum: np.ndarray = field(repr=False)  # int_{|k| >= tail_k[i]} |f^| on the grid

    def tail(self, c: float) -> float:
        """int_{|k| >= c} |f^(k)| dk (symmetric grid; adds the off-grid estimate)."""
        if c <= 0:
            return self.c1
        if c >= self.tail_k[-1]:
            return self.tail_beyond_grid
        return float(np.interp(c, self.tail_k, self.tail_cum)) + self.tail_beyond_grid


def _dft_abs(fn: Callable, radius: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """|f^| on the symmetric k-grid from an n-point discrete transform."""
    span = SPAN_FACTOR * radius
    dx = span / n
    x = -span / 2.0 + dx * np.arange(n)
    fhat = np.fft.fft(np.asarray(fn(x), dtype=float))
    fhat[1::2] *= -1.0  # (-1)^j: the grid starts at -span/2
    fhat *= dx / (2.0 * math.pi)
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    return np.fft.fftshift(k), np.abs(np.fft.fftshift(fhat))


def _tail_table(k: np.ndarray, fa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k >= 0 part of the grid and int_{|k'| >= k} |f^| on it (trapezoid
    rule over both signs).  The steps run in place, and the profile builds
    the table before its half-size grid, to keep the compute's memory peak
    near what the two grids alone need."""
    half = k >= 0
    kk, vv = k[half], fa[half]
    seg = vv[1:] + vv[:-1]
    seg *= 0.5
    seg *= np.diff(kk)
    cum = np.zeros(kk.size)
    np.cumsum(seg[::-1], out=cum[-2::-1])
    cum *= 2.0
    return kk, cum


def _sobolev_tail(k: np.ndarray, fa: np.ndarray, cutoff: float) -> float:
    """H^n estimate of the un-gridded tail int_{|k|>cutoff}|f^| (best n in 1..3)."""
    best = math.inf
    for n in (1, 2, 3):
        l2 = math.sqrt(float(np.trapezoid(fa ** 2, k)))
        l2n = math.sqrt(float(np.trapezoid((np.abs(k) ** n * fa) ** 2, k)))
        est = (l2 + l2n) * math.sqrt(2.0 / (2 * n - 1)) / cutoff ** (n - 0.5)
        best = min(best, est)
    return best


def _octave_divergence(k: np.ndarray, integrand: np.ndarray) -> bool:
    """True when the top octaves of int integrand dk keep growing (divergence)."""
    half = k > 0
    kk, vv = k[half], integrand[half]
    kmax = kk[-1]
    contrib = []
    for j in range(6):
        lo, hi = kmax / 2 ** (j + 1), kmax / 2 ** j
        m = (kk >= lo) & (kk < hi)
        contrib.append(float(np.trapezoid(vv[m], kk[m])) if np.any(m) else 0.0)
    contrib = contrib[::-1]  # ascending octaves
    total = float(np.trapezoid(vv, kk))
    top3 = contrib[-3:]
    growing = all(top3[i + 1] >= 0.9 * top3[i] for i in range(2))
    return growing and top3[-1] > 0.02 * max(total, 1e-300)


class Profile:
    """A window f with flat radius r, ramp width w, center omega0.

    f is identically 1 on [omega0-r, omega0+r], even about omega0, supported in
    [omega0-r-w, omega0+r+w], with 0 <= f <= 1.  Fourier data (which does not
    depend on omega0) is computed on demand, once for a profile and all of
    its shifted copies.
    """

    def __init__(self, fn: Callable, r: float, w: float, omega0: float = 0.0,
                 name: str = ""):
        self._fn = fn   # centered at 0
        self.r = float(r)
        self.w = float(w)
        self.omega0 = float(omega0)
        self.name = name or f"profile(r={r},w={w})"
        self._fourier: _FourierData | None = None
        # on a shifted copy, the profile whose Fourier data it shares
        self._shape: Profile | None = None

    # -- evaluation ---------------------------------------------------------
    @property
    def support_radius(self) -> float:
        return self.r + self.w

    def __call__(self, x) -> np.ndarray | float:
        """f at the points x: 0.0 where |x - omega0| >= support_radius, the
        window function elsewhere, which is evaluated only at those points
        (a NaN argument is among them, so it propagates)."""
        t = np.asarray(x, dtype=float) - self.omega0
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros_like(t)
        inside = ~(np.abs(t) >= self.support_radius)
        out[inside] = self._fn(t[inside])
        return float(out[0]) if scalar else out

    def shifted(self, omega0: float) -> "Profile":
        p = Profile(self._fn, self.r, self.w, omega0, name=f"{self.name}@{omega0:g}")
        p._shape = self._shape or self
        return p

    # -- Fourier data -------------------------------------------------------
    @property
    def fourier(self) -> _FourierData:
        shape = self._shape or self
        if shape._fourier is None:
            shape._fourier = shape._compute_fourier()
        return shape._fourier

    def _compute_fourier(self) -> _FourierData:
        rad = self.support_radius
        k1, fa1 = _dft_abs(self._fn, rad, FOURIER_GRID)
        tail_k, tail_cum = _tail_table(k1, fa1)
        k2, fa2 = _dft_abs(self._fn, rad, FOURIER_GRID // 2)
        c1 = float(np.trapezoid(fa1, k1))
        c0 = float(np.trapezoid(np.abs(k1) * fa1, k1))
        # refinement-halving comparison restricted to the shared |k| range
        kcut = k2[-1]
        m = np.abs(k1) <= kcut
        c1_half = float(np.trapezoid(fa2, k2))
        c0_half = float(np.trapezoid(np.abs(k2) * fa2, k2))
        c1_err = abs(float(np.trapezoid(fa1[m], k1[m])) - c1_half)
        c0_err = abs(float(np.trapezoid(np.abs(k1[m]) * fa1[m], k1[m])) - c0_half)
        tail_est = _sobolev_tail(k1, fa1, k1[-1])
        if _octave_divergence(k1, np.abs(k1) * fa1):
            raise QuadratureDivergence(
                f"c0 integral for {self.name} is not converging (discontinuous profile?)"
            )
        return _FourierData(c0, c1, c0_err + tail_est * k1[-1], c1_err + tail_est,
                            tail_est, tail_k, tail_cum)

    @property
    def c0(self) -> float:
        return self.fourier.c0

    @property
    def c1(self) -> float:
        return self.fourier.c1

    def tail(self, c: float) -> float:
        return self.fourier.tail(c)


def smooth_profile(r: float, w: float, omega0: float = 0.0) -> Profile:
    """The standard window: 1 on the radius-r core, SmoothStep ramp of width w.

    The centred window of each (r, w) is built once per process; windows of
    one shape share its Fourier data whatever their omega0."""
    if w <= 0 or r < 0:
        raise ValueError("need w > 0 and r >= 0")
    base = _centred_window(r, w)
    return base if omega0 == 0.0 else base.shifted(omega0)


@functools.cache
def _centred_window(r: float, w: float) -> Profile:
    def fn(t, _r=r, _w=w):
        a = np.abs(np.asarray(t, dtype=float))
        ramp = _BASE_STEP(np.clip((a - _r) / _w, 0.0, 1.0))
        return np.where(a <= _r, 1.0, np.where(a >= _r + _w, 0.0, ramp))

    return Profile(fn, r, w, 0.0, name=f"F[{r:g},{w:g}]")


@functools.cache
def poly_bump_profile() -> Profile:
    """f(x) = (1 - x^2)^3 on [-1, 1]: the default finite-range averaging profile."""

    def fn(t):
        a = np.asarray(t, dtype=float)
        return np.where(np.abs(a) >= 1.0, 0.0, (1.0 - a ** 2) ** 3)

    return Profile(fn, 0.0, 1.0, 0.0, name="(1-x^2)^3")


@functools.cache
def mollifier_profile() -> Profile:
    """Normalized bump exp(-1/(1-x^2)) on [-1,1] with unit integral."""

    def raw(t):
        a = np.asarray(t, dtype=float)
        out = np.zeros_like(a)
        inside = np.abs(a) < 1.0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - a[inside] ** 2))
        return out

    x = np.linspace(-1.0, 1.0, 200001)
    mass = float(np.trapezoid(raw(x), x))

    def fn(t, _m=mass):
        return raw(t) / _m

    return Profile(fn, 0.0, 1.0, 0.0, name="bump-mollifier")


def partition_of_unity(n_win: int) -> list[Profile]:
    """Windows F[0, 2/n_win] centered at -1 + 2*i/n_win, i = 0..n_win.

    Their pointwise sum is identically 1 on [-1, 1]; windows two apart have
    disjoint supports.
    """
    if n_win < 2:
        raise ValueError("need n_win >= 2")
    kappa = 2.0 / n_win
    base = smooth_profile(0.0, kappa)
    return [base.shifted(-1.0 + kappa * i) for i in range(n_win + 1)]


# ---------------------------------------------------------------------------
# Normal matrices
# ---------------------------------------------------------------------------

def normal_eig(n_mat: np.ndarray, *, tol: float = 1e-10) -> NormalEig:
    """Eigendecomposition of a normal N (||[N,N*]|| <= tol * max(1, ||N||)^2)
    from its commuting parts Re N = (N + N*)/2 and Im N = (N - N*)/2i.

    Re N is decomposed once.  Each run of two or more of its eigenvalues with
    gaps at most 1e-8 * max(1, ||Re N||, ||Im N||) (``cluster_bounds``) is
    rediagonalised by the compression of Im N; every other eigenvector takes
    its Im N value as a Rayleigh quotient.
    """
    m = as_matrix(n_mat)
    c = commutator(m, m.conj().T)
    # ||X||_2 <= ||X||_F screens the operator norms; a NaN fails the screen
    if not np.linalg.norm(c) <= tol:
        defect = op_norm(c)
        if defect > tol * max(op_norm(m), 1.0) ** 2:
            raise ValueError(f"matrix is not normal: ||[N,N*]|| = {defect:.3e}")
    im = (m - m.conj().T) / 2j
    er = eig_hermitian((m + m.conj().T) / 2, rtol=1e-6)
    v, lam_re = er.vectors, er.eigenvalues
    scale = max(1.0, float(np.abs(lam_re).max(initial=0.0)), op_norm(im))
    starts, stops = cluster_bounds(lam_re, 1e-8 * scale)
    lam_im = np.empty_like(lam_re)
    single = starts[stops - starts == 1]
    lam_im[single] = np.einsum("ij,ij->j", v[:, single].conj(), im @ v[:, single]).real
    for i, j in zip(starts.tolist(), stops.tolist()):
        if j - i > 1:
            comp = v[:, i:j].conj().T @ im @ v[:, i:j]
            ei = eig_hermitian((comp + comp.conj().T) / 2, rtol=1e-6)
            v[:, i:j] = v[:, i:j] @ ei.vectors
            lam_im[i:j] = ei.eigenvalues
    return NormalEig(lam_re + 1j * lam_im, v)


def finite_range_multi(*args, **kwargs):
    """Removed; bound only because ``bench/tracer.py`` lists it as traced."""
    raise NotImplementedError("use finite_range_normal with N = B_1 + i B_2")


# ---------------------------------------------------------------------------
# Finite-range averaging
# ---------------------------------------------------------------------------

@dataclass
class FiniteRangeResult:
    """Output of a finite-range construction: H in the eigen-coordinates of B
    (``coords`` = V*HV for the eigenvectors V of ``eig``), the asserted
    distance/commutator bounds, and the eigensystem of B the averaging used.
    ``matrix`` is H itself, V (coords) V*, formed on first use."""

    coords: np.ndarray
    checks: list[BoundCheck]
    delta: float
    profile_name: str
    eig: HermitianEig | NormalEig

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        v = self.eig.vectors
        h = v @ self.coords @ v.conj().T
        return (h + h.conj().T) / 2

    def require(self) -> "FiniteRangeResult":
        for c in self.checks:
            c.require()
        return self


def _require_averaging(delta: float, profile: Profile | None) -> Profile:
    if delta <= 0:
        raise ValueError("delta must be positive")
    p = profile if profile is not None else poly_bump_profile()
    if p.support_radius > 1.0 + 1e-12:
        raise ValueError("averaging profile must be supported in [-1, 1]")
    if abs(float(p(p.omega0)) - 1.0) > 1e-12:
        raise ValueError("averaging profile must satisfy f(0) = 1")
    return p


def _average(a: np.ndarray, v: np.ndarray, lams: Sequence[np.ndarray],
             delta: float, p: Profile) -> tuple[np.ndarray, np.ndarray]:
    """(V*AV - H~, H~) in the eigen-coordinates V, where H~ = A~ o
    prod_j f((lam_jl - lam_jm)/Delta), symmetrised, for A~ = V*AV
    symmetrised.  For an exactly Hermitian A, V*AV is taken as A~, so the
    difference, whose norm is ||A - H||, is Hermitian too."""
    at = v.conj().T @ a @ v
    sym = (at + at.conj().T) / 2
    mult = np.ones_like(at, dtype=float)
    for lam in lams:
        mult = mult * p((lam[:, None] - lam[None, :]) / delta)
    ht = sym * mult
    ht = (ht + ht.conj().T) / 2
    return (sym if np.array_equal(a, a.conj().T) else at) - ht, ht


def _commutator_norm(ht: np.ndarray, lam: np.ndarray) -> float:
    """||[H, B]|| for H~ = V*HV and B = V diag(lam) V*: the norm of
    H~_lm (lam_m - lam_l), which is anti-Hermitian for real lam."""
    return op_norm(ht * (lam[None, :] - lam[:, None]))


def finite_range(a, b, delta: float, profile: Profile | None = None, *,
                 comm: float | None = None) -> FiniteRangeResult:
    """Replace a Hermitian A by an H that is finite range Delta with respect
    to B (H averages the Hermitian part of any other A).

    In B's eigenbasis H has entries A_{lm} * f((l - m)/Delta); consequently
    E_{S1}(B) H E_{S2}(B) = 0 exactly whenever dist(S1, S2) >= Delta, and
    ||A - H|| <= (c0/Delta) ||[A,B]||, ||[H,B]|| <= c1 ||[A,B]||.  Both
    left-hand sides are measured in B's eigen-coordinates, where [H,B] is an
    entrywise product.  ``comm`` is ||[A,B]|| when the caller has already
    measured it; it is measured here otherwise.
    """
    p = _require_averaging(delta, profile)
    a = as_matrix(a)
    eb = eig_hermitian(b)
    a_minus_h, ht = _average(a, eb.vectors, [eb.eigenvalues], delta, p)
    if comm is None:
        comm = op_norm(commutator(a, as_matrix(b)))
    checks = [
        BoundCheck(op_norm(a_minus_h), (p.c0 / delta) * comm, "finite_range ||A-H|| <= (c0/Delta)||[A,B]||"),
        BoundCheck(_commutator_norm(ht, eb.eigenvalues), p.c1 * comm,
                   "finite_range ||[H,B]|| <= c1||[A,B]||"),
    ]
    return FiniteRangeResult(ht, checks, delta, p.name, eb)


def finite_range_normal(a, n_mat, delta: float,
                        profile: Profile | None = None, *,
                        comm: float) -> FiniteRangeResult:
    """Finite-range construction of a Hermitian A against a normal matrix N,
    averaging in the joint eigenbasis of its commuting real/imaginary parts.
    The spectral cut-off in the complex plane is sqrt(2) * Delta.  Both
    left-hand sides are measured in N's eigen-coordinates V, ||[H,N]|| as
    ||[H~, V*NV]||: V*NV is N itself there, while diag(mu) differs from it
    by the error of ``normal_eig``, which is not held to roundoff.
    ``comm`` is the caller's measured ||[A,N]||, the right-hand side of
    both."""
    p = _require_averaging(delta, profile)
    a = as_matrix(a)
    m = as_matrix(n_mat)
    en = normal_eig(m)
    v, mu = en.vectors, en.eigenvalues
    a_minus_h, ht = _average(a, v, [mu.real, mu.imag], delta, p)
    checks = [
        BoundCheck(op_norm(a_minus_h), (2 * p.c0 * p.c1 / delta) * comm,
                   "finite_range_normal ||A-H||"),
        BoundCheck(op_norm(commutator(ht, v.conj().T @ m @ v)), 2 * p.c1 ** 2 * comm,
                   "finite_range_normal ||[H,N]||"),
    ]
    return FiniteRangeResult(ht, checks, delta, p.name, en)


# ---------------------------------------------------------------------------
# Tail tables
# ---------------------------------------------------------------------------

def default_G(l) -> np.ndarray | float:
    """Slow-growth default G(l) = max(2, log^2(2 + l)); G >= 2 always."""
    v = np.log(2.0 + np.asarray(l, dtype=float)) ** 2
    return np.maximum(2.0, v)


def default_F(L) -> np.ndarray | float:
    """Slow-growth default F(L) = log^2(2 + L)."""
    return np.log(2.0 + np.asarray(L, dtype=float)) ** 2


@dataclass
class TailTable:
    """Numeric decay table for one function: tail(c) over a threshold grid."""

    function_id: str
    thresholds: np.ndarray
    tails: np.ndarray
    errors: np.ndarray
    l1_norm: float

    def __post_init__(self):
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        self.tails = np.asarray(self.tails, dtype=float)
        self.errors = np.asarray(self.errors, dtype=float)

    def monotone_from(self) -> int:
        """First index past which the table is nonincreasing."""
        d = np.diff(self.tails)
        bad = np.where(d > 0)[0]
        return int(bad[-1] + 1) if bad.size else 0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["threshold", "tail", "error_estimate"])
            for c, t, e in zip(self.thresholds, self.tails, self.errors):
                wr.writerow([repr(float(c)), repr(float(t)), repr(float(e))])


def _s_tail(L: float, n_win: int) -> float:
    """S(L) = tail_{F[0,1]}((L-1)/(e^2 n_win)) + ||F[0,1]^||_1 e^{-(L-1)/2}
    for n_win windows."""
    p01 = smooth_profile(0.0, 1.0)
    c = (L - 1.0) / (math.e ** 2 * max(n_win, 1))
    return float(p01.tail(c) + p01.c1 * math.exp(-(L - 1.0) / 2.0))


def tail_tables(l_grid: Sequence[float], L_grid: Sequence[float]
                ) -> dict[str, TailTable]:
    """Build the S(L) and T(l) decay tables.

    S(L) = tail_{F[0,1]}((L-1)/(e^2 n_win)) + ||F[0,1]^||_1 e^{-(L-1)/2} with
    n_win = ceil(L / F(L)); T(l) = 2 tail_{F[1,1]}(G(l)/(10 e^2)) +
    3 ||F[1,1]^||_1 e^{-l/5}, for G = default_G and F = default_F.
    """
    l_grid = np.asarray(l_grid, dtype=float)
    L_grid = np.asarray(L_grid, dtype=float)
    gv = np.asarray(default_G(l_grid), dtype=float)
    p01 = smooth_profile(0.0, 1.0)
    p11 = smooth_profile(1.0, 1.0)
    e2 = math.e ** 2

    s_vals = [_s_tail(L, math.ceil(L / float(default_F(L)))) for L in L_grid]
    s_err = [p01.fourier.c1_err for _ in s_vals]
    t_vals, t_err = [], []
    for l, g in zip(l_grid, gv):
        c = g / (10.0 * e2)
        t_vals.append(2.0 * p11.tail(c) + 3.0 * p11.c1 * math.exp(-l / 5.0))
        t_err.append(2.0 * p11.fourier.c1_err)

    return {
        "S": TailTable("S(L)", L_grid, np.array(s_vals), np.array(s_err), p01.c1),
        "T": TailTable("T(l)", l_grid, np.array(t_vals), np.array(t_err), p11.c1),
    }


def scaling_identity_residual(j: float, w: float, c: float) -> float:
    """Relative residual of tail_{F[jw,w]}(c) == tail_{F[j,1]}(c w).

    Both sides are computed by quadrature; the identity is exact in the
    continuum."""
    lhs = smooth_profile(j * w, w).tail(c)
    rhs = smooth_profile(j, 1.0).tail(c * w)
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)
