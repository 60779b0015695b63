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
    cluster_bounds,
    commutator,
    eig_hermitian_part,
    gram_norm,
    hermitian_norm,
    hermitian_norm_within,
    hermitian_part,
    op_norm,
    require_hermitian,
    require_normal,
    require_same_shape,
    skew,
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
    "unitary_eig",
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


def _on_support(fn: Callable, t: np.ndarray, radius: float) -> np.ndarray:
    """fn(t) where ~(|t| >= radius), 0.0 elsewhere: fn is evaluated only at
    those points (a NaN t is among them, so it propagates)."""
    out = np.zeros_like(t)
    inside = ~(np.abs(t) >= radius)
    out[inside] = fn(t[inside])
    return out


def _dft_abs(fn: Callable, radius: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """|f^| on the symmetric k-grid from an n-point discrete transform of f
    sampled on its support.  The grid starts at -span/2, which multiplies
    f^ by (-1)^j; the modulus drops that sign."""
    span = SPAN_FACTOR * radius
    dx = span / n
    fhat = np.fft.fft(_on_support(fn, -span / 2.0 + dx * np.arange(n), radius))
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
        """f at the points x: the window function on the support
        (``_on_support`` about omega0), 0.0 elsewhere."""
        t = np.asarray(x, dtype=float) - self.omega0
        out = _on_support(self._fn, np.atleast_1d(t), self.support_radius)
        return float(out[0]) if t.ndim == 0 else out

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

def _normal_basis(m: np.ndarray, unitary: bool) -> tuple[np.ndarray, float]:
    """(V, scale) for a normal N its caller checked: a unitary basis V of
    eigenvectors of its commuting parts Re N = (N + N*)/2 and Im N =
    (N - N*)/2i, the first stage of ``normal_eig``.

    Re N is decomposed once.  Each run of two or more of its eigenvalues with
    gaps at most tau = 1e-8 * scale, scale = max(1, ||Re N||, ||Im N||)
    (``cluster_bounds``), is rediagonalised by the compression of Im N.  Re
    N, Im N and their compressions are Hermitian by construction and go to
    ``eig_hermitian_part`` unchecked.  ||Re N|| is read off its eigenvalues.
    ||Im N|| raises the scale only above 1: it is taken only when a Cholesky
    test (``hermitian_norm_within``) does not place it at most 1, and not
    at all for a validated ``unitary`` N, where ||Im N|| <= ||N|| <= 1 +
    UNITARY_TOL/2.  V is off N's eigenvectors by about eps ||Im N|| over the
    gap of Re N, so its Rayleigh quotients are off N's eigenvalues by about
    the square of that.
    """
    im = skew(m) / 2j
    er = eig_hermitian_part(m)
    v, lam_re = er.vectors, er.eigenvalues
    im_norm = 0.0 if unitary or hermitian_norm_within(im, 1.0) else op_norm(im)
    scale = max(1.0, float(np.abs(lam_re).max(initial=0.0)), im_norm)
    starts, stops = cluster_bounds(lam_re, 1e-8 * scale)
    multiple = stops - starts > 1
    for i, j in zip(starts[multiple].tolist(), stops[multiple].tolist()):
        ei = eig_hermitian_part(v[:, i:j].conj().T @ im @ v[:, i:j])
        v[:, i:j] = v[:, i:j] @ ei.vectors
    return v, scale


def normal_eig(n_mat: np.ndarray) -> NormalEig:
    """Eigendecomposition of a normal N (``require_normal``): the basis V of
    ``_normal_basis``, corrected.

    One first-order step in N's own eigenvalues corrects V: with T = V*NV
    and mu = diag(T), C_ij = T_ij / (mu_j - mu_i) where |mu_j - mu_i| > tau
    and |T_ij| <= 1e-3 |mu_j - mu_i| (0 elsewhere: the step is valid only
    where it is small), X = V(I + C), and one Newton-Schulz step
    X(3I - X*X)/2 restores orthonormality.  X is kept only if ||X*X - I||_F
    <= 1e-12: on a matrix that the normality test accepts but that is not
    normal to roundoff, the step can take X off orthonormality, and V is
    kept then.  The eigenvalues returned are the Rayleigh quotients of the
    basis kept, and ``exact`` records whether it reproduces N to roundoff,
    ||NX - X diag(mu)||_F <= 1e-12 scale.
    """
    m = require_normal(n_mat)
    return _corrected_eig(m, *_normal_basis(m, unitary=False))


def unitary_eig(u: np.ndarray) -> NormalEig:
    """``normal_eig`` of a square complex128 U that its caller validated as
    unitary (``require_unitary``), with no check.  ||U*U - I|| <=
    UNITARY_TOL makes ||UU* - I|| just as small, so ||[U, U*]|| <= 2
    UNITARY_TOL; ||Im U|| <= ||U|| is not tested, and the scale is
    max(1, ||Re U||)."""
    return _corrected_eig(u, *_normal_basis(u, unitary=True))


def _corrected_eig(m: np.ndarray, v: np.ndarray, scale: float) -> NormalEig:
    """``normal_eig``'s correction of the basis V of N = m, for a checked m."""
    tau = 1e-8 * scale
    t = v.conj().T @ (m @ v)
    mu = np.diagonal(t)
    # the first-order step, taken only where it is small
    gaps = mu[None, :] - mu[:, None]
    dist = np.abs(gaps)
    step = (dist > tau) & (np.abs(t) <= 1e-3 * dist)
    c = np.divide(t, gaps, out=np.zeros_like(t), where=step)
    x = v + v @ c
    eye = np.eye(x.shape[0])
    x = x @ (1.5 * eye - 0.5 * (x.conj().T @ x))
    if np.linalg.norm(x.conj().T @ x - eye) <= 1e-12:
        v = x
    # Rayleigh quotients of the basis kept, and its residual
    nv = m @ v
    mu = np.einsum("ij,ij->j", v.conj(), nv)
    nv -= v * mu
    return NormalEig(mu, v, bool(np.linalg.norm(nv) <= 1e-12 * scale), m)


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
    profile_name: str
    eig: HermitianEig | NormalEig

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        v = self.eig.vectors
        return hermitian_part(v @ self.coords @ v.conj().T)

    def require(self) -> "FiniteRangeResult":
        for c in self.checks:
            c.require()
        return self


def _require_averaging(delta: float) -> Profile:
    """The averaging profile, ``poly_bump_profile()``, for a range Delta > 0."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return poly_bump_profile()


def _average(a: np.ndarray, v: np.ndarray, lams: Sequence[np.ndarray],
             delta: float, p: Profile) -> tuple[float, np.ndarray]:
    """(||A - H||, H~) in the eigen-coordinates V, where H~ = A~ o
    prod_j f((lam_jl - lam_jm)/Delta) for A~ = V*AV symmetrised.  A is
    exactly Hermitian and f is even, so the multiplier is exactly
    symmetric, H~ and A~ - H~ are Hermitian, and the norm takes op_norm's
    Hermitian kernel directly."""
    require_same_shape(a, v)
    sym = hermitian_part(v.conj().T @ a @ v)
    mult = functools.reduce(np.multiply, [p((lam[:, None] - lam[None, :]) / delta)
                                          for lam in lams])
    ht = sym * mult
    return hermitian_norm(sym - ht), ht


def _commutator_norm(ht: np.ndarray, lam: np.ndarray) -> float:
    """||[H, B]|| for H~ = V*HV and B = V diag(lam) V*: the norm of
    H~_lm (lam_m - lam_l), which is anti-Hermitian for real lam."""
    return hermitian_norm(1j * (ht * (lam[None, :] - lam[:, None])))


def finite_range(a, eb: HermitianEig, delta: float, *, comm: float) -> FiniteRangeResult:
    """Replace a Hermitian A by an H that is finite range Delta with respect
    to B, averaging with f = ``poly_bump_profile()``, (1 - x^2)^3 on [-1, 1].

    In B's eigenbasis H has entries A_{lm} * f((l - m)/Delta); consequently
    E_{S1}(B) H E_{S2}(B) = 0 exactly whenever dist(S1, S2) >= Delta, and
    ||A - H|| <= (c0/Delta) ||[A,B]||, ||[H,B]|| <= c1 ||[A,B]||.  Both
    left-hand sides are measured in B's eigen-coordinates, where [H,B] is an
    entrywise product.

    A goes through ``require_hermitian``: a defect within HERMITIAN_TOL is
    symmetrised away, and a larger one raises NotHermitianError.  ``eb`` is
    B's ``HermitianEig``, from the checked ``eig_hermitian`` for outside
    input or ``eig_hermitian_part`` for a B its caller validated, and
    ``comm`` is the caller's measured ||[A,B]||.
    """
    p = _require_averaging(delta)
    a = require_hermitian(a, "A")[0]
    a_h, ht = _average(a, eb.vectors, [eb.eigenvalues], delta, p)
    checks = [
        BoundCheck(a_h, (p.c0 / delta) * comm, "finite_range ||A-H|| <= (c0/Delta)||[A,B]||"),
        BoundCheck(_commutator_norm(ht, eb.eigenvalues), p.c1 * comm,
                   "finite_range ||[H,B]|| <= c1||[A,B]||"),
    ]
    return FiniteRangeResult(ht, checks, p.name, eb)


def finite_range_normal(a, en: NormalEig, delta: float, *, comm: float) -> FiniteRangeResult:
    """Finite-range construction of a Hermitian A against a normal matrix N,
    averaging with ``poly_bump_profile()`` in the joint eigenbasis of its
    commuting real/imaginary parts.  The spectral cut-off in the complex
    plane is sqrt(2) * Delta.

    A goes through ``require_hermitian``, as in ``finite_range``.  ``en`` is
    N's ``NormalEig``, from the checked ``normal_eig`` for outside input or
    ``unitary_eig`` for a U its caller validated.  Both left-hand sides are
    measured in N's eigen-coordinates V.  Where the eigensystem reproduces N
    there as diag(mu) to roundoff (``exact``), ||[H,N]|| is the norm of
    H~_lm (mu_m - mu_l) (``gram_norm``, as the product is not Hermitian for
    complex mu); otherwise it is ||[H~, V*NV]||.  ``comm`` is the caller's
    measured ||[A,N]||, the right-hand side of both."""
    p = _require_averaging(delta)
    a = require_hermitian(a, "A")[0]
    v, mu = en.vectors, en.eigenvalues
    a_h, ht = _average(a, v, [mu.real, mu.imag], delta, p)
    if en.exact:
        comm_hn = gram_norm(ht * (mu[None, :] - mu[:, None]))
    else:
        comm_hn = gram_norm(commutator(ht, v.conj().T @ en.matrix @ v))
    checks = [
        BoundCheck(a_h, (2 * p.c0 * p.c1 / delta) * comm,
                   "finite_range_normal ||A-H||"),
        BoundCheck(comm_hn, 2 * p.c1 ** 2 * comm, "finite_range_normal ||[H,N]||"),
    ]
    return FiniteRangeResult(ht, checks, p.name, en)


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
