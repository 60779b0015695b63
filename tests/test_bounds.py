"""Inequality checkers: sharpness examples, closed-form 2x2 oracles, and
seeded sampling runs."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from nearcommute import bounds as bd
from nearcommute import matcore as mc
from nearcommute import smoothing as sm
from nearcommute import suites
from nearcommute.projgeom import jordan_blocks
from nearcommute.suites import run_suite


def _eigs(*mats):
    """Each matrix's eigensystem from the checked entry ``eig_hermitian``."""
    return [mc.eig_hermitian(m) for m in mats]


def _parts(*mats):
    """Each matrix's eigensystem from ``eig_hermitian_part``, unchecked, as
    the suites decompose the matrices they build."""
    return [mc.eig_hermitian_part(mc.as_matrix(m)) for m in mats]


class TestDavisKahan:
    def test_same_matrix_disjoint_sets(self):
        rng = np.random.default_rng(0)
        a = mc.random_hermitian(rng, 6, norm=1.0)
        med = float(np.median(np.linalg.eigvalsh(a)))
        ea, = _eigs(a)
        chk = bd.check_davis_kahan(ea, ea, lambda x: x <= med, lambda x: x > med + 0.05,
                                   delta_gap=0.05, diff=mc.op_norm(a - a))
        assert chk.lhs <= 1e-12

    def test_two_by_two_rotation(self):
        # closed form: A = diag(1, 0); perturbing by eps sigma_x/2 rotates the
        # top eigenvector by angle ~ eps/2, so ||E_{top}(A) E_{low}(A2)|| = |sin t|
        eps = 0.08
        a = np.diag([1.0, 0.0]).astype(complex)
        a2 = a + (eps / 2) * np.array([[0, 1], [1, 0]], dtype=complex)
        # exact eigenvectors of a2: angle t with tan(2t) = eps
        t = 0.5 * math.atan(eps)
        expected = abs(math.sin(t))
        chk = bd.check_davis_kahan(*_eigs(a, a2), lambda x: x > 0.5, lambda x: x < 0.5,
                                   delta_gap=0.4, diff=mc.op_norm(a - a2))
        assert chk.lhs == pytest.approx(expected, abs=1e-12)
        assert chk.passed

    def test_rejects_overlapping_sets(self):
        a = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            bd.check_davis_kahan(*_eigs(a, a), lambda x: True, lambda x: True, diff=0.0)

    def test_sampling_suite(self):
        out = run_suite("bounds", seed=123, trials=60)
        assert out["violations"] == 0, out["failures"]


class TestCommProj:
    def test_sharpness_two_by_two(self):
        eps = 0.37
        d = np.diag([0.2, 0.9]).astype(complex)
        c = eps * np.array([[0, 1], [1, 0]], dtype=complex)
        chk = bd.check_comm_proj(c, *_eigs(d), lambda x: x < 0.5, lambda x: x > 0.5,
                                 comm=mc.op_norm(mc.commutator(c, d)))
        assert abs(chk.lhs - chk.rhs) <= 1e-12
        assert chk.lhs == pytest.approx(eps, abs=1e-12)

    def test_commuting_pair_gives_zero(self):
        d = np.diag([0.0, 1.0, 2.0]).astype(complex)
        c = np.diag([5.0, 6.0, 7.0]).astype(complex)
        chk = bd.check_comm_proj(c, *_eigs(d), lambda x: x < 0.5, lambda x: x > 1.5,
                                 comm=mc.op_norm(mc.commutator(c, d)))
        assert chk.lhs <= 1e-14

    def test_zero_distance_rejected(self):
        d = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            bd.check_comm_proj(d, *_eigs(d), lambda x: x < 2, lambda x: x > -1, comm=0.0)

    def test_random_sampling(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = 20
            c = mc.random_hermitian(rng, n, norm=1.0)
            d = mc.random_hermitian(rng, n, norm=1.0)
            med = float(np.median(np.linalg.eigvalsh(d)))
            chk = bd.check_comm_proj(c, *_eigs(d), lambda x: x <= med, lambda x: x > med + 0.2,
                                     comm=mc.op_norm(mc.commutator(c, d)))
            assert chk.passed


class TestSchurDivide:
    def test_scalar_equality(self):
        chk = bd.schur_divide(np.array([[2.0]]), [3.0], [1.0], 2.0)
        assert chk.lhs == pytest.approx(1.0, abs=1e-14)
        assert abs(chk.lhs - chk.rhs) <= 1e-14

    def test_all_ones_equality(self):
        # rank-one all-ones 4x4 has norm 4; constant gaps scale it by 1/d
        t = np.ones((4, 4))
        chk = bd.schur_divide(t, [2.0] * 4, [0.5] * 4, 1.5)
        assert chk.lhs == pytest.approx(4.0 / 1.5, abs=1e-12)
        assert chk.rhs == pytest.approx(4.0 / 1.5, abs=1e-12)

    def test_violated_hypothesis(self):
        with pytest.raises(ValueError):
            bd.schur_divide(np.eye(2), [1.0, 1.0], [0.5, 2.0], 0.4)

    def test_random_sampling(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            t = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            d = float(rng.uniform(0.05, 2.0))
            a = rng.uniform(d, d + 4, rows)
            b = -rng.uniform(0, 4, cols)
            assert bd.schur_divide(t, a, b, d).passed


class TestSpectralGap:
    def test_commuting_gives_zero(self):
        a = np.diag([-0.9, -0.5, 0.5, 0.8]).astype(complex)
        b = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        chk = bd.check_spectral_gap(a, b, -0.5, 0.5)
        assert chk.lhs <= 1e-14

    def test_gap_intrusion_rejected(self):
        a = np.diag([-0.5, 0.0, 0.5])
        with pytest.raises(ValueError):
            bd.check_spectral_gap(a, np.eye(3), -0.4, 0.4)

    def test_two_by_two_ratio_approaches_sharpness(self):
        # the commutator of a spectral projection against sigma_x across a gap
        # realizes ratio lhs / (||[A,B]||/(b-a)) -> 1, the known lower bound
        # for the optimal constant
        best = 0.0
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        for gap in (0.5, 1.0, 1.5):
            a = np.diag([-gap / 2, gap / 2]).astype(complex)
            lhs = mc.op_norm(mc.commutator(np.diag([1.0, 0.0]).astype(complex), b))
            ratio = lhs / (mc.op_norm(mc.commutator(a, b)) / gap)
            best = max(best, ratio)
        assert best >= 1.0 - 1e-12

    def test_random_gapped_sampling(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(4, 12))
            vals = np.concatenate([rng.uniform(-1, -0.3, n // 2),
                                   rng.uniform(0.3, 1, n - n // 2)])
            q = mc.random_unitary(rng, n)
            a = q @ np.diag(vals) @ q.conj().T
            a = (a + a.conj().T) / 2
            bmat = mc.random_hermitian(rng, n, norm=1.0)
            chk = bd.check_spectral_gap(a, bmat, -0.3, 0.3)
            assert chk.passed, (chk.lhs, chk.rhs)


class TestFourierCommutator:
    def test_constant_function_commutes(self):
        rng = np.random.default_rng(31)
        a = mc.random_hermitian(rng, 6, norm=0.4)
        b = mc.random_hermitian(rng, 6)
        prof = sm.smooth_profile(1.0, 1.0)  # == 1 on the whole spectrum of a
        chk = bd.fourier_commutator_bound(prof, *_eigs(a), b,
                                          comm=mc.op_norm(mc.commutator(a, b)))
        assert chk.lhs <= 1e-12

    def test_exponential_phase_lipschitz(self):
        # ||[e^{ikA}, B]|| <= |k| ||[A,B]|| checked directly on random input
        rng = np.random.default_rng(37)
        a = mc.random_hermitian(rng, 8, norm=1.0)
        b = mc.random_hermitian(rng, 8, norm=1.0)
        base = mc.op_norm(mc.commutator(a, b))
        for k in (0.5, 1.0, 3.0):
            ea = mc.eig_hermitian(a)
            u = ea.matrix_function(lambda x: np.exp(1j * k * x))
            assert mc.op_norm(mc.commutator(u, b)) <= abs(k) * base + 1e-10

    def test_smooth_step_sampling(self):
        rng = np.random.default_rng(41)
        prof = sm.smooth_profile(0.1, 0.9)
        for _ in range(40):
            a = mc.random_hermitian(rng, 8, norm=1.0)
            b = mc.random_hermitian(rng, 8, norm=1.0)
            assert bd.fourier_commutator_bound(prof, *_eigs(a), b,
                                               comm=mc.op_norm(mc.commutator(a, b))).passed


def _banded_system(rng, n, band):
    b = np.diag(np.arange(1.0, n + 1.0))
    h = mc.random_hermitian(rng, n)
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= band
    h = h * mask
    return h / max(1.0, mc.op_norm(h)), b, float(band + 1)


def _banded_eigs(rng, n, band):
    """``_banded_system`` as the Lieb-Robinson checkers take it: (eig(H),
    eig(B), Delta)."""
    h, b, delta = _banded_system(rng, n, band)
    return *_eigs(h, b), delta


class TestLiebRobinson:
    def test_time_zero_disjoint(self):
        rng = np.random.default_rng(43)
        eh, eb, delta = _banded_eigs(rng, 12, 1)
        chk = bd.lieb_robinson_decay(eh, eb, delta, lambda x: x <= 3,
                                     lambda x: x >= 3 + delta + 1, 0.0)
        assert chk.lhs <= 1e-12

    def test_diagonal_h_never_spreads(self):
        n = 10
        b = np.diag(np.arange(1.0, n + 1.0))
        h = np.diag(np.linspace(-1, 1, n))
        chk = bd.lieb_robinson_decay(*_eigs(h, b), 2.0, lambda x: x <= 4,
                                     lambda x: x >= 7, 0.15)
        assert chk.lhs <= 1e-12

    def test_banded_forty_sites_time_grid(self):
        rng = np.random.default_rng(47)
        eh, eb, delta = _banded_eigs(rng, 40, 1)
        cut, sep = 12, 9
        tmax = sep / (math.e ** 2 * delta)
        for t in np.linspace(0, tmax, 7):
            chk = bd.lieb_robinson_decay(eh, eb, delta, lambda x: x <= cut,
                                         lambda x: x >= cut + sep, float(t))
            assert chk.passed, (t, chk.lhs, chk.rhs)

    def test_monotone_decay_in_distance(self):
        rng = np.random.default_rng(53)
        eh, eb, delta = _banded_eigs(rng, 30, 1)
        t = 0.1
        vals = []
        for sep in (4, 7, 10, 13):
            chk = bd.lieb_robinson_decay(eh, eb, delta, lambda x: x <= 8,
                                         lambda x, s=sep: x >= 8 + s, t)
            vals.append(chk.lhs)
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))

    def test_too_large_time_rejected(self):
        rng = np.random.default_rng(59)
        eh, eb, delta = _banded_eigs(rng, 12, 1)
        with pytest.raises(ValueError):
            bd.lieb_robinson_decay(eh, eb, delta, lambda x: x <= 3,
                                   lambda x: x >= 8, 100.0)

    def test_function_form_indicator_consistency(self):
        # an indicator realized exactly by a gapped spectrum reproduces the
        # spectral projection, whose cross terms vanish
        rng = np.random.default_rng(61)
        eh, eb, delta = _banded_eigs(rng, 16, 1)
        prof = sm.smooth_profile(0.0, 1.0)
        chk = bd.lieb_robinson_function(eh, eb, delta, lambda x: x <= 5,
                                        lambda x: x >= 5 + delta + 2, prof)
        assert chk.passed

    def test_nested_whole_space_vanishes(self):
        rng = np.random.default_rng(67)
        eh, eb, delta = _banded_eigs(rng, 14, 1)
        prof = sm.smooth_profile(0.0, 1.0)
        chk = bd.lieb_robinson_nested(eh, eb, delta, lambda x: 5 <= x <= 9,
                                      lambda x: True, prof)
        assert chk.lhs <= 1e-10

    def test_nested_whole_space_bound_is_zero(self, monkeypatch):
        # with S' the whole spectrum H' = H, so the bound is 0 whatever lhs
        # reads: a corrupted eigensystem of H's coordinates T must fail it
        eh, eb, delta = _banded_eigs(np.random.default_rng(67), 14, 1)
        prof = sm.smooth_profile(0.0, 1.0)
        real = bd.eig_hermitian_part
        monkeypatch.setattr(bd, "eig_hermitian_part",
                            lambda t: real(t + 0.5 * np.eye(t.shape[0])))
        chk = bd.lieb_robinson_nested(eh, eb, delta, lambda x: 5 <= x <= 9,
                                      lambda x: True, prof)
        assert chk.rhs == 0.0 and chk.lhs > 1e-3
        assert not chk.passed

    def test_banded_sixty_sites_smooth_step(self):
        rng = np.random.default_rng(71)
        eh, eb, delta = _banded_eigs(rng, 60, 1)
        prof = sm.smooth_profile(0.0, 1.0)
        chk = bd.lieb_robinson_function(eh, eb, delta, lambda x: x <= 20,
                                        lambda x: x >= 32, prof)
        assert chk.passed
        chk2 = bd.lieb_robinson_nested(eh, eb, delta, lambda x: 25 <= x <= 30,
                                       lambda x: 18 <= x <= 37, prof)
        assert chk2.passed

    def test_sampling_suite(self):
        out = run_suite("lieb-robinson", seed=5, trials=40)
        assert out["violations"] == 0, out["failures"]


# Each Lieb-Robinson checker on the eigensystems of B = diag(1..12) and a
# band-1 H (Delta = 2), with sets that satisfy its hypotheses.
LIEB_ROBINSON_CHECKERS = {
    "decay": lambda eh, eb, delta: bd.lieb_robinson_decay(
        eh, eb, delta, lambda x: x <= 3, lambda x: x >= 7, 0.1),
    "function": lambda eh, eb, delta: bd.lieb_robinson_function(
        eh, eb, delta, lambda x: x <= 3, lambda x: x >= 7, sm.smooth_profile(0.0, 1.0)),
    "nested": lambda eh, eb, delta: bd.lieb_robinson_nested(
        eh, eb, delta, lambda x: 5 <= x <= 8, lambda x: 4 <= x <= 9,
        sm.smooth_profile(0.0, 1.0)),
}

# Decompositions of one checker call, H and B decomposed by eig_hermitian:
# each by one eigh, their norms inside eig_hermitian by one eigvalsh each
# (H's ||H|| <= 1 test reads H's eigenvalues, so no third), one SVD for the
# rectangular lhs block; nested also decomposes the H' it builds by one eigh
# and takes no norm of it.
LIEB_ROBINSON_BUDGET = {
    "decay": {"eigh": 2, "eigvalsh": 2, "svd": 1},
    "function": {"eigh": 2, "eigvalsh": 2, "svd": 1},
    "nested": {"eigh": 3, "eigvalsh": 2, "svd": 1},
}


def _unit_band_system():
    """(H, B, Delta) with H band-1 finite range and ||H|| = 1 to roundoff."""
    h, b, delta = _banded_system(np.random.default_rng(83), 12, 1)
    assert abs(mc.op_norm(h) - 1.0) <= 1e-15
    return h, b, delta


class TestLiebRobinsonGate:
    @pytest.mark.parametrize("kind", sorted(LIEB_ROBINSON_CHECKERS))
    def test_unit_norm_accepted(self, kind):
        h, b, delta = _unit_band_system()
        assert LIEB_ROBINSON_CHECKERS[kind](*_eigs(h, b), delta).passed

    @pytest.mark.parametrize("kind", sorted(LIEB_ROBINSON_CHECKERS))
    def test_norm_above_one_rejected(self, kind):
        h, b, delta = _unit_band_system()
        with pytest.raises(ValueError, match="H must be a contraction"):
            LIEB_ROBINSON_CHECKERS[kind](*_eigs((1.0 + 1e-6) * h, b), delta)

    @pytest.mark.parametrize("kind", sorted(LIEB_ROBINSON_CHECKERS))
    def test_norm_above_one_rejected_on_eigensystems(self, kind):
        h, b, delta = _unit_band_system()
        eh = mc.eig_hermitian_part((1.0 + 1e-6) * h)
        eb = mc.eig_hermitian_part(mc.as_matrix(b))
        with pytest.raises(ValueError, match="H must be a contraction"):
            LIEB_ROBINSON_CHECKERS[kind](eh, eb, delta)

    @pytest.mark.parametrize("kind", sorted(LIEB_ROBINSON_CHECKERS))
    def test_finite_range_verified_on_eigensystems(self, kind):
        # a coupling between B's eigenvalues 1 and 12 breaks range Delta = 2
        h, b, delta = _unit_band_system()
        far = np.zeros_like(h)
        far[0, -1] = far[-1, 0] = 1e-3
        eh = mc.eig_hermitian_part((h + far) / 2)
        eb = mc.eig_hermitian_part(mc.as_matrix(b))
        with pytest.raises(ValueError, match="finite-range hypothesis fails"):
            LIEB_ROBINSON_CHECKERS[kind](eh, eb, delta)

    @pytest.mark.parametrize("kind", sorted(LIEB_ROBINSON_CHECKERS))
    def test_decomposition_budget(self, kind, monkeypatch):
        h, b, delta = _unit_band_system()
        counts = dict.fromkeys(LIEB_ROBINSON_BUDGET[kind], 0)
        for name in counts:
            def counting(x, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(x, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        LIEB_ROBINSON_CHECKERS[kind](*_eigs(h, b), delta)
        assert counts == LIEB_ROBINSON_BUDGET[kind]


def _dense_projection(eig, mask):
    v = eig.vectors[:, mask]
    return v @ v.conj().T


class TestDenseProjectionReference:
    """Each checker's lhs against its inequality written with dense spectral
    projections E_S = V_S V_S*, the form the checkers no longer build."""

    @pytest.mark.parametrize("seed", range(6))
    def test_davis_kahan_comm_proj_spectral_gap(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 17))
        a = mc.random_hermitian(rng, n, norm=1.0)
        b = a + mc.random_hermitian(rng, n, norm=0.1)
        ea, eb = mc.eig_hermitian(a), mc.eig_hermitian(b)
        cut = float(np.median(ea.eigenvalues))
        chk = bd.check_davis_kahan(ea, eb, lambda x: x <= cut, lambda x: x > cut + 0.2,
                                   diff=mc.op_norm(a - b))
        ref = mc.op_norm(_dense_projection(ea, ea.eigenvalues <= cut)
                         @ _dense_projection(eb, eb.eigenvalues > cut + 0.2))
        assert abs(chk.lhs - ref) <= 1e-12

        c = mc.random_hermitian(rng, n, norm=1.0)
        chk = bd.check_comm_proj(c, ea, lambda x: x <= cut, lambda x: x > cut + 0.1,
                                 comm=mc.op_norm(mc.commutator(c, a)))
        ref = mc.op_norm(_dense_projection(ea, ea.eigenvalues <= cut) @ c
                         @ _dense_projection(ea, ea.eigenvalues > cut + 0.1))
        assert abs(chk.lhs - ref) <= 1e-12

        # a gap (-0.1, 0.1) in A's spectrum, against a general (non-Hermitian) B
        q = mc.random_unitary(rng, n)
        lam = np.where(ea.eigenvalues < cut, -0.5, 0.5) + 0.3 * ea.eigenvalues
        gapped = (q * lam) @ q.conj().T
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        chk = bd.check_spectral_gap(gapped, g, -0.1, 0.1)
        eg = mc.eig_hermitian(gapped)
        ref = mc.op_norm(mc.commutator(_dense_projection(eg, eg.eigenvalues <= -0.1), g))
        assert abs(chk.lhs - ref) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_lieb_robinson(self, seed):
        rng = np.random.default_rng(100 + seed)
        h, b, delta = _banded_system(rng, int(rng.integers(12, 25)), int(rng.integers(1, 3)))
        prof = sm.smooth_profile(0.0, 1.0)
        cut, sep = 5, int(delta) + 2
        s1, s2 = (lambda x: x <= cut), (lambda x: x >= cut + sep)
        eb, eh = mc.eig_hermitian(b), mc.eig_hermitian(h)
        p1 = _dense_projection(eb, eb.eigenvalues <= cut)
        p2 = _dense_projection(eb, eb.eigenvalues >= cut + sep)
        t = sep / (math.e ** 2 * delta)
        chk = bd.lieb_robinson_decay(eh, eb, delta, s1, s2, t)
        u_t = eh.matrix_function(lambda x: np.exp(1j * t * x))
        assert abs(chk.lhs - mc.op_norm(p1 @ u_t @ p2)) <= 1e-12

        f = lambda x: np.asarray(prof(x), dtype=np.complex128)
        fh = eh.matrix_function(f)
        chk = bd.lieb_robinson_function(eh, eb, delta, s1, s2, prof)
        assert abs(chk.lhs - mc.op_norm(p1 @ fh @ p2)) <= 1e-12

        inner = lambda x: cut + 2 <= x <= cut + 2 * sep - 2
        outer = lambda x: cut <= x <= cut + 2 * sep
        chk = bd.lieb_robinson_nested(eh, eb, delta, inner, outer, prof)
        p_in = _dense_projection(eb, np.array([inner(x) for x in eb.eigenvalues]))
        p_out = _dense_projection(eb, np.array([outer(x) for x in eb.eigenvalues]))
        fhp = mc.eig_hermitian(p_out @ h @ p_out).matrix_function(f)
        assert abs(chk.lhs - mc.op_norm((fh - fhp) @ p_in)) <= 1e-12


class TestMask:
    """The one selection helper: predicates over the eigenvalues."""

    def test_predicate_selects_eigenvalues(self):
        e = mc.eig_hermitian(np.diag([2.0, 5.0]))
        mask = bd._mask(e, lambda x: abs(x - 2.0) < 1e-9)
        assert mask.tolist() == [True, False]
        assert np.array_equal(e.vectors[:, mask], np.array([[1.0], [0.0]]))
        e = mc.eig_hermitian(mc.random_hermitian(np.random.default_rng(2), 8))
        assert int(bd._mask(e, lambda x: x >= 0).sum()) == int(np.sum(e.eigenvalues >= 0))
        # boolean on an empty spectrum too, so it can index empty vectors
        e = mc.eig_hermitian(np.zeros((0, 0)))
        assert bd._mask(e, lambda x: True).dtype == bool


def _first_zero():
    """A set predicate true only at its first call on 0: of a repeated
    eigenvalue 0 it selects the first copy alone, as no function of the value
    can."""
    first = iter([True])
    return lambda x: x == 0.0 and next(first, False)


_A01, _B = np.diag([0.0, 1.0]), np.diag([0.3, 2.0])
_EA01, _EB = _eigs(_A01, _B)
_EH, _EB3 = _eigs(0.5 * np.eye(3), np.diag([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: bd.check_davis_kahan(_EA01, _EB, lambda x: x < 0.5, lambda x: x > 0.2,
                                  delta_gap=0.0, diff=0.3), "delta_gap must be positive"),
    # S2 = {0.3, 2} is 0.3 from S1 = {0}, inside delta_gap = 0.5 of [0, 0]
    (lambda: bd.check_davis_kahan(_EA01, _EB, lambda x: x < 0.5, lambda x: x > 0.2,
                                  delta_gap=0.5, diff=0.3), "S2 intrudes within delta_gap"),
    (lambda: bd.schur_divide(np.ones(2), [1.0], [0.0, 0.0], 1.0), "T must be a matrix"),
    (lambda: bd.schur_divide(np.ones((2, 2)), [1.0], [0.0, 0.0], 1.0),
     "a, b lengths must match T's shape"),
    (lambda: bd.check_spectral_gap(_A01, _B, 0.5, 0.5), "need gap_hi > gap_lo"),
    (lambda: bd.lieb_robinson_decay(_EH, _EB3, 0.5, lambda x: True, lambda x: True, 0.0),
     "S1, S2 must be separated"),
    (lambda: bd.lieb_robinson_nested(_EH, _EB3, 0.5, lambda x: x > 0.5,
                                     lambda x: x < 0.5, sm.poly_bump_profile()),
     "S'' must be contained in S'"),
    # B's eigenvalue 0 is in S'' while an equal eigenvalue lies outside S'
    (lambda: bd.lieb_robinson_nested(_EH, _EB3, 0.5, _first_zero(), _first_zero(),
                                     sm.poly_bump_profile()),
     "S'' must be separated from the complement of S'"),
])
def test_input_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()



def _same_check(got, want):
    assert got.context == want.context
    tol = 1e-14 * max(1.0, want.rhs)
    assert abs(got.lhs - want.lhs) <= tol and abs(got.rhs - want.rhs) <= tol


class TestEigensystemForm:
    """Each checker given the suites' inputs (``eig_hermitian_part`` and the
    norms measured on Hermitian commutators) matches it given a caller's (the
    checked ``eig_hermitian`` and the norms of the matrices themselves); H's
    coordinates from its eigensystem match V*HV.  Without its norm keyword a
    checker cannot be called."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_form(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(4, 17))
        a = mc.random_hermitian(rng, n, norm=1.0)
        b = a + mc.random_hermitian(rng, n, norm=0.1)
        c = mc.random_hermitian(rng, n, norm=1.0)
        ea, eb = _parts(a, b)
        ra, rb = _eigs(a, b)
        cut = float(np.median(ea.eigenvalues))
        s1, s2 = (lambda x: x <= cut), (lambda x: x > cut + 0.2)
        comm_ab = mc.op_norm(mc.hermitian_commutator(a, b))
        diff = mc.op_norm(a - b)
        _same_check(bd.check_davis_kahan(ea, eb, s1, s2, diff=diff),
                    bd.check_davis_kahan(ra, rb, s1, s2, diff=diff))
        _same_check(bd.check_davis_kahan(ea, eb, s1, s2, delta_gap=0.01, diff=diff),
                    bd.check_davis_kahan(ra, rb, s1, s2, delta_gap=0.01, diff=diff))
        _same_check(bd.check_comm_proj(c, ea, s1, s2, comm=mc.op_norm(mc.hermitian_commutator(c, a))),
                    bd.check_comm_proj(c, ra, s1, s2, comm=mc.op_norm(mc.commutator(c, a))))
        prof = sm.smooth_profile(0.0, 1.0)
        _same_check(bd.fourier_commutator_bound(prof, ea, b, comm=comm_ab),
                    bd.fourier_commutator_bound(prof, ra, b, comm=mc.op_norm(mc.commutator(a, b))))

    @pytest.mark.parametrize("seed", range(4))
    def test_lieb_robinson_matches_matrix_form(self, seed):
        rng = np.random.default_rng(300 + seed)
        h, b, delta = _banded_system(rng, int(rng.integers(12, 25)), int(rng.integers(1, 3)))
        eh, eb = _parts(h, b)
        rh, rb = _eigs(h, b)
        cut, sep = 5, int(delta) + 2
        s1, s2 = (lambda x: x <= cut), (lambda x: x >= cut + sep)
        inner = lambda x: cut + 2 <= x <= cut + 2 * sep - 2
        outer = lambda x: cut <= x <= cut + 2 * sep
        prof = sm.smooth_profile(0.0, 1.0)
        t = sep / (math.e ** 2 * delta)
        _same_check(bd.lieb_robinson_decay(eh, eb, delta, s1, s2, t),
                    bd.lieb_robinson_decay(rh, rb, delta, s1, s2, t))
        _same_check(bd.lieb_robinson_function(eh, eb, delta, s1, s2, prof),
                    bd.lieb_robinson_function(rh, rb, delta, s1, s2, prof))
        _same_check(bd.lieb_robinson_nested(eh, eb, delta, inner, outer, prof),
                    bd.lieb_robinson_nested(rh, rb, delta, inner, outer, prof))
        ht, worst = bd.verify_finite_range(eh, eb, delta)
        ht_matrix = eb.vectors.conj().T @ mc.as_matrix(h) @ eb.vectors
        far = np.abs(np.subtract.outer(eb.eigenvalues, eb.eigenvalues)) >= delta
        worst_matrix = float(np.max(np.abs(ht_matrix[far])))
        assert np.abs(ht - ht_matrix).max() <= 1e-14 and worst <= 1e-14 and worst_matrix == 0.0

    def test_missing_norm_keyword_raises(self):
        rng = np.random.default_rng(7)
        a = mc.random_hermitian(rng, 6, norm=1.0)
        b = mc.random_hermitian(rng, 6, norm=1.0)
        ea, eb = _parts(a, b)
        s1, s2 = (lambda x: x <= -0.5), (lambda x: x > 0.5)
        prof = sm.smooth_profile(0.0, 1.0)
        calls = {
            "diff": [lambda: bd.check_davis_kahan(ea, eb, s1, s2),
                     lambda: bd.check_davis_kahan(ea, eb, s1, s2, delta_gap=0.1)],
            "comm": [lambda: bd.check_comm_proj(a, eb, s1, s2),
                     lambda: bd.fourier_commutator_bound(prof, ea, b)],
        }
        for name, fns in calls.items():
            for fn in fns:
                with pytest.raises(TypeError, match=f"keyword-only argument: '{name}'"):
                    fn()


# Each checker's answer at n = 0 and n = 1, on the eigensystems of the checked
# entry and of the unchecked one.  At n = 0 every set is empty: lhs and rhs
# are 0.  At n = 1 Davis-Kahan's sandwich is sharp (A = 0, B = 1: both
# projections are the identity, ||A-B|| = 1 = delta_gap) and every other lhs
# vanishes, since two separated sets cannot both hold the one eigenvalue and
# 1x1 matrices commute; the Lieb-Robinson function bound needs both sets
# nonempty, so it raises.  Each entry takes (A, B, eig(A), eig(B)); the
# comm-proj entry takes C = B and D = A.
PROF = sm.smooth_profile(0.0, 1.0)
EDGE_CHECKERS = {
    "davis-kahan": (lambda a, b, ea, eb: bd.check_davis_kahan(
        ea, eb, lambda x: x < 0.5, lambda x: x > 0.5, delta_gap=1.0, diff=mc.op_norm(a - b))),
    "comm-proj": (lambda a, b, ea, eb: bd.check_comm_proj(
        b, ea, lambda x: x < 1.5, lambda x: x > 1.5, comm=mc.op_norm(mc.commutator(b, a)))),
    "fourier": (lambda a, b, ea, eb: bd.fourier_commutator_bound(
        PROF, ea, b, comm=mc.op_norm(mc.commutator(a, b)))),
    "lieb-robinson decay": (lambda h, b, eh, eb: bd.lieb_robinson_decay(
        eh, eb, 1.0, lambda x: x <= 1, lambda x: x >= 3, 0.1)),
    "lieb-robinson function": (lambda h, b, eh, eb: bd.lieb_robinson_function(
        eh, eb, 1.0, lambda x: x <= 1, lambda x: x >= 3, PROF)),
    "lieb-robinson nested": (lambda h, b, eh, eb: bd.lieb_robinson_nested(
        eh, eb, 1.0, lambda x: x <= 1, lambda x: True, PROF)),
}
EDGE_ANSWERS = {(kind, n): (0.0, 0.0) for kind in EDGE_CHECKERS for n in (0, 1)}
EDGE_ANSWERS["davis-kahan", 1] = (1.0, 1.0)
EDGE_ANSWERS["lieb-robinson function", 1] = "separated and nonempty"


class TestEdgeSizes:
    """n = 0 and n = 1: every checker answers 0 <= 0 on an empty spectrum."""

    @pytest.mark.parametrize("unchecked", [False, True])
    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("kind", sorted(EDGE_CHECKERS))
    def test_answer(self, kind, n, unchecked):
        # A (or H) = 0, B = 1 at n = 1; both empty at n = 0
        a = np.zeros((n, n), dtype=complex)
        b = np.eye(n, dtype=complex)
        eigs = _parts(a, b) if unchecked else _eigs(a, b)
        want = EDGE_ANSWERS[kind, n]
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                EDGE_CHECKERS[kind](a, b, *eigs)
            return
        chk = EDGE_CHECKERS[kind](a, b, *eigs)
        assert (chk.lhs, chk.rhs) == want
        assert chk.passed

    @pytest.mark.parametrize("n", [0, 1])
    def test_matrix_only_checkers(self, n):
        chk = bd.schur_divide(np.full((n, n), 2.0), [3.0] * n, [1.0] * n, 2.0)
        assert (chk.lhs, chk.rhs) == ((1.0, 1.0) if n else (0.0, 0.0))
        chk = bd.check_spectral_gap(np.zeros((n, n)), np.eye(n), 0.1, 0.2)
        assert (chk.lhs, chk.rhs) == (0.0, 0.0)
        ht, worst = bd.verify_finite_range(*_eigs(np.zeros((n, n)), np.eye(n)), 1.0)
        assert ht.shape == (n, n) and worst == 0.0


# Decompositions of one seeded suite run (seed 1), each matrix decomposed
# once by eig_hermitian_part:
# - bounds, 10 trials: eigh of every A and D and of the 6 B whose A-window
#   picked an eigenvalue (26); eigvalsh for the four random_hermitian norms
#   per trial, ||A-B|| of the 6 Davis-Kahan checks and the 20 commutator
#   norms (66); an SVD for each non-Hermitian lhs (26);
# - lieb-robinson, 5 trials: eigh of H, B and H' (15), with H scaled to
#   ||H|| <= 1 by its eigh eigenvalues (no eigvalsh); an SVD for each lhs but
#   one exact zero (14);
# - smoothing, 10 trials: eigh of B (10); eigvalsh for the two
#   random_hermitian norms and ||[A,B]|| per trial (30); the two
#   finite-range lhs are Frobenius norms, which pass their screens; no SVD.
SUITE_BUDGET = {
    ("bounds", 10): {"eigh": 26, "eigvalsh": 66, "svd": 26},
    ("lieb-robinson", 5): {"eigh": 15, "eigvalsh": 0, "svd": 14},
    ("smoothing", 10): {"eigh": 10, "eigvalsh": 30, "svd": 0},
}


@pytest.mark.parametrize("name, trials", sorted(SUITE_BUDGET))
def test_suite_decomposition_budget(name, trials, monkeypatch):
    counts = dict.fromkeys(SUITE_BUDGET[name, trials], 0)
    for fn in counts:
        def counting(x, *args, _real=getattr(np.linalg, fn), _name=fn, **kwargs):
            counts[_name] += 1
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, counting)
    run_suite(name, seed=1, trials=trials)
    assert counts == SUITE_BUDGET[name, trials]


@pytest.mark.parametrize("name, trials, checks", [
    ("bounds", 100, 385),
    ("lieb-robinson", 50, 150),
    ("projections", 100, 500),
    ("smoothing", 100, 304),
    ("tn", 50, 400),
])
def test_suite_checks_at_seed_one(name, trials, checks):
    # every trial evaluates its checks: none is dropped by a swallowed error
    out = run_suite(name, seed=1, trials=trials)
    assert (out["trials"], out["checks"], out["violations"]) == (trials, checks, 0)


def test_broken_verdict_is_named_and_counted(monkeypatch):
    # a Jordan decomposition whose rebuilt P is off by 1e-6 I fails the
    # projections suite's P check on every trial, and only that check
    def broken(p_basis, q_basis):
        dec = jordan_blocks(p_basis, q_basis)
        p, q = dec.reconstruct()
        return SimpleNamespace(reconstruct=lambda: (p + 1e-6 * np.eye(len(p)), q))

    monkeypatch.setattr(suites, "jordan_blocks", broken)
    out = run_suite("projections", seed=1, trials=3)
    assert (out["checks"], out["violations"]) == (15, 3)
    assert all(f.startswith(f"jordan P rebuilt (trial {t}): ")
               for t, f in enumerate(out["failures"]))


@pytest.mark.parametrize("name, trials, message", [
    ("bounds", 0, "trials must be at least 1, got 0"),
    ("tn", -3, "trials must be at least 1, got -3"),
    ("nonsense", 5, "unknown suite 'nonsense'"),
])
def test_run_suite_rejects_a_run_that_checks_nothing(name, trials, message):
    with pytest.raises(ValueError, match=message):
        run_suite(name, seed=1, trials=trials)
