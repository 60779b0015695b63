"""Inequality checkers: sharpness examples, closed-form 2x2 oracles, and
seeded sampling runs."""

import math
import re

import numpy as np
import pytest

from nearcommute import bounds as bd
from nearcommute import matcore as mc
from nearcommute import smoothing as sm
from nearcommute.suites import run_suite


class TestDavisKahan:
    def test_same_matrix_disjoint_sets(self):
        rng = np.random.default_rng(0)
        a = mc.random_hermitian(rng, 6, norm=1.0)
        med = float(np.median(np.linalg.eigvalsh(a)))
        chk = bd.check_davis_kahan(a, a, lambda x: x <= med, lambda x: x > med + 0.05,
                                   delta_gap=0.05)
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
        chk = bd.check_davis_kahan(a, a2, lambda x: x > 0.5, lambda x: x < 0.5,
                                   delta_gap=0.4)
        assert chk.lhs == pytest.approx(expected, abs=1e-12)
        assert chk.passed

    def test_rejects_overlapping_sets(self):
        a = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            bd.check_davis_kahan(a, a, lambda x: True, lambda x: True)

    def test_sampling_suite(self):
        out = run_suite("bounds", seed=123, trials=60)
        assert out["violations"] == 0, out["failures"]


class TestCommProj:
    def test_sharpness_two_by_two(self):
        eps = 0.37
        d = np.diag([0.2, 0.9]).astype(complex)
        c = eps * np.array([[0, 1], [1, 0]], dtype=complex)
        chk = bd.check_comm_proj(c, d, lambda x: x < 0.5, lambda x: x > 0.5)
        assert abs(chk.lhs - chk.rhs) <= 1e-12
        assert chk.lhs == pytest.approx(eps, abs=1e-12)

    def test_commuting_pair_gives_zero(self):
        d = np.diag([0.0, 1.0, 2.0]).astype(complex)
        c = np.diag([5.0, 6.0, 7.0]).astype(complex)
        chk = bd.check_comm_proj(c, d, lambda x: x < 0.5, lambda x: x > 1.5)
        assert chk.lhs <= 1e-14

    def test_zero_distance_rejected(self):
        d = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            bd.check_comm_proj(d, d, lambda x: x < 2, lambda x: x > -1)

    def test_random_sampling(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = 20
            c = mc.random_hermitian(rng, n, norm=1.0)
            d = mc.random_hermitian(rng, n, norm=1.0)
            med = float(np.median(np.linalg.eigvalsh(d)))
            chk = bd.check_comm_proj(c, d, lambda x: x <= med, lambda x: x > med + 0.2)
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
        chk = bd.fourier_commutator_bound(prof, a, b)
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
            assert bd.fourier_commutator_bound(prof, a, b).passed


def _banded_system(rng, n, band):
    b = np.diag(np.arange(1.0, n + 1.0))
    h = mc.random_hermitian(rng, n)
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= band
    h = h * mask
    return h / max(1.0, mc.op_norm(h)), b, float(band + 1)


class TestLiebRobinson:
    def test_time_zero_disjoint(self):
        rng = np.random.default_rng(43)
        h, b, delta = _banded_system(rng, 12, 1)
        chk = bd.lieb_robinson_decay(h, b, delta, lambda x: x <= 3,
                                     lambda x: x >= 3 + delta + 1, 0.0)
        assert chk.lhs <= 1e-12

    def test_diagonal_h_never_spreads(self):
        n = 10
        b = np.diag(np.arange(1.0, n + 1.0))
        h = np.diag(np.linspace(-1, 1, n))
        chk = bd.lieb_robinson_decay(h, b, 2.0, lambda x: x <= 4,
                                     lambda x: x >= 7, 0.15)
        assert chk.lhs <= 1e-12

    def test_banded_forty_sites_time_grid(self):
        rng = np.random.default_rng(47)
        h, b, delta = _banded_system(rng, 40, 1)
        cut, sep = 12, 9
        tmax = sep / (math.e ** 2 * delta)
        for t in np.linspace(0, tmax, 7):
            chk = bd.lieb_robinson_decay(h, b, delta, lambda x: x <= cut,
                                         lambda x: x >= cut + sep, float(t))
            assert chk.passed, (t, chk.lhs, chk.rhs)

    def test_monotone_decay_in_distance(self):
        rng = np.random.default_rng(53)
        h, b, delta = _banded_system(rng, 30, 1)
        t = 0.1
        vals = []
        for sep in (4, 7, 10, 13):
            chk = bd.lieb_robinson_decay(h, b, delta, lambda x: x <= 8,
                                         lambda x, s=sep: x >= 8 + s, t)
            vals.append(chk.lhs)
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))

    def test_too_large_time_rejected(self):
        rng = np.random.default_rng(59)
        h, b, delta = _banded_system(rng, 12, 1)
        with pytest.raises(ValueError):
            bd.lieb_robinson_decay(h, b, delta, lambda x: x <= 3,
                                   lambda x: x >= 8, 100.0)

    def test_function_form_indicator_consistency(self):
        # an indicator realized exactly by a gapped spectrum reproduces the
        # spectral projection, whose cross terms vanish
        rng = np.random.default_rng(61)
        h, b, delta = _banded_system(rng, 16, 1)
        prof = sm.smooth_profile(0.0, 1.0)
        chk = bd.lieb_robinson_function(h, b, delta, lambda x: x <= 5,
                                        lambda x: x >= 5 + delta + 2, prof)
        assert chk.passed

    def test_nested_whole_space_vanishes(self):
        rng = np.random.default_rng(67)
        h, b, delta = _banded_system(rng, 14, 1)
        prof = sm.smooth_profile(0.0, 1.0)
        chk = bd.lieb_robinson_nested(h, b, delta, lambda x: 5 <= x <= 9,
                                      lambda x: True, prof)
        assert chk.lhs <= 1e-10

    def test_banded_sixty_sites_smooth_step(self):
        rng = np.random.default_rng(71)
        h, b, delta = _banded_system(rng, 60, 1)
        prof = sm.smooth_profile(0.0, 1.0)
        chk = bd.lieb_robinson_function(h, b, delta, lambda x: x <= 20,
                                        lambda x: x >= 32, prof)
        assert chk.passed
        chk2 = bd.lieb_robinson_nested(h, b, delta, lambda x: 25 <= x <= 30,
                                       lambda x: 18 <= x <= 37, prof)
        assert chk2.passed

    def test_sampling_suite(self):
        out = run_suite("lieb-robinson", seed=5, trials=40)
        assert out["violations"] == 0, out["failures"]


# Each Lieb-Robinson checker on B = diag(1..12) and a band-1 H (Delta = 2),
# with sets that satisfy its hypotheses.
LIEB_ROBINSON_CHECKERS = {
    "decay": lambda h, b, delta: bd.lieb_robinson_decay(
        h, b, delta, lambda x: x <= 3, lambda x: x >= 7, 0.1),
    "function": lambda h, b, delta: bd.lieb_robinson_function(
        h, b, delta, lambda x: x <= 3, lambda x: x >= 7, sm.smooth_profile(0.0, 1.0)),
    "nested": lambda h, b, delta: bd.lieb_robinson_nested(
        h, b, delta, lambda x: 5 <= x <= 8, lambda x: 4 <= x <= 9,
        sm.smooth_profile(0.0, 1.0)),
}

# Decompositions of one checker call: H and B each by one eigh, their norms
# inside eig_hermitian by one eigvalsh each (H's ||H|| <= 1 test reads H's
# eigenvalues, so no third), one SVD for the rectangular lhs block; nested
# also decomposes the H' it builds by one eigh and takes no norm of it.
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
        assert LIEB_ROBINSON_CHECKERS[kind](h, b, delta).passed

    @pytest.mark.parametrize("kind", sorted(LIEB_ROBINSON_CHECKERS))
    def test_norm_above_one_rejected(self, kind):
        h, b, delta = _unit_band_system()
        with pytest.raises(ValueError, match="H must be a contraction"):
            LIEB_ROBINSON_CHECKERS[kind]((1.0 + 1e-6) * h, b, delta)

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
        LIEB_ROBINSON_CHECKERS[kind](h, b, delta)
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
        chk = bd.check_davis_kahan(a, b, lambda x: x <= cut, lambda x: x > cut + 0.2)
        ref = mc.op_norm(_dense_projection(ea, ea.eigenvalues <= cut)
                         @ _dense_projection(eb, eb.eigenvalues > cut + 0.2))
        assert abs(chk.lhs - ref) <= 1e-12

        c = mc.random_hermitian(rng, n, norm=1.0)
        chk = bd.check_comm_proj(c, a, lambda x: x <= cut, lambda x: x > cut + 0.1)
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
        chk = bd.lieb_robinson_decay(h, b, delta, s1, s2, t)
        u_t = eh.matrix_function(lambda x: np.exp(1j * t * x))
        assert abs(chk.lhs - mc.op_norm(p1 @ u_t @ p2)) <= 1e-12

        f = lambda x: np.asarray(prof(x), dtype=np.complex128)
        fh = eh.matrix_function(f)
        chk = bd.lieb_robinson_function(h, b, delta, s1, s2, prof)
        assert abs(chk.lhs - mc.op_norm(p1 @ fh @ p2)) <= 1e-12

        inner = lambda x: cut + 2 <= x <= cut + 2 * sep - 2
        outer = lambda x: cut <= x <= cut + 2 * sep
        chk = bd.lieb_robinson_nested(h, b, delta, inner, outer, prof)
        p_in = _dense_projection(eb, np.array([inner(x) for x in eb.eigenvalues]))
        p_out = _dense_projection(eb, np.array([outer(x) for x in eb.eigenvalues]))
        fhp = mc.eig_hermitian(p_out @ h @ p_out).matrix_function(f)
        assert abs(chk.lhs - mc.op_norm((fh - fhp) @ p_in)) <= 1e-12


class TestMask:
    """The one selection helper: predicates and masks over the eigenvalues."""

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

    def test_mask_length_must_match_eigenvalue_count(self):
        e = mc.eig_hermitian(np.diag([1.0, 2.0, 3.0]))
        assert bd._mask(e, np.array([True, False, True])).tolist() == [True, False, True]
        with pytest.raises(ValueError, match="mask length"):
            bd._mask(e, np.array([True, False]))


def _eigs(*mats):
    return [mc.eig_hermitian_part(mc.as_matrix(m)) for m in mats]


def _same_check(got, want):
    assert got.context == want.context
    tol = 1e-14 * max(1.0, want.rhs)
    assert abs(got.lhs - want.lhs) <= tol and abs(got.rhs - want.rhs) <= tol


class TestEigensystemForm:
    """Each checker given eigensystems and the norm keyword the matrices
    would have given matches its matrix form; without the keyword it
    raises."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_form(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(4, 17))
        a = mc.random_hermitian(rng, n, norm=1.0)
        b = a + mc.random_hermitian(rng, n, norm=0.1)
        c = mc.random_hermitian(rng, n, norm=1.0)
        ea, eb = _eigs(a, b)
        cut = float(np.median(ea.eigenvalues))
        s1, s2 = (lambda x: x <= cut), (lambda x: x > cut + 0.2)
        comm_ab = mc.op_norm(mc.hermitian_commutator(a, b))
        _same_check(bd.check_davis_kahan(ea, eb, s1, s2, diff=mc.op_norm(a - b)),
                    bd.check_davis_kahan(a, b, s1, s2))
        _same_check(bd.check_davis_kahan(ea, b, s1, s2, delta_gap=0.01, diff=mc.op_norm(a - b)),
                    bd.check_davis_kahan(a, b, s1, s2, delta_gap=0.01))
        _same_check(bd.check_comm_proj(c, ea, s1, s2, comm=mc.op_norm(mc.hermitian_commutator(c, a))),
                    bd.check_comm_proj(c, a, s1, s2))
        prof = sm.smooth_profile(0.0, 1.0)
        _same_check(bd.fourier_commutator_bound(prof, ea, b, comm=comm_ab),
                    bd.fourier_commutator_bound(prof, a, b))

    @pytest.mark.parametrize("seed", range(4))
    def test_lieb_robinson_matches_matrix_form(self, seed):
        rng = np.random.default_rng(300 + seed)
        h, b, delta = _banded_system(rng, int(rng.integers(12, 25)), int(rng.integers(1, 3)))
        eh, eb = _eigs(h, b)
        cut, sep = 5, int(delta) + 2
        s1, s2 = (lambda x: x <= cut), (lambda x: x >= cut + sep)
        inner = lambda x: cut + 2 <= x <= cut + 2 * sep - 2
        outer = lambda x: cut <= x <= cut + 2 * sep
        prof = sm.smooth_profile(0.0, 1.0)
        t = sep / (math.e ** 2 * delta)
        for hh, bb in ((eh, eb), (h, eb), (eh, b)):
            _same_check(bd.lieb_robinson_decay(hh, bb, delta, s1, s2, t),
                        bd.lieb_robinson_decay(h, b, delta, s1, s2, t))
            _same_check(bd.lieb_robinson_function(hh, bb, delta, s1, s2, prof),
                        bd.lieb_robinson_function(h, b, delta, s1, s2, prof))
            _same_check(bd.lieb_robinson_nested(hh, bb, delta, inner, outer, prof),
                        bd.lieb_robinson_nested(h, b, delta, inner, outer, prof))
        ht, worst = bd.verify_finite_range(eh, eb, delta)
        ht_matrix, worst_matrix = bd.verify_finite_range(h, eb, delta)
        assert np.abs(ht - ht_matrix).max() <= 1e-14 and worst <= 1e-14 and worst_matrix == 0.0

    def test_missing_norm_keyword_raises(self):
        rng = np.random.default_rng(7)
        a = mc.random_hermitian(rng, 6, norm=1.0)
        b = mc.random_hermitian(rng, 6, norm=1.0)
        ea, eb = _eigs(a, b)
        s1, s2 = (lambda x: x <= -0.5), (lambda x: x > 0.5)
        prof = sm.smooth_profile(0.0, 1.0)
        calls = {
            "diff = ||A-B||": [lambda: bd.check_davis_kahan(ea, eb, s1, s2),
                               lambda: bd.check_davis_kahan(a, eb, s1, s2),
                               lambda: bd.check_davis_kahan(ea, b, s1, s2, delta_gap=0.1)],
            "comm = ||[C,D]||": [lambda: bd.check_comm_proj(a, eb, s1, s2)],
            "comm = ||[A,B]||": [lambda: bd.fourier_commutator_bound(prof, ea, b)],
        }
        for name, fns in calls.items():
            for fn in fns:
                with pytest.raises(ValueError, match=re.escape(f"needs {name}")):
                    fn()


# Each checker's answer at n = 0 and n = 1, for the matrix and the
# eigensystem form.  At n = 0 every set is empty: lhs and rhs are 0.  At n = 1
# Davis-Kahan's sandwich is sharp (A = 0, B = 1: both projections are the
# identity, ||A-B|| = 1 = delta_gap) and every other lhs vanishes, since two
# separated sets cannot both hold the one eigenvalue and 1x1 matrices commute;
# the Lieb-Robinson function bound needs both sets nonempty, so it raises.
PROF = sm.smooth_profile(0.0, 1.0)
EDGE_CHECKERS = {
    "davis-kahan": (lambda a, b: bd.check_davis_kahan(
        a, b, lambda x: x < 0.5, lambda x: x > 0.5, delta_gap=1.0, **_given("diff", a, b))),
    "comm-proj": (lambda a, b: bd.check_comm_proj(
        _mat(b), a, lambda x: x < 1.5, lambda x: x > 1.5, **_given("comm", b, a))),
    "fourier": (lambda a, b: bd.fourier_commutator_bound(PROF, a, _mat(b), **_given("comm", a, b))),
    "lieb-robinson decay": (lambda h, b: bd.lieb_robinson_decay(
        h, b, 1.0, lambda x: x <= 1, lambda x: x >= 3, 0.1)),
    "lieb-robinson function": (lambda h, b: bd.lieb_robinson_function(
        h, b, 1.0, lambda x: x <= 1, lambda x: x >= 3, PROF)),
    "lieb-robinson nested": (lambda h, b: bd.lieb_robinson_nested(
        h, b, 1.0, lambda x: x <= 1, lambda x: True, PROF)),
}
EDGE_ANSWERS = {(kind, n): (0.0, 0.0) for kind in EDGE_CHECKERS for n in (0, 1)}
EDGE_ANSWERS["davis-kahan", 1] = (1.0, 1.0)
EDGE_ANSWERS["lieb-robinson function", 1] = "separated and nonempty"


def _mat(x):
    return x.reconstruct() if isinstance(x, mc.HermitianEig) else x


def _given(name, x, y):
    """The norm keyword a caller passes with eigensystems: ||X-Y|| for
    ``diff``, ||[X,Y]|| for ``comm``; nothing for matrices."""
    if not any(isinstance(z, mc.HermitianEig) for z in (x, y)):
        return {}
    xm, ym = _mat(x), _mat(y)
    return {name: mc.op_norm(xm - ym if name == "diff" else mc.commutator(xm, ym))}


class TestEdgeSizes:
    """n = 0 and n = 1: every checker answers 0 <= 0 on an empty spectrum."""

    @pytest.mark.parametrize("eigensystems", [False, True])
    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("kind", sorted(EDGE_CHECKERS))
    def test_answer(self, kind, n, eigensystems):
        # A (or H) = 0, B = 1 at n = 1; both empty at n = 0
        a = np.zeros((n, n), dtype=complex)
        b = np.eye(n, dtype=complex)
        if eigensystems:
            a, b = _eigs(a, b)
        want = EDGE_ANSWERS[kind, n]
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                EDGE_CHECKERS[kind](a, b)
            return
        chk = EDGE_CHECKERS[kind](a, b)
        assert (chk.lhs, chk.rhs) == want
        assert chk.passed

    @pytest.mark.parametrize("n", [0, 1])
    def test_matrix_only_checkers(self, n):
        chk = bd.schur_divide(np.full((n, n), 2.0), [3.0] * n, [1.0] * n, 2.0)
        assert (chk.lhs, chk.rhs) == ((1.0, 1.0) if n else (0.0, 0.0))
        chk = bd.check_spectral_gap(np.zeros((n, n)), np.eye(n), 0.1, 0.2)
        assert (chk.lhs, chk.rhs) == (0.0, 0.0)
        eb, = _eigs(np.eye(n))
        ht, worst = bd.verify_finite_range(np.zeros((n, n)), eb, 1.0)
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
#   random_hermitian norms, ||[A,B]|| and the two finite-range lhs per
#   trial, one of them an exact zero (49); no SVD.
SUITE_BUDGET = {
    ("bounds", 10): {"eigh": 26, "eigvalsh": 66, "svd": 26},
    ("lieb-robinson", 5): {"eigh": 15, "eigvalsh": 0, "svd": 14},
    ("smoothing", 10): {"eigh": 10, "eigvalsh": 49, "svd": 0},
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
    ("projections", 100, 100),
    ("smoothing", 100, 200),
    ("tn", 50, 400),
])
def test_suite_checks_at_seed_one(name, trials, checks):
    # every trial evaluates its checks: none is dropped by a swallowed error
    out = run_suite(name, seed=1, trials=trials)
    assert (out["trials"], out["checks"], out["violations"]) == (trials, checks, 0)
