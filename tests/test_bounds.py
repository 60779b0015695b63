"""Inequality checkers: sharpness examples, closed-form 2x2 oracles, and
seeded sampling runs."""

import math

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

    def test_mask_length_must_match_eigenvalue_count(self):
        e = mc.eig_hermitian(np.diag([1.0, 2.0, 3.0]))
        assert bd._mask(e, np.array([True, False, True])).tolist() == [True, False, True]
        with pytest.raises(ValueError, match="mask length"):
            bd._mask(e, np.array([True, False]))


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
