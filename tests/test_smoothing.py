"""Profiles, Fourier constants, finite-range averaging, and tail tables."""

import math

import numpy as np
import pytest

from nearcommute import matcore as mc
from nearcommute import smoothing as sm


class TestSmoothStep:
    def test_endpoints(self):
        f = sm.make_smooth_step()
        assert f(0.0) == pytest.approx(1.0, abs=1e-15)
        assert f(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint(self):
        assert sm.make_smooth_step()(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_partition_symmetry_identity(self):
        f = sm.make_smooth_step()
        x = np.linspace(0.0, 1.0, 10 ** 4 + 1)
        assert float(np.max(np.abs(f(x) + f(1 - x) - 1))) <= 1e-12

    def test_strictly_decreasing_inside(self):
        f = sm.make_smooth_step()
        x = np.linspace(0.05, 0.95, 500)
        v = np.asarray(f(x))
        assert np.all(np.diff(v) < 0)


class TestProfileConstants:
    def test_poly_bump_c1_exceeds_one(self):
        c0, c1 = sm.profile_constants(sm.poly_bump_profile())
        assert c1 > 1.0
        assert c0 > 0.0

    def test_argument_free_profiles_built_once(self):
        assert sm.poly_bump_profile() is sm.poly_bump_profile()
        assert sm.mollifier_profile() is sm.mollifier_profile()

    def test_c0_scales_inversely_with_width(self):
        p1 = sm.smooth_profile(1.0, 1.0)
        p2 = sm.smooth_profile(2.0, 2.0)
        assert p1.c0 / p2.c0 == pytest.approx(2.0, rel=0.01)

    def test_c1_invariant_under_scaling(self):
        p1 = sm.smooth_profile(1.0, 1.0)
        p2 = sm.smooth_profile(3.0, 3.0)
        assert p1.c1 == pytest.approx(p2.c1, rel=0.01)

    def test_indicator_divergence_flagged(self):
        with pytest.raises(sm.QuadratureDivergence):
            sm.profile_constants(sm.indicator_profile())

    def test_profile_invariants(self):
        p = sm.smooth_profile(0.3, 0.5, omega0=0.2)
        x = np.linspace(-2, 2, 4001)
        v = np.asarray(p(x))
        assert np.all(v >= 0) and np.all(v <= 1)
        assert p(0.2) == pytest.approx(1.0)
        core = np.abs(x - 0.2) <= 0.3
        assert np.all(v[core] == 1.0)
        outside = np.abs(x - 0.2) >= 0.8
        assert np.all(v[outside] == 0.0)
        # even about the center
        assert float(np.max(np.abs(np.asarray(p(0.2 + x)) - np.asarray(p(0.2 - x))))) <= 1e-14

    def test_tail_monotone_and_tail_zero_is_l1(self):
        p = sm.smooth_profile(1.0, 1.0)
        assert p.tail(0.0) == pytest.approx(p.c1, rel=1e-9)
        cs = np.linspace(0, 20, 40)
        tails = [p.tail(float(c)) for c in cs]
        assert all(tails[i] >= tails[i + 1] - 1e-12 for i in range(len(tails) - 1))


class TestPartitionOfUnity:
    def test_two_windows(self):
        parts = sm.partition_of_unity(2)
        x = np.linspace(-1, 1, 1001)
        s = sum(np.asarray(p(x)) for p in parts)
        assert float(np.max(np.abs(s - 1))) <= 1e-10

    @pytest.mark.parametrize("n_win", [3, 5, 8, 16])
    def test_sum_to_one(self, n_win):
        parts = sm.partition_of_unity(n_win)
        x = np.linspace(-1, 1, 2001)
        s = sum(np.asarray(p(x)) for p in parts)
        assert float(np.max(np.abs(s - 1))) <= 1e-10

    def test_nonconsecutive_supports_disjoint(self):
        parts = sm.partition_of_unity(6)
        x = np.linspace(-1.5, 1.5, 3001)
        for i in range(len(parts)):
            for j in range(i + 2, len(parts)):
                overlap = np.asarray(parts[i](x)) * np.asarray(parts[j](x))
                assert float(np.max(overlap)) == 0.0

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            sm.partition_of_unity(1)


class TestFiniteRange:
    def test_scalar_b_returns_a(self):
        rng = np.random.default_rng(1)
        a = mc.random_hermitian(rng, 6, norm=1.0)
        res = sm.finite_range(a, 0.3 * np.eye(6), 0.5)
        assert mc.op_norm(res.matrix - a) <= 1e-12

    def test_two_by_two_multiplier_value(self):
        # B = diag(a, b): the off-diagonal of H is A_12 * f((a-b)/Delta)
        prof = sm.poly_bump_profile()
        eps = 0.2
        gap = 0.6
        delta = 1.0
        a_mat = eps * np.array([[0, 1], [1, 0]], dtype=complex)
        b_mat = np.diag([gap / 2, -gap / 2]).astype(complex)
        res = sm.finite_range(a_mat, b_mat, delta, prof)
        expected = eps * float(prof(gap / delta))
        assert abs(res.matrix[0, 1]) == pytest.approx(expected, abs=1e-12)

    def test_projection_zero_pattern_random(self):
        rng = np.random.default_rng(2)
        a = mc.random_hermitian(rng, 16, norm=1.0)
        b = mc.random_hermitian(rng, 16, norm=1.0)
        delta = 0.4
        res = sm.finite_range(a, b, delta)
        eb = mc.eig_hermitian(b)
        lam = eb.eigenvalues
        for cut in np.linspace(lam[2], lam[-3], 5):
            p1 = mc.spectral_projection(eb, lam <= cut).matrix
            p2 = mc.spectral_projection(eb, lam >= cut + delta).matrix
            assert mc.op_norm(p1 @ res.matrix @ p2) <= 1e-10

    def test_bounds_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = mc.random_hermitian(rng, 10, norm=1.0)
            b = mc.random_hermitian(rng, 10, norm=1.0)
            res = sm.finite_range(a, b, float(rng.uniform(0.2, 1.0)))
            res.require()

    def test_eig_reconstructs_b(self):
        rng = np.random.default_rng(6)
        a = mc.random_hermitian(rng, 12, norm=1.0)
        b = mc.random_hermitian(rng, 12, norm=1.0)
        eig = sm.finite_range(a, b, 0.5).eig
        assert mc.op_norm(eig.reconstruct() - b) <= 1e-12

    def test_output_hermitian(self):
        rng = np.random.default_rng(4)
        a = mc.random_hermitian(rng, 12, norm=1.0)
        b = mc.random_hermitian(rng, 12, norm=1.0)
        res = sm.finite_range(a, b, 0.5)
        assert mc.op_norm(res.matrix - res.matrix.conj().T) <= 1e-12

    def test_vanishing_commutator_scaling(self):
        # ||H - A|| <= (c0/Delta) ||[A,B]||: the ratio stays bounded along a
        # scaling family where the commutator shrinks to zero
        rng = np.random.default_rng(5)
        b = mc.random_hermitian(rng, 8, norm=1.0)
        a0 = mc.eig_hermitian(b).matrix_function(lambda x: np.tanh(x))
        pert = mc.random_hermitian(rng, 8, norm=1.0)
        prof = sm.poly_bump_profile()
        delta = 0.5
        for t in (1e-2, 1e-4, 1e-6):
            a = (a0 + t * pert) / (1 + t)
            res = sm.finite_range(a, b, delta, prof)
            comm = mc.op_norm(mc.commutator(a, b))
            assert mc.op_norm(a - res.matrix) <= (prof.c0 / delta) * comm + 1e-15


class TestFiniteRangeMulti:
    def test_single_matrix_matches_plain(self):
        rng = np.random.default_rng(6)
        a = mc.random_hermitian(rng, 8, norm=1.0)
        b = mc.random_hermitian(rng, 8, norm=1.0)
        h1 = sm.finite_range(a, b, 0.5).matrix
        h2 = sm.finite_range_multi(a, [b], 0.5).matrix
        assert mc.op_norm(h1 - h2) <= 1e-10

    def test_commuting_diagonal_family(self):
        rng = np.random.default_rng(7)
        a = mc.random_hermitian(rng, 8, norm=1.0)
        b1 = np.diag(np.linspace(-1, 1, 8))
        b2 = np.diag(np.linspace(-1, 1, 8) ** 2)
        delta = 0.3
        res = sm.finite_range_multi(a, [b1, b2], delta)
        res.require()
        for bj in (b1, b2):
            eb = mc.eig_hermitian(bj)
            lam = eb.eigenvalues
            mid = float(np.median(lam))
            p1 = mc.spectral_projection(eb, lam <= mid).matrix
            p2 = mc.spectral_projection(eb, lam >= mid + delta).matrix
            assert mc.op_norm(p1 @ res.matrix @ p2) <= 1e-10

    def test_commuting_a_fixed_point(self):
        b1 = np.diag([0.0, 0.5, 1.0])
        b2 = np.diag([1.0, 0.25, 0.0])
        a = np.diag([2.0, 3.0, 4.0]).astype(complex)
        res = sm.finite_range_multi(a, [b1, b2], 0.2)
        assert mc.op_norm(res.matrix - a) <= 1e-12

    def test_rejects_noncommuting_family(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            sm.finite_range_multi(np.eye(2), [sx, sz], 0.5)


class TestFiniteRangeNormal:
    def test_hermitian_normal_reduces(self):
        rng = np.random.default_rng(8)
        a = mc.random_hermitian(rng, 8, norm=1.0)
        n_mat = mc.random_hermitian(rng, 8, norm=1.0)
        res = sm.finite_range_normal(a, n_mat, 0.4,
                                       comm=mc.op_norm(mc.commutator(a, n_mat)))
        res.require()

    def test_unitary_diagonal_arc_projections(self):
        rng = np.random.default_rng(9)
        n = 12
        phases = np.linspace(0, 2 * math.pi, n, endpoint=False)
        u = np.diag(np.exp(1j * phases))
        a = mc.random_hermitian(rng, n, norm=1.0)
        delta = 0.3
        res = sm.finite_range_normal(a, u, delta,
                                       comm=mc.op_norm(mc.commutator(a, u)))
        # eigenvectors are the standard basis; complex distance >= sqrt(2)*Delta
        # must kill the coupling
        vals = np.exp(1j * phases)
        for i in range(n):
            for j in range(n):
                if abs(vals[i] - vals[j]) >= math.sqrt(2) * delta:
                    assert abs(res.matrix[i, j]) <= 1e-10

    def test_commuting_fixed_point(self):
        phases = np.linspace(0, 2 * math.pi, 6, endpoint=False)
        u = np.diag(np.exp(1j * phases))
        a = np.diag(np.linspace(-1, 1, 6)).astype(complex)
        res = sm.finite_range_normal(a, u, 0.2,
                                       comm=mc.op_norm(mc.commutator(a, u)))
        assert mc.op_norm(res.matrix - a) <= 1e-12

    def test_rejects_nonnormal(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            sm.finite_range_normal(np.eye(2), m, 0.5,
                                   comm=mc.op_norm(mc.commutator(np.eye(2), m)))
        with pytest.raises(ValueError, match="delta"):
            sm.finite_range_normal(np.eye(2), np.eye(2), 0.0, comm=0.0)

    def test_eig_reconstructs_n(self):
        rng = np.random.default_rng(11)
        q = mc.random_unitary(rng, 10)
        u = q @ np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 10))) @ q.conj().T
        a = mc.random_hermitian(rng, 10, norm=1.0)
        eig = sm.finite_range_normal(a, u, 0.3,
                                     comm=mc.op_norm(mc.commutator(a, u))).eig
        rebuilt = (eig.vectors * eig.eigenvalues) @ eig.vectors.conj().T
        assert mc.op_norm(rebuilt - u) <= 1e-12


class TestTailTables:
    def test_tables_built_and_monotone_past_threshold(self):
        tabs = sm.tail_tables(np.arange(4, 40, 4), np.arange(8, 80, 8))
        s, t = tabs["S"], tabs["T"]
        ms = s.monotone_from()
        assert np.all(np.diff(s.tails[ms:]) <= 1e-15)
        mt = t.monotone_from()
        assert np.all(np.diff(t.tails[mt:]) <= 1e-15)

    def test_t_decreases_under_doubling(self):
        tabs = sm.tail_tables([10.0, 20.0], [16.0])
        t = tabs["T"]
        assert t.tails[1] < t.tails[0]

    def test_g_floor_enforced(self):
        # the T(l) table needs G >= 2 on its grid; default_G clamps to it
        ls = np.concatenate([np.linspace(0.0, 10.0, 101), [1e3, 1e6]])
        assert np.all(sm.default_G(ls) >= 2.0)
        assert float(sm.default_G(0.0)) == 2.0

    def test_scaling_identity_quadrature(self):
        for (j, w, c) in [(0.0, 1.0, 0.5), (1.0, 0.5, 1.0), (1.0, 2.0, 0.25)]:
            assert sm.scaling_identity_residual(j, w, c) <= 0.01

    def test_superblock_tail_identity_instance(self):
        # the half-window instance used by the T(l) table: a window with flat
        # radius and ramp both G/2l, cut at l/(5 e^2), equals the unit window
        # cut at G/(10 e^2)
        l = 8.0
        g = float(sm.default_G(l))
        w = g / (2 * l)
        c = l / (5 * math.e ** 2)
        assert sm.scaling_identity_residual(1.0, w, c) <= 0.01

    def test_csv_export(self, tmp_path):
        tabs = sm.tail_tables([4.0, 8.0], [16.0])
        path = tmp_path / "t.csv"
        tabs["T"].to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,tail,error_estimate"
        assert len(lines) == 3


class TestJointEig:
    def test_joint_diagonalization(self):
        rng = np.random.default_rng(10)
        q = mc.random_unitary(rng, 10)
        d1 = q @ np.diag(rng.uniform(-1, 1, 10)) @ q.conj().T
        d2 = q @ np.diag(rng.uniform(-1, 1, 10)) @ q.conj().T
        d1 = (d1 + d1.conj().T) / 2
        d2 = (d2 + d2.conj().T) / 2
        v, lams = sm.joint_eigh([d1, d2])
        for j, m in enumerate((d1, d2)):
            rebuilt = (v * lams[j]) @ v.conj().T
            assert mc.op_norm(rebuilt - m) <= 1e-9

    def test_conjugate_pair_splits_on_imaginary_part(self, monkeypatch):
        # e^{+-i theta} share a real part: one 2-cluster after the real step,
        # split by the imaginary step; singletons take no decomposition
        rng = np.random.default_rng(12)
        phases = np.array([0.4, -0.4, 1.3, 2.2, -2.9, 3.0])
        vals = np.exp(1j * phases)
        q = mc.random_unitary(rng, len(vals))
        u = q @ np.diag(vals) @ q.conj().T
        shapes = []
        real = sm.eig_hermitian

        def counting(a, **kwargs):
            shapes.append(np.shape(a))
            return real(a, **kwargs)

        monkeypatch.setattr(sm, "eig_hermitian", counting)
        eig = sm.normal_eig(u)
        assert shapes == [(6, 6), (2, 2)]
        assert np.allclose(np.sort_complex(eig.eigenvalues), np.sort_complex(vals),
                           atol=1e-12)
        for k in range(len(vals)):
            vec = eig.vectors[:, k]
            assert np.linalg.norm(u @ vec - eig.eigenvalues[k] * vec) <= 1e-12

    def test_rejects_noncommuting(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            sm.joint_eigh([sx, sz])
