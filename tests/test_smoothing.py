"""Profiles, Fourier constants, finite-range averaging, and tail tables."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearcommute import matcore as mc
from nearcommute import smoothing as sm
from nearcommute import suites


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
        p = sm.poly_bump_profile()
        assert p.c1 > 1.0
        assert p.c0 > 0.0

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
        # a sharp unit window: its c0 integral diverges
        sharp = sm.Profile(lambda t: np.where(np.abs(t) <= 1.0, 1.0, 0.0), 1.0, 1e-12)
        with pytest.raises(sm.QuadratureDivergence):
            sharp.c0

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

    @staticmethod
    def profiles():
        return [sm.smooth_profile(0.3, 0.5, omega0=0.2), sm.smooth_profile(0.0, 1.0),
                sm.poly_bump_profile(), sm.mollifier_profile()]

    @staticmethod
    def edge_grid(p):
        """Interior points, the exact support edges, |t| = 1e4 and a NaN,
        as an n x n grid of differences like the averaging's."""
        rad = p.support_radius
        t = np.array([0.0, 0.5 * rad, -0.999 * rad, rad, -rad,
                      np.nextafter(rad, 0.0), np.nextafter(-rad, 0.0), 1e4, -1e4, np.nan])
        return p.omega0 + np.subtract.outer(t, np.linspace(0.0, 2 * rad, 7)), t

    @pytest.mark.parametrize("which", range(4))
    def test_call_equals_full_grid_formula(self, which):
        p = self.profiles()[which]
        grid, points = self.edge_grid(p)
        for x in (grid, points):
            t = np.atleast_1d(np.asarray(x, dtype=float) - p.omega0)
            with np.errstate(invalid="ignore"):
                old = np.where(np.abs(t) >= p.support_radius, 0.0, p._fn(t))
                got = p(x)
            assert got.shape == old.shape and got.tobytes() == old.tobytes()
        assert p(p.omega0 + p.support_radius) == 0.0

    def test_window_evaluated_only_on_its_support(self):
        seen = []
        base = sm.poly_bump_profile()

        def recording(t):
            seen.append(np.array(t, copy=True))
            return base._fn(t)

        p = sm.Profile(recording, base.r, base.w, omega0=0.25)
        grid, _ = self.edge_grid(p)
        p(grid)
        args = np.concatenate([a.ravel() for a in seen])
        assert args.size == np.count_nonzero(~(np.abs(grid - 0.25) >= p.support_radius))
        assert np.all((np.abs(args) < p.support_radius) | np.isnan(args))
        assert np.isnan(args).any()  # a NaN argument reaches the window

    def test_fourier_samples_only_the_support(self):
        # a window that refuses any point off its support still gets its
        # transform, equal bit for bit to the full-grid one
        base = sm.poly_bump_profile()

        def strict(t):
            if np.any(np.abs(t) >= base.support_radius):
                raise AssertionError("sampled off the support")
            return base._fn(t)

        rad = base.support_radius
        for n in (sm.FOURIER_GRID, sm.FOURIER_GRID // 2):
            span = sm.SPAN_FACTOR * rad
            dx = span / n
            fhat = np.fft.fft(base._fn(-span / 2.0 + dx * np.arange(n)))
            fhat[1::2] *= -1.0
            fhat *= dx / (2.0 * math.pi)
            k, got = sm._dft_abs(strict, rad, n)
            assert got.tobytes() == np.abs(np.fft.fftshift(fhat)).tobytes()
            assert k.tobytes() == np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(n, d=dx)).tobytes()
        f, want = sm.Profile(strict, base.r, base.w).fourier, base.fourier
        for field in dataclasses.fields(f):
            assert np.asarray(getattr(f, field.name)).tobytes() == \
                np.asarray(getattr(want, field.name)).tobytes(), field.name

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


@pytest.mark.parametrize("r, w", [(0.5, 0.0), (-0.1, 0.5)])
def test_smooth_profile_shape_rejected(r, w):
    with pytest.raises(ValueError, match="need w > 0 and r >= 0"):
        sm.smooth_profile(r, w)


def _averaged(a, b, delta):
    """``finite_range`` of a caller's A and B: B decomposed by the checked
    ``eig_hermitian`` and ||[A,B]|| measured."""
    return sm.finite_range(a, mc.eig_hermitian(b), delta, comm=mc.op_norm(mc.commutator(a, b)))


@pytest.mark.parametrize("driver", [
    lambda a, b: sm.finite_range(a, mc.eig_hermitian(b), 0.5, comm=0.0),
    lambda a, b: sm.finite_range_normal(a, sm.normal_eig(b), 0.5, comm=0.0),
], ids=["finite_range", "finite_range_normal"])
def test_eigensystem_of_another_size_is_named(driver):
    with pytest.raises(mc.MatrixShapeError, match=r"dimension mismatch: \(3, 3\) vs \(4, 4\)"):
        driver(0.5 * np.eye(3), np.diag(np.linspace(-0.5, 0.5, 4)))


# A NaN Delta would reach eigvalsh as "Eigenvalues did not converge", an
# infinite one gives ||A-H|| = 0 <= 0 beside a failing ||[H,B]|| check, and
# a negative ||[A,B]|| two failing checks: each is refused by name.
@pytest.mark.parametrize("delta, comm, message", [
    (math.nan, 0.1, "delta must be finite and positive, got nan"),
    (math.inf, 0.1, "delta must be finite and positive, got inf"),
    (0.5, -0.1, "comm must be finite and nonnegative, got -0.1"),
    (0.5, math.nan, "comm must be finite and nonnegative, got nan"),
    (0.5, math.inf, "comm must be finite and nonnegative, got inf"),
], ids=["delta-nan", "delta-inf", "comm-negative", "comm-nan", "comm-inf"])
@pytest.mark.parametrize("driver", [
    lambda a, b, delta, comm: sm.finite_range(a, mc.eig_hermitian(b), delta, comm=comm),
    lambda a, b, delta, comm: sm.finite_range_normal(a, sm.normal_eig(b), delta, comm=comm),
], ids=["finite_range", "finite_range_normal"])
def test_bad_range_or_commutator_is_named(driver, delta, comm, message):
    rng = np.random.default_rng(6)
    a, b = (mc.random_hermitian(rng, 6, norm=0.9) for _ in range(2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        driver(a, b, delta, comm)


class TestFiniteRange:
    def test_scalar_b_returns_a(self):
        rng = np.random.default_rng(1)
        a = mc.random_hermitian(rng, 6, norm=1.0)
        res = _averaged(a, 0.3 * np.eye(6), 0.5)
        assert mc.op_norm(res.matrix - a) <= 1e-12

    def test_two_by_two_multiplier_value(self):
        # B = diag(a, b): the off-diagonal of H is A_12 * f((a-b)/Delta)
        prof = sm.poly_bump_profile()
        eps = 0.2
        gap = 0.6
        delta = 1.0
        a_mat = eps * np.array([[0, 1], [1, 0]], dtype=complex)
        b_mat = np.diag([gap / 2, -gap / 2]).astype(complex)
        res = _averaged(a_mat, b_mat, delta)
        expected = eps * float(prof(gap / delta))
        assert abs(res.matrix[0, 1]) == pytest.approx(expected, abs=1e-12)

    def test_projection_zero_pattern_random(self):
        rng = np.random.default_rng(2)
        a = mc.random_hermitian(rng, 16, norm=1.0)
        b = mc.random_hermitian(rng, 16, norm=1.0)
        delta = 0.4
        res = _averaged(a, b, delta)
        eb = mc.eig_hermitian(b)
        lam = eb.eigenvalues
        for cut in np.linspace(lam[2], lam[-3], 5):
            v1, v2 = eb.vectors[:, lam <= cut], eb.vectors[:, lam >= cut + delta]
            assert mc.op_norm(v1.conj().T @ res.matrix @ v2) <= 1e-10

    def test_bounds_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = mc.random_hermitian(rng, 10, norm=1.0)
            b = mc.random_hermitian(rng, 10, norm=1.0)
            res = _averaged(a, b, float(rng.uniform(0.2, 1.0)))
            res.require()

    def test_distance_check_measured_from_a(self):
        # ||A - H|| is measured from the A that passed the Hermitian gate.
        # A = B + 0.5i I is far from Hermitian: both functions reject it
        # (averaging its Hermitian part would report ||A - H|| = 0.5 against
        # a right-hand side of order 1e-16)
        rng = np.random.default_rng(12)
        b = mc.random_hermitian(rng, 6, norm=1.0)
        a = b + 0.5j * np.eye(6)
        comm = mc.op_norm(mc.commutator(a, b))
        with pytest.raises(mc.NotHermitianError, match="A must be Hermitian"):
            sm.finite_range(a, mc.eig_hermitian(b), 0.5, comm=comm)
        with pytest.raises(mc.NotHermitianError, match="A must be Hermitian"):
            sm.finite_range_normal(a, sm.normal_eig(b), 0.5, comm=comm)
        # a defect within HERMITIAN_TOL is symmetrised away: the same bits
        # as averaging (A + A*)/2
        h = mc.random_hermitian(rng, 10, norm=1.0)
        n_mat = mc.random_hermitian(rng, 10, norm=1.0)
        a = h + 0.1 * mc.HERMITIAN_TOL * 1j * mc.random_hermitian(rng, 10, norm=1.0)
        sym = (a + a.conj().T) / 2
        assert not np.array_equal(a, a.conj().T)
        comm = mc.op_norm(mc.commutator(sym, n_mat))
        eb, en = mc.eig_hermitian(n_mat), sm.normal_eig(n_mat)
        for average in (lambda m: sm.finite_range(m, eb, 0.5, comm=comm),
                        lambda m: sm.finite_range_normal(m, en, 0.5, comm=comm)):
            got, want = average(a), average(sym)
            assert np.array_equal(got.coords, want.coords)
            assert [c.lhs for c in got.checks] == [c.lhs for c in want.checks]

    def test_eigensystem_in_place_of_b(self):
        # a caller that validated and decomposed B hands over its eigensystem
        # and ||[A,B]||: the same bits as from the checked eig_hermitian, the
        # eigensystem itself kept, and no call without ||[A,B]||
        rng = np.random.default_rng(7)
        a = mc.random_hermitian(rng, 12, norm=1.0)
        b = mc.random_hermitian(rng, 12, norm=1.0)
        comm = mc.op_norm(mc.commutator(a, b))
        eb = mc.eig_hermitian_part(b)
        from_b = sm.finite_range(a, mc.eig_hermitian(b), 0.5, comm=comm)
        from_eig = sm.finite_range(a, eb, 0.5, comm=comm)
        assert from_eig.eig is eb
        assert np.array_equal(from_eig.coords, from_b.coords)
        assert [c.lhs for c in from_eig.checks] == [c.lhs for c in from_b.checks]
        with pytest.raises(TypeError, match="keyword-only argument: 'comm'"):
            sm.finite_range(a, eb, 0.5)

    def test_eig_reconstructs_b(self):
        rng = np.random.default_rng(6)
        a = mc.random_hermitian(rng, 12, norm=1.0)
        b = mc.random_hermitian(rng, 12, norm=1.0)
        eig = _averaged(a, b, 0.5).eig
        assert mc.op_norm(eig.reconstruct() - b) <= 1e-12

    def test_output_hermitian(self):
        rng = np.random.default_rng(4)
        a = mc.random_hermitian(rng, 12, norm=1.0)
        b = mc.random_hermitian(rng, 12, norm=1.0)
        res = _averaged(a, b, 0.5)
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
            res = _averaged(a, b, delta)
            comm = mc.op_norm(mc.commutator(a, b))
            assert mc.op_norm(a - res.matrix) <= (prof.c0 / delta) * comm + 1e-15


class TestFiniteRangeNormal:
    def test_hermitian_normal_reduces(self):
        rng = np.random.default_rng(8)
        a = mc.random_hermitian(rng, 8, norm=1.0)
        n_mat = mc.random_hermitian(rng, 8, norm=1.0)
        res = sm.finite_range_normal(a, sm.normal_eig(n_mat), 0.4,
                                     comm=mc.op_norm(mc.commutator(a, n_mat)))
        res.require()

    def test_unitary_diagonal_arc_projections(self):
        rng = np.random.default_rng(9)
        n = 12
        phases = np.linspace(0, 2 * math.pi, n, endpoint=False)
        u = np.diag(np.exp(1j * phases))
        a = mc.random_hermitian(rng, n, norm=1.0)
        delta = 0.3
        res = sm.finite_range_normal(a, sm.normal_eig(u), delta,
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
        res = sm.finite_range_normal(a, sm.normal_eig(u), 0.2,
                                     comm=mc.op_norm(mc.commutator(a, u)))
        assert mc.op_norm(res.matrix - a) <= 1e-12

    def test_rejects_nonnormal(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            sm.finite_range_normal(np.eye(2), sm.normal_eig(m), 0.5,
                                   comm=mc.op_norm(mc.commutator(np.eye(2), m)))
        with pytest.raises(ValueError, match="delta"):
            sm.finite_range_normal(np.eye(2), sm.normal_eig(np.eye(2)), 0.0, comm=0.0)

    def test_eig_reconstructs_n(self):
        rng = np.random.default_rng(11)
        q = mc.random_unitary(rng, 10)
        u = q @ np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 10))) @ q.conj().T
        a = mc.random_hermitian(rng, 10, norm=1.0)
        eig = sm.finite_range_normal(a, sm.normal_eig(u), 0.3,
                                     comm=mc.op_norm(mc.commutator(a, u))).eig
        rebuilt = (eig.vectors * eig.eigenvalues) @ eig.vectors.conj().T
        assert mc.op_norm(rebuilt - u) <= 1e-12

    def test_takes_a_validated_unitarys_eigensystem(self, monkeypatch):
        # the NormalEig of a U checked by require_unitary stands in for U:
        # the same averaging, with no normality gate
        rng = np.random.default_rng(12)
        u = mc.random_unitary(rng, 10)
        a = mc.random_hermitian(rng, 10, norm=1.0)
        comm = mc.op_norm(mc.commutator(a, u))
        want = sm.finite_range_normal(a, sm.normal_eig(u), 0.3, comm=comm)

        def refuse(m):
            raise AssertionError("require_normal reached")

        monkeypatch.setattr(sm, "require_normal", refuse)
        got = sm.finite_range_normal(a, sm.unitary_eig(mc.require_unitary(u, "U")), 0.3,
                                     comm=comm)
        assert np.array_equal(got.coords, want.coords)
        assert [(c.lhs, c.rhs) for c in got.checks] == [(c.lhs, c.rhs) for c in want.checks]

    def test_near_normal_n_measured_against_n(self):
        # the normality test accepts N, but its eigenvectors lie 63 degrees
        # apart: no orthonormal basis reproduces it as diag(mu)
        n_mat = np.array([[0.0, 5e-6], [0.0, 1e-5]])
        a = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]])
        res = sm.finite_range_normal(a, sm.normal_eig(n_mat), 0.3,
                                     comm=mc.op_norm(mc.commutator(a, n_mat)))
        v = res.eig.vectors
        assert not res.eig.exact
        assert mc.op_norm(v.conj().T @ v - np.eye(2)) <= 1e-15
        tol = 2e-13
        # each lhs is its screened definition: ||X||_F within the rhs, else ||X||
        for chk, x in ((res.checks[0], a - res.matrix),
                       (res.checks[1], mc.commutator(res.matrix, n_mat))):
            frob, norm = float(np.linalg.norm(x)), mc.op_norm(x)
            assert abs(chk.lhs - (frob if frob <= chk.rhs else norm)) <= tol
            assert chk.lhs >= norm - tol


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


# Exact binary points: c < 0, c = 0, and m * 2^e up past every grid's kmax.
TAIL_POINTS = [-1.0, 0.0] + [m * 2.0 ** e for e in range(-11, 14) for m in (1.0, 1.5)]

# c0, c1, c0_err, c1_err and tail(c) at TAIL_POINTS, as float.hex
FOURIER_PINS = {
    "F[0,1]": (
        ("0x1.89d2e6ac17e18p+1", "0x1.2a392be6db86ep+0",
         "0x1.9ba03090d3ab9p-14", "0x1.060e9d1fe5b26p-25"),
        (
            "0x1.2a392be6db86ep+0", "0x1.2a392be6db86ep+0", "0x1.2a2efd82f9da3p+0",
            "0x1.2a29e60f855cbp+0", "0x1.2a24ce9c10df2p+0", "0x1.2a1a9fb527e40p+0",
            "0x1.2a1070ce3ee8fp+0", "0x1.29fc13006cf2bp+0", "0x1.29e7b5329afc8p+0",
            "0x1.29bef996f7102p+0", "0x1.29963dfb5323bp+0", "0x1.2944c6c40b4aep+0",
            "0x1.28f34f8cc3722p+0", "0x1.2850611e33c08p+0", "0x1.27ad72afa40eep+0",
            "0x1.266795d284abbp+0", "0x1.2521b8f565487p+0", "0x1.2295ff3b26821p+0",
            "0x1.200add9c81c80p+0", "0x1.1af4cc8d3efb5p+0", "0x1.15e11b31146d8p+0",
            "0x1.0bbfd58885275p+0", "0x1.01abf63b0f46fp+0", "0x1.db7ec973c206bp-1",
            "0x1.b474cec4e8dc7p-1", "0x1.69db4fbc3c534p-1", "0x1.255aeee21f9ccp-1",
            "0x1.67fecff2a555ep-2", "0x1.9a1dbf3041bccp-3", "0x1.653ac7c5a56cep-4",
            "0x1.ebe902ba4595ap-5", "0x1.205cf16aa2db3p-6", "0x1.3c6fe36cc9a1ap-7",
            "0x1.148ef9f6bca7ap-9", "0x1.55233b4a7c488p-11", "0x1.490f69ed1434bp-14",
            "0x1.2c98185aea38cp-16", "0x1.69a95db7d558ep-20", "0x1.34ce19b4dedb4p-23",
            "0x1.1fcdc3e4dba68p-25", "0x1.073b282d5c9e6p-25", "0x1.061023a8f6325p-25",
            "0x1.060ea42f2bfb3p-25", "0x1.060e9eddbd65bp-25", "0x1.060e9ea6bd932p-25",
            "0x1.060e9e3fb9129p-25", "0x1.060e9dd40b562p-25", "0x1.060e9d04c67cep-25",
            "0x1.060e9cdfe5b26p-25", "0x1.060e9cdfe5b26p-25", "0x1.060e9cdfe5b26p-25",
            "0x1.060e9cdfe5b26p-25",
        ),
    ),
    "F[1,1]": (
        ("0x1.876fb2bb40f10p+1", "0x1.9cc916c85d188p+0",
         "0x1.263eebfbadcb2p-12", "0x1.76a8247fb743ep-23"),
        (
            "0x1.9cc916c85d188p+0", "0x1.9cc916c85d188p+0", "0x1.9caa8e9602fd8p+0",
            "0x1.9c9b49062dcb8p+0", "0x1.9c8c037658999p+0", "0x1.9c6d7856ae35bp+0",
            "0x1.9c4eed3703d1cp+0", "0x1.9c11d6f7af09fp+0", "0x1.9bd4c0b85a423p+0",
            "0x1.9b5a9439b0b29p+0", "0x1.9ae067bb0722fp+0", "0x1.99ec0ebdb403cp+0",
            "0x1.98f7b5c060e48p+0", "0x1.970f03c5baa62p+0", "0x1.952651cb1467bp+0",
            "0x1.9154edd5c7eadp+0", "0x1.8d851bad65dbbp+0", "0x1.85e5fbea0e27ep+0",
            "0x1.7e4d20868ab13p+0", "0x1.6f2b8a48631fdp+0", "0x1.602d41b024f0cp+0",
            "0x1.42cc184a968d3p+0", "0x1.267970b9be76ap+0", "0x1.e4a0190588fdcp-1",
            "0x1.8baacb64e11fap-1", "0x1.12156c997fb96p-1", "0x1.ca3fd66ae0638p-2",
            "0x1.52f3efd07769fp-2", "0x1.a73031fb03197p-3", "0x1.882419980994bp-4",
            "0x1.62a437fd6e37ep-5", "0x1.179e3e4bbc1fap-6", "0x1.41c33c3ca221dp-7",
            "0x1.27955f9f801a3p-9", "0x1.44400b06122c4p-11", "0x1.5751377d346e8p-14",
            "0x1.19363d03f6a64p-16", "0x1.58a94a3c0aa7ep-20", "0x1.38ee66498b176p-22",
            "0x1.7cfab7e686fb4p-23", "0x1.76f50a6ecbf20p-23", "0x1.76a88ce3e83eap-23",
            "0x1.76a826506d317p-23", "0x1.76a824ee59a47p-23", "0x1.76a824cc2fe6fp-23",
            "0x1.76a8248b81304p-23", "0x1.76a8247fb743ep-23", "0x1.76a8247fb743ep-23",
            "0x1.76a8247fb743ep-23", "0x1.76a8247fb743ep-23", "0x1.76a8247fb743ep-23",
            "0x1.76a8247fb743ep-23",
        ),
    ),
    "F[0.5,0.25]": (
        ("0x1.8743605d1df50p+3", "0x1.d1d633815e696p+0",
         "0x1.08182477209fbp-9", "0x1.f865fb550087ep-22"),
        (
            "0x1.d1d633815e696p+0", "0x1.d1d633815e696p+0", "0x1.d1c981bbf7711p+0",
            "0x1.d1c324e877febp+0", "0x1.d1bcc814f88c5p+0", "0x1.d1b00e6df9a79p+0",
            "0x1.d1a354c6fac2dp+0", "0x1.d189e178fcf95p+0", "0x1.d1706e2aff2fdp+0",
            "0x1.d13d878f039ccp+0", "0x1.d10aa0f30809cp+0", "0x1.d0a4d3bb10e3cp+0",
            "0x1.d03f068319bdbp+0", "0x1.cf736c132b71ap+0", "0x1.cea7d1a33d25ap+0",
            "0x1.cd109cc3608d8p+0", "0x1.cb7967e383f56p+0", "0x1.c84afe23cac53p+0",
            "0x1.c51c94641194fp+0", "0x1.bec315957d737p+0", "0x1.b869efa819e47p+0",
            "0x1.abc4ef8443342p+0", "0x1.9f3428f955f77p+0", "0x1.866934d07ffebp+0",
            "0x1.6e3bc6b04965ap+0", "0x1.4077e0932c847p+0", "0x1.1743027fec53bp+0",
            "0x1.ad324c41660a4p-1", "0x1.61f95f8bf11eap-1", "0x1.3a0ab0dc5c67ap-1",
            "0x1.d72eb93cc979ap-2", "0x1.507b140a06a53p-2", "0x1.d7380d2bfa8e6p-3",
            "0x1.93852a734d9f1p-4", "0x1.920427f4890f8p-5", "0x1.173128eab63dep-6",
            "0x1.4412c87dc21f1p-7", "0x1.298b210e01b23p-9", "0x1.40050f9971768p-11",
            "0x1.5c131fa22ed8bp-14", "0x1.20dbf3e0113f6p-16", "0x1.b18c4a5276c1ep-20",
            "0x1.3a7ffd5b53030p-21", "0x1.fb8beadff67b9p-22", "0x1.f88be71b28735p-22",
            "0x1.f8662f0eea951p-22", "0x1.f865fbfa9a6d5p-22", "0x1.f865fb450f19ep-22",
            "0x1.f865fb2b11fa3p-22", "0x1.f865fb250087ep-22", "0x1.f865fb250087ep-22",
            "0x1.f865fb250087ep-22",
        ),
    ),
    "poly": (
        ("0x1.29085bb9ec05ep+1", "0x1.07846941ccc46p+0",
         "0x1.410770a18489dp-15", "0x1.bacf036fef069p-27"),
        (
            "0x1.07846941ccc46p+0", "0x1.07846941ccc46p+0", "0x1.077b19ffea1ecp+0",
            "0x1.07767246874e6p+0", "0x1.0771ca8d247dfp+0", "0x1.07687b1a5edd1p+0",
            "0x1.075f2ba7993c4p+0", "0x1.074c8cc20dfa8p+0", "0x1.0739eddc82b8dp+0",
            "0x1.0714b0116c357p+0", "0x1.06ef724655b20p+0", "0x1.06a4f6b028ab3p+0",
            "0x1.065a7b19fba46p+0", "0x1.05c583eda196cp+0", "0x1.05308cc147893p+0",
            "0x1.04069e68936dfp+0", "0x1.02dcb00fdf52bp+0", "0x1.0088d35e771c4p+0",
            "0x1.fc6b05a3755d8p-1", "0x1.f31e1fe7aafeep-1", "0x1.e9d599d845d35p-1",
            "0x1.d74fd0da1214dp-1", "0x1.c4e2b59d00dbbp-1", "0x1.a07569ccce64bp-1",
            "0x1.7cc68d2756660p-1", "0x1.3899608b3f331p-1", "0x1.f3fb3217fe5d7p-2",
            "0x1.244eb2c7529e8p-2", "0x1.28f20ec942ae8p-3", "0x1.ba975fc8f02a7p-6",
            "0x1.e16307a3bc41ep-7", "0x1.fe0bf130030adp-9", "0x1.8af49aaa09f41p-10",
            "0x1.00c1c3d6b8041p-11", "0x1.9340e91fa75fep-13", "0x1.e24164a0c23f3p-15",
            "0x1.9aace7452ac6fp-16", "0x1.efc9003dee62bp-18", "0x1.a3cfd385934fdp-19",
            "0x1.f0722efe82acfp-21", "0x1.ab1b777b49276p-22", "0x1.0daccef09cb87p-23",
            "0x1.004d1e7806b48p-24", "0x1.b8e97e18cdfe4p-26", "0x1.2acb8730778eap-26",
            "0x1.c2fdfb269d3f1p-27", "0x1.9e9a74243b760p-27", "0x1.88f149cb6e079p-27",
            "0x1.871819efef069p-27", "0x1.871819efef069p-27", "0x1.871819efef069p-27",
            "0x1.871819efef069p-27",
        ),
    ),
}


PINNED_PROFILES = {
    "F[0,1]": lambda: sm.smooth_profile(0.0, 1.0),
    "F[1,1]": lambda: sm.smooth_profile(1.0, 1.0),
    "F[0.5,0.25]": lambda: sm.smooth_profile(0.5, 0.25),
    "poly": sm.poly_bump_profile,
}


class TestFourierRecord:
    def test_computed_once_per_shape(self, monkeypatch):
        sm._centred_window.cache_clear()
        real = sm.Profile._compute_fourier
        shapes = []

        def counting(self):
            shapes.append((self.r, self.w))
            return real(self)

        monkeypatch.setattr(sm.Profile, "_compute_fourier", counting)
        p = sm.smooth_profile(0.0, 1.0)
        assert sm.smooth_profile(0.0, 1.0) is p
        assert p.tail(0.5) < p.c1
        sm._s_tail(20.0, 8)
        assert shapes == [(0.0, 1.0)]
        sm.tail_tables([10.0], [16.0])
        assert shapes == [(0.0, 1.0), (1.0, 1.0)]
        # shifted copies share their shape's record
        assert sm.smooth_profile(0.0, 1.0, omega0=0.3).c0 == p.c0
        assert all(q.c1 == p.c1 for q in sm.partition_of_unity(2))
        assert shapes == [(0.0, 1.0), (1.0, 1.0)]

    @pytest.mark.parametrize("key", sorted(PINNED_PROFILES))
    def test_record_keeps_no_full_grid(self, key):
        record = PINNED_PROFILES[key]().fourier
        sizes = [np.size(getattr(record, f.name)) for f in dataclasses.fields(record)]
        assert max(sizes) <= sm.FOURIER_GRID // 2 + 1

    @pytest.mark.parametrize("key", sorted(PINNED_PROFILES))
    def test_constants_and_tails_pinned(self, key):
        p = PINNED_PROFILES[key]()
        f = p.fourier
        consts, tails = FOURIER_PINS[key]
        assert [x.hex() for x in (f.c0, f.c1, f.c0_err, f.c1_err)] == list(consts)
        assert [p.tail(c).hex() for c in TAIL_POINTS] == list(tails)


class TestJointEig:
    def test_joint_diagonalization(self):
        # N = D1 + i D2 for a commuting Hermitian pair: one basis
        # diagonalises both parts
        rng = np.random.default_rng(10)
        q = mc.random_unitary(rng, 10)
        d1 = q @ np.diag(rng.uniform(-1, 1, 10)) @ q.conj().T
        d2 = q @ np.diag(rng.uniform(-1, 1, 10)) @ q.conj().T
        d1 = (d1 + d1.conj().T) / 2
        d2 = (d2 + d2.conj().T) / 2
        eig = sm.normal_eig(d1 + 1j * d2)
        v = eig.vectors
        for lam, m in ((eig.eigenvalues.real, d1), (eig.eigenvalues.imag, d2)):
            rebuilt = (v * lam) @ v.conj().T
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
        real = sm.eig_hermitian_part

        def counting(a):
            shapes.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(sm, "eig_hermitian_part", counting)
        eig = sm.normal_eig(u)
        assert shapes == [(6, 6), (2, 2)]
        # matched by imaginary part: the pair's real parts are equal only
        # up to roundoff, which would decide a sort on the real part
        got = eig.eigenvalues[np.argsort(eig.eigenvalues.imag)]
        assert np.allclose(got, vals[np.argsort(vals.imag)], atol=1e-12)
        for k in range(len(vals)):
            vec = eig.vectors[:, k]
            assert np.linalg.norm(u @ vec - eig.eigenvalues[k] * vec) <= 1e-12

    def test_imaginary_part_sets_cluster_scale(self, monkeypatch):
        # ||Im N|| = 3 fails the Cholesky test, so its norm is taken and the
        # cluster tolerance is 3e-8: Re parts 2e-8 apart form one cluster,
        # rediagonalised by Im N
        rng = np.random.default_rng(21)
        vals = np.array([0.1 + 3j, 0.1 + 2e-8 - 1j, -0.5 + 0.5j, 0.7 - 0.2j, -0.9j])
        q = mc.random_unitary(rng, len(vals))
        n_mat = (q * vals) @ q.conj().T
        shapes = []
        real = sm.eig_hermitian_part

        def counting(a):
            shapes.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(sm, "eig_hermitian_part", counting)
        eig = sm.normal_eig(n_mat)
        assert shapes == [(5, 5), (2, 2)]
        # a cluster's real parts are equal to within its tolerance
        assert np.allclose(np.sort(eig.eigenvalues.imag), np.sort(vals.imag), atol=1e-12)
        assert np.allclose(np.sort(eig.eigenvalues.real), np.sort(vals.real), atol=3e-8)

    def test_split_cluster_eigenpairs_have_roundoff_residuals(self):
        # Re parts 2e-8 apart share a cluster; after Im N splits it, each
        # vector's Re N value is its own Rayleigh quotient, not the
        # ascending eigenvalue at its index
        vals = np.array([0.1 + 3j, 0.1 + 2e-8 - 1j, -0.5 + 0.5j, 0.7 - 0.2j, -0.9j])
        q = mc.random_unitary(np.random.default_rng(21), len(vals))
        n_mat = (q * vals) @ q.conj().T
        eig = sm.normal_eig(n_mat)
        v, lam = eig.vectors, eig.eigenvalues
        residuals = np.linalg.norm(n_mat @ v - v * lam, axis=0)
        assert residuals.max() <= 1e-14 * max(1.0, mc.op_norm(n_mat))

    @pytest.mark.parametrize("phase", [math.pi / 2, -math.pi / 2])
    def test_eigenvalue_at_plus_minus_i_same_as_with_the_norm(self, monkeypatch, phase):
        # ||Im U|| = 1 is the Cholesky test's boundary: whichever way it
        # goes, the output equals the one that takes op_norm(Im U)
        rng = np.random.default_rng(22)
        vals = np.exp(1j * np.array([phase, 0.3, 0.3 + 5e-9, 2.0, -2.5, 3.1]))
        q = mc.random_unitary(rng, len(vals))
        u = (q * vals) @ q.conj().T
        got = sm.normal_eig(u)
        monkeypatch.setattr(sm, "hermitian_norm_within", lambda h, c: False)
        want = sm.normal_eig(u)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.vectors, want.vectors)

    @staticmethod
    def assert_accurate(n_mat, eig):
        """V diag(mu) V* reproduces N and V is orthonormal, both to
        1e-13 max(1, ||N||)."""
        n = n_mat.shape[0]
        v, mu = eig.vectors, eig.eigenvalues
        tol = 1e-13 * max(1.0, np.linalg.norm(n_mat, 2))
        assert np.linalg.norm((v * mu) @ v.conj().T - n_mat, 2) <= tol
        assert np.linalg.norm(v.conj().T @ v - np.eye(n), 2) <= tol
        assert eig.exact

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 48), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_reconstructs_to_roundoff(self, n, seed, planted):
        # a random unitary, or a normal N whose Re parts run in chains
        # 1e-6..1e-3 apart: eigh of Re N alone is off by about eps/gap there
        rng = np.random.default_rng(seed)
        q = mc.random_unitary(rng, n)
        if planted:
            steps = np.where(rng.random(n) < 0.5, 10.0 ** rng.uniform(-6, -3, n),
                             rng.uniform(0.0, 0.2, n))
            re = -0.9 + np.cumsum(steps)
            n_mat = (q * (re + 1j * rng.uniform(-1.0, 1.0, n))) @ q.conj().T
        else:
            n_mat = q
        self.assert_accurate(n_mat, sm.normal_eig(n_mat))

    def test_close_real_parts_of_a_unitary(self):
        # Re U has two eigenvalues 7.4e-6 apart
        u = mc.random_unitary(np.random.default_rng(14), 16)
        self.assert_accurate(u, sm.normal_eig(u))

    def test_near_normal_keeps_an_orthonormal_basis(self):
        # ||[N,N*]||_F = 7.9e-11 passes the normality test; the first-order
        # step would mix the two eigenvectors, 63 degrees apart, by about 0.5
        n_mat = np.array([[0.0, 5e-6], [0.0, 1e-5]])
        eig = sm.normal_eig(n_mat)
        v = eig.vectors
        assert mc.op_norm(v.conj().T @ v - np.eye(2)) <= 1e-15
        assert not eig.exact

    def test_rejects_noncommuting(self):
        # Re N and Im N do not commute exactly when N is not normal
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match=r"matrix is not normal: \|\|\[N,N\*\]\|\| = 4\.000e\+00"):
            sm.normal_eig(sx + 1j * sz)

    def test_unitary_takes_no_operator_norm_of_n_or_its_commutator(self, monkeypatch):
        u = mc.random_unitary(np.random.default_rng(1), 16)
        refused = (u, mc.commutator(u, u.conj().T))
        real = sm.op_norm

        def guarded(x):
            if any(np.array_equal(x, r) for r in refused):
                raise AssertionError("op_norm of N or [N,N*] reached")
            return real(x)

        monkeypatch.setattr(sm, "op_norm", guarded)
        eig = sm.normal_eig(u)
        rebuilt = (eig.vectors * eig.eigenvalues) @ eig.vectors.conj().T
        assert mc.op_norm(rebuilt - u) <= 1e-12

    def test_nan_commutator_reaches_operator_norm(self):
        # N N* overflows to inf - inf = NaN, which must not pass the screen;
        # numpy warns of the overflow and the invalid subtraction on the way
        with pytest.raises(mc.MatrixShapeError, match="non-finite"):
            with pytest.warns(RuntimeWarning):
                sm.normal_eig(np.array([[1e200, 1e200], [1e200, -1e200]]))


class TestSmoothingSuite:
    def test_b_decomposed_once_per_trial(self, monkeypatch):
        # the suite decomposes B once, unchecked, and hands the eigensystem to
        # finite_range (which takes no matrix B) and to the zero-pattern check
        calls = []

        def counting(*args, _real=suites.eig_hermitian_part, **kwargs):
            calls.append("eig_hermitian_part")
            return _real(*args, **kwargs)

        monkeypatch.setattr(suites, "eig_hermitian_part", counting)
        tally = suites.run_suite("smoothing", 1, 3)
        assert tally["violations"] == 0
        assert calls == ["eig_hermitian_part"] * 3
