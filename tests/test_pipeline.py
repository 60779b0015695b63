"""End-to-end constructors: exponent bookkeeping, the pair pipeline, cheap
and triple repairs, and the unitary variants."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nearcommute import matcore as mc
from nearcommute import matio
from nearcommute import pipeline as pl
from nearcommute import subspace as sb
from nearcommute.cli import main
from nearcommute import gallery as gl
from nearcommute import smoothing as sm


def commuting_pair(rng, n, b_scale=0.9):
    lam = np.sort(rng.uniform(-1, 1, n))
    q = mc.random_unitary(rng, n)
    a = q @ np.diag(lam) @ q.conj().T
    b = q @ np.diag(b_scale * np.cos(3 * lam)) @ q.conj().T
    return (a + a.conj().T) / 2, (b + b.conj().T) / 2


def planted_pair(rng, n, delta, unitary=False):
    """(A0 + tG)/(1 + t) against a Hermitian B0 (a unitary U0 with
    ``unitary``) commuting with A0, with t chosen so that ||[A, B0]|| = delta;
    the spectra come from a fixed stream."""
    spectra = np.random.default_rng([n, int(unitary)])
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    a0 = (q * spectra.uniform(-0.9, 0.9, n)) @ q.conj().T
    if unitary:
        b0 = (q * np.exp(1j * spectra.uniform(0.0, 2 * math.pi, n))) @ q.conj().T
    else:
        b0 = (q * spectra.uniform(-0.9, 0.9, n)) @ q.conj().T
        b0 = (b0 + b0.conj().T) / 2
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = (g + g.conj().T) / 2
    g /= np.linalg.norm(g, 2)
    t = delta / (np.linalg.norm(g @ b0 - b0 @ g, 2) - delta)
    a = (a0 + t * g) / (1.0 + t)
    return (a + a.conj().T) / 2, b0


def count_calls(monkeypatch, module, name, square_of=None, equal_to=None):
    """Count calls of module.name through every nearcommute namespace that
    binds it; with square_of=n, only calls on an n x n first argument, and
    with equal_to=m, only calls whose first argument equals m."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        if ((square_of is None or np.shape(args[0]) == (square_of, square_of))
                and (equal_to is None or np.array_equal(args[0], equal_to))):
            calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("nearcommute") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestChooseExponents:
    def test_gamma2_one_gives_one_third(self):
        _, _, gamma = pl.choose_exponents(Fraction(1), True)
        assert gamma == Fraction(1, 3)

    def test_ninth_without_finite_range_gives_tenth(self):
        g0, g1, gamma = pl.choose_exponents(Fraction(1, 9), False)
        assert gamma == Fraction(1, 10)
        assert g0 == 1

    def test_quarter_gives_sixth(self):
        _, _, gamma = pl.choose_exponents(Fraction(1, 4), True)
        assert gamma == Fraction(1, 6)

    def test_float_path_consistent(self):
        g0, g1, gamma = pl.choose_exponents(1.0, True)
        assert g1 == pytest.approx(0.5)
        assert g0 == pytest.approx(2 / 3)
        assert gamma == pytest.approx(1 / 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pl.choose_exponents(0.0)


class TestCommuteHermitianPair:
    def test_commuting_inputs_fixed(self):
        rng = np.random.default_rng(0)
        a, b = commuting_pair(rng, 16)
        rep = pl.commute_hermitian_pair(a, b, 1.0)
        assert rep.comm_residual <= 1e-10 * 16
        assert rep.dist_a <= 1e-10
        assert rep.dist_b <= 2.0 / rep.stage_log["n_cut"] + 1e-10

    def test_tensor_pair_end_to_end(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        a = gl.tn_lift(x, 6)
        b = gl.tn_lift(z, 6)
        rep = pl.commute_hermitian_pair(a, b, 1.0)
        assert rep.comm_residual <= 1e-10 * 64
        assert rep.dist_b <= 2.0 / rep.stage_log["n_cut"] + 1e-10
        # outputs Hermitian
        assert mc.op_norm(rep.a_prime - rep.a_prime.conj().T) <= 1e-10
        assert mc.op_norm(rep.b_prime - rep.b_prime.conj().T) <= 1e-10

    def test_single_eigenvalue_cells_keep_pinching_check(self):
        # delta ~ 1e-6 gives about 100 cells of about 200 sub-cells each, so
        # most of the 16 eigenvalues sit alone in their cell: one occupied
        # sub-cell, which the empty-sub-cell route reduces exactly
        rng = np.random.default_rng(3)
        a0, b0 = commuting_pair(rng, 16)
        g = mc.random_hermitian(rng, 16, norm=1.0)
        t = 1e-6 / mc.op_norm(mc.commutator(g, b0))
        rep = pl.commute_hermitian_pair((a0 + t * g) / (1 + t), b0, 1.0)
        assert rep.stage_log["n_cut"] > 16
        assert not rep.stage_log["degenerate_intervals"]
        pinch = [c for c in rep.checks if c.context == "||H-H'|| <= 2 max eps2"]
        assert len(pinch) == 1 and pinch[0].passed
        assert all(c.passed for c in rep.checks)
        assert rep.comm_residual <= 1e-12 * 16

    def test_perturbation_sweep_monotone(self):
        rng = np.random.default_rng(0)
        a0, b0 = commuting_pair(rng, 24)
        g = mc.random_hermitian(rng, 24, norm=1.0)
        rows = pl.delta_sweep(a0, b0, g, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
        da = [r["dist_a"] for r in rows]
        db = [r["dist_b"] for r in rows]
        assert all(da[i] >= da[i + 1] - 1e-12 for i in range(len(da) - 1))
        # measured dist_b follows the monotone 2/n_cut envelope; on this seed
        # it is itself monotone
        assert all(r["dist_b"] <= 2.0 / r["n_cut"] + 1e-10 for r in rows)
        assert all(db[i] >= db[i + 1] - 1e-12 for i in range(len(db) - 1))
        assert all(r["comm_residual"] <= 1e-10 * 24 for r in rows)

    def test_swapped_roles_both_succeed(self):
        rng = np.random.default_rng(2)
        a0, b0 = commuting_pair(rng, 12)
        pert = mc.random_hermitian(rng, 12, norm=0.01)
        a = (a0 + pert) / 1.01
        rep1 = pl.commute_hermitian_pair(a, b0, 1.0)
        rep2 = pl.commute_hermitian_pair(b0, a, 1.0)
        assert rep1.comm_residual <= 1e-10 * 12
        assert rep2.comm_residual <= 1e-10 * 12

    def test_swapped_roles_distance_regression(self):
        # regression property on a symmetric seeded family: the two
        # orientations land within a factor two of each other
        rng = np.random.default_rng(42)
        lam = np.sort(rng.uniform(-0.9, 0.9, 16))
        q = mc.random_unitary(rng, 16)
        a0 = q @ np.diag(lam) @ q.conj().T
        b0 = q @ np.diag(np.sort(rng.uniform(-0.9, 0.9, 16))) @ q.conj().T
        a0, b0 = (a0 + a0.conj().T) / 2, (b0 + b0.conj().T) / 2
        pert = mc.random_hermitian(rng, 16, norm=0.02)
        a = (a0 + pert) / 1.02
        rep1 = pl.commute_hermitian_pair(a, b0, 1.0)
        rep2 = pl.commute_hermitian_pair(b0, a, 1.0)
        d1 = max(rep1.dist_a, rep1.dist_b)
        d2 = max(rep2.dist_a, rep2.dist_b)
        assert d1 <= 2 * d2 + 1e-12
        assert d2 <= 2 * d1 + 1e-12

    def test_b_decomposed_once(self, monkeypatch):
        rng = np.random.default_rng(13)
        a, b = commuting_pair(rng, 16)
        a = (a + mc.random_hermitian(rng, 16, norm=0.01)) / 1.01
        calls = count_calls(monkeypatch, mc, "eig_hermitian", square_of=16)
        pl.commute_hermitian_pair(a, b, 1.0)
        assert len(calls) == 1

    def test_rejects_noncontraction(self):
        with pytest.raises(ValueError):
            pl.commute_hermitian_pair(2 * np.eye(3), np.eye(3))

    def test_b_normed_once(self, monkeypatch):
        # B's contraction is read off the eigenvalues finite_range computes,
        # so only eig_hermitian's scale takes B's n x n norm
        a, b = planted_pair(np.random.default_rng(17), 64, 1e-3)
        b_norms = count_calls(monkeypatch, mc, "op_norm", equal_to=b)
        pl.commute_hermitian_pair(a, b)
        assert len(b_norms) == 1

    def test_b_contraction_from_eigenvalues(self):
        rng = np.random.default_rng(18)
        a = mc.random_hermitian(rng, 8, norm=0.5)
        with pytest.raises(ValueError, match="B must be a contraction"):
            pl.commute_hermitian_pair(a, mc.random_hermitian(rng, 8, norm=1.01))

    def test_non_hermitian_b_rejected_before_eigh(self, monkeypatch):
        rng = np.random.default_rng(19)
        a = mc.random_hermitian(rng, 8, norm=0.5)
        b = mc.random_hermitian(rng, 8, norm=0.5)
        b[0, 1] += 1e-6

        def refuse(*args, **kwargs):
            raise AssertionError("eigh reached")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        with pytest.raises(ValueError, match="B must be Hermitian"):
            pl.commute_hermitian_pair(a, b)


class TestCheapCommute:
    def test_scalar_a_unchanged(self):
        rng = np.random.default_rng(3)
        b = mc.random_hermitian(rng, 6, norm=1.0)
        a = 0.4 * np.eye(6)
        rep = pl.cheap_commute(a, b)
        assert rep.dist_a <= 1e-12
        assert rep.dist_b <= 1e-12
        assert rep.stage_log["m"] == 1

    def test_two_cluster_bound(self):
        rng = np.random.default_rng(4)
        q = mc.random_unitary(rng, 8)
        a = q @ np.diag([-0.5] * 4 + [0.5] * 4) @ q.conj().T
        a = (a + a.conj().T) / 2
        b0 = q @ np.diag(rng.uniform(-1, 1, 8)) @ q.conj().T
        b0 = (b0 + b0.conj().T) / 2
        pert = mc.random_hermitian(rng, 8, norm=1e-4)
        b = (b0 + pert) / (1 + 1e-4)
        rep = pl.cheap_commute(a, b)
        delta = rep.stage_log["delta"]
        m = rep.stage_log["m"]
        bound = m / math.sqrt(2) * math.sqrt(delta)
        assert rep.dist_a <= bound + 1e-12
        assert rep.dist_b <= bound + 1e-12
        assert rep.comm_residual <= 1e-10 * 8
        # B is pinched onto A's two eigenspaces
        low, high = q[:, :4] @ q[:, :4].conj().T, q[:, 4:] @ q[:, 4:].conj().T
        assert mc.op_norm(rep.b_prime - low @ b @ low - high @ b @ high) <= 1e-12

    def test_reference_line_reported(self):
        rng = np.random.default_rng(5)
        a = np.diag([-0.5, -0.5, 0.5, 0.5]).astype(complex)
        b = mc.random_hermitian(rng, 4, norm=1.0)
        rep = pl.cheap_commute(a, b)
        delta = rep.stage_log["delta"]
        m = rep.stage_log["m"]
        assert rep.stage_log["pearcy_shields_reference"] == pytest.approx(
            math.sqrt((m - 1) / 2 * delta))

    def test_zero_dimensional_pair(self):
        empty = np.zeros((0, 0), dtype=complex)
        rep = pl.cheap_commute(empty, empty)
        assert rep.a_prime.shape == rep.b_prime.shape == (0, 0)
        assert rep.dist_a == rep.dist_b == rep.comm_residual == 0.0
        assert rep.stage_log["groups"] == 0
        assert all(c.passed for c in rep.checks)


class TestThreeHermitian:
    def test_all_diagonal(self):
        a = np.diag([-0.5, -0.5, 0.5, 0.5]).astype(complex)
        b = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        c = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rep = pl.three_hermitian(a, b, c)
        assert rep.comm_residual <= 1e-10 * 4
        assert rep.dist_b <= 1e-9 and rep.dist_c <= 1e-9

    def test_commuting_triple(self):
        rng = np.random.default_rng(6)
        q = mc.random_unitary(rng, 8)
        lam = np.sort(rng.uniform(-1, 1, 8))
        mats = []
        for f in (lambda x: x, lambda x: np.cos(2 * x), lambda x: np.sin(x)):
            m = q @ np.diag(f(lam)) @ q.conj().T
            mats.append((m + m.conj().T) / 2)
        rep = pl.three_hermitian(*mats)
        assert rep.comm_residual <= 1e-10 * 8
        cl = math.sqrt(2) * math.sqrt(max(rep.stage_log["delta_ab"],
                                          rep.stage_log["delta_ac"], 1e-30))
        assert rep.dist_b <= 5 * cl + 1e-8

    def test_two_cluster_perturbed(self):
        rng = np.random.default_rng(7)
        blocks = []
        for _ in range(2):
            q = mc.random_unitary(rng, 4)
            lam = np.sort(rng.uniform(-1, 1, 4))
            b_blk = q @ np.diag(lam) @ q.conj().T
            c_blk = q @ np.diag(np.cos(lam)) @ q.conj().T
            blocks.append(((b_blk + b_blk.conj().T) / 2, (c_blk + c_blk.conj().T) / 2))
        a = np.diag([-0.5] * 4 + [0.5] * 4).astype(complex)
        b = np.zeros((8, 8), complex)
        c = np.zeros((8, 8), complex)
        b[:4, :4], c[:4, :4] = blocks[0]
        b[4:, 4:], c[4:, 4:] = blocks[1]
        pert = mc.random_hermitian(rng, 8, norm=1e-5)
        b = (b / max(1, mc.op_norm(b)) + pert) / (1 + 1e-5)
        c = c / max(1, mc.op_norm(c))
        rep = pl.three_hermitian(a, b, c)
        assert rep.comm_residual <= 1e-10 * 8
        assert max(op for op in (rep.dist_a,)) <= 0.1


class TestEmptyInput:
    @pytest.mark.parametrize("driver", [pl.commute_hermitian_pair,
                                        pl.commute_hermitian_unitary])
    def test_zero_dimensional_pair(self, driver):
        empty = np.zeros((0, 0), dtype=complex)
        rep = driver(empty, empty)
        assert rep.a_prime.shape == rep.b_prime.shape == (0, 0)
        assert rep.dist_a == rep.dist_b == rep.comm_residual == 0.0
        assert rep.stage_log["intervals"] == []
        assert rep.checks and all(c.passed for c in rep.checks)


class TestExactlyCommutingInput:
    """A pair with ||[A,B]|| exactly 0 comes back unmoved, with the log keys
    the benchmark and the sweep read."""

    @staticmethod
    def assert_unmoved(rep, a, b):
        assert np.array_equal(rep.a_prime, a) and np.array_equal(rep.b_prime, b)
        assert rep.dist_a == rep.dist_b == rep.comm_residual == 0.0
        log = rep.stage_log
        assert (log["delta"], log["n_cut"], log["eps2_max"], log["intervals"],
                log["degenerate_intervals"]) == (0.0, 0, 0.0, [], False)
        assert rep.checks and all(c.passed for c in rep.checks)

    def test_hermitian_pair(self):
        d = np.diag(np.linspace(-0.9, 0.9, 6)).astype(complex)
        self.assert_unmoved(pl.commute_hermitian_pair(d, d), d, d)

    def test_hermitian_unitary(self):
        a = np.diag(np.linspace(-0.9, 0.9, 6)).astype(complex)
        u = np.diag(np.exp(1j * np.linspace(0.0, 5.0, 6)))
        self.assert_unmoved(pl.commute_hermitian_unitary(a, u), a, u)

    def test_b_must_still_be_a_contraction(self):
        d = np.diag(np.linspace(-0.9, 0.9, 6)).astype(complex)
        with pytest.raises(ValueError, match="B must be a contraction"):
            pl.commute_hermitian_pair(d, 2 * d)


class TestEngineErrorsPropagate:
    """An engine error is not turned into a kept block: an oracle that raises
    inside a Hastings interval (selected by the block sizes) fails the call."""

    def test_oracle_error_fails_the_call(self, monkeypatch, tmp_path, tensor_lift_pair):
        calls = []

        def failing(a, b):
            calls.append(a.shape)
            raise ValueError("oracle failure")

        monkeypatch.setattr(sb, "jacobi_commuting_pair", failing)
        a, b = tensor_lift_pair
        with pytest.raises(ValueError, match="oracle failure"):
            pl.commute_hermitian_pair(a, b, 1.0)
        assert len(calls) == 1
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        matio.save_matrix(pa, a)
        matio.save_matrix(pb, b)
        argv = ["commute", str(pa), str(pb), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert not (tmp_path / "r.json").exists()


class TestHermitianUnitary:
    def test_scalar_unitary_trivial(self):
        rng = np.random.default_rng(8)
        a = mc.random_hermitian(rng, 6, norm=1.0)
        u = np.exp(1j * 0.7) * np.eye(6)
        rep = pl.commute_hermitian_unitary(a, u, 1.0)
        assert rep.comm_residual <= 1e-10 * 6
        assert rep.dist_a <= 1e-9

    def test_commuting_pair_small_distances(self):
        rng = np.random.default_rng(9)
        q = mc.random_unitary(rng, 16)
        phases = np.sort(rng.uniform(0, 2 * math.pi, 16))
        u = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
        a = q @ np.diag(np.cos(phases)) @ q.conj().T
        a = (a + a.conj().T) / 2
        rep = pl.commute_hermitian_unitary(a, u, 1.0)
        assert rep.comm_residual <= 1e-10 * 16
        arc = rep.stage_log["arc_width"]
        assert rep.dist_b <= 2 * math.sin(min(arc / 2, math.pi / 2)) + 1e-9

    @staticmethod
    def near_commuting_pair():
        rng = np.random.default_rng(10)
        n = 32
        q = mc.random_unitary(rng, n)
        phases = np.sort(rng.uniform(0, 2 * math.pi, n))
        u = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
        a0 = q @ np.diag(np.cos(phases)) @ q.conj().T
        pert = mc.random_hermitian(rng, n, norm=0.02)
        a = ((a0 + a0.conj().T) / 2 + pert) / 1.02
        return a, u

    def test_random_near_commuting(self):
        a, u = self.near_commuting_pair()
        n = a.shape[0]
        rep = pl.commute_hermitian_unitary(a, u, 1.0)
        assert rep.comm_residual <= 1e-10 * n
        up = rep.b_prime
        assert mc.op_norm(up.conj().T @ up - np.eye(n)) <= 1e-10

    def test_pinching_check_recorded(self):
        a, u = self.near_commuting_pair()
        rep = pl.commute_hermitian_unitary(a, u, 1.0)
        assert not rep.stage_log["degenerate_intervals"]
        pinch = [c for c in rep.checks if c.context == "||H-H'|| <= 2 max eps2"]
        assert len(pinch) == 1 and pinch[0].passed
        assert pinch[0].lhs == rep.stage_log["h_to_pinched"]

    def test_u_decomposed_once(self, monkeypatch):
        a, u = self.near_commuting_pair()
        calls = count_calls(monkeypatch, sm, "normal_eig")
        pl.commute_hermitian_unitary(a, u, 1.0)
        assert len(calls) == 1


class TestRequireUnitary:
    def test_unitary_takes_no_operator_norm(self, refuse_svd, monkeypatch):
        u = mc.random_unitary(np.random.default_rng(13), 12)

        def refuse(x):
            raise AssertionError("op_norm reached")

        monkeypatch.setattr(mc, "op_norm", refuse)
        assert np.array_equal(pl._require_unitary(u, "U"), u)

    @pytest.mark.parametrize("m, match", [
        (np.diag([1.0, 1.0 + 1e-6]), "U must be unitary"),
        # U*U overflows to inf - inf = NaN, which must not pass the screen
        (np.array([[1e200, 1e200], [1e200, -1e200]]), "non-finite"),
    ])
    def test_non_unitary_rejected(self, m, match):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=match):
            pl._require_unitary(m, "U")


class TestUnitaryPairGap:
    def test_cayley_round_trip_on_reals(self):
        x = np.linspace(-50, 50, 1001)
        v = pl.cayley_matrix_to_circle(np.diag(x).astype(complex))
        assert mc.op_norm(v.conj().T @ v - np.eye(x.size)) <= 1e-12
        back = pl.cayley_matrix_to_line(v)
        assert float(np.max(np.abs(back - np.diag(x)))) <= 1e-12 * 50

    def test_commuting_gapped_pair(self):
        rng = np.random.default_rng(11)
        n = 16
        q = mc.random_unitary(rng, n)
        phases = np.sort(rng.uniform(0.9, 2 * math.pi - 0.9, n))
        v = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
        u = q @ np.diag(np.exp(1j * np.sort(rng.uniform(0, 2 * math.pi, n)))) @ q.conj().T
        rep = pl.unitary_pair_gap(u, v)
        assert rep.comm_residual <= 1e-9 * n
        for c in rep.checks:
            assert c.passed, c.context

    def test_gapped_near_commuting(self):
        rng = np.random.default_rng(12)
        n = 24
        q = mc.random_unitary(rng, n)
        phases = np.sort(rng.uniform(0.8, 2 * math.pi - 0.8, n))
        v = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
        u0 = q @ np.diag(np.exp(1j * np.sort(rng.uniform(0, 2 * math.pi, n)))) @ q.conj().T
        h = mc.random_hermitian(rng, n, norm=0.01)
        eh = mc.eig_hermitian(h)
        u = u0 @ eh.matrix_function(lambda x: np.exp(1j * x))
        rep = pl.unitary_pair_gap(u, v)
        assert rep.comm_residual <= 1e-9 * n
        assert all(c.passed for c in rep.checks)
        vp = rep.b_prime
        assert mc.op_norm(vp.conj().T @ vp - np.eye(n)) <= 1e-9

    def test_no_gap_detected(self):
        n = 64
        v = np.diag(np.exp(2j * math.pi * np.arange(n) / n))
        with pytest.raises(ValueError, match="gap"):
            pl.unitary_pair_gap(np.eye(n), v)


DRIVERS = {False: pl.commute_hermitian_pair, True: pl.commute_hermitian_unitary}


class TestCoordinateMeasures:
    """The drivers measure ||B-B'||, the finite-range checks and ||H-H'|| in
    B's eigen-coordinates; each equals its n x n definition."""

    @pytest.mark.parametrize("unitary", [False, True])
    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_match_dense_definitions(self, monkeypatch, n, delta, unitary):
        name = "finite_range_normal" if unitary else "finite_range"
        averaging, results = getattr(pl, name), []

        def recording(*args, **kwargs):
            results.append(averaging(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(pl, name, recording)
        a, b = planted_pair(np.random.default_rng(n), n, delta, unitary)
        rep = DRIVERS[unitary](a, b)
        (fr,) = results
        h = fr.matrix
        tol = 1e-13 * n
        assert abs(rep.dist_b - mc.op_norm(b - rep.b_prime)) <= tol
        assert abs(fr.checks[0].lhs - mc.op_norm(a - h)) <= tol
        assert abs(fr.checks[1].lhs - mc.op_norm(mc.commutator(h, b))) <= tol
        assert abs(rep.stage_log["h_to_pinched"] - mc.op_norm(h - rep.a_prime)) <= tol

    @pytest.mark.parametrize("moved", [False, True])
    def test_circle_measured_against_u(self, monkeypatch, moved):
        # normal_eig reconstructs this U only to about 3e-11; with ``moved``
        # its eigenvalues are also pushed off the spectrum by up to 1e-7.
        # ||U-U'|| and ||[H,U]|| must still be measured against U itself.
        n = 16
        u = mc.random_unitary(np.random.default_rng(14), n)
        rng = np.random.default_rng(15)
        a = 0.9 * (u + u.conj().T) / 2 + 1e-3 * mc.random_hermitian(rng, n, norm=1.0)
        a = (a + a.conj().T) / 2
        decompose, results = sm.normal_eig, []

        def recording(m):
            en = decompose(m)
            if moved:
                en = mc.NormalEig(en.eigenvalues * np.exp(1e-7j * rng.uniform(-1, 1, n)),
                                  en.vectors)
            results.append(en)
            return en

        monkeypatch.setattr(sm, "normal_eig", recording)
        averaging, frs = pl.finite_range_normal, []
        monkeypatch.setattr(pl, "finite_range_normal",
                            lambda *args, **kw: frs.append(averaging(*args, **kw)) or frs[-1])
        rep = pl.commute_hermitian_unitary(a, u)
        (en,), (fr,) = results, frs
        assert fr.eig is en
        tol = 1e-13 * n
        assert abs(rep.dist_b - mc.op_norm(u - rep.b_prime)) <= tol
        assert abs(fr.checks[1].lhs - mc.op_norm(mc.commutator(fr.matrix, u))) <= tol
        assert abs(fr.checks[0].lhs - mc.op_norm(a - fr.matrix)) <= tol
        assert abs(rep.stage_log["h_to_pinched"] - mc.op_norm(fr.matrix - rep.a_prime)) <= tol


# Quality columns of the benchmark's planted workload at seed 1: label,
# n_cut, routes, dist_a, dist_b, comm_residual.
PLANTED_SEED_1 = [
    ('herm n=128 delta=0.01', 5, {'gap': 2, 'szarek': 3},
     0.012920031304839326, 0.33599860239857965, 1.625968235552042e-15),
    ('herm n=128 delta=0.0001', 22, {'gap': 20},
     0.0001234838112990769, 0.0881192791974935, 1.903049764730336e-15),
    ('herm n=128 delta=1e-06', 101, {'gap': 69},
     1.239180847436548e-06, 0.01966045862674652, 1.8358038028890714e-15),
    ('herm n=256 delta=0.01', 5, {'gap': 2, 'szarek': 3},
     0.01166258158278138, 0.34294882526762227, 2.2354794847782448e-15),
    ('herm n=256 delta=0.0001', 22, {'gap': 20},
     0.00011943410947017878, 0.08856125883544279, 2.681784768003333e-15),
    ('herm n=256 delta=1e-06', 100, {'gap': 85},
     1.1504423005061087e-06, 0.019873192914912557, 2.587290816476243e-15),
    ('unitary n=128 delta=0.001', 10, {'gap': 10},
     0.00069365083701229, 0.598956400184721, 3.049571365849372e-15),
    ('unitary n=256 delta=0.001', 11, {'gap': 11},
     0.0007151214336973401, 0.5466902676423047, 4.135254768412541e-15),
]


def test_planted_quality_columns_pinned():
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench import workloads

    instances = workloads.planted(1)
    assert [inst.label for inst in instances] == [row[0] for row in PLANTED_SEED_1]
    for inst, (label, n_cut, routes, dist_a, dist_b, residual) in zip(instances,
                                                                      PLANTED_SEED_1):
        row = inst.gate(inst.call())
        assert row["ok"], (label, row["why"])
        assert (row["n_cut"], row["routes"]) == (n_cut, routes), label
        for got, want in ((row["dist_a"], dist_a), (row["dist_b"], dist_b),
                          (row["comm_residual"], residual)):
            assert abs(got - want) <= 1e-12, label


def cut_count(n_cut_wanted: int) -> tuple[float, int]:
    """A commutator size delta at which the drivers cut into n_cut_wanted
    cells (gamma2 = 1: n_cut = ceil(delta^(-1/3))), away from the next
    count."""
    delta = (n_cut_wanted - 0.5) ** -3.0
    g0, g1, _ = pl.choose_exponents(1.0, True)
    assert math.ceil(1.0 / (delta ** g0) ** g1) == n_cut_wanted
    return delta, n_cut_wanted


@st.composite
def driver_inputs(draw, unitary):
    """A pair planted at ||[A,B]|| = delta whose B has n <= 48 eigenvalues
    drawn from the cut points of the drivers' cells at that delta, from a
    few repeated values, from tight clusters, or uniformly."""
    n = draw(st.integers(0, 48))
    # few cells leave every sub-cell occupied, which sends cells to Szarek
    delta, n_cut = cut_count(draw(st.one_of(st.integers(2, 6), st.integers(7, 60))))
    if unitary:  # the circle is cut into at least three arcs
        delta, n_cut = cut_count(max(n_cut, 3))
    kind = draw(st.sampled_from(["cut points", "repeated", "clustered", "uniform"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "cut points":
        # cell edges: -1 + 2k/n_cut on the line, 2 pi k/n_cut on the circle
        spec = rng.integers(0, n_cut + 1, n) / n_cut
    elif kind == "repeated":
        spec = rng.choice(rng.uniform(0.0, 1.0, 3), n)
    elif kind == "clustered":
        spec = rng.choice(rng.uniform(0.0, 1.0, 4), n) + rng.uniform(-1e-9, 1e-9, n)
        spec = np.clip(spec, 0.0, 1.0)
    else:
        spec = rng.uniform(0.0, 1.0, n)
    q = mc.random_unitary(rng, n)
    if unitary:
        b = (q * np.exp(2j * math.pi * spec)) @ q.conj().T
    else:
        b = (q * (2.0 * spec - 1.0)) @ q.conj().T
        b = (b + b.conj().T) / 2
    a0 = (q * rng.uniform(-0.9, 0.9, n)) @ q.conj().T
    g = mc.random_hermitian(rng, n, norm=1.0) if n else np.zeros((0, 0), complex)
    base = mc.op_norm(mc.commutator(g, b))
    # plant ||[A,B]|| = delta where B's spectrum leaves room for it
    planted = base > 2 * delta
    t = delta / (base - delta) if planted else 0.1
    a = (a0 + t * g) / (1.0 + t)
    return (a + a.conj().T) / 2, b, n_cut if planted else None


class TestDriversOnEdgeSpectra:
    """Both drivers on n = 0..48 with eigenvalues on cut points, repeated and
    clustered: the outputs commute to roundoff and every check recorded ran
    and passed."""

    @staticmethod
    def assert_repaired(rep, n, n_cut):
        assert rep.comm_residual <= 1e-12 * max(n, 1)
        if n_cut is not None:
            # the cells are the ones the spectrum was drawn for
            assert rep.stage_log["n_cut"] == n_cut
        assert rep.checks and all(c.passed for c in rep.checks)
        log = rep.stage_log
        if n <= 1:
            # nothing to cut: a pair of scalars already commutes
            assert log["n_cut"] == 0 and log["intervals"] == []
            assert rep.dist_a == rep.dist_b == 0.0
        elif log["n_cut"]:
            # the two finite-range checks, ||B-B'|| and, unless an interval
            # was too narrow to split, ||H-H'||
            assert len(rep.checks) == 4 - log["degenerate_intervals"]

    @settings(max_examples=40, deadline=None)
    @given(driver_inputs(unitary=False))
    @example((np.zeros((0, 0)), np.zeros((0, 0)), None))
    @example((np.array([[0.5]]), np.array([[-1.0]]), None))
    def test_hermitian_pair(self, inputs):
        a, b, n_cut = inputs
        self.assert_repaired(pl.commute_hermitian_pair(a, b), a.shape[0], n_cut)

    @settings(max_examples=40, deadline=None)
    @given(driver_inputs(unitary=True))
    @example((np.zeros((0, 0)), np.zeros((0, 0)), None))
    @example((np.array([[0.5]]), np.array([[1j]]), None))
    def test_hermitian_unitary(self, inputs):
        a, u, n_cut = inputs
        self.assert_repaired(pl.commute_hermitian_unitary(a, u), a.shape[0], n_cut)


def _distance_to_cut(lam: np.ndarray, log: dict) -> float:
    """Distance from the values lam in [-1, 1] to the nearest cell or
    sub-cell edge of the line driver's cut, read from its log."""
    cell = 2.0 / log["n_cut"]
    sub = cell / max(1, int(math.floor(cell / log["Delta"])))
    off = np.mod(lam + 1.0, cell)  # sub-cells fill each cell exactly
    r = np.mod(off, sub)
    return float(np.minimum(r, sub - r).min())


@st.composite
def covariance_inputs(draw):
    """A planted pair whose B has n <= 40 eigenvalues, uniform or drawn
    from a few repeated values, and a Haar-ish unitary Q."""
    n = draw(st.integers(2, 40))
    delta, _ = cut_count(draw(st.one_of(st.integers(2, 6), st.integers(7, 30))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        spec = rng.uniform(-1.0, 1.0, n)
    else:
        spec = rng.choice(rng.uniform(-1.0, 1.0, 3), n)
    q = mc.random_unitary(rng, n)
    b = (q * spec) @ q.conj().T
    a0 = (q * rng.uniform(-0.9, 0.9, n)) @ q.conj().T
    g = mc.random_hermitian(rng, n, norm=1.0)
    base = mc.op_norm(mc.commutator(g, b))
    assume(base > 2 * delta)  # room to plant ||[A,B]|| = delta
    t = delta / (base - delta)
    a = (a0 + t * g) / (1.0 + t)
    return (a + a.conj().T) / 2, (b + b.conj().T) / 2, mc.random_unitary(rng, n)


class TestUnitaryCovariance:
    """A'(QAQ*, QBQ*) = Q A'(A, B) Q* to 1e-9 max(n, 1) when B's spectrum is
    at least 1e-8 from every cell and sub-cell edge and no interval goes to
    Hastings, whose Jacobi oracle depends on the basis."""

    @staticmethod
    def conj(q, m):
        m = q @ m @ q.conj().T
        return (m + m.conj().T) / 2

    @settings(max_examples=30, deadline=None)
    @given(covariance_inputs())
    def test_hermitian_pair(self, inputs):
        a, b, q = inputs
        rep = pl.commute_hermitian_pair(a, b)
        log = rep.stage_log
        assume(log["n_cut"] > 0)
        assume(all(iv.get("engine") != "hastings" for iv in log["intervals"]))
        assume(_distance_to_cut(np.linalg.eigvalsh(b), log) >= 1e-8)
        moved = pl.commute_hermitian_pair(self.conj(q, a), self.conj(q, b))
        assert moved.stage_log["n_cut"] == log["n_cut"]
        n = a.shape[0]
        assert mc.op_norm(q @ rep.a_prime @ q.conj().T - moved.a_prime) <= 1e-9 * max(n, 1)


class TestContractionGate:
    """The ||A|| <= 1 gate by two Cholesky factorizations of the Hermitian
    part, (1 + 1e-9)I -+ A."""

    @pytest.mark.parametrize("m", [np.eye(5), np.zeros((0, 0)), np.array([[1.0]]),
                                   np.array([[-1.0]]), -np.eye(3)],
                             ids=["I", "n=0", "1x1", "-1x1", "-I"])
    def test_accepts(self, m):
        assert np.array_equal(pl._require_hermitian_contraction(m, "A"), m)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rejects_past_the_tolerance(self, sign):
        with pytest.raises(ValueError, match="A must be a contraction"):
            pl._require_hermitian_contraction(sign * (1.0 + 2e-9) * np.eye(4), "A")

    def test_rotated_contraction_accepted_and_rejected(self):
        rng = np.random.default_rng(41)
        h = mc.random_hermitian(rng, 40, norm=1.0)
        assert np.array_equal(pl._require_hermitian_contraction(h, "A"), h)
        with pytest.raises(ValueError, match="A must be a contraction"):
            pl._require_hermitian_contraction(1.001 * h, "A")

    def test_non_hermitian_reported_as_such(self):
        m = np.array([[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="A must be Hermitian"):
            pl._require_hermitian_contraction(m, "A")
