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
        rep = pl.commute_hermitian_pair(a, b)
        assert rep.comm_residual <= 1e-10 * 16
        assert rep.dist_a <= 1e-10
        assert rep.dist_b <= 2.0 / rep.stage_log["n_cut"] + 1e-10

    def test_tensor_pair_end_to_end(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        a = gl.tn_lift(x, 6)
        b = gl.tn_lift(z, 6)
        rep = pl.commute_hermitian_pair(a, b)
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
        rep = pl.commute_hermitian_pair((a0 + t * g) / (1 + t), b0)
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
        rep1 = pl.commute_hermitian_pair(a, b0)
        rep2 = pl.commute_hermitian_pair(b0, a)
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
        rep1 = pl.commute_hermitian_pair(a, b0)
        rep2 = pl.commute_hermitian_pair(b0, a)
        d1 = max(rep1.dist_a, rep1.dist_b)
        d2 = max(rep2.dist_a, rep2.dist_b)
        assert d1 <= 2 * d2 + 1e-12
        assert d2 <= 2 * d1 + 1e-12

    def test_b_decomposed_once(self, monkeypatch):
        rng = np.random.default_rng(13)
        a, b = commuting_pair(rng, 16)
        a = (a + mc.random_hermitian(rng, 16, norm=0.01)) / 1.01
        calls = count_calls(monkeypatch, mc, "eig_hermitian_part", square_of=16)
        pl.commute_hermitian_pair(a, b)
        assert len(calls) == 1

    def test_rejects_noncontraction(self):
        with pytest.raises(ValueError):
            pl.commute_hermitian_pair(2 * np.eye(3), np.eye(3))

    def test_gap_cells_take_no_svd(self):
        # the planted n = 128, delta = 1e-6 pair cuts B's spectrum into 69
        # occupied cells, all gaps: each W is a coordinate set, kept as
        # labels, so no cell takes a complement basis and no norm needs an
        # SVD of any size
        root = str(Path(__file__).resolve().parents[1])
        if root not in sys.path:
            sys.path.insert(0, root)
        from bench import workloads

        (inst,) = [inst for inst in workloads.planted(1)
                   if inst.label == "herm n=128 delta=1e-06"]
        real, shapes = np.linalg.svd, []

        def recording(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return real(x, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", recording)
            rep = inst.call()
        assert shapes == []
        row = inst.gate(rep)
        assert row["ok"], row["why"]
        assert row["routes"] == {"gap": 69}

    def test_b_normed_once(self, monkeypatch):
        # B is validated once and decomposed unchecked; its contraction is
        # read off the eigenvalues, so no n x n norm of B is taken
        a, b = planted_pair(np.random.default_rng(17), 64, 1e-3)
        b_norms = count_calls(monkeypatch, mc, "op_norm", equal_to=b)
        pl.commute_hermitian_pair(a, b)
        assert len(b_norms) == 0

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

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_outputs_exactly_hermitian_without_full_svd(self, monkeypatch, seed):
        # A with two 12-fold eigenvalues, B and C block diagonal with it up
        # to a 1e-4 perturbation: the three outputs equal their conjugate
        # transposes entry for entry, so the residuals and distances take
        # op_norm's Hermitian path and no 24 x 24 SVD runs
        n, h = 24, 12
        rng = np.random.default_rng(seed)
        q = mc.random_unitary(rng, n)
        a = (q * np.r_[np.full(h, -0.5), np.full(h, 0.5)]) @ q.conj().T

        def near_block_diagonal():
            m = np.zeros((n, n), complex)
            m[:h, :h] = mc.random_hermitian(rng, h, norm=0.9)
            m[h:, h:] = mc.random_hermitian(rng, h, norm=0.9)
            m = q @ m @ q.conj().T + mc.random_hermitian(rng, n, norm=1e-4)
            return (m + m.conj().T) / 2 / (1 + 1e-4)

        b, c = near_block_diagonal(), near_block_diagonal()
        real, shapes = np.linalg.svd, []

        def recording(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        rep = pl.three_hermitian((a + a.conj().T) / 2, b, c)
        assert rep.stage_log["clusters"] == 2
        for m in (rep.a_prime, rep.b_prime, rep.c_prime):
            assert np.array_equal(m, m.conj().T)
        assert (n, n) not in shapes
        assert rep.comm_residual <= 1e-12 * n


    def test_report_json_carries_c(self):
        import json
        rng = np.random.default_rng(7)
        a = np.diag([-0.5] * 4 + [0.5] * 4).astype(complex)
        b, c = (mc.random_hermitian(rng, 8, norm=0.5) for _ in range(2))
        rep = pl.three_hermitian(a, b, c)
        doc = json.loads(json.dumps(rep.to_json_dict(include_matrices=True)))
        assert doc["dist_c"] == rep.dist_c
        assert doc["c_prime"] == matio.encode_entries(rep.c_prime)
        assert "c_prime" not in rep.to_json_dict()
        assert "dist_c" not in pl.cheap_commute(a, b).to_json_dict()


def test_sweep_needs_a_perturbation_off_b0():
    # diagonal A0, B0 and G: [G, B0] = 0 exactly
    a0, b0, g = (np.diag(np.random.default_rng(k).uniform(-0.9, 0.9, 6)) for k in range(3))
    with pytest.raises(ValueError, match="perturbation commutes with B0"):
        pl.delta_sweep(a0, b0, g, [1e-2])


def test_built_hermitian_norms_skip_the_structure_test(monkeypatch):
    # three_hermitian and delta_sweep build every matrix they measure
    # exactly Hermitian or anti-Hermitian: no norm of theirs goes through
    # op_norm's structure test, and the values are op_norm's, bit for bit
    real = pl.op_norm

    def refusing(x):
        if sys._getframe(1).f_code.co_name in ("three_hermitian", "delta_sweep"):
            raise AssertionError("op_norm reached")
        return real(x)

    monkeypatch.setattr(pl, "op_norm", refusing)
    rng = np.random.default_rng(7)
    a = np.diag([-0.5] * 4 + [0.5] * 4).astype(complex)
    b, c = (mc.random_hermitian(rng, 8, norm=0.5) for _ in range(2))
    rep = pl.three_hermitian(a, b, c)
    assert rep.dist_c == mc.op_norm(c - rep.c_prime)
    assert rep.stage_log["delta_bc"] == mc.op_norm(mc.commutator(b, c))
    a0, b0 = commuting_pair(rng, 12)
    g = mc.random_hermitian(rng, 12, norm=1.0)
    rows = pl.delta_sweep(a0, b0, g, [1e-2])
    # (A0 + tG)/(1 + t) with t = delta/||[G, B0]|| measures delta/(1 + t)
    assert rows[0]["delta"] == pytest.approx(1e-2, rel=0.05)
    assert rows[0]["comm_residual"] <= 1e-12 * 12


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


@pytest.mark.parametrize("call, shapes", [
    pytest.param(lambda s3, s4: pl.commute_hermitian_pair(s3, s4), "(3, 3) vs (4, 4)", id="pair"),
    pytest.param(lambda s3, s4: pl.three_hermitian(s3, s4, s3), "(3, 3) vs (4, 4)", id="three"),
    pytest.param(lambda s3, s4: pl.delta_sweep(s3, s3, s4, [1e-2]), "(4, 4) vs (3, 3)",
                 id="sweep"),
])
def test_pair_of_different_sizes_is_named(call, shapes):
    # the first product of the two matrices compares their shapes
    with pytest.raises(mc.MatrixShapeError) as exc:
        call(0.5 * np.eye(3), 0.5 * np.eye(4))
    assert str(exc.value) == f"dimension mismatch: {shapes}"


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
def test_sweep_rejects_a_bad_delta(bad):
    d = np.diag(np.linspace(-0.9, 0.9, 4)).astype(complex)
    with pytest.raises(ValueError, match="each delta must be finite and nonnegative"):
        pl.delta_sweep(d, d, np.ones((4, 4)), [1e-2, bad])


def test_hastings_log_carries_its_config(tensor_lift_pair):
    # tensor-lift's Hastings intervals have L = 2, where the configuration
    # from_system_size chooses has a single superblock
    rep = pl.commute_hermitian_pair(*tensor_lift_pair)
    logs = [iv for iv in rep.stage_log["intervals"] if iv.get("engine") == "hastings"]
    assert logs
    for iv in logs:
        assert iv["L"] == 2
        assert iv["config"] == sb.HastingsConfig.from_system_size(2).to_json_dict()
        assert iv["config"]["n_b"] == 1


class TestEngineErrorsPropagate:
    """An engine error is not turned into a kept block: an oracle that raises
    inside a Hastings interval (selected by the block sizes) fails the call."""

    def test_oracle_error_fails_the_call(self, monkeypatch, tmp_path, tensor_lift_pair):
        calls = []

        def failing(mats):  # fails as the Jacobi sweeps' eigh can
            calls.append(mats[0].shape)
            raise np.linalg.LinAlgError("oracle failure")

        monkeypatch.setattr(sb, "joint_jacobi", failing)
        a, b = tensor_lift_pair
        with pytest.raises(ValueError, match="oracle failure"):
            pl.commute_hermitian_pair(a, b)
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
        rep = pl.commute_hermitian_unitary(a, u)
        assert rep.comm_residual <= 1e-10 * 6
        assert rep.dist_a <= 1e-9

    def test_commuting_pair_small_distances(self):
        rng = np.random.default_rng(9)
        q = mc.random_unitary(rng, 16)
        phases = np.sort(rng.uniform(0, 2 * math.pi, 16))
        u = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
        a = q @ np.diag(np.cos(phases)) @ q.conj().T
        a = (a + a.conj().T) / 2
        rep = pl.commute_hermitian_unitary(a, u)
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
        rep = pl.commute_hermitian_unitary(a, u)
        assert rep.comm_residual <= 1e-10 * n
        up = rep.b_prime
        assert mc.op_norm(up.conj().T @ up - np.eye(n)) <= 1e-10

    def test_pinching_check_recorded(self):
        a, u = self.near_commuting_pair()
        rep = pl.commute_hermitian_unitary(a, u)
        assert not rep.stage_log["degenerate_intervals"]
        pinch = [c for c in rep.checks if c.context == "||H-H'|| <= 2 max eps2"]
        assert len(pinch) == 1 and pinch[0].passed
        assert pinch[0].lhs == rep.stage_log["h_to_pinched"]

    def test_u_decomposed_once(self, monkeypatch):
        a, u = self.near_commuting_pair()
        calls = count_calls(monkeypatch, sm, "unitary_eig")
        pl.commute_hermitian_unitary(a, u)
        assert len(calls) == 1


@pytest.mark.parametrize("driver", ["circle", "gap"])
def test_u_checked_once_by_the_unitary_gate(driver, monkeypatch):
    # each unitary input passes require_unitary once, which also bounds
    # ||[U, U*]||; no normality gate runs after it
    rng = np.random.default_rng(23)
    a, u = planted_pair(rng, 32, 1e-3, unitary=True)
    q = mc.random_unitary(rng, 24)
    v = (q * np.exp(1j * np.sort(rng.uniform(0.8, 2 * math.pi - 0.8, 24)))) @ q.conj().T
    unitary = count_calls(monkeypatch, mc, "require_unitary")
    normal = count_calls(monkeypatch, mc, "require_normal")
    if driver == "circle":
        pl.commute_hermitian_unitary(a, u)
        want = 1
    else:
        # U and V at entry, then U again by the inner circle
        pl.unitary_pair_gap(mc.random_unitary(rng, 24), v)
        want = 3
    assert (len(unitary), len(normal)) == (want, 0)


def test_planted_drivers_take_no_full_size_op_norm(monkeypatch):
    # every n x n norm the drivers report is of a matrix they built exactly
    # Hermitian or anti-Hermitian, and goes straight to hermitian_norm
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench import workloads

    calls = count_calls(monkeypatch, mc, "op_norm", square_of=128)
    instances = [inst for inst in workloads.planted(1) if " n=128 " in inst.label]
    assert len(instances) == 4
    for inst in instances:
        inst.call()
        assert calls == [], inst.label


@pytest.mark.parametrize("unitary", [False, True])
def test_unmoved_report_owns_its_arrays(unitary):
    # an exactly commuting pair comes back equal to the input, in new arrays
    a = np.diag([0.5, -0.25, 0.1]).astype(complex)
    b = (np.diag(np.exp(1j * np.array([0.3, 2.0, -1.0]))) if unitary
         else np.diag([0.3, 0.2, -0.9]).astype(complex))
    rep = DRIVERS[unitary](a, b)
    assert rep.stage_log["delta"] == 0.0
    for got, given in ((rep.a_prime, a), (rep.b_prime, b)):
        assert np.array_equal(got, given)
        assert not np.shares_memory(got, given)


class TestRequireUnitary:
    def test_unitary_takes_no_operator_norm(self, refuse_svd, monkeypatch):
        u = mc.random_unitary(np.random.default_rng(13), 12)

        def refuse(x):
            raise AssertionError("op_norm reached")

        monkeypatch.setattr(mc, "op_norm", refuse)
        assert np.array_equal(mc.require_unitary(u, "U"), u)

    @pytest.mark.parametrize("m, match", [
        (np.diag([1.0, 1.0 + 1e-6]), "U must be unitary"),
        # U*U overflows to inf - inf = NaN, which must not pass the screen
        (np.array([[1e200, 1e200], [1e200, -1e200]]), "non-finite"),
    ])
    def test_non_unitary_rejected(self, m, match):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=match):
            mc.require_unitary(m, "U")


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

    def test_each_norm_taken_once(self, monkeypatch):
        # ||W|| serves both the rescale and the log, ||V-V'|| both the
        # ||V-V'|| <= 2||W-W'|| check and dist_b, and W' is decomposed
        # unchecked: no nonempty matrix is measured twice
        rng = np.random.default_rng(12)
        n = 16
        q = mc.random_unitary(rng, n)
        v = q @ np.diag(np.exp(1j * np.sort(rng.uniform(0.8, 2 * math.pi - 0.8, n)))) @ q.conj().T
        u0 = q @ np.diag(np.exp(1j * np.sort(rng.uniform(0, 2 * math.pi, n)))) @ q.conj().T
        u = u0 @ mc.eig_hermitian(mc.random_hermitian(rng, n, norm=0.01)).matrix_function(
            lambda x: np.exp(1j * x))
        real, calls = mc.op_norm, {}

        def counting(a):
            m = np.asarray(a, dtype=np.complex128)
            if m.size:
                key = (m.shape, m.tobytes())
                calls[key] = calls.get(key, 0) + 1
            return real(a)

        for name, mod in list(sys.modules.items()):
            if name.startswith("nearcommute") and getattr(mod, "op_norm", None) is real:
                monkeypatch.setattr(mod, "op_norm", counting)
        rep = pl.unitary_pair_gap(u, v)
        assert all(c.passed for c in rep.checks)
        assert rep.stage_log["w_norm"] > 1.0
        assert rep.checks[1].lhs == rep.dist_b
        assert calls and max(calls.values()) == 1

    def test_no_gap_detected(self):
        n = 64
        v = np.diag(np.exp(2j * math.pi * np.arange(n) / n))
        with pytest.raises(ValueError, match="gap"):
            pl.unitary_pair_gap(np.eye(n), v)

    def test_empty_v_has_no_gap(self):
        empty = np.zeros((0, 0), dtype=complex)
        with pytest.raises(ValueError, match="no detectable spectral gap on the circle"):
            pl.unitary_pair_gap(empty, empty)

    def test_one_dimensional_pair(self):
        # one phase leaves the whole circle as the gap: the pair commutes
        v = np.array([[np.exp(0.3j)]])
        rep = pl.unitary_pair_gap(np.eye(1, dtype=complex), v)
        assert rep.stage_log["theta_detected"] == pytest.approx(math.pi)
        assert rep.a_prime.shape == rep.b_prime.shape == (1, 1)
        assert rep.comm_residual == 0.0 and rep.dist_a == 0.0 and rep.dist_b <= 1e-15
        assert all(c.passed for c in rep.checks)

    def test_requested_theta_within_detected_gap(self):
        # V's phases avoid (-0.9, 0.9), so the detected radius is at least 0.9,
        # and the commutator check divides by 1 - cos of that radius
        rng = np.random.default_rng(11)
        n = 16
        q = mc.random_unitary(rng, n)
        v = q @ np.diag(np.exp(1j * np.sort(rng.uniform(0.9, 2 * math.pi - 0.9, n)))) @ q.conj().T
        u = q @ np.diag(np.exp(1j * np.sort(rng.uniform(0, 2 * math.pi, n)))) @ q.conj().T
        rep = pl.unitary_pair_gap(u, v)
        assert all(c.passed for c in rep.checks)
        theta = rep.stage_log["theta_detected"]
        assert theta >= 0.9 and "theta" not in rep.stage_log
        comm = rep.checks[0]
        assert comm.context == "||[U,W]|| <= ||[U,V]||/(1-cos theta)"
        assert comm.rhs == mc.op_norm(mc.commutator(u, v)) / (1.0 - math.cos(theta)) + 1e-12


DRIVERS = {False: pl.commute_hermitian_pair, True: pl.commute_hermitian_unitary}


def assert_screened_lhs(chk, x, tol):
    """A finite-range check's lhs equals its screened definition computed
    densely, ||X||_F when that is within the check's rhs and ||X|| otherwise,
    and so is at least ||X||."""
    frob, norm = float(np.linalg.norm(x)), mc.op_norm(x)
    assert abs(chk.lhs - (frob if frob <= chk.rhs else norm)) <= tol, chk.context
    assert chk.lhs >= norm - tol, chk.context


class TestCoordinateMeasures:
    """The drivers measure ||B-B'||, the finite-range checks and ||H-H'|| in
    B's eigen-coordinates; each equals its n x n definition (the screened
    one for the finite-range checks)."""

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
        assert_screened_lhs(fr.checks[0], a - h, tol)
        assert_screened_lhs(fr.checks[1], mc.commutator(h, b), tol)
        assert abs(rep.stage_log["h_to_pinched"] - mc.op_norm(h - rep.a_prime)) <= tol

    def test_circle_measured_against_u(self, monkeypatch):
        # Re U has two eigenvalues 7.4e-6 apart, where its eigenvectors
        # alone reproduce U only to about 3e-11; ||U-U'|| and ||[H,U]||,
        # measured in unitary_eig's coordinates, must agree with U itself.
        n = 16
        u = mc.random_unitary(np.random.default_rng(14), n)
        rng = np.random.default_rng(15)
        a = 0.9 * (u + u.conj().T) / 2 + 1e-3 * mc.random_hermitian(rng, n, norm=1.0)
        a = (a + a.conj().T) / 2
        decompose, results = pl.unitary_eig, []

        def recording(m):
            en = decompose(m)
            results.append(en)
            return en

        monkeypatch.setattr(pl, "unitary_eig", recording)
        averaging, frs = pl.finite_range_normal, []
        monkeypatch.setattr(pl, "finite_range_normal",
                            lambda *args, **kw: frs.append(averaging(*args, **kw)) or frs[-1])
        rep = pl.commute_hermitian_unitary(a, u)
        (en,), (fr,) = results, frs
        assert fr.eig is en
        tol = 1e-13 * n
        assert abs(rep.dist_b - mc.op_norm(u - rep.b_prime)) <= tol
        assert_screened_lhs(fr.checks[1], mc.commutator(fr.matrix, u), tol)
        assert_screened_lhs(fr.checks[0], a - fr.matrix, tol)
        assert abs(rep.stage_log["h_to_pinched"] - mc.op_norm(fr.matrix - rep.a_prime)) <= tol

    def test_tensor_lift_distance_check_falls_back_to_the_operator_norm(self, monkeypatch):
        # T_4(X) against T_4(Z): ||A-H||_F = 1.90 exceeds the rhs 1.84, so
        # the lhs is ||A-H|| = 0.949 itself, and the check passes
        averaging, frs = pl.finite_range, []
        monkeypatch.setattr(pl, "finite_range",
                            lambda *args, **kw: frs.append(averaging(*args, **kw)) or frs[-1])
        a = gl.tn_lift(np.array([[0.0, 1.0], [1.0, 0.0]]), 4)
        b = gl.tn_lift(np.diag([1.0, -1.0]), 4)
        pl.commute_hermitian_pair(a, b)
        (fr,) = frs
        chk, x = fr.checks[0], a - fr.matrix
        assert chk.context.startswith("finite_range ||A-H||") and chk.passed
        assert np.linalg.norm(x) > chk.rhs
        assert abs(chk.lhs - mc.op_norm(x)) <= 1e-13 * 16

    def test_circle_near_normal_u_measured_against_u(self):
        # U = Q(D + 5e-10 E_12)Q* passes the unitarity gate, but its
        # eigenvalues are 1.5e-8 apart, where its eigenvectors lie 0.03 rad
        # from orthogonal: no orthonormal basis reproduces U to roundoff,
        # and ||U-U'|| taken in one is about 2e-12 off
        n = 2
        rng = np.random.default_rng(18)
        phases = np.sort(rng.uniform(0.0, 2 * math.pi, n))
        phases[1] = phases[0] + 1.5e-8
        t = np.diag(np.exp(1j * phases))
        t[0, 1] = 5e-10
        q = mc.random_unitary(rng, n)
        u = q @ t @ q.conj().T
        a = 0.9 * (u + u.conj().T) / 2 + 1e-3 * mc.random_hermitian(rng, n, norm=1.0)
        a = (a + a.conj().T) / 2
        en = sm.normal_eig(u)
        assert not en.exact
        tol = 1e-13 * n
        assert mc.op_norm(en.vectors.conj().T @ en.vectors - np.eye(n)) <= tol
        rep = pl.commute_hermitian_unitary(a, u)
        assert abs(rep.dist_b - mc.op_norm(u - rep.b_prime)) <= tol
        assert mc.op_norm(rep.b_prime.conj().T @ rep.b_prime - np.eye(n)) <= tol


def test_circle_pinches_h_by_the_spectral_projections_of_u_prime(monkeypatch):
    # A' = sum_j P_j H P_j over the spectral projections P_j of U'.  U's
    # phases cluster on both sides of 0, so the space of U'-value 1 wraps
    # around the circle: cell 0's W joins the last cell's W^perp, and the
    # entries of H between them stay in A'
    averaging, frs = pl.finite_range_normal, []
    monkeypatch.setattr(pl, "finite_range_normal",
                        lambda *args, **kw: frs.append(averaging(*args, **kw)) or frs[-1])
    rng = np.random.default_rng(31)
    phases = np.array([0.02, 0.05, 1.0, 1.3, 2.2, 2.5, 3.3, 3.6, 4.4, 4.7, 6.2, 6.25])
    n = phases.size
    q = mc.random_unitary(rng, n)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    a = (q * np.cos(phases)) @ q.conj().T + 0.02 * mc.random_hermitian(rng, n, norm=1.0)
    a = (a + a.conj().T) / 2.04
    rep = pl.commute_hermitian_unitary(a, u)
    (fr,) = frs
    log = rep.stage_log
    values = np.exp(1j * log["arc_width"] * np.arange(1, log["n_cut"] + 1))
    h, up, eye = fr.matrix, rep.b_prime, np.eye(n)
    want = np.zeros_like(h)
    for j, val in enumerate(values):
        proj = eye.astype(complex)
        for k, other in enumerate(values):
            if k != j:
                proj = proj @ (up - other * eye) / (val - other)
        want += proj @ h @ proj
    wrapped = [iv for iv in log["intervals"] if iv["interval"] in (0, log["n_cut"] - 1)]
    assert [iv.get("trivial_gap") for iv in wrapped] == [1, 0]
    assert mc.op_norm(rep.a_prime - want) <= 1e-12


# Quality columns of the benchmark's planted workload at seed 1: label,
# n_cut, routes, dist_a, dist_b, comm_residual (a Frobenius norm).
PLANTED_SEED_1 = [
    ('herm n=128 delta=0.01', 5, {'gap': 2, 'szarek': 3},
     0.012920031304839326, 0.33599860239857965, 7.170138011875376e-15),
    ('herm n=128 delta=0.0001', 22, {'gap': 20},
     0.0001234838112990769, 0.0881192791974935, 8.391322061627205e-15),
    ('herm n=128 delta=1e-06', 101, {'gap': 69},
     1.239180847436548e-06, 0.01966045862674652, 8.028891539423673e-15),
    ('herm n=256 delta=0.01', 5, {'gap': 2, 'szarek': 3},
     0.01166258158278138, 0.34294882526762227, 1.318677174433456e-14),
    ('herm n=256 delta=0.0001', 22, {'gap': 20},
     0.00011943410947017878, 0.08856125883544279, 1.489931967834355e-14),
    ('herm n=256 delta=1e-06', 100, {'gap': 85},
     1.1504423005061087e-06, 0.019873192914912557, 1.491083030239427e-14),
    ('unitary n=128 delta=0.001', 10, {'gap': 10},
     0.00069365083701229, 0.598956400184721, 6.777083010669491e-15),
    ('unitary n=256 delta=0.001', 11, {'gap': 11},
     0.0007151214336973401, 0.5466902676423047, 9.654631810797762e-15),
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


# Full-size decompositions of one driver call on the planted workload's
# n = 128 instances: B (U) once by eigh; two norms by eigvalsh (delta and
# dist_a on the line; on the circle dist_a, and delta, a general norm, by
# eigvalsh of a Gram matrix, so no SVD; in U's eigen-coordinates ||U-U'|| is
# taken per arc); A's contraction gate by Cholesky.  The residual is a
# Frobenius norm, and so are the finite-range lhs, whose Frobenius norms
# pass their screens on these instances.  The circle takes U's normality
# from its unitary gate, which bounds ||Im U|| too, so it runs no Cholesky
# test of its own.
DECOMPOSITION_BUDGET = {
    False: {"eigh": 1, "eigvalsh": 2, "svd": 0, "cholesky": 2},
    True: {"eigh": 1, "eigvalsh": 2, "svd": 0, "cholesky": 2},
}


def test_planted_full_size_decomposition_budget(monkeypatch):
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench import workloads

    counts = {}
    for name in DECOMPOSITION_BUDGET[False]:
        def counting(x, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(x) == (128, 128):
                counts[_name] += 1
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    instances = [inst for inst in workloads.planted(1) if " n=128 " in inst.label]
    assert len(instances) == 4
    for inst in instances:
        counts.update(dict.fromkeys(DECOMPOSITION_BUDGET[False], 0))
        inst.call()
        assert counts == DECOMPOSITION_BUDGET[inst.label.startswith("unitary")], inst.label


def cut_count(n_cut_wanted: int) -> tuple[float, int]:
    """A commutator size delta at which the drivers cut into n_cut_wanted
    cells (gamma2 = 1: n_cut = ceil(delta^(-1/3))), away from the next
    count."""
    delta = (n_cut_wanted - 0.5) ** -3.0
    g0, g1, _ = pl.choose_exponents(1.0, True)
    assert math.ceil(1.0 / (delta ** g0) ** g1) == n_cut_wanted
    return delta, n_cut_wanted


def sub_arc_count(delta: float, n_cut: int) -> int:
    """The number of sub-arcs per arc when commute_hermitian_unitary cuts
    the circle into n_cut arcs at ||[A,U]|| = delta (gamma2 = 1)."""
    big_delta = delta ** pl.choose_exponents(1.0, True)[0]
    phi_sub = 2.0 * math.asin(min(1.0, math.sqrt(2.0) * big_delta / 2.0))
    return int(math.floor(2.0 * math.pi / n_cut / phi_sub))


@st.composite
def driver_inputs(draw, unitary):
    """A pair planted at ||[A,B]|| = delta whose B has n <= 48 eigenvalues
    drawn from the cut points of the drivers' cells at that delta, from a
    few repeated values, from tight clusters, or uniformly.  On the circle
    B may also fill one arc (the wrap-around arc among the choices) with
    one eigenvalue mid each sub-arc, the rest drawn uniformly: every
    sub-arc of that arc is occupied and some holds at most 4 eigenvalues,
    so the arc goes to an engine."""
    kinds = ["cut points", "repeated", "clustered", "uniform"]
    kind = draw(st.sampled_from(kinds + ["filled arc"] if unitary else kinds))
    if kind == "filled arc":
        # at most 12 arcs leave at most 48 sub-arcs
        delta, n_cut = cut_count(draw(st.integers(3, 12)))
        n = draw(st.integers(sub_arc_count(delta, n_cut), 48))
    else:
        n = draw(st.integers(0, 48))
        # few cells leave every sub-cell occupied, which sends cells to Szarek
        delta, n_cut = cut_count(draw(st.one_of(st.integers(2, 6), st.integers(7, 60))))
        if unitary:  # the circle is cut into at least three arcs
            delta, n_cut = cut_count(max(n_cut, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "filled arc":
        n_sub = sub_arc_count(delta, n_cut)
        arc = rng.integers(0, n_cut)
        filled = (arc + (np.arange(n_sub) + 0.5) / n_sub) / n_cut
        spec = np.concatenate([filled, rng.uniform(0.0, 1.0, n - n_sub)])
    elif kind == "cut points":
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


class TestCircleEngineRoutes:
    """Planted unitary pairs whose arcs go to the W-engines: the circle's
    norms run on the Szarek and Hastings routes, the wrap-around arc
    included."""

    @pytest.mark.parametrize("n, routes", [
        (64, ["szarek", "szarek", "szarek"]),
        (128, ["szarek", "hastings", "hastings"]),
    ])
    def test_routes_and_checks(self, n, routes):
        a, u = planted_pair(np.random.default_rng(n), n, 0.1, unitary=True)
        rep = pl.commute_hermitian_unitary(a, u)
        log = rep.stage_log
        assert log["n_cut"] == 3
        # arc 2 is the wrap-around arc: its regrouped space joins W_1
        assert [(e["interval"], e.get("engine")) for e in log["intervals"]] == \
            list(enumerate(routes))
        assert all(e["first_cell_eps2"] >= 0.0 for e in log["intervals"])
        assert rep.checks and all(c.passed for c in rep.checks)
        assert rep.comm_residual <= 1e-12 * n
        (pinch,) = [c for c in rep.checks if c.context == "||H-H'|| <= 2 max eps2"]
        assert pinch.lhs == log["h_to_pinched"] and log["eps2_max"] > 0.0
        # ||U-U'||, taken per arc in U's eigen-coordinates (on the engine
        # arcs the norm of the turned block), is the n x n norm
        assert abs(rep.dist_b - mc.op_norm(u - rep.b_prime)) <= 1e-13 * n


def _distance_to_cut(b: np.ndarray, log: dict, unitary: bool) -> float:
    """Distance from B's eigenvalues (in [-1, 1]) or, for a unitary B, their
    phases (in [0, 2 pi)) to the nearest cell or sub-cell edge of the
    driver's cut, read from its log."""
    if unitary:
        coords = np.mod(np.angle(np.linalg.eigvals(b)), 2.0 * math.pi)
        cell = log["arc_width"]
        phi_sub = 2.0 * math.asin(min(1.0, math.sqrt(2.0) * log["Delta"] / 2.0))
        sub = cell / max(1, int(math.floor(cell / phi_sub)))
    else:
        coords = np.linalg.eigvalsh(b) + 1.0
        cell = 2.0 / log["n_cut"]
        sub = cell / max(1, int(math.floor(cell / log["Delta"])))
    off = np.mod(coords, cell)  # sub-cells fill each cell exactly
    r = np.mod(off, sub)
    return float(np.minimum(r, sub - r).min())


@st.composite
def covariance_inputs(draw, unitary=False):
    """A planted pair whose B has n <= 40 eigenvalues, uniform or drawn
    from a few repeated values (on the circle e^{i pi (x + 1)} for those
    values x), and a Haar-ish unitary Q."""
    n = draw(st.integers(2, 40))
    delta, _ = cut_count(draw(st.one_of(st.integers(3 if unitary else 2, 6),
                                        st.integers(7, 30))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        spec = rng.uniform(-1.0, 1.0, n)
    else:
        spec = rng.choice(rng.uniform(-1.0, 1.0, 3), n)
    q = mc.random_unitary(rng, n)
    if unitary:
        spec = np.exp(1j * math.pi * (spec + 1.0))
    b = (q * spec) @ q.conj().T
    a0 = (q * rng.uniform(-0.9, 0.9, n)) @ q.conj().T
    g = mc.random_hermitian(rng, n, norm=1.0)
    base = mc.op_norm(mc.commutator(g, b))
    assume(base > 2 * delta)  # room to plant ||[A,B]|| = delta
    t = delta / (base - delta)
    a = (a0 + t * g) / (1.0 + t)
    if not unitary:
        b = (b + b.conj().T) / 2
    return (a + a.conj().T) / 2, b, mc.random_unitary(rng, n)


class TestUnitaryCovariance:
    """A'(QAQ*, QBQ*) = Q A'(A, B) Q* to 1e-9 max(n, 1) when B's spectrum is
    at least 1e-8 from every cell and sub-cell edge and no interval goes to
    Hastings, whose Jacobi oracle depends on the basis.  On the circle B'
    (U') moves with Q as well, and the arcs take gaps and Szarek only."""

    @staticmethod
    def conj(q, m, hermitian=True):
        m = q @ m @ q.conj().T
        return (m + m.conj().T) / 2 if hermitian else m

    @staticmethod
    def covered(rep, b, unitary) -> bool:
        """Whether the claim covers this run: cells cut, no Hastings
        interval, B's spectrum 1e-8 clear of every edge."""
        log = rep.stage_log
        return (log["n_cut"] > 0
                and all(iv.get("engine") != "hastings" for iv in log["intervals"])
                and _distance_to_cut(b, log, unitary) >= 1e-8)

    def assert_covariant(self, rep, inputs, unitary):
        a, b, q = inputs
        moved = DRIVERS[unitary](self.conj(q, a), self.conj(q, b, not unitary))
        assert moved.stage_log["n_cut"] == rep.stage_log["n_cut"]
        n = a.shape[0]
        assert mc.op_norm(q @ rep.a_prime @ q.conj().T - moved.a_prime) <= 1e-9 * max(n, 1)
        if unitary:
            assert mc.op_norm(q @ rep.b_prime @ q.conj().T - moved.b_prime) <= 1e-9 * max(n, 1)

    @settings(max_examples=30, deadline=None)
    @given(covariance_inputs())
    def test_hermitian_pair(self, inputs):
        rep = pl.commute_hermitian_pair(*inputs[:2])
        assume(self.covered(rep, inputs[1], False))
        self.assert_covariant(rep, inputs, False)

    @settings(max_examples=30, deadline=None)
    @given(covariance_inputs(unitary=True))
    def test_hermitian_unitary(self, inputs):
        rep = pl.commute_hermitian_unitary(*inputs[:2])
        assume(self.covered(rep, inputs[1], True))
        self.assert_covariant(rep, inputs, True)

    def test_szarek_arcs(self):
        # TestCircleEngineRoutes' n = 64 pair: three Szarek arcs, the
        # wrap-around arc among them, which drawn inputs seldom reach
        a, u = planted_pair(np.random.default_rng(64), 64, 0.1, unitary=True)
        inputs = (a, u, mc.random_unitary(np.random.default_rng(65), 64))
        rep = pl.commute_hermitian_unitary(a, u)
        assert [iv.get("engine") for iv in rep.stage_log["intervals"]] == ["szarek"] * 3
        assert self.covered(rep, u, True)
        self.assert_covariant(rep, inputs, True)


@pytest.mark.parametrize("dims", [[2, 3, 2, 1], [5, 6, 5]], ids=["szarek", "hastings"])
def test_engine_log_carries_first_cell_eps2(dims):
    # a block J of norm 3 cut into L >= 3 subintervals: the log's
    # first_cell_eps2 is eps4 of W = V_1, rescaled, up to the off-band norm
    sys = sb.random_block_tridiagonal(np.random.default_rng(len(dims)), dims)
    k, _, log = pl._interval_subspace_engine(3.0 * sys.j, np.array(dims))
    scale = log["rescale"]
    js = sb.verify_tridiagonal(3.0 * sys.j / scale, dims)
    v1 = np.eye(sys.dim, dtype=complex)[:, js.blocks[0]]
    want = sb.certify_W(js, v1).eps4 * scale
    assert log["engine"] == ("szarek" if min(dims) <= pl.SZAREK_BLOCK_THRESHOLD else "hastings")
    assert scale > 1.0
    assert abs(log["first_cell_eps2"] - want) <= js.max_offtridiag * scale + 1e-12


@pytest.mark.parametrize("dims, first", [
    ([0, 1, 1], 0), ([2, 0, 1, 1], 1), ([1, 1, 0], 2), ([1, 2, 1], None)],
    ids=["leading", "inner", "trailing", "none"])
def test_first_empty_subinterval(dims, first):
    # the trivial gap is the first zero size, and W the coordinates before it
    j = sb.random_block_tridiagonal(np.random.default_rng(3), dims).j
    k, t, log = pl._interval_subspace_engine(j, np.array(dims))
    assert log.get("trivial_gap") == first
    if first is None:
        assert log["engine"] == "szarek" and t.shape == (4, 4)
    else:
        assert (k, t) == (sum(dims[:first]), None)
        assert log["eps2"] == mc.op_norm(j[k:, :k])


class TestContractionGate:
    """The drivers' entry gates for a Hermitian contraction A, matcore's
    ``require_hermitian`` then ``require_contraction``: ||A|| <= 1 by two
    Cholesky factorizations of the Hermitian part, (1 + 1e-9)I -+ A."""

    @staticmethod
    def gate(m, name="A"):
        return mc.require_contraction(mc.require_hermitian(m, name)[0], name)

    @pytest.mark.parametrize("m", [np.eye(5), np.zeros((0, 0)), np.array([[1.0]]),
                                   np.array([[-1.0]]), -np.eye(3)],
                             ids=["I", "n=0", "1x1", "-1x1", "-I"])
    def test_accepts(self, m):
        assert np.array_equal(self.gate(m, "A"), m)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rejects_past_the_tolerance(self, sign):
        with pytest.raises(ValueError, match="A must be a contraction"):
            self.gate(sign * (1.0 + 2e-9) * np.eye(4), "A")

    def test_rotated_contraction_accepted_and_rejected(self):
        rng = np.random.default_rng(41)
        h = mc.random_hermitian(rng, 40, norm=1.0)
        assert np.array_equal(self.gate(h, "A"), h)
        with pytest.raises(ValueError, match="A must be a contraction"):
            self.gate(1.001 * h, "A")

    def test_gate_is_the_shared_cholesky_test(self, monkeypatch):
        # the gate is matcore's one Cholesky test of ||h|| <= c, at
        # c = 1 + 1e-9
        real, seen = mc.hermitian_norm_within, []

        def recording(h, c):
            seen.append(c)
            return real(h, c)

        monkeypatch.setattr(mc, "hermitian_norm_within", recording)
        self.gate(np.eye(5), "A")
        with pytest.raises(ValueError, match="A must be a contraction"):
            self.gate(-(1.0 + 2e-9) * np.eye(4), "A")
        assert seen == [1.0 + 1e-9] * 2

    def test_non_hermitian_reported_as_such(self):
        m = np.array([[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="A must be Hermitian"):
            self.gate(m, "A")
