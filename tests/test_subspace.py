"""Subspace engines: tridiagonal systems, certificates, interval selection,
the commuting-pair oracle, and the two W constructions."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearcommute import matcore as mc
from nearcommute import projgeom as pg
from nearcommute import smoothing as sm
from nearcommute import subspace as sb
from nearcommute.checks import BoundCheck


def block_proj(n, block):
    """Projection onto the coordinates of one block (a slice or index list)."""
    cols = np.eye(n)[:, block]
    return cols @ cols.T


class TestVerifyTridiagonal:
    def test_block_diagonal_passes(self):
        j = np.diag([0.1, 0.2, 0.3, 0.4])
        sys = sb.verify_tridiagonal(j, [2, 2])
        assert sys.max_offtridiag == 0.0

    def test_banded_scalar_singletons(self):
        n = 8
        j = (np.diag(np.full(n - 1, 0.3), 1) + np.diag(np.full(n - 1, 0.3), -1))
        sys = sb.verify_tridiagonal(j, [1] * n)
        assert sys.L == n

    def test_dense_rejected_with_location(self):
        rng = np.random.default_rng(0)
        j = mc.random_hermitian(rng, 6, norm=1.0)
        with pytest.raises(ValueError, match="blocks 0 and 2"):
            sb.verify_tridiagonal(j, [2, 2, 2])

    def test_small_pairs_with_large_off_band_norm_pass(self):
        # Every off-tridiagonal pair is a scalar 0.9*tol, but together they
        # exceed tol, so the screen cannot decide and the pairs are checked.
        n, tol = 10, 1e-8
        dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        far = dist >= 2
        j = 0.3 * (dist == 1) + 0.9 * tol * far
        sys = sb.verify_tridiagonal(j, [1] * n)
        assert sys.max_offtridiag == pytest.approx(mc.op_norm(j * far), rel=1e-12)
        assert sys.max_offtridiag > tol
        assert sys.L == n

    @staticmethod
    def hermitian_to_roundoff():
        sys = sb.random_block_tridiagonal(np.random.default_rng(4), [2, 3, 2])
        j = sys.j.copy()
        j[0, 1] += 1e-17j
        assert not np.array_equal(j, j.conj().T)
        return j, sys.dims

    def test_hermiticity_gate_screened(self, monkeypatch):
        # matcore's Hermitian gate passes on its Frobenius screen: matcore
        # takes no operator norm (the off-band norm is subspace's own binding)
        j, dims = self.hermitian_to_roundoff()

        def refuse(x):
            raise AssertionError("op_norm reached from a matcore gate")

        monkeypatch.setattr(mc, "op_norm", refuse)
        assert sb.verify_tridiagonal(j, dims).L == 3

    def test_holds_the_hermitian_part(self):
        # a Hermiticity defect within the gate is not kept in sys.j, which
        # the engines decompose and certify_W measures eps4 against
        j, dims = self.hermitian_to_roundoff()
        j[0, 1] += 1e-11
        held = sb.verify_tridiagonal(j, dims).j
        assert np.array_equal(held, (j + j.conj().T) / 2)
        assert np.array_equal(held, held.conj().T)

    def test_non_hermitian_rejected(self):
        j, dims = self.hermitian_to_roundoff()
        j[0, 1] += 1e-6
        with pytest.raises(ValueError, match="J must be Hermitian"):
            sb.verify_tridiagonal(j, dims)

    # every bad list of sizes gets the one message
    BAD_DIMS = "dims must be nonnegative integers that sum to 3"

    def test_non_spanning_rejected(self):
        with pytest.raises(ValueError, match=self.BAD_DIMS):
            sb.verify_tridiagonal(np.eye(3) * 0.1, [2])

    @pytest.mark.parametrize("dims", [
        [2, 2], [4], [4, -1], [1.0, 2.0], [True, True, True], np.eye(3, dtype=int),
    ], ids=["overlap", "too-large", "negative", "float", "bool", "basis-matrix"])
    def test_bad_partition_rejected(self, dims):
        with pytest.raises(ValueError, match=self.BAD_DIMS):
            sb.verify_tridiagonal(np.eye(3) * 0.1, dims)

    @settings(max_examples=30, deadline=None)
    @given(dims=st.lists(st.integers(0, 3), min_size=1, max_size=7),
           seed=st.integers(0, 2**32 - 1))
    def test_coordinate_blocks_property(self, dims, seed):
        sys = sb.random_block_tridiagonal(np.random.default_rng(seed), dims)
        n = sys.dim
        # the blocks are consecutive runs of the given sizes covering range(n)
        assert [(b.start, b.stop) for b in sys.blocks] == [
            (sum(dims[:k]), sum(dims[:k + 1])) for k in range(len(dims))]
        assert sys.dims == dims
        total = sum(block_proj(n, b) for b in sys.blocks)
        assert np.array_equal(total, np.eye(n))
        for k in range(sys.L - 1):
            c = sys.j[sys.blocks[k + 1], sys.blocks[k]]
            nrm = mc.op_norm(c)
            assert sys.coupling_norms[k] == pytest.approx(nrm, abs=1e-14)
            rank = (np.linalg.matrix_rank(c, tol=1e-10 * max(1.0, nrm))
                    if c.size else 0)
            assert sys.coupling_rank(k) == rank
        # reversing the coordinates and the sizes reverses the couplings
        rev = sb.verify_tridiagonal(sys.j[::-1, ::-1], dims[::-1])
        assert rev.max_offtridiag == sys.max_offtridiag
        assert np.allclose(rev.coupling_norms[::-1], sys.coupling_norms,
                           rtol=0, atol=1e-14)


class TestCertifyW:
    def test_no_block_rejected(self):
        sys = sb.random_block_tridiagonal(np.random.default_rng(0), [])
        with pytest.raises(sb.DegenerateSystemError, match="the system has no block"):
            sb.certify_W(sys, np.zeros((0, 0)))

    def test_whole_space(self):
        rng = np.random.default_rng(1)
        sys = sb.random_block_tridiagonal(rng, [2, 2, 2])
        cert = sb.certify_W(sys, np.eye(6))
        assert cert.eps3 <= 1e-12 and cert.eps4 <= 1e-12
        assert cert.eps5 == pytest.approx(1.0, abs=1e-12)

    def test_exact_reducing_subspace(self):
        rng = np.random.default_rng(2)
        sys = sb.random_block_tridiagonal(rng, [1, 1, 1, 1])
        j = sys.j.copy()
        j[2, 1] = j[1, 2] = 0.0  # decouple after block 2
        sys2 = sb.verify_tridiagonal(j, sys.dims)
        w = np.eye(4)[:, :2]
        cert = sb.certify_W(sys2, w)
        assert cert.eps3 <= 1e-12 and cert.eps4 <= 1e-12 and cert.eps5 <= 1e-12
        assert cert.contains_V1 and cert.perp_VL

    def test_orthonormal_basis_kept(self, screened_gates, monkeypatch):
        rng = np.random.default_rng(5)
        sys = sb.random_block_tridiagonal(rng, [2, 3, 2, 1])
        w = mc.random_unitary(rng, 8)[:, :3]
        real, calls = sb.orthonormal_columns, []
        monkeypatch.setattr(sb, "orthonormal_columns",
                            lambda c, **kw: calls.append(1) or real(c, **kw))
        screened_gates.clear()
        cert = sb.certify_W(sys, w)
        assert screened_gates == ["certify_W"] and calls == []
        assert np.array_equal(cert.w_basis, w)

    def test_non_orthonormal_basis_orthonormalized(self):
        rng = np.random.default_rng(5)
        sys = sb.random_block_tridiagonal(rng, [2, 3, 2, 1])
        w = 2.0 * mc.random_unitary(rng, 8)[:, :3]
        cert = sb.certify_W(sys, w)
        wb = cert.w_basis
        assert mc.op_norm(wb.conj().T @ wb - np.eye(3)) <= 1e-12
        assert mc.op_norm(wb @ wb.conj().T - w @ w.conj().T / 4.0) <= 1e-12

    def test_vector_is_a_one_column_basis(self):
        rng = np.random.default_rng(4)
        sys = sb.random_block_tridiagonal(rng, [2, 3, 2, 1])
        w = mc.random_unitary(rng, 8)[:, 0]
        cert = sb.certify_W(sys, w)
        assert cert.w_basis.shape == (8, 1)
        assert cert.summary() == sb.certify_W(sys, w[:, None]).summary()

    def test_primal_dual_agreement_random(self):
        rng = np.random.default_rng(3)
        sys = sb.random_block_tridiagonal(rng, [2, 3, 2, 1])
        q = mc.random_unitary(rng, 8)
        cert = sb.certify_W(sys, q[:, :3])  # no exception means agreement held
        assert 0 <= cert.eps5 <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(0, 3), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_dense_definitions(self, dims, seed, data):
        rng = np.random.default_rng(seed)
        sys = sb.random_block_tridiagonal(rng, dims)
        n = sys.dim
        if data.draw(st.booleans(), label="leading blocks"):
            # a rotated basis of the first m blocks: the exact flags can hold
            m = data.draw(st.integers(0, sys.L), label="m")
            k = sum(dims[:m])
            w = np.eye(n)[:, :k]
            if k:
                w = w @ mc.random_unitary(rng, k)
        else:
            k = data.draw(st.integers(0, n), label="rank")
            w = mc.random_unitary(rng, n)[:, :k] if n else np.zeros((0, 0))
        pw = w @ w.conj().T
        pperp = np.eye(n) - pw
        p1 = block_proj(n, sys.blocks[0])
        pl = block_proj(n, sys.blocks[-1])
        eps3 = mc.op_norm(pperp @ p1)
        eps4 = mc.op_norm(pperp @ sys.j @ pw)
        eps5 = mc.op_norm(pl @ pw)
        cert = sb.certify_W(sys, w)
        assert cert.eps3 == pytest.approx(eps3, abs=1e-12)
        assert cert.eps4 == pytest.approx(eps4, abs=1e-12)
        assert cert.eps5 == pytest.approx(eps5, abs=1e-12)
        assert cert.contains_V1 == (eps3 <= sb.EXACT_TOL)
        assert cert.perp_VL == (eps5 <= sb.EXACT_TOL)


class TestTrivialReducingBasis:
    def test_empty_last_block(self):
        rng = np.random.default_rng(5)
        sys = sb.random_block_tridiagonal(rng, [1, 1, 1, 0])
        w = sb.trivial_reducing_basis(sys)
        assert w.shape == (3, 3)
        first_three = sum(block_proj(sys.dim, b) for b in sys.blocks[:3])
        assert mc.op_norm(w @ w.conj().T - first_three) <= 1e-12


class TestKrylovReduce:
    def test_zero_coupling_gives_trivial(self):
        rng = np.random.default_rng(4)
        sys = sb.random_block_tridiagonal(rng, [1, 1, 1, 1, 1])
        j = sys.j.copy()
        j[3, 2] = j[2, 3] = 0.0
        sys2 = sb.verify_tridiagonal(j, sys.dims)
        red = sb.krylov_reduce(sys2, 2)
        assert red.trivial_w is not None
        pw = red.trivial_w @ red.trivial_w.conj().T
        assert mc.op_norm((np.eye(5) - pw) @ sys2.j @ pw) <= 1e-10

    @pytest.mark.parametrize("i", [0, 3])
    def test_coupling_index_range(self, i):
        sys = sb.random_block_tridiagonal(np.random.default_rng(1), [1, 1, 1])
        with pytest.raises(ValueError, match="need 1 <= i < L"):
            sb.krylov_reduce(sys, i)

    @pytest.mark.parametrize("dims, i, reversed_", [([0, 2, 2], 1, False),
                                                    ([2, 2, 2, 0], 3, True)])
    def test_empty_start_closes_at_once(self, dims, i, reversed_):
        # an empty V_1 (V_L when reversed) starts an empty chain: the empty
        # space reduces J exactly
        sys = sb.random_block_tridiagonal(np.random.default_rng(3), dims)
        red = sb.krylov_reduce(sys, i)
        assert red.reversed == reversed_
        assert red.chain == []
        assert red.trivial_w.shape == (sys.dim, 0)

    @staticmethod
    def rank_one_system():
        """Six 2-blocks whose coupling 1->2 is rank one."""
        rng = np.random.default_rng(5)
        dims = [2, 2, 2, 2, 2, 2]
        sys = sb.random_block_tridiagonal(rng, dims)
        j = sys.j.copy()
        blk = j[2:4, 0:2]
        u, s, vh = np.linalg.svd(blk)
        s[1:] = 0.0
        j[2:4, 0:2] = u @ np.diag(s) @ vh
        j[0:2, 2:4] = j[2:4, 0:2].conj().T
        j = j / max(1.0, mc.op_norm(j))
        return sb.verify_tridiagonal(j, dims)

    def test_rank_one_coupling_chain_dims(self):
        sys2 = self.rank_one_system()
        red = sb.krylov_reduce(sys2, 1)
        assert sys2.coupling_rank(0) == 1
        assert all(c.shape[1] <= 1 for c in red.chain)
        # J compressed to the stacked chain is block tridiagonal over its links
        emb = np.column_stack(red.chain)
        j_red = emb.conj().T @ sys2.j @ emb
        reduced = sb.verify_tridiagonal((j_red + j_red.conj().T) / 2,
                                        [c.shape[1] for c in red.chain])
        assert reduced.L == len(red.chain)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_chain_stops_at_the_last_block(self, reverse):
        # rank-one increments never fill the space before V_L: the chain
        # stops after L - i of them (i oriented), where it reaches V_L
        sys = self.rank_one_system()
        if reverse:
            sys = sb.verify_tridiagonal(sys.j[::-1, ::-1], sys.dims)
        red = sb.krylov_reduce(sys, sys.L - 1 if reverse else 1)
        assert red.reversed == reverse
        assert [c.shape[1] for c in red.chain] == [1] * (sys.L - 1)
        assert red.trivial_w is None

    def test_reversal_matches_forward_on_reversed_system(self):
        rng = np.random.default_rng(6)
        dims = [1, 2, 1, 2, 1, 2, 1]
        sys = sb.random_block_tridiagonal(rng, dims)
        i = 5  # past the midpoint: triggers the reversed orientation
        red = sb.krylov_reduce(sys, i)
        assert red.reversed
        # forward run on the explicitly reversed system: coordinates and
        # sizes reversed, its chain read back in the original coordinates
        sys_r = sb.verify_tridiagonal(sys.j[::-1, ::-1], dims[::-1])
        red_f = sb.krylov_reduce(sys_r, sys.L - i)
        assert not red_f.reversed
        assert sys.coupling_rank(i - 1) == sys_r.coupling_rank(sys.L - i - 1)
        assert len(red.chain) == len(red_f.chain)
        for c1, c2 in zip(red.chain, red_f.chain):
            p1 = c1 @ c1.conj().T
            p2 = c2[::-1] @ c2[::-1].conj().T
            assert mc.op_norm(p1 - p2) <= 1e-9


class TestSelectIntervals:
    def test_single_atom(self):
        res = sb.select_intervals([0.4], [1.0], 0.3, 0.03)
        assert res.r == 1
        a, b = res.intervals[0]
        assert a <= 0.4 <= b
        assert res.excluded_mass == 0.0

    def test_uniform_hundred_atoms(self):
        pos = np.linspace(0, 1, 100)
        mas = np.ones(100)
        res = sb.select_intervals(pos, mas, 0.2, 0.02)
        assert res.r <= 2 / 0.2 + 1e-12
        for a, b in res.intervals:
            assert b - a <= 0.2 + 1e-12
        for x, y in zip(res.intervals, res.intervals[1:]):
            assert y[0] - x[1] >= 0.02 - 1e-12
        assert res.excluded_mass <= (4 * 0.02 / 0.2) * 100 + 1e-9

    def test_kappa_eta_gate(self):
        with pytest.raises(ValueError):
            sb.select_intervals([0.5], [1.0], 0.1, 0.05)

    def test_random_measures(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            k = int(rng.integers(1, 60))
            pos = rng.uniform(0, 1, k)
            mas = rng.uniform(0, 2, k)
            kappa = float(rng.uniform(0.12, 0.8))
            eta = float(rng.uniform(0.001, kappa / 8.5))
            res = sb.select_intervals(pos, mas, kappa, eta)  # self-verifying
            assert res.r >= 1

    @staticmethod
    def first_cut_windows(kappa, eta):
        """Midpoints of the candidate windows [t, t + eta) of the first cut."""
        lo, hi = kappa / 2.0, kappa - eta
        return lo + eta * (np.arange(int(np.floor((hi - lo) / eta)) + 1) + 0.5)

    def test_every_kept_interval_carries_mass(self):
        # A cut is the lightest of at least four disjoint windows, so a cut
        # with mass leaves mass outside every cut: with total mass the
        # selection is never empty, and it keeps only intervals with mass.
        # Atoms on every candidate window of the first cut, or spaced below
        # eta over [0, 1], give every window mass.
        rng = np.random.default_rng(23)
        for trial in range(300):
            kappa = float(rng.uniform(0.05, 0.99))
            eta = float(rng.uniform(kappa / 200, kappa / 8.0000001))
            kind = trial % 4
            if kind == 0:
                pos = self.first_cut_windows(kappa, eta)
            elif kind == 1:
                pos = np.arange(0.0, 1.0, eta * rng.uniform(0.2, 0.99))
            elif kind == 2:
                pos = np.concatenate([self.first_cut_windows(kappa, eta),
                                      rng.uniform(0, 1, int(rng.integers(0, 5)))])
            else:
                pos = rng.uniform(0, 1, int(rng.integers(1, 30)))
            mas = rng.uniform(0, 1, pos.size) * (rng.uniform(0, 1, pos.size) < 0.8)
            if mas.sum() == 0.0:
                mas[0] = 1.0
            res = sb.select_intervals(pos, mas, kappa, eta)
            assert res.r >= 1, (trial, kappa, eta)
            for a, b in res.intervals:
                assert mas[(pos >= a) & (pos <= b)].sum() > 0.0, (trial, a, b)

    def test_zero_measure_keeps_every_interval(self):
        res = sb.select_intervals([0.1, 0.7], [0.0, 0.0], 0.2, 0.01)
        assert res.r >= 2 and res.excluded_mass == 0.0

    @pytest.mark.parametrize("masses", [[np.nan, 1.0], [-1.0, 1.0], [np.inf, 1.0]],
                             ids=["nan", "negative", "inf"])
    def test_masses_must_form_a_measure(self, masses):
        with pytest.raises(ValueError, match="masses must be finite and nonnegative"):
            sb.select_intervals([0.2, 0.6], masses, 0.2, 0.01)

    def test_misaligned_masses_rejected(self):
        with pytest.raises(ValueError, match="must align"):
            sb.select_intervals([0.2, 0.6], [1.0], 0.2, 0.01)

    def test_nan_position_rejected(self):
        with pytest.raises(ValueError, match=r"supported on \[0,1\]"):
            sb.select_intervals([np.nan, 0.6], [1.0, 1.0], 0.2, 0.01)


class TestJacobiOracle:
    def test_commuting_pair_joint_diagonalized(self):
        rng = np.random.default_rng(8)
        q = mc.random_unitary(rng, 8)
        a = q @ np.diag(rng.uniform(-1, 1, 8)) @ q.conj().T
        b = q @ np.diag(rng.uniform(-1, 1, 8)) @ q.conj().T
        a = (a + a.conj().T) / 2
        b = (b + b.conj().T) / 2
        u, rot = sb.joint_jacobi([a, b])
        for m in rot:
            off = m - np.diag(np.diag(m))
            assert mc.op_norm(off) <= 1e-9

    def test_jointly_degenerate_pair_is_not_rotated(self, monkeypatch):
        # (0, 1) is degenerate in both matrices and every off-diagonal entry
        # is zero: no pair needs a rotation, so no 3x3 eigh runs
        a = np.diag([0.5, 0.5, -0.25]).astype(complex)
        b = np.diag([0.1, 0.1, 0.7]).astype(complex)
        real = np.linalg.eigh
        calls = []

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        u, rot = sb.joint_jacobi([a, b])
        assert calls == []
        assert np.array_equal(u, np.eye(3))
        assert np.array_equal(rot[0], a) and np.array_equal(rot[1], b)

    def test_degenerate_block_skipped_coupled_pair_rotated(self, monkeypatch):
        # a degenerate pair (0, 1) next to a coupled pair (1, 2) of a
        # commuting pair: only (1, 2) takes the 3x3 eigh, and e_0 stays put
        a = np.array([[0.5, 0, 0], [0, 0.5, 0.2], [0, 0.2, -0.3]], dtype=complex)
        b = np.diag([0.1, 0.1, 0.1]).astype(complex)
        real = np.linalg.eigh
        calls = []

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        u, rot = sb.joint_jacobi([a, b])
        assert calls == [(3, 3)]
        assert np.array_equal(u[:, 0], np.eye(3)[:, 0])
        for m in rot:
            assert mc.op_norm(m - np.diag(np.diag(m))) <= 1e-12
        assert mc.op_norm(u.conj().T @ u - np.eye(3)) <= 1e-14

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="the family is empty"):
            sb.joint_jacobi([])

    def test_heuristic_oracle_produces_commuting_pair(self):
        rng = np.random.default_rng(9)
        a = mc.random_hermitian(rng, 6, norm=1.0)
        b = mc.random_hermitian(rng, 6, norm=1.0)
        u, rot = sb.joint_jacobi([a, b])
        ap, bp = ((u * np.real(np.diag(m))) @ u.conj().T for m in rot)
        assert mc.op_norm(mc.commutator(ap, bp)) <= 1e-10


class TestLinOracleProjection:
    def test_commuting_given_mode(self):
        rng = np.random.default_rng(10)
        lam = np.sort(rng.uniform(-1, 1, 8))
        q = mc.random_unitary(rng, 8)
        a = q @ np.diag(lam) @ q.conj().T
        a = (a + a.conj().T) / 2
        b = q @ np.diag(np.sin(3 * lam)) @ q.conj().T
        b = (b + b.conj().T) / 2
        res = sb.lin_oracle_projection(mc.eig_hermitian(a), b)
        assert res.commutator_norm <= 1e-10
        assert res.check.passed

    def test_heuristic_postcondition(self):
        rng = np.random.default_rng(11)
        q = mc.random_unitary(rng, 12)
        lam = np.sort(rng.uniform(-1, 1, 12))
        a0 = q @ np.diag(lam) @ q.conj().T
        b0 = q @ np.diag(np.cos(2 * lam)) @ q.conj().T
        pert = mc.random_hermitian(rng, 12, norm=0.05)
        a = ((a0 + pert) / 1.05 + (a0 + pert).conj().T / 1.05) / 2
        b = (b0 + b0.conj().T) / 2
        ea = mc.eig_hermitian(a)
        res = sb.lin_oracle_projection(ea, b)
        assert res.check.passed
        # exact sandwich enforced structurally
        p = res.basis @ res.basis.conj().T
        low = ea.vectors[:, ea.eigenvalues <= -0.5]
        high = ea.vectors[:, ea.eigenvalues >= 0.5]
        e = low @ low.conj().T
        g = np.eye(12) - high @ high.conj().T
        assert mc.op_norm(e @ (np.eye(12) - p)) <= 1e-10
        assert mc.op_norm(p @ (np.eye(12) - g)) <= 1e-10

    def test_basis_spans_projection(self):
        n = 12
        rng = np.random.default_rng(19)
        a = mc.random_hermitian(rng, n, norm=1.0)
        b = mc.random_hermitian(rng, n, norm=1.0)
        res = sb.lin_oracle_projection(mc.eig_hermitian(a), b)
        basis = res.basis
        assert basis.shape[0] == n
        assert mc.op_norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-10
        # the measured ||(1 - QQ*) B Q|| is ||[P, B]|| for P = QQ*
        p = basis @ basis.conj().T
        assert res.commutator_norm == pytest.approx(mc.op_norm(mc.commutator(p, b)), abs=1e-12)

    @staticmethod
    def spread_pair():
        # A's spectrum meets all three sandwich ranges
        rng = np.random.default_rng(20)
        q = mc.random_unitary(rng, 8)
        a = (q * np.array([-0.9, -0.7, -0.6, -0.2, 0.1, 0.3, 0.6, 0.95])) @ q.conj().T
        return mc.eig_hermitian(a), mc.random_hermitian(rng, 8, norm=1.0)

    def test_sandwich_gate_screened(self, screened_gates):
        a, b = self.spread_pair()
        res = sb.lin_oracle_projection(a, b)
        assert res.check.passed
        assert screened_gates == ["_require_orthonormal"] * 2 + ["lin_oracle_projection"] * 2

    def test_a_not_decomposed_again(self, monkeypatch):
        # the sandwich bases are ea's columns and Ran F' is read off
        # joint_jacobi's U: the oracle decomposes neither A nor A'
        ea, b = self.spread_pair()
        real, calls = sb.eig_hermitian_part, []
        monkeypatch.setattr(sb, "eig_hermitian_part",
                            lambda m: calls.append(m.shape) or real(m))
        assert sb.lin_oracle_projection(ea, b).check.passed
        assert calls == []

    def test_broken_sandwich_rejected(self, monkeypatch):
        a, b = self.spread_pair()
        real = sb.nest_projection_core
        # drop the first column of Ran E from the nested basis
        monkeypatch.setattr(sb, "nest_projection_core", lambda *bases: real(*bases)[:, 1:])
        with pytest.raises(AssertionError, match="sandwich E <= P <= G failed structurally"):
            sb.lin_oracle_projection(a, b)


class TestSzarek:
    def test_decoupled_system_exact(self):
        rng = np.random.default_rng(13)
        sys = sb.random_block_tridiagonal(rng, [1] * 12)
        j = sys.j.copy()
        j[6, 5] = j[5, 6] = 0.0
        sys2 = sb.verify_tridiagonal(j / max(1.0, mc.op_norm(j)), sys.dims)
        cert = sb.szarek_W(sys2)
        assert cert.eps4 <= 1e-10
        assert cert.contains_V1 and cert.perp_VL

    def test_empty_block_trivial(self):
        rng = np.random.default_rng(14)
        dims = [1, 1, 1, 0, 1, 1]
        sys = sb.random_block_tridiagonal(rng, dims)
        cert = sb.szarek_W(sys)
        assert cert.eps4 <= 1e-10
        # the exact reducing subspace of the blocks before the empty one
        assert mc.op_norm(cert.w_basis @ cert.w_basis.conj().T
                          - sum(block_proj(sys.dim, b) for b in sys.blocks[:3])) <= 1e-12

    @staticmethod
    def coupled(dims, diag, pairs, c=0.4):
        """J with the given diagonal and c at each coupled coordinate pair."""
        j = np.diag(np.asarray(diag, dtype=np.complex128))
        for p, q in pairs:
            j[p, q] = j[q, p] = c
        return sb.verify_tridiagonal(j, dims)

    def test_krylov_chain_closing_early_is_exact(self):
        # V1 = {0,1}, V2 = {2,3}, V3 = {4,5}; J[V2,V1] couples only 0 <-> 2
        # and J[V3,V2] only 3 <-> 5.  No coupling is zero, but the chain from
        # V1 closes after e2, so W = span(e0, e1, e2)
        sys = self.coupled([2, 2, 2], [0.1, -0.2, 0.3, 0.05, -0.1, 0.2], [(2, 0), (5, 3)])
        assert sb.trivial_reducing_basis(sys) is None
        red = sb.krylov_reduce(sys, 1)
        assert not red.reversed and red.trivial_w is not None
        cert = sb.szarek_W(sys)
        assert cert.eps4 <= sb.EXACT_TOL
        assert cert.contains_V1 and cert.perp_VL
        assert mc.op_norm(cert.w_basis @ cert.w_basis.conj().T
                          - block_proj(6, [0, 1, 2])) <= 1e-12

    def test_reversed_krylov_chain_takes_the_complement(self):
        # V1 = {0,1,2}, V2 = {3,4,5}, V3 = {6,7}, V4 = {8}; the rank-1
        # coupling V3-V4 is the smallest and lies past the midpoint, so the
        # chain runs from V4: e8 -> e6 -> e3, and e3 has no coupling into V1.
        # W is the complement of the chain's span.
        pairs = [(4, 0), (5, 1), (6, 3), (7, 4), (8, 6)]
        sys = self.coupled([3, 3, 2, 1], 0.1 * np.arange(-4, 5), pairs)
        assert sb.trivial_reducing_basis(sys) is None
        red = sb.krylov_reduce(sys, 3)
        assert red.reversed and red.trivial_w is not None
        cert = sb.szarek_W(sys)
        assert cert.eps4 <= sb.EXACT_TOL
        assert cert.contains_V1 and cert.perp_VL
        assert mc.op_norm(cert.w_basis @ cert.w_basis.conj().T
                          - block_proj(9, [0, 1, 2, 4, 5, 7])) <= 1e-12

    def test_forty_singletons_produces_certificate(self):
        rng = np.random.default_rng(15)
        sys = sb.random_block_tridiagonal(rng, [1] * 40)
        cert = sb.szarek_W(sys)
        assert cert.contains_V1 and cert.perp_VL
        assert np.isfinite(cert.eps4)

    def test_too_small_system_rejected(self):
        rng = np.random.default_rng(16)
        sys = sb.random_block_tridiagonal(rng, [2])
        with pytest.raises(sb.DegenerateSystemError):
            sb.szarek_W(sys)

    def test_one_orthonormalisation_past_the_shortcuts(self, monkeypatch):
        # each kept piece a_j v / sigma has orthonormal columns already, so
        # the stacked pieces are orthonormalised once (Krylov's own calls
        # come from krylov_reduce)
        real, callers = sb.orthonormal_columns, []

        def counting(*args, **kwargs):
            callers.append(inspect.currentframe().f_back.f_code.co_name)
            return real(*args, **kwargs)

        monkeypatch.setattr(sb, "orthonormal_columns", counting)
        sys = sb.random_block_tridiagonal(np.random.default_rng(2), [2] * 60)
        assert sb.szarek_W(sys).w_basis.shape[1] == 3
        assert callers.count("szarek_W") == 1

    # Szarek's W against the first cell W = V_1, whose eps4 is ||J_21|| on
    # these systems (no coupling beyond the band): it beats the first cell
    # on 2 x 60 at seed 2 and loses to it on 2 x 40 at seed 0.
    @pytest.mark.parametrize("blocks, seed, eps4, first_cell", [
        (60, 2, 0.2085, 0.3255),
        (40, 0, 0.5395, 0.3985),
    ])
    def test_pinned_against_the_first_cell(self, blocks, seed, eps4, first_cell):
        sys = sb.random_block_tridiagonal(np.random.default_rng(seed), [2] * blocks)
        cert = sb.szarek_W(sys)
        assert cert.w_basis.shape[1] == 3
        assert cert.contains_V1 and cert.perp_VL
        assert cert.eps4 == pytest.approx(eps4, abs=1e-4)
        assert sys.coupling_norms[0] == pytest.approx(first_cell, abs=1e-4)
        v1 = np.eye(sys.dim, dtype=complex)[:, sys.blocks[0]]
        assert sb.certify_W(sys, v1).eps4 == pytest.approx(first_cell, abs=1e-4)


class TestHastings:
    @staticmethod
    def desk_system(seed=7, L=60):
        rng = np.random.default_rng(seed)
        return sb.random_block_tridiagonal(rng, [2] * L)

    @staticmethod
    def desk_config():
        return sb.HastingsConfig(n_win=24, l_b=4, lambda_min=1e-4)

    def test_config_invariants(self):
        cfg = self.desk_config()
        assert cfg.n_b % 2 == 1
        assert cfg.kappa == pytest.approx(2 / cfg.n_win)
        with pytest.raises(ValueError):
            sb.HastingsConfig(n_win=24, l_b=6, lambda_min=1e-4)
        # (n_win + 1) // l_b - 1 = 0 superblocks
        with pytest.raises(ValueError, match="n_win too small"):
            sb.HastingsConfig(n_win=6, l_b=4, lambda_min=1e-4)

    def test_empty_block_short_circuits(self):
        rng = np.random.default_rng(17)
        sys = sb.random_block_tridiagonal(rng, [1, 1, 0, 1, 1, 1])
        cert, diag = sb.hastings_W(sys, self.desk_config())
        assert cert.eps4 <= 1e-10
        # the stage exhibits read the short-circuit record as an empty run
        fit = sb.decay_check_U(diag)
        assert (fit["C1"], fit["alpha"], fit["offsets"], fit["u_table"]) == (0.0, 0.0, {}, {})
        m, cs, ds, _ = sb.proof_matrix_M(diag)
        assert m.shape == (0, 0) and cs.size == ds.size == 0

    def test_desk_scale_stage_postconditions(self):
        sys = self.desk_system()
        cfg = self.desk_config()
        cert, diag = sb.hastings_W(sys, cfg)
        assert cert.contains_V1 and cert.perp_VL
        chi = sb.HASTINGS_CHI
        assert max(diag.stage_values["commutators"].values()) <= 1 - chi + 1e-9
        assert diag.stage_values["semi_orthogonality"] <= 0.5 - chi / 2 + 1e-9
        # every oracle call's ||[P,B]|| <= 20||A-A'|| + 2||B-B'|| is reported
        lin = [c for c in diag.stage_checks if c.context.startswith("lin-oracle")]
        assert len(lin) == sum(1 for b in diag.n_bases.values() if b.shape[1]) == 5
        assert all(c.passed for c in lin)
        fit = sb.decay_check_U(diag, rng=np.random.default_rng(11))
        assert fit["alpha"] < 1.0
        assert not fit["table_violations"]
        # the table's blocks are those of the dense U = 1 - U^perp U^perp*
        u_perp = diag.u_perp_basis
        pu = np.eye(u_perp.shape[0]) - u_perp @ u_perp.conj().T
        assert fit["u_table"]
        for (i, j), val in fit["u_table"].items():
            a_idx = sb._coords(diag.r_offsets, diag.y_sets["Y"][i])
            b_idx = sb._coords(diag.r_offsets, diag.y_sets["Y"][j])
            assert val == pytest.approx(mc.op_norm(pu[b_idx, a_idx]), abs=1e-12)
        m, cs, ds, x = sb.proof_matrix_M(diag)
        assert x == pytest.approx(chi / (2 - 2 * chi))
        if m.shape[0]:
            res = pg.tridiag_positive_test(m - x * np.eye(m.shape[0]), cs, ds)
            assert res.positive

    def test_desk_scale_reference_comparisons(self):
        sys = self.desk_system()
        cfg = self.desk_config()
        cert, diag = sb.hastings_W(sys, cfg)
        refs = sb.hastings_reference_bounds(cfg, sys.L)
        assert cert.eps3 <= refs["eps3_ref"]
        assert cert.eps4 <= refs["eps4_ref"]
        assert cert.eps5 <= refs["eps5_ref"]
        # the references are comparison data in stage_values, not checks
        assert not any("reference" in chk.context for chk in diag.stage_checks)
        assert diag.stage_values["eps4_ref"] == refs["eps4_ref"]
        for chk in diag.stage_checks:
            if "|Au|" in chk.context:
                assert chk.passed, chk.context

    def test_energy_decomposition_bound(self):
        # any w in W pulls back to u with |u| <= sqrt(C3 l_b) |w|
        sys = self.desk_system()
        cfg = self.desk_config()
        cert, diag = sb.hastings_W(sys, cfg)
        if diag.u_basis.shape[1]:
            au = diag.a_map @ diag.u_basis
            sigma_min = float(np.linalg.svd(au, compute_uv=False)[-1])
            c3 = diag.stage_values["C3"]
            assert sigma_min >= math.sqrt(1.0 / (c3 * cfg.l_b))

    def test_oracle_bases_taken_as_given(self, monkeypatch):
        # stage (c) embeds the basis the oracle built; no N_i goes back
        # through a rank-revealing SVD of its projection
        sys = self.desk_system()
        cfg = self.desk_config()
        real = sb.orthonormal_columns
        calls = []

        def counting(cols, **kwargs):
            if kwargs.get("tol") == 0.5:
                calls.append(np.shape(cols))
            return real(cols, **kwargs)

        monkeypatch.setattr(sb, "orthonormal_columns", counting)
        cert, diag = sb.hastings_W(sys, cfg)
        assert calls == []
        assert cert.contains_V1 and cert.perp_VL
        assert diag.stage_checks and all(chk.passed for chk in diag.stage_checks)
        for i, basis in diag.n_bases.items():
            assert mc.op_norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-10

    def test_stage_e_one_svd_per_matrix(self, monkeypatch):
        # U^perp and U come from one full SVD of the span, and sigma_min(AU)
        # and W' from one SVD of A U
        real, seen = np.linalg.svd, []

        def recording(m, *args, **kwargs):
            seen.append(np.array(m))
            return real(m, *args, **kwargs)

        def refuse(*args):
            raise AssertionError("orthonormal_complement reached")

        monkeypatch.setattr(np.linalg, "svd", recording)
        monkeypatch.setattr(sb, "orthonormal_complement", refuse)
        _, diag = sb.hastings_W(self.desk_system(), self.desk_config())
        au = diag.a_map @ diag.u_basis
        assert au.shape[1] > 0
        assert sum(m.shape == au.shape and np.array_equal(m, au) for m in seen) == 1

    def test_stage_c_gates_screened(self, screened_gates):
        sys = self.desk_system()
        cert, diag = sb.hastings_W(sys, self.desk_config())
        # five stage (c) sandwich gates and the stage (d) p_even gate
        assert screened_gates.count("hastings_W") == 6
        assert all(chk.passed for chk in diag.stage_checks)

    @pytest.mark.parametrize("full, message", [
        (False, r"\[c\] lower sandwich E_\[0,G/l_b\]\(rho_(\d+)\) <= N_\1 fails"),
        (True, r"\[c\] upper sandwich N_\d+ <= Y' - E_\[2G/l_b,inf\) fails"),
    ])
    def test_stage_c_sandwich_rejected(self, monkeypatch, full, message):
        # an oracle answering 0 (or 1) breaks the lower (or upper) sandwich
        def oracle(a, b):
            k = a.dim
            basis = np.eye(k, dtype=complex)[:, :k if full else 0]
            return sb.LinProjection(basis, 0.0, BoundCheck(0.0, 0.0, "fake oracle"))

        monkeypatch.setattr(sb, "lin_oracle_projection", oracle)
        with pytest.raises(sb.StageError, match=message):
            sb.hastings_W(self.desk_system(), self.desk_config())

    def test_all_windows_cut_gives_v1(self):
        # lambda_min above every window's Gram eigenvalue (each is at most 1)
        # leaves no representation space: W is V_1 and the record is empty
        sys = self.desk_system(seed=21, L=40)
        cfg = sb.HastingsConfig(n_win=16, l_b=4, lambda_min=2.0)
        cert, diag = sb.hastings_W(sys, cfg)
        assert diag.r_dims == [0] * (cfg.n_win + 1)
        assert np.array_equal(cert.w_basis, np.eye(sys.dim)[:, sys.blocks[0]])
        assert cert.contains_V1 and cert.perp_VL
        assert all(b.shape[1] == 0 for b in diag.n_bases.values())
        assert diag.stage_checks == []
        assert sb.decay_check_U(diag)["alpha"] == 0.0

    def test_spectrum_in_few_windows(self):
        # J = 0.8 + 0.15 J_0 has its spectrum in [0.65, 0.95]: the windows
        # below it carry no X_i, so Y'_1..Y'_4 hold no coordinate and
        # N_1..N_4 are empty, and only N_5 enters the semi-orthogonality
        base = sb.random_block_tridiagonal(np.random.default_rng(0), [2] * 30)
        sys = sb.verify_tridiagonal(0.8 * np.eye(base.dim) + 0.15 * base.j, base.dims)
        cfg = self.desk_config()
        cert, diag = sb.hastings_W(sys, cfg)
        assert cfg.n_b == 5
        assert diag.r_dims[:20] == [0] * 20 and sum(diag.r_dims) > 0
        assert [diag.n_bases[i].shape[1] for i in range(1, 5)] == [0, 0, 0, 0]
        assert diag.n_bases[5].shape[1] > 0
        assert list(diag.stage_values["commutators"]) == [5]
        assert diag.stage_values["semi_orthogonality"] == 0.0
        assert cert.contains_V1 and cert.perp_VL
        assert all(chk.passed for chk in diag.stage_checks)
        # Y_1..Y_4 are empty too; the one offset (0) leaves alpha at 0
        fit = sb.decay_check_U(diag, rng=np.random.default_rng(0))
        assert list(fit["offsets"]) == [0]
        assert fit["alpha"] == 0.0
        assert fit["C1"] == max(fit["offsets"][0], 1.0)
        assert list(fit["u_table"]) == [(5, 5)]

    def test_stage_b_rejects_roundoff_directions(self):
        # lambda_min below the roundoff floor keeps Gram eigenvalues that are
        # noise, whose normalised images are not orthonormal
        with pytest.raises(sb.StageError, match=r"\[b\] rho diagonal blocks deviate") as err:
            sb.hastings_W(self.desk_system(), sb.HastingsConfig(n_win=24, l_b=4,
                                                                lambda_min=1e-30))
        assert err.value.stage == "b"

    def test_stage_b_rejects_overlapping_windows(self, monkeypatch):
        # windows that all cover the spectrum give equal X_i, so rho couples
        # blocks two and more apart
        monkeypatch.setattr(sb, "partition_of_unity",
                            lambda n: [sm.smooth_profile(1.0, 1.0)] * (n + 1))
        with pytest.raises(sb.StageError, match=r"\[b\] rho has off-tridiagonal") as err:
            sb.hastings_W(self.desk_system(), self.desk_config())
        assert err.value.stage == "b"

    def test_stage_c_rejects_large_commutator(self, monkeypatch):
        real = sb.lin_oracle_projection
        monkeypatch.setattr(sb, "lin_oracle_projection", lambda a, b: dataclasses.replace(
            real(a, b), commutator_norm=1.0 - sb.HASTINGS_CHI + 1e-6))
        with pytest.raises(sb.StageError, match=r"\[c\] \|\|\[N_1, B\^_1\]\|\|") as err:
            sb.hastings_W(self.desk_system(), self.desk_config())
        assert err.value.stage == "c"

    def test_stage_d_rejects_semi_orthogonality(self, monkeypatch):
        # one superblock (n_b = 1) whose edge sentinels Y'_0 and Y'_2 are
        # Y'_1 itself: ||Y'_2 N_1 Y'_0|| = ||N_1|| = 1
        real = sb._block_ranges

        def sentinels_on_y1(cfg):
            sets = real(cfg)
            sets["Yp"][0] = sets["Yp"][cfg.n_b + 1] = sets["Yp"][1]
            return sets

        cfg = sb.HastingsConfig(n_win=8, l_b=4, lambda_min=1e-4)
        assert cfg.n_b == 1
        _, diag = sb.hastings_W(self.desk_system(), cfg)
        assert diag.stage_values["semi_orthogonality"] <= 0.5 - sb.HASTINGS_CHI / 2
        monkeypatch.setattr(sb, "_block_ranges", sentinels_on_y1)
        with pytest.raises(sb.StageError, match=r"\[d\] semi-orthogonality 1\.0000") as err:
            sb.hastings_W(self.desk_system(), cfg)
        assert err.value.stage == "d"

    def test_stage_d_rejects_overlapping_even_family(self, monkeypatch):
        # the even N_i sit on disjoint Y'_i; a stack that repeats them is no
        # projection
        real = sb._even_basis
        monkeypatch.setattr(sb, "_even_basis", lambda *args: np.column_stack([real(*args)] * 2))
        with pytest.raises(sb.StageError, match=r"\[d\] even N_i do not sum") as err:
            sb.hastings_W(self.desk_system(), self.desk_config())
        assert err.value.stage == "d"

    @staticmethod
    def decay_record(columns):
        """A Hastings record on 16 one-coordinate R-blocks (n_win = 15,
        n_b = 3: Y_1 = blocks 0..7, Y_2 = 4..11, Y_3 = 8..15) whose N-family
        is ``columns`` {owner: (blocks, weight)}: one column per owner, the
        unit vector spread evenly over the blocks, times the weight; even
        owners as N_i, odd ones as N'_i.  U^perp is the span of the unit
        vectors, so a weight w scales that column's coefficients by 1/w."""
        cfg = sb.HastingsConfig(n_win=15, l_b=4, lambda_min=1e-4)
        total = cfg.n_win + 1
        diag = sb.HastingsDiagnostics.empty(cfg, np.zeros((0, total)), [1] * total)
        vecs = []
        for owner, (blocks, weight) in columns.items():
            unit = np.zeros((total, 1), dtype=complex)
            unit[list(blocks)] = 1.0 / math.sqrt(len(blocks))
            (diag.n_bases if owner % 2 == 0 else diag.n_prime_bases)[owner] = weight * unit
            vecs.append(unit)
        diag.u_perp_basis = np.column_stack(vecs)
        return diag

    def test_decay_rejects_growing_coefficients(self):
        # y in Y_1 has coefficient |y_5| on N_2 (one superblock away) and
        # 100 |y_2| on N'_3 (two away): the fit grows with distance
        diag = self.decay_record({1: ((0,), 1.0), 2: ((5,), 1.0), 3: ((2,), 0.01)})
        with pytest.raises(sb.StageError, match=r"\[decay\] fitted alpha = \d+\.\d+ >= 1") as err:
            sb.decay_check_U(diag, rng=np.random.default_rng(0))
        assert err.value.stage == "decay"

    def test_decay_table_violation_recorded(self):
        # heavy columns keep the coefficients small and decaying (alpha < 1),
        # but U^perp's vector on blocks 2 and 12 links the disjoint Y_1 and
        # Y_3: ||Y_3 U Y_1|| = 1/2 exceeds C2 alpha^2
        diag = self.decay_record({2: ((2, 12), 10.0), 3: ((3,), 100.0)})
        fit = sb.decay_check_U(diag, rng=np.random.default_rng(0))
        assert 0.0 < fit["alpha"] < 1.0
        assert fit["C2"] * fit["alpha"] ** 2 < 0.5
        assert [(i, j) for i, j, _ in fit["table_violations"]] == [(1, 3), (3, 1)]
        assert all(val == pytest.approx(0.5) for *_, val in fit["table_violations"])
        assert fit["u_table"][(1, 3)] == fit["table_violations"][0][2]
        assert diag.decay_fit["table_violations"] == 2

    def test_decay_table_compares_far_pairs_only(self):
        # one N_2 column on block 5: the fit sees offsets 0 and 1 only and
        # sets alpha = 0, yet the overlapping Y_i, Y_{i+1} have
        # ||Y_j U Y_i|| = 1 and are no violation
        diag = self.decay_record({2: ((5,), 1.0)})
        fit = sb.decay_check_U(diag, rng=np.random.default_rng(0))
        assert sorted(fit["offsets"]) == [0, 1] and fit["alpha"] == 0.0
        assert fit["u_table"][(1, 2)] == pytest.approx(1.0)
        assert fit["table_violations"] == []
        assert diag.decay_fit["table_violations"] == 0

    def test_one_tail_table_build(self, monkeypatch):
        sys = self.desk_system()
        cfg = self.desk_config()
        real = sb.tail_tables
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sb, "tail_tables", counting)
        _, diag = sb.hastings_W(sys, cfg)
        assert len(calls) == 1
        tables = real([cfg.l_b], [sys.L])
        assert diag.stage_values["T(l_b)"] == float(tables["T"].tails[0])
        assert diag.stage_values["S(L)"] == self.s_at(sys.L, cfg.n_win)

    @staticmethod
    def s_at(L, n_win):
        """S(L) = tail_{F[0,1]}((L-1)/(e^2 n_win)) + ||F[0,1]^||_1 e^{-(L-1)/2}."""
        p01 = sm.smooth_profile(0.0, 1.0)
        return (p01.tail((L - 1.0) / (math.e ** 2 * n_win))
                + p01.c1 * math.exp(-(L - 1.0) / 2.0))

    def test_reference_s_at_config_windows(self):
        # the desk engine runs 24 windows; tail_tables sizes its own as
        # ceil(L / F(L)) = 4 at L = 60
        sys = self.desk_system()
        cfg = self.desk_config()
        assert (cfg.n_win, math.ceil(sys.L / float(sm.default_F(sys.L)))) == (24, 4)
        s_l = sb.hastings_reference_bounds(cfg, sys.L)["S(L)"]
        assert s_l == self.s_at(sys.L, 24)
        assert s_l != self.s_at(sys.L, 4)
        assert self.s_at(sys.L, 4) == float(sm.tail_tables([cfg.l_b], [sys.L])["S"].tails[0])

    def test_diagnostics_json_serializable(self):
        import json
        sys = self.desk_system(seed=21, L=40)
        cfg = sb.HastingsConfig(n_win=16, l_b=4, lambda_min=1e-4)
        cert, diag = sb.hastings_W(sys, cfg)
        sb.decay_check_U(diag, rng=np.random.default_rng(0))
        text = json.dumps(diag.to_json_dict(), default=float)
        assert "stage_values" in text
        assert diag.to_json_dict()["config"] == cfg.to_json_dict()
        # each stage value once: r_dims is a field of its own, T(l_b) a reference
        refs = sb.hastings_reference_bounds(cfg, sys.L)
        assert list(diag.stage_values) == ["commutators", "semi_orthogonality",
                                           "sigma_min_AU", "G(l_b)", *refs]


@pytest.mark.parametrize("engine", ["szarek", "hastings"])
@pytest.mark.parametrize("dims", [[], [0], [3]], ids=["no-block", "empty-block", "one-block"])
def test_fewer_than_two_blocks_rejected(dims, engine):
    # no V_1 <= W perp V_L sandwich without two blocks: both engines say so
    sys = sb.random_block_tridiagonal(np.random.default_rng(0), dims)
    run = {"szarek": sb.szarek_W,
           "hastings": lambda s: sb.hastings_W(s, TestHastings.desk_config())}[engine]
    with pytest.raises(sb.DegenerateSystemError, match="need at least two blocks"):
        run(sys)
