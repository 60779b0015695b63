"""Projection-pair geometry, nested repair, tridiagonal positivity, and
inverse decay."""

import math

import numpy as np
import pytest

from nearcommute import matcore as mc
from nearcommute import projgeom as pg


def rand_basis(rng, n, r):
    return mc.random_unitary(rng, n)[:, :r]


def rand_proj(rng, n, r):
    q = rand_basis(rng, n, r)
    return q @ q.conj().T


class TestRequireProjection:
    def test_valid_projection_takes_no_operator_norm(self, refuse_svd, monkeypatch):
        q = mc.random_unitary(np.random.default_rng(12), 12)[:, :5]
        p = q @ np.ascontiguousarray(q.conj().T)  # general product: not bitwise Hermitian

        def refuse(x):
            raise AssertionError("op_norm reached")

        monkeypatch.setattr(mc, "op_norm", refuse)
        assert np.array_equal(pg._require_projection(p, "P"), p)

    def test_frobenius_over_tol_takes_exact_path(self, monkeypatch):
        # m = diag(1 + ie, ..., ie, ...): ||m^2 - m||_2 ~ e and ||m - m*||_2 = 2e
        # stay <= tol, while both Frobenius norms exceed it
        n, e = 16, 0.4 * pg.PROJ_TOL
        m = np.diag(np.r_[np.ones(n // 2), np.zeros(n // 2)] + 1j * e)
        for x in (m @ m - m, m - m.conj().T):
            assert np.linalg.norm(x) > pg.PROJ_TOL >= mc.op_norm(x)
        calls = []
        real = mc.op_norm

        def counting(x):
            calls.append(1)
            return real(x)

        monkeypatch.setattr(mc, "op_norm", counting)
        assert np.array_equal(pg._require_projection(m, "P"), m)
        assert len(calls) == 2

    @pytest.mark.parametrize("m", [0.5 * np.eye(3),                       # not idempotent
                                   np.array([[1.0, 1.0], [0.0, 0.0]])])  # not Hermitian
    def test_non_projection_rejected(self, m):
        with pytest.raises(ValueError, match="P is not an orthogonal projection to tolerance"):
            pg._require_projection(m, "P")


class TestJordanBlocks:
    def test_equal_projections_all_one_dimensional(self):
        rng = np.random.default_rng(0)
        p = rand_proj(rng, 5, 2)
        dec = pg.jordan_blocks(p, p)
        assert all(d == 1 for d in dec.dims)

    def test_two_lines_at_angle(self):
        theta = 0.7
        e1 = np.array([1.0, 0.0], dtype=complex)
        v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
        p = np.outer(e1, e1)
        q = np.outer(v, v)
        dec = pg.jordan_blocks(p, q)
        assert dec.dims == [2]
        assert mc.op_norm(p @ q) == pytest.approx(math.cos(theta), abs=1e-12)

    def test_block_structure_matches_reflection_product(self):
        # oracle: eigenvalues of the unitary RS = (2P-1)(2Q-1); conjugate
        # non-real pairs correspond to 2-dim blocks, eigenvalues +-1 to 1-dim
        rng = np.random.default_rng(1)
        p = rand_proj(rng, 6, 3)
        q = rand_proj(rng, 6, 2)
        rs = (2 * p - np.eye(6)) @ (2 * q - np.eye(6))
        w = np.linalg.eigvals(rs)
        n_complex = int(np.sum(np.abs(w.imag) > 1e-8))
        dec = pg.jordan_blocks(p, q)
        dims = sorted(dec.dims)
        assert sum(dec.dims) == 6
        assert 2 * dims.count(2) == n_complex

    def test_reconstruction_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 14))
            p = rand_proj(rng, n, int(rng.integers(1, n)))
            q = rand_proj(rng, n, int(rng.integers(1, n)))
            dec = pg.jordan_blocks(p, q)
            pr, qr = dec.reconstruct()
            assert mc.op_norm(pr - p) <= 1e-10
            assert mc.op_norm(qr - q) <= 1e-10
            fb = dec.full_basis()
            assert mc.op_norm(fb @ fb.conj().T - np.eye(n)) <= 1e-10


class TestJordanBasis:
    def test_contained_projection(self):
        rng = np.random.default_rng(3)
        q_big = mc.random_unitary(rng, 6)
        g = q_big[:, :4]
        q = g @ g.conj().T
        basis = pg.jordan_basis(g[:, :2], g)  # P <= Q
        gram = basis.conj().T @ q @ basis
        assert mc.op_norm(gram - np.diag(np.diag(gram))) <= 1e-10
        assert basis.shape[1] == 2

    def test_c3_crossing_example(self):
        # ran P = span(e1, e2), ran Q = span(e3, e1+e2): the canonical basis
        # has one vector fixed by Q and one annihilated
        e3 = np.eye(3)[:, 2]
        v12 = (np.eye(3)[:, 0] + np.eye(3)[:, 1]) / math.sqrt(2)
        q = np.outer(e3, e3) + np.outer(v12, v12)
        basis = pg.jordan_basis(np.eye(3)[:, :2], np.column_stack([e3, v12]))
        norms = sorted(float(np.linalg.norm(q @ basis[:, i])) for i in range(2))
        assert norms[0] == pytest.approx(0.0, abs=1e-12)
        assert norms[1] == pytest.approx(1.0, abs=1e-12)

    def test_gram_diagonal_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            p = rand_basis(rng, n, int(rng.integers(1, n)))
            q = rand_basis(rng, n, int(rng.integers(1, n)))
            basis = pg.jordan_basis(p, q)
            img = q @ q.conj().T @ basis
            gram = img.conj().T @ img
            assert mc.op_norm(gram - np.diag(np.diag(gram))) <= 1e-10

    def test_rejects_non_orthonormal_bases(self):
        q = mc.random_unitary(np.random.default_rng(16), 6)
        with pytest.raises(ValueError, match="the P columns are not orthonormal"):
            pg.jordan_basis(q[:, :2] * 1.001, q[:, 2:5])
        with pytest.raises(ValueError, match="the Q columns are not orthonormal"):
            pg.jordan_basis(q[:, :2], np.column_stack([q[:, 2:4], q[:, 2]]))


class TestNestProjection:
    def _sandwich(self, rng, n=12, re=3, rg=8):
        q = mc.random_unitary(rng, n)
        cols = q[:, :rg]
        g = cols @ cols.conj().T
        e = cols[:, :re] @ cols[:, :re].conj().T
        return e, g, cols

    def test_f_prime_equal_e(self):
        rng = np.random.default_rng(5)
        e, g, _ = self._sandwich(rng)
        f, chk = pg.nest_projection(e, g, e)
        assert mc.op_norm(f @ f.conj().T - e) <= 1e-10
        assert chk.passed

    def test_g_identity_bound(self):
        rng = np.random.default_rng(6)
        n = 10
        e = rand_proj(rng, n, 3)
        fp = rand_proj(rng, n, 5)
        eps = mc.op_norm(e @ (np.eye(n) - fp))
        if eps < 0.1:
            f, chk = pg.nest_projection(e, np.eye(n), fp)
            assert chk.rhs == pytest.approx(5 * eps, abs=1e-12)
            assert chk.passed

    def test_random_admissible_triples(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 60:
            e, g, cols = self._sandwich(rng)
            mid = cols[:, :5] @ cols[:, :5].conj().T
            h = mc.random_hermitian(rng, 12, norm=float(rng.uniform(0.005, 0.04)))
            w, v = np.linalg.eigh(mid + h)
            fp = v[:, w > 0.5] @ v[:, w > 0.5].conj().T
            try:
                f, chk = pg.nest_projection(e, g, fp)
            except ValueError:
                continue
            done += 1
            assert chk.passed
            pf = f @ f.conj().T
            assert mc.op_norm(pf @ pf - pf) <= 1e-10 and mc.op_norm(pf - pf.conj().T) <= 1e-10
            assert mc.op_norm(e @ (np.eye(12) - pf)) <= 1e-10
            assert mc.op_norm(pf @ (np.eye(12) - g)) <= 1e-10

    def test_basis_core_matches_projection_form(self):
        rng = np.random.default_rng(13)
        eye = np.eye(12)
        done = 0
        while done < 30:
            e, g, cols = self._sandwich(rng)
            mid = cols[:, :5] @ cols[:, :5].conj().T
            h = mc.random_hermitian(rng, 12, norm=float(rng.uniform(0.005, 0.04)))
            w, v = np.linalg.eigh(mid + h)
            f_basis = v[:, w > 0.5]
            try:
                f, _ = pg.nest_projection(e, g, f_basis @ f_basis.conj().T)
            except ValueError:
                continue
            done += 1
            basis = pg.nest_projection_core(cols[:, :3], cols[:, 3:8], f_basis)
            assert mc.op_norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-10
            pf = basis @ basis.conj().T
            assert mc.op_norm(e @ (eye - pf)) <= 1e-10
            assert mc.op_norm(pf @ (eye - g)) <= 1e-10
            assert mc.op_norm(pf - f @ f.conj().T) <= 1e-10

    def test_basis_core_rejects_overlapping_bases(self):
        rng = np.random.default_rng(14)
        q = mc.random_unitary(rng, 6)
        with pytest.raises(ValueError, match="orthonormal"):
            pg.nest_projection_core(q[:, :2], q[:, 1:4], q[:, :3])
        with pytest.raises(ValueError, match="orthonormal"):
            pg.nest_projection_core(q[:, :2], q[:, 2:4], 2 * q[:, :3])

    def test_gates_screened(self, screened_gates):
        # valid bases and projections: no gate takes an operator norm
        rng = np.random.default_rng(15)
        e, g, cols = self._sandwich(rng)
        f_basis = mc.random_unitary(rng, 12)[:, :4]
        basis = pg.nest_projection_core(cols[:, :3], cols[:, 3:8], f_basis)
        assert screened_gates == ["_require_orthonormal"] * 2 and basis.shape[1] >= 3
        mid = cols[:, 3:5] @ cols[:, 3:5].conj().T
        f, chk = pg.nest_projection(e, g, e + mid)
        assert chk.passed and mc.op_norm(f @ f.conj().T - e - mid) <= 1e-10
        # three input projections (2 gates each), E <= G, and the core's 2
        assert screened_gates[2:] == (["_require_projection"] * 6 + ["nest_projection"]
                                      + ["_require_orthonormal"] * 2)

    def test_rejects_e_not_below_g(self):
        # E tilted 1e-6 out of Ran G: eps stays small, E <= G fails
        e_vec = np.array([1.0, 0.0, 1e-6, 0.0]) / math.hypot(1.0, 1e-6)
        e = np.outer(e_vec, e_vec)
        g = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="E <= G fails"):
            pg.nest_projection(e, g, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_rejects_bad_sandwich(self):
        rng = np.random.default_rng(8)
        e = rand_proj(rng, 6, 3)
        g = rand_proj(rng, 6, 2)
        with pytest.raises(ValueError):
            pg.nest_projection(e, g, e)

    def test_rejects_large_eps(self):
        rng = np.random.default_rng(9)
        e, g, _ = self._sandwich(rng)
        far = rand_proj(rng, 12, 6)
        eps = max(mc.op_norm(e @ (np.eye(12) - far)), mc.op_norm(far @ (np.eye(12) - g)))
        if eps >= 0.1:
            with pytest.raises(ValueError):
                pg.nest_projection(e, g, far)


class TestTridiagPositive:
    def test_identity_with_half_weights(self):
        c = np.full(4, 1 / math.sqrt(2))
        res = pg.tridiag_positive_test(np.eye(4), c, c)
        assert res.positive

    def test_truthiness_is_positivity(self):
        c = np.full(4, 1 / math.sqrt(2))
        res = pg.tridiag_positive_test(np.eye(4), c, c)
        assert bool(res) is res.positive is True
        # a certificate that reports a negative eigenvalue is falsy
        neg = pg.TridiagPositivity(False, res.witness, res.witness_factor, -0.5)
        assert bool(neg) is neg.positive is False

    def test_comparison_pattern_random_weights(self):
        # build D itself from random a_i, b_i and check it certifies
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = 4
            a = rng.uniform(0.2, 1.5, n)
            b = rng.uniform(0.0, 1.5, n)
            d = np.zeros((n, n), dtype=complex)
            for i in range(n):
                d[i, i] = a[i] ** 2 + b[i] ** 2
            for i in range(n - 1):
                d[i, i + 1] = b[i] * a[i + 1]
                d[i + 1, i] = np.conj(d[i, i + 1])
            res = pg.tridiag_positive_test(d, a, b)
            assert res.positive
            assert res.min_eigenvalue >= -1e-10 * mc.op_norm(d)

    def test_random_hypothesis_satisfying(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = 10
            c = rng.uniform(0.1, 1.0, n)
            d = rng.uniform(0.0, 1.0, n)
            m = np.zeros((n, n), dtype=complex)
            for i in range(n):
                m[i, i] = c[i] ** 2 + d[i] ** 2 + rng.uniform(0, 0.5)
            for i in range(n - 1):
                phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
                m[i, i + 1] = rng.uniform(0, 1) * d[i] * c[i + 1] * phase
                m[i + 1, i] = np.conj(m[i, i + 1])
            res = pg.tridiag_positive_test(m, c, d)
            assert res.positive
            assert res.min_eigenvalue >= -1e-10 * max(1.0, mc.op_norm(m))

    HERMITIAN_TO_ROUNDOFF = np.array([[1.0, 0.3 + 0.1j], [0.3 - (0.1 + 2e-17) * 1j, 1.0]])

    def test_hermiticity_gate_screened(self, screened_gates, monkeypatch):
        m = self.HERMITIAN_TO_ROUNDOFF
        assert not np.array_equal(m, m.conj().T)
        c = np.full(2, 0.6)

        def refuse(x):
            raise AssertionError("op_norm reached from a matcore gate")

        # matcore's Hermitian gate passes on its Frobenius screen, and so
        # does the witness identity G*G + b_n^2 e_nn = D: matcore takes no
        # operator norm (the scale ||M|| is projgeom's own binding)
        monkeypatch.setattr(mc, "op_norm", refuse)
        assert pg.tridiag_positive_test(m, c, c).positive
        assert screened_gates == ["tridiag_positive_test"]

    def test_non_hermitian_rejected(self):
        m = self.HERMITIAN_TO_ROUNDOFF + np.triu(np.full((2, 2), 1e-6), 1)
        c = np.full(2, 0.6)
        with pytest.raises(ValueError, match="M must be Hermitian"):
            pg.tridiag_positive_test(m, c, c)

    def test_hypothesis_violation_is_distinct_error(self):
        m = np.diag([1.0, 1.0])
        with pytest.raises(ValueError):
            pg.tridiag_positive_test(m, np.array([2.0, 0.1]), np.array([0.1, 0.1]))

    def test_witness_factorization(self):
        rng = np.random.default_rng(12)
        n = 6
        c = rng.uniform(0.2, 1.0, n)
        d = rng.uniform(0.0, 1.0, n)
        m = np.zeros((n, n), dtype=complex)
        for i in range(n):
            m[i, i] = c[i] ** 2 + d[i] ** 2 + 0.1
        for i in range(n - 1):
            m[i, i + 1] = 0.8 * d[i] * c[i + 1]
            m[i + 1, i] = np.conj(m[i, i + 1])
        res = pg.tridiag_positive_test(m, c, d)
        g = res.witness_factor
        rebuilt = g.conj().T @ g
        rebuilt[-1, -1] += abs(d[-1]) ** 2  # the b_n^2 e_nn correction
        assert mc.op_norm(rebuilt - res.witness) <= 1e-12
        # D matches M's off-diagonal and is dominated on the diagonal
        assert mc.op_norm(np.triu(res.witness, 1) - np.triu(m, 1)) <= 1e-12
        assert np.all(np.real(np.diag(m) - np.diag(res.witness)) >= -1e-12)
