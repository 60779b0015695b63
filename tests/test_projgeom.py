"""Projection-pair geometry, nested repair, tridiagonal positivity, and
inverse decay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearcommute import matcore as mc
from nearcommute import projgeom as pg


def rand_basis(rng, n, r):
    return mc.random_unitary(rng, n)[:, :r]


def proj(basis):
    """The projection onto the span of orthonormal columns (test oracle)."""
    return basis @ basis.conj().T


class TestRequireOrthonormal:
    def test_valid_basis_takes_no_operator_norm(self, refuse_svd, monkeypatch):
        q = mc.random_unitary(np.random.default_rng(12), 12)[:, :5]

        def refuse(x):
            raise AssertionError("op_norm reached")

        monkeypatch.setattr(mc, "op_norm", refuse)
        assert pg._require_orthonormal(q, "P") is None

    def test_frobenius_over_tol_takes_exact_path(self, monkeypatch):
        # columns of length sqrt(1 + e): the Gram defect e I_k has operator
        # norm e <= tol, while its Frobenius norm e sqrt(k) exceeds it
        k, e = 16, 0.4 * pg.PROJ_TOL
        basis = math.sqrt(1 + e) * np.eye(20, k, dtype=complex)
        x = basis.conj().T @ basis - np.eye(k)
        assert np.linalg.norm(x) > pg.PROJ_TOL >= mc.op_norm(x)
        calls = []
        real = mc.op_norm

        def counting(x):
            calls.append(1)
            return real(x)

        monkeypatch.setattr(mc, "op_norm", counting)
        assert pg._require_orthonormal(basis, "P") is None
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [0.5 * np.eye(3),                       # columns of length 1/2
                                   np.array([[1.0, 1.0], [0.0, 0.0]])])  # two equal columns
    def test_non_orthonormal_rejected(self, m):
        with pytest.raises(ValueError, match="the P columns are not orthonormal"):
            pg._require_orthonormal(m, "P")


class TestJordanBlocks:
    def test_equal_projections_all_one_dimensional(self):
        # two bases of one subspace
        rng = np.random.default_rng(0)
        pb = rand_basis(rng, 5, 2)
        dec = pg.jordan_blocks(pb, pb @ mc.random_unitary(rng, 2))
        assert all(d == 1 for d in dec.dims)

    def test_two_lines_at_angle(self):
        theta = 0.7
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        v = np.array([[math.cos(theta)], [math.sin(theta)]], dtype=complex)
        dec = pg.jordan_blocks(e1, v)
        assert dec.dims == [2]
        assert mc.op_norm(e1.conj().T @ v) == pytest.approx(math.cos(theta), abs=1e-12)
        # the block's Q-restriction carries cos^2(theta) at the P-side vector
        assert dec.blocks[0].q_restricted[0, 0] == pytest.approx(math.cos(theta) ** 2,
                                                                 abs=1e-12)

    def test_block_structure_matches_reflection_product(self):
        # oracle: eigenvalues of the unitary RS = (2P-1)(2Q-1); conjugate
        # non-real pairs correspond to 2-dim blocks, eigenvalues +-1 to 1-dim
        rng = np.random.default_rng(1)
        pb = rand_basis(rng, 6, 3)
        qb = rand_basis(rng, 6, 2)
        rs = (2 * proj(pb) - np.eye(6)) @ (2 * proj(qb) - np.eye(6))
        w = np.linalg.eigvals(rs)
        n_complex = int(np.sum(np.abs(w.imag) > 1e-8))
        dec = pg.jordan_blocks(pb, qb)
        dims = sorted(dec.dims)
        assert sum(dec.dims) == 6
        assert 2 * dims.count(2) == n_complex

    def test_reconstruction_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 14))
            pb = rand_basis(rng, n, int(rng.integers(1, n)))
            qb = rand_basis(rng, n, int(rng.integers(1, n)))
            dec = pg.jordan_blocks(pb, qb)
            pr, qr = dec.reconstruct()
            assert mc.op_norm(pr - proj(pb)) <= 1e-10
            assert mc.op_norm(qr - proj(qb)) <= 1e-10
            fb = dec.full_basis()
            assert mc.op_norm(fb @ fb.conj().T - np.eye(n)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_basis_form_property(self, n, seed, data):
        # random bases of any ranks, 0 and n included; when aligned, P and Q
        # are spanned by overlapping runs of one unitary's columns, so every
        # angle is 0 or pi/2 and every block is 1-dim
        rng = np.random.default_rng(seed)
        r1 = data.draw(st.integers(0, n), label="rank P")
        r2 = data.draw(st.integers(0, n), label="rank Q")
        u = mc.random_unitary(rng, n)
        if data.draw(st.booleans(), label="aligned"):
            off = data.draw(st.integers(0, n - r2), label="offset")
            pb = u[:, :r1] @ mc.random_unitary(rng, r1)
            qb = u[:, off:off + r2]
        else:
            pb, qb = u[:, :r1], rand_basis(rng, n, r2)
        dec = pg.jordan_blocks(pb, qb)
        pr, qr = dec.reconstruct()
        assert mc.op_norm(pr - proj(pb)) <= 1e-10
        assert mc.op_norm(qr - proj(qb)) <= 1e-10
        assert all(d in (1, 2) for d in dec.dims)
        fb = dec.full_basis()
        assert fb.shape == (n, n)
        assert mc.op_norm(fb.conj().T @ fb - np.eye(n)) <= 1e-10

    def test_rejects_non_orthonormal_bases(self):
        q = mc.random_unitary(np.random.default_rng(17), 6)
        with pytest.raises(ValueError, match="the P columns are not orthonormal"):
            pg.jordan_blocks(proj(q[:, :2]), q[:, 2:5])
        with pytest.raises(ValueError, match="the Q columns are not orthonormal"):
            pg.jordan_blocks(q[:, :2], 1.001 * q[:, 2:5])


    def test_pair_on_c0(self):
        # C^0 has no block: the rebuilt projections and the basis are 0 x 0
        dec = pg.jordan_blocks(np.zeros((0, 0)), np.zeros((0, 0)))
        assert dec.blocks == [] and dec.dims == []
        assert [m.shape for m in dec.reconstruct()] == [(0, 0), (0, 0)]
        assert dec.full_basis().shape == (0, 0)


def test_jordan_blocks_need_one_space():
    with pytest.raises(ValueError, match="same space"):
        pg.jordan_blocks(np.eye(2)[:, :1], np.eye(3)[:, :2])


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

    def test_empty_p_gives_empty_basis(self):
        q = mc.random_unitary(np.random.default_rng(5), 4)[:, :2]
        basis = pg.jordan_basis(np.zeros((4, 0), dtype=complex), q)
        assert basis.shape == (4, 0)

    def test_rejects_non_orthonormal_bases(self):
        q = mc.random_unitary(np.random.default_rng(16), 6)
        with pytest.raises(ValueError, match="the P columns are not orthonormal"):
            pg.jordan_basis(q[:, :2] * 1.001, q[:, 2:5])
        with pytest.raises(ValueError, match="the Q columns are not orthonormal"):
            pg.jordan_basis(q[:, :2], np.column_stack([q[:, 2:4], q[:, 2]]))


def projection_eps(e, g, fp):
    """eps = max(||E (1 - F')||, ||F' (1 - G)||) from the three projections,
    the dense definition nest_projection measures on bases."""
    eye = np.eye(e.shape[0])
    return max(mc.op_norm(e @ (eye - fp)), mc.op_norm(fp @ (eye - g)))


class TestNestProjection:
    def _sandwich(self, rng, n=12, re=3, rg=8):
        """Bases of E and G - E: the first re and the next rg - re columns of
        one unitary."""
        cols = mc.random_unitary(rng, n)[:, :rg]
        return cols[:, :re], cols[:, re:]

    def _perturbed(self, rng, cols):
        """A basis of the spectral projection above 1/2 of proj(cols) + h,
        for a random Hermitian h of norm 0.005..0.04."""
        h = mc.random_hermitian(rng, cols.shape[0], norm=float(rng.uniform(0.005, 0.04)))
        w, v = np.linalg.eigh(proj(cols) + h)
        return v[:, w > 0.5]

    def test_f_prime_equal_e(self):
        rng = np.random.default_rng(5)
        e, mid = self._sandwich(rng)
        f, chk = pg.nest_projection(e, mid, e)
        assert mc.op_norm(f @ f.conj().T - proj(e)) <= 1e-10
        assert chk.passed

    def test_g_identity_bound(self):
        # G = 1: eps is ||E (1 - F')|| alone; F' is spanned by a basis near
        # five columns whose first three span E
        rng = np.random.default_rng(6)
        n = 10
        u = mc.random_unitary(rng, n)
        e, mid = u[:, :3], u[:, 3:]
        fp = mc.orthonormal_columns(u[:, :5] + 0.01 * rand_basis(rng, n, 5))
        eps = mc.op_norm(proj(e) @ (np.eye(n) - proj(fp)))
        assert 0 < eps < 0.1
        f, chk = pg.nest_projection(e, mid, fp)
        assert chk.rhs == pytest.approx(5 * eps, abs=1e-12)
        assert chk.passed

    def test_random_admissible_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            e, mid = self._sandwich(rng)
            g = np.column_stack([e, mid])
            f, chk = pg.nest_projection(e, mid, self._perturbed(rng, g[:, :5]))
            assert chk.passed
            pf = f @ f.conj().T
            assert mc.op_norm(pf @ pf - pf) <= 1e-10 and mc.op_norm(pf - pf.conj().T) <= 1e-10
            assert mc.op_norm(proj(e) @ (np.eye(12) - pf)) <= 1e-10
            assert mc.op_norm(pf @ (np.eye(12) - proj(g))) <= 1e-10

    def test_basis_core_matches_projection_form(self):
        # nest_projection returns the core's basis bit for bit, and its eps
        # and distance, measured on bases, are the projection-form values
        rng = np.random.default_rng(13)
        eye = np.eye(12)
        for _ in range(30):
            e, mid = self._sandwich(rng)
            g = np.column_stack([e, mid])
            f_basis = self._perturbed(rng, g[:, :5])
            f, chk = pg.nest_projection(e, mid, f_basis)
            basis = pg.nest_projection_core(e, mid, f_basis)
            assert np.array_equal(f, basis)
            assert mc.op_norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-10
            pf = basis @ basis.conj().T
            assert mc.op_norm(proj(e) @ (eye - pf)) <= 1e-10
            assert mc.op_norm(pf @ (eye - proj(g))) <= 1e-10
            eps = projection_eps(proj(e), proj(g), proj(f_basis))
            assert chk.rhs / 5 == pytest.approx(eps, rel=0, abs=1e-12)
            assert chk.lhs == pytest.approx(mc.op_norm(pf - proj(f_basis)), rel=0, abs=1e-12)

    def test_basis_core_rejects_overlapping_bases(self):
        rng = np.random.default_rng(14)
        q = mc.random_unitary(rng, 6)
        with pytest.raises(ValueError, match="orthonormal"):
            pg.nest_projection_core(q[:, :2], q[:, 1:4], q[:, :3])
        with pytest.raises(ValueError, match="orthonormal"):
            pg.nest_projection_core(q[:, :2], q[:, 2:4], 2 * q[:, :3])

    def test_gates_screened(self, screened_gates):
        # valid bases: no gate takes an operator norm
        rng = np.random.default_rng(15)
        e, mid = self._sandwich(rng)
        f_basis = mc.random_unitary(rng, 12)[:, :4]
        basis = pg.nest_projection_core(e, mid, f_basis)
        assert screened_gates == ["_require_orthonormal"] * 2 and basis.shape[1] >= 3
        f, chk = pg.nest_projection(e, mid, np.column_stack([e, mid[:, :2]]))
        assert chk.passed and mc.op_norm(f @ f.conj().T - proj(e) - proj(mid[:, :2])) <= 1e-10
        # nest_projection's only gates are the core's two
        assert screened_gates[2:] == ["_require_orthonormal"] * 2

    def test_rejects_bad_sandwich(self):
        # G - E must be orthogonal to E: independent random bases overlap
        rng = np.random.default_rng(8)
        e = rand_basis(rng, 6, 3)
        mid = rand_basis(rng, 6, 2)
        with pytest.raises(ValueError, match=r"the \[E \| G - E\] columns are not orthonormal"):
            pg.nest_projection(e, mid, e)

    def test_rejects_large_eps(self):
        rng = np.random.default_rng(9)
        e, mid = self._sandwich(rng)
        far = rand_basis(rng, 12, 6)
        eps = projection_eps(proj(e), proj(np.column_stack([e, mid])), proj(far))
        assert eps >= pg.NEST_MAX_EPS
        with pytest.raises(ValueError, match="too large for nest_projection"):
            pg.nest_projection(e, mid, far)


class TestTridiagPositive:
    @pytest.mark.parametrize("m, c, d, message", [
        (np.eye(3), np.ones(2), np.ones(3), "one entry per row"),
        (np.eye(3), np.array([0.5, -0.5, 0.5]), np.full(3, 0.5), "nonnegative"),
        (np.eye(3) + 0.1 * np.eye(3, k=2) + 0.1 * np.eye(3, k=-2), np.full(3, 0.5),
         np.full(3, 0.5), "M must be tridiagonal"),
        (np.eye(3) + 0.3 * np.eye(3, k=1) + 0.3 * np.eye(3, k=-1), np.full(3, 0.5),
         np.full(3, 0.5), r"\|M_\{i,i\+1\}\| <= d_i c_\{i\+1\} violated"),
    ])
    def test_hypotheses_rejected(self, m, c, d, message):
        with pytest.raises(ValueError, match=message):
            pg.tridiag_positive_test(m, c, d)

    def test_empty_matrix_vacuously_positive(self):
        res = pg.tridiag_positive_test(np.zeros((0, 0)), np.zeros(0), np.zeros(0))
        assert res.positive and res.min_eigenvalue == math.inf
        assert res.witness.shape == res.witness_factor.shape == (0, 0)

    def test_identity_with_half_weights(self):
        c = np.full(4, 1 / math.sqrt(2))
        res = pg.tridiag_positive_test(np.eye(4), c, c)
        assert res.positive

    def test_truthiness_is_positivity(self):
        c = np.full(4, 1 / math.sqrt(2))
        res = pg.tridiag_positive_test(np.eye(4), c, c)
        assert bool(res) is res.positive is True
        # a certificate that reports a negative eigenvalue is falsy; it is
        # built directly, since inputs meeting the hypotheses give M >= D >= 0
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
