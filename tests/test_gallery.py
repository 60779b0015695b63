"""Gallery objects: generators, the winding obstruction, leakage example, and
tensor-lift identities."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearcommute import gallery as gl
from nearcommute import matcore as mc


class TestVoiculescu:
    def test_n_one_commutes(self):
        u, v = gl.voiculescu(1)
        assert u.shape == (1, 1)
        assert mc.op_norm(mc.commutator(u, v)) <= 1e-15

    def test_n_four_commutator_norm(self):
        u, v = gl.voiculescu(4)
        assert mc.op_norm(mc.commutator(u, v)) == pytest.approx(math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64, 256])
    def test_unitarity_and_commutator_value(self, n):
        u, v = gl.voiculescu(n)
        assert mc.op_norm(u.conj().T @ u - np.eye(n)) <= 1e-12
        assert mc.op_norm(v.conj().T @ v - np.eye(n)) <= 1e-12
        target = abs(1 - np.exp(2j * math.pi / n))
        assert mc.op_norm(mc.commutator(u, v)) == pytest.approx(target, abs=1e-10)


@pytest.mark.parametrize("call, message", [
    (lambda: gl.voiculescu(0), "n must be >= 1"),
    (lambda: gl.quarter_tridiag(1), "n must be >= 2"),
])
def test_size_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestWinding:
    def test_dim_mismatch(self):
        eye2 = np.eye(2, dtype=complex)
        with pytest.raises(mc.MatrixShapeError, match=r"dimension mismatch: \(2, 2\) vs \(3, 3\)"):
            gl.winding_number(eye2, np.eye(3, dtype=complex), eye2, eye2)

    def test_commuting_to_itself_is_zero(self):
        n = 6
        eye = np.eye(n, dtype=complex)
        d = np.diag(np.exp(1j * np.linspace(0, 3, n)))
        res = gl.winding_number(d, eye, d, eye, steps=64)
        assert res.winding == 0 and res.stable

    def test_voiculescu_to_identity_nonzero_stable(self):
        u, v = gl.voiculescu(8)
        eye = np.eye(8, dtype=complex)
        res = gl.winding_number(u, v, eye, eye, steps=256)
        assert res.winding != 0
        assert res.stable

    def test_invariant_across_commuting_targets(self):
        rng = np.random.default_rng(0)
        u, v = gl.voiculescu(8)
        q = mc.random_unitary(rng, 8)
        t1 = q @ np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 8))) @ q.conj().T
        t2 = q @ np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 8))) @ q.conj().T
        eye = np.eye(8, dtype=complex)
        r1 = gl.winding_number(u, v, eye, eye, steps=256)
        r2 = gl.winding_number(u, v, t1, t2, steps=256)
        assert r1.stable and r2.stable
        assert r1.winding == r2.winding

    def test_singular_loop_is_unstable_zero(self):
        # U = sigma_x, V = sigma_z: (1-r)UV + rVU = (2r-1) UV vanishes at
        # r = 1/2, a grid point, so the loop winds nowhere and is flagged
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        v = np.diag([1, -1]).astype(complex)
        eye = np.eye(2, dtype=complex)
        res = gl.winding_number(u, v, eye, eye, steps=64)
        assert (res.winding, res.min_abs, res.stable) == (0, 0.0, False)

    def test_rejects_noncommuting_target(self):
        u, v = gl.voiculescu(4)
        with pytest.raises(ValueError):
            gl.winding_number(u, v, u, v)


class TestQuarterTridiag:
    # frozen printed reference values (units of 1e-3) for the n=10 leakage
    N10_REFERENCE = [0.0016, 0.0040, 0.0084, 0.0171, 0.0343, 0.0686,
                     0.1373, 0.2747, 0.5493, 1.0987]

    def test_matrix_structure(self):
        j, _ = gl.quarter_tridiag(6)
        assert j[0, 1] == 0.25 and j[5, 5] == 0.5 and j[0, 0] == 0.0

    def test_n10_reference_vector(self):
        _, leak = gl.quarter_tridiag(10)
        for got, want in zip(leak * 1e3, self.N10_REFERENCE):
            assert abs(got - want) <= 1.05e-4

    def test_n50_tail_pattern(self):
        _, leak = gl.quarter_tridiag(50)
        tail = leak[-3:] * 1e15
        for got, want in zip(tail, (0.251, 0.502, 1.004)):
            assert got == pytest.approx(want, rel=0.05)
        assert 1.9 <= leak[-1] / leak[-2] <= 2.1
        assert 1.9 <= leak[-2] / leak[-3] <= 2.1

    def test_isolated_top_eigenvalue_near_five_eighths(self):
        j, _ = gl.quarter_tridiag(120)
        w = np.linalg.eigvalsh(j)
        assert abs(w[-1] - 5 / 8) <= 1e-3
        assert w[-2] <= 0.51

    @pytest.mark.parametrize("n", [10, 50])
    def test_geometric_growth_ratio(self, n):
        _, leak = gl.quarter_tridiag(n)
        ratios = leak[-6:][1:] / leak[-6:][:-1]
        assert np.all((ratios >= 1.9) & (ratios <= 2.1))


def binomial_spectrum_oracle(values, big_n):
    """Independent oracle: full enumeration of eigenvalue tuples of the
    tensor-lift of a diagonal matrix."""
    out = {}
    for combo in product(values, repeat=big_n):
        key = round(sum(combo) / big_n, 12)
        out[key] = out.get(key, 0) + 1
    return out


class TestTensorLift:
    def test_single_factor_identity_map(self):
        rng = np.random.default_rng(1)
        a = mc.random_hermitian(rng, 3)
        assert mc.op_norm(gl.tn_lift(a, 1) - a) == 0.0

    def test_identity_fixed_point(self):
        for big_n in (1, 2, 3):
            out = gl.tn_lift(np.eye(2), big_n)
            assert mc.op_norm(out - np.eye(2 ** big_n)) <= 1e-14

    def test_spectrum_binomial_multiplicities(self):
        t3 = gl.tn_lift(np.diag([0.0, 1.0]), 3)
        w = np.round(np.linalg.eigvalsh(t3), 12)
        got = {}
        for x in w:
            got[float(x)] = got.get(float(x), 0) + 1
        oracle = binomial_spectrum_oracle([0.0, 1.0], 3)
        assert got == {float(k): v for k, v in oracle.items()}

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            gl.tn_lift(np.eye(4), 7)

    def test_budget_message(self):
        with pytest.raises(ValueError, match=r"dimension 2\^13 exceeds the budget 4096"):
            gl.tn_lift(np.eye(2), 13)
        with pytest.raises(ValueError, match="N must be >= 1"):
            gl.tn_lift(np.eye(2), 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_kronecker_sum_bytewise(self, n):
        # every N up to dimension 1024 (a 4096-dim reference needs 256 MB a term)
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for big_n in range(1, 9):
            if n ** big_n > min(1024, gl.DIMENSION_BUDGET):
                break
            ref = np.zeros((n ** big_n, n ** big_n), dtype=np.complex128)
            for k in range(big_n):
                ref += np.kron(np.kron(np.eye(n ** (big_n - 1 - k), dtype=np.complex128), a),
                               np.eye(n ** k, dtype=np.complex128))
            assert gl.tn_lift(a, big_n).tobytes() == (ref / big_n).tobytes()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 4))
    def test_norm_sandwich_non_normal(self, seed, big_n):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = gl.tn_lift(g, big_n)
        assert mc.op_norm(g) / 2 - 1e-10 <= mc.op_norm(t) <= mc.op_norm(g) + 1e-10

    def test_normal_input_preserves_norm(self):
        rng = np.random.default_rng(2)
        q = mc.random_unitary(rng, 2)
        n_mat = q @ np.diag([0.3 + 0.4j, -0.9]) @ q.conj().T
        t = gl.tn_lift(n_mat, 4)
        assert mc.op_norm(t) == pytest.approx(mc.op_norm(n_mat), abs=1e-10)


class TestTnIdentities:
    def test_pauli_pair_all_identities(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        out = gl.tn_identities(x, z, 3)
        dim = out["dim"]
        assert out["commutator_residual"] <= 1e-13 * dim
        assert out["recursion_residual"] <= 1e-13 * dim
        assert out["covariance_residual"] <= 1e-12 * dim
        assert out["permutation_residual"] <= 1e-12
        assert out["norm_sandwich_ok"]

    @pytest.mark.parametrize("big_n", [2, 3, 4, 5])
    def test_recursion_range(self, big_n):
        rng = np.random.default_rng(big_n)
        a = mc.random_hermitian(rng, 2, norm=1.0)
        b = mc.random_hermitian(rng, 2, norm=1.0)
        out = gl.tn_identities(a, b, big_n)
        assert out["recursion_residual"] <= 1e-13 * out["dim"] * 2

    @staticmethod
    def loop_transposition(n, big_n, k):
        # one basis state at a time: swap digits k and k+1 of each index
        dim = n ** big_n
        perm = np.zeros((dim, dim))
        for idx in range(dim):
            digits = [(idx // n ** p) % n for p in range(big_n)]
            digits[k], digits[k + 1] = digits[k + 1], digits[k]
            perm[sum(d * n ** p for p, d in enumerate(digits)), idx] = 1.0
        return perm

    @pytest.mark.parametrize("n, big_ns", [(2, range(2, 7)), (3, range(2, 5))])
    def test_matches_kronecker_and_loop_references(self, n, big_ns):
        rng = np.random.default_rng(n)
        for big_n in big_ns:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for a in ((g + g.conj().T) / 2, g):
                out = gl.tn_identities(a, np.eye(n), big_n)
                ta = gl.tn_lift(a, big_n)
                if out["recursion_residual"] is not None:
                    rhs = (big_n / (big_n + 1)) * np.kron(ta, np.eye(n)) \
                        + np.kron(np.eye(n ** big_n, dtype=np.complex128), a) / (big_n + 1)
                    ref = float(np.linalg.norm(gl.tn_lift(a, big_n + 1) - rhs))
                    assert out["recursion_residual"].hex() == ref.hex()
                perm_ref = 0.0
                for k in range(big_n - 1):
                    p = self.loop_transposition(n, big_n, k)
                    assert np.array_equal(p.argmax(axis=0), gl._transposition(n, big_n, k))
                    perm_ref = max(perm_ref, float(np.linalg.norm(mc.commutator(ta, p))))
                assert out["permutation_residual"].hex() == perm_ref.hex()
                assert out["covariance_residual"] <= 1e-12 * out["dim"]
