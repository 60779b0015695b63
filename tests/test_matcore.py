"""Matrix kernel tests: examples with independently computed expectations,
plus property tests for the algebraic invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearcommute import matcore as mc


def power_iteration_norm(a, iters=2000, tol=1e-13):
    """Independent oracle for the operator norm: power iteration on A*A."""
    m = np.asarray(a, dtype=complex)
    g = m.conj().T @ m
    v = np.ones(m.shape[1], dtype=complex) / np.sqrt(m.shape[1])
    lam = 0.0
    for _ in range(iters):
        w = g @ v
        new = float(np.linalg.norm(w))
        if new == 0:
            return 0.0
        v = w / new
        if abs(new - lam) < tol * max(1.0, new):
            lam = new
            break
        lam = new
    return float(np.sqrt(lam))


STRUCTURES = ["hermitian", "anti-hermitian", "zero", "general", "rectangular",
              "block-diagonal", "banded"]


def _block_labels(rng, n):
    """Contiguous diagonal blocks of sizes 1..n//3+1, as one label per row."""
    sizes = rng.integers(1, n // 3 + 2, n)
    return np.repeat(np.arange(n), sizes)[:n]


def _structured(rng, kind, n, cols):
    """An n x n matrix of the given exact structure (n x cols if rectangular).

    "block-diagonal" is Hermitian and zero off contiguous diagonal blocks
    (1x1 blocks among them); "banded" is Hermitian with bandwidth 2 and one
    first-superdiagonal pair zeroed, so its pattern has one block that a
    scan for several must look at."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "block-diagonal":
        labels = _block_labels(rng, n)
        return (g + g.conj().T) / 2 * (labels[:, None] == labels[None, :])
    if kind == "banded":
        h = (g + g.conj().T) / 2 * (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2)
        k = int(rng.integers(0, max(n - 1, 1)))
        h[k, k + 1:k + 2] = 0
        h[k + 1:k + 2, k] = 0
        return h
    if kind == "hermitian":
        return (g + g.conj().T) / 2
    if kind == "anti-hermitian":
        return (g - g.conj().T) / 2
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "rectangular":
        return rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    return g


def _op_norm_cases():
    rng = np.random.default_rng(21)
    cases = {kind: _structured(rng, kind, 9, 5) for kind in STRUCTURES}
    herm, anti = cases["hermitian"], cases["anti-hermitian"]
    # corner pair (8, 0)/(0, 8) mirrors, the rest does not
    near_herm = cases["general"].copy()
    near_herm[8, 0] = np.conj(near_herm[0, 8])
    near_anti = cases["general"].copy()
    near_anti[8, 0] = -np.conj(near_anti[0, 8])
    # Hermitian up to roundoff, not entry for entry
    rounded = herm.copy()
    rounded[2, 5] = complex(np.nextafter(herm[2, 5].real, np.inf), herm[2, 5].imag)
    # large enough for the diagonal-block scan
    big = _structured(rng, "block-diagonal", 96, 0)
    big_general = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    big_general *= big != 0
    return {**cases,
            "block-diagonal-96": big,
            "anti-block-diagonal-96": 1j * big,
            "banded-96": _structured(rng, "banded", 96, 0),
            "block-diagonal-general-96": big_general,
            "corner-matches-hermitian": near_herm,
            "corner-matches-anti-hermitian": near_anti,
            "rounded-hermitian": rounded,
            "defect-hermitian": herm + 1e-6 * cases["general"],
            "defect-anti-hermitian": anti + 1e-6 * cases["general"],
            "rectangular-zero": np.zeros((3, 7)),
            "column": cases["rectangular"][:, 0],
            "1x1-real": np.array([[-3.0]]),
            "1x1-imaginary": np.array([[2.5j]]),
            "1x1-complex": np.array([[3.0 + 4.0j]])}


OP_NORM_CASES = _op_norm_cases()


class TestEigHermitian:
    def test_diagonal_case(self):
        e = mc.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(e.eigenvalues, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        e = mc.eig_hermitian(sx)
        assert np.allclose(e.eigenvalues, [-1.0, 1.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        a = mc.random_hermitian(rng, 8)
        e = mc.eig_hermitian(a)
        assert mc.op_norm(e.reconstruct() - a) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(mc.NotHermitianError):
            mc.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_deterministic_on_degenerate_spectrum(self):
        rng = np.random.default_rng(3)
        q = mc.random_unitary(rng, 5)
        a = q @ np.diag([1.0, 1.0, 1.0, 2.0, 3.0]) @ q.conj().T
        e1 = mc.eig_hermitian(a)
        e2 = mc.eig_hermitian(a.copy())
        assert np.array_equal(e1.vectors, e2.vectors)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 10 ** 6))
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = mc.random_hermitian(rng, n)
        e = mc.eig_hermitian(a)
        assert mc.op_norm(e.reconstruct() - a) <= 1e-10 * n * max(1.0, mc.op_norm(a))
        assert mc.op_norm(e.vectors.conj().T @ e.vectors - np.eye(n)) <= 1e-12 * n

    @pytest.mark.parametrize("m", [np.zeros((0, 0), complex), np.array([[-0.5 + 0j]])],
                             ids=["n=0", "n=1"])
    def test_part_small_dims(self, m):
        e = mc.eig_hermitian_part(m)
        assert np.array_equal(e.eigenvalues, m.diagonal().real)
        assert np.array_equal(e.vectors, np.eye(m.shape[0]))

    @pytest.mark.parametrize("spectrum", [[0.3, 0.3, 0.3, -0.7, 0.9, 0.1],
                                          [2.0, -0.5, 0.25, 1.5, -1.5, 3.0]],
                             ids=["cluster", "simple"])
    def test_part_equals_checked_decomposition_of_hermitian_part(self, spectrum):
        # a defect of 1e-12 passes eig_hermitian's check; the unchecked
        # decomposition of m must give the same bits as the checked one of h
        rng = np.random.default_rng(31)
        q = mc.random_unitary(rng, len(spectrum))
        m = (q * np.asarray(spectrum)) @ q.conj().T
        m = m + 1e-12 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        assert not np.array_equal(m, m.conj().T)
        h = (m + m.conj().T) / 2
        part, checked = mc.eig_hermitian_part(m), mc.eig_hermitian(h)
        assert np.array_equal(part.eigenvalues, checked.eigenvalues)
        assert np.array_equal(part.vectors, checked.vectors)
        assert np.array_equal(mc.eig_hermitian(m).vectors, part.vectors)

    def test_part_takes_no_norm(self, monkeypatch):
        def refuse(x):
            raise AssertionError("op_norm reached")

        monkeypatch.setattr(mc, "op_norm", refuse)
        e = mc.eig_hermitian_part(mc.random_hermitian(np.random.default_rng(8), 12))
        assert e.dim == 12

    def test_round_trip_bulk_dims_up_to_64(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            a = mc.random_hermitian(rng, n)
            e = mc.eig_hermitian(a)
            bound = 1e-10 * n * max(1.0, mc.op_norm(a))
            assert mc.op_norm(e.reconstruct() - a) <= bound


def reference_eig_hermitian(a):
    """Per-cluster reference for eig_hermitian's canonicalisation: a while
    loop over the eigenvalues, Gram-Schmidt on each cluster, then one phase
    rotation per column."""
    m = mc.as_matrix(a)
    n = m.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    scale = max(mc.op_norm(m), np.finfo(float).tiny)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    cluster_tol = 1e-12 * n * max(scale, 1.0)
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] <= cluster_tol:
            j += 1
        if j - i > 1:
            p = v[:, i:j] @ v[:, i:j].conj().T
            v[:, i:j] = mc._gram_schmidt_span(p, j - i, 1e-8)
        for k in range(i, j):
            top = v[int(np.argmax(np.abs(v[:, k]))), k]
            if abs(top) != 0.0:
                v[:, k] = v[:, k] * (abs(top) / top)
        i = j
    return w, v


def conjugated_spectrum(rng, values):
    """Q diag(values) Q* for a random unitary Q, symmetrised."""
    q = mc.random_unitary(rng, len(values))
    a = q @ np.diag(np.asarray(values, dtype=float)) @ q.conj().T
    return (a + a.conj().T) / 2


def _canonicalisation_cases():
    rng = np.random.default_rng(41)
    n, top = 3, 2.0
    tol_apart = 1e-12 * n * max(top, 1.0)  # eig_hermitian's cluster_tol here
    return {
        "distinct": mc.random_hermitian(rng, 9),
        "one-repeated": conjugated_spectrum(rng, [-1.0, 0.5, 0.5, 2.0]),
        "multiplicities-5-3-1": conjugated_spectrum(rng, [1.0] * 5 + [-2.0] * 3 + [3.0]),
        "n0": np.zeros((0, 0)),
        "n1": np.array([[0.25 + 0j]]),
        # sigma_y: both entries of each eigenvector tie in modulus exactly
        "modulus-ties": np.array([[0.0, -1j], [1j, 0.0]]),
        "cluster-tol-apart": np.diag([0.0, tol_apart, top]),
        "just-past-cluster-tol": np.diag([0.0, np.nextafter(tol_apart, 1.0), top]),
    }


CANONICALISATION_CASES = _canonicalisation_cases()


class TestEigHermitianCanonicalisation:
    @pytest.mark.parametrize("kind", sorted(CANONICALISATION_CASES))
    def test_matches_per_cluster_reference(self, kind):
        a = CANONICALISATION_CASES[kind]
        w, v = reference_eig_hermitian(a)
        e = mc.eig_hermitian(a)
        assert np.array_equal(e.eigenvalues, w)
        assert e.vectors.shape == v.shape
        assert np.all(np.abs(e.vectors - v) <= 1e-14)

    @pytest.mark.parametrize("kind", ["cluster-tol-apart", "just-past-cluster-tol"])
    def test_gap_cases_are_exact(self, kind):
        a = CANONICALISATION_CASES[kind]
        assert np.array_equal(mc.eig_hermitian(a).eigenvalues, np.diag(a).real)

    @pytest.mark.parametrize("kind, ranks", [("distinct", []),
                                             ("n0", []),
                                             ("n1", []),
                                             ("one-repeated", [2]),
                                             ("multiplicities-5-3-1", [3, 5]),
                                             ("cluster-tol-apart", [2]),
                                             ("just-past-cluster-tol", [])])
    def test_gram_schmidt_once_per_multiple_cluster(self, kind, ranks, monkeypatch):
        seen = []
        real = mc._gram_schmidt_span

        def counting(columns, target_rank, tol):
            seen.append(target_rank)
            return real(columns, target_rank, tol)

        monkeypatch.setattr(mc, "_gram_schmidt_span", counting)
        mc.eig_hermitian(CANONICALISATION_CASES[kind])
        assert seen == ranks

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=16),
           st.integers(0, 10 ** 6))
    def test_largest_entry_real_positive_property(self, values, seed):
        a = conjugated_spectrum(np.random.default_rng(seed), values)
        v = mc.eig_hermitian(a).vectors
        top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        assert np.all(top.real > 0)
        assert np.all(np.abs(top.imag) <= 1e-15 * np.abs(top))


class TestOpNorm:
    def test_identity(self):
        assert mc.op_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert mc.op_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0, abs=1e-14)

    def test_against_power_iteration(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        assert mc.op_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-8)

    @pytest.mark.parametrize("kind", sorted(OP_NORM_CASES))
    def test_every_structure_matches_largest_singular_value(self, kind):
        m = OP_NORM_CASES[kind]
        expected = float(np.linalg.norm(m, 2))
        assert abs(mc.op_norm(m) - expected) <= 1e-12 * max(1.0, expected)

    @pytest.mark.parametrize("kind", ["hermitian", "anti-hermitian", "zero",
                                      "block-diagonal", "banded"])
    def test_exact_structure_takes_no_svd(self, kind, refuse_svd):
        rng = np.random.default_rng(31)
        m = _structured(rng, kind, 64, 64)
        herm = np.abs(np.linalg.eigvalsh(m)).max()
        expected = {"hermitian": herm,
                    "anti-hermitian": np.abs(np.linalg.eigvals(m)).max(),
                    "zero": 0.0, "block-diagonal": herm, "banded": herm}[kind]
        assert mc.op_norm(m) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sign", [1, 1j])
    def test_block_diagonal_takes_no_full_size_eigvalsh(self, sign, monkeypatch):
        rng = np.random.default_rng(32)
        m = sign * _structured(rng, "block-diagonal", 128, 0)
        expected = float(np.linalg.norm(m, 2))
        sizes = []
        real = np.linalg.eigvalsh

        def counting(h, *args, **kwargs):
            sizes.append(h.shape[0])
            return real(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        got = mc.op_norm(m)
        assert sizes and max(sizes) < 128
        assert abs(got - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("n", [63, 64])
    def test_block_scan_floor(self, n, monkeypatch):
        # below BLOCK_SCAN_MIN a splittable matrix still takes one eigvalsh
        m = np.diag(np.arange(1.0, n + 1.0))
        sizes = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda h: sizes.append(h.shape[0]) or real(h))
        assert mc.op_norm(m) == float(n)
        assert sizes == ([n] if n < mc.BLOCK_SCAN_MIN else [])

    @pytest.mark.parametrize("kind", ["general", "rounded-hermitian", "rectangular"])
    def test_inexact_structure_takes_the_svd(self, kind, refuse_svd):
        m = OP_NORM_CASES[kind]
        with pytest.raises(AssertionError, match="SVD reached"):
            mc.op_norm(m)

    @pytest.mark.parametrize("kind", ["general", "rectangular", "column",
                                      "corner-matches-hermitian", "defect-anti-hermitian",
                                      "block-diagonal-general-96"])
    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_general_kernel_equals_matrix_two_norm(self, kind, scale):
        m = scale * OP_NORM_CASES[kind]
        assert mc.op_norm(m) == float(np.linalg.norm(m.reshape(m.shape[0], -1), 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10 ** 6))
    def test_general_kernel_property(self, n, cols, seed):
        m = _structured(np.random.default_rng(seed), "rectangular", n, cols)
        assert mc.op_norm(m) == float(np.linalg.norm(m, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(STRUCTURES), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 10 ** 6))
    def test_structure_property(self, kind, n, cols, seed):
        m = _structured(np.random.default_rng(seed), kind, n, cols)
        expected = float(np.linalg.norm(m, 2))
        assert abs(mc.op_norm(m) - expected) <= 1e-12 * max(1.0, expected)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["block-diagonal", "banded"]), st.sampled_from([1, -1, 1j]),
           st.integers(64, 96), st.integers(0, 10 ** 6))
    def test_block_scan_property(self, kind, sign, n, seed):
        m = sign * _structured(np.random.default_rng(seed), kind, n, n)
        expected = float(np.linalg.norm(m, 2))
        assert abs(mc.op_norm(m) - expected) <= 1e-12 * max(1.0, expected)


class TestHermitianNormWithin:
    @pytest.mark.parametrize("m, c, want", [
        (np.zeros((0, 0)), 1.0, True),
        (np.diag([0.5, -0.5]), 1.0, True),
        (np.diag([0.5, -1.5]), 1.0, False),
        (np.diag([1.5, 0.5]), 1.0, False),
        (np.diag([1.5, 0.5]), 2.0, True),
        (np.eye(3), 1.0 + 1e-9, True),
        (np.eye(3), 1.0, False),  # exactly on c: cI - h is singular
    ])
    def test_examples(self, m, c, want):
        assert mc.hermitian_norm_within(m.astype(complex), c) is want

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 24), st.integers(0, 10 ** 6), st.sampled_from([0.9, 1.1]))
    def test_agrees_with_op_norm_away_from_c(self, n, seed, ratio):
        h = mc.random_hermitian(np.random.default_rng(seed), n, norm=1.0)
        assert mc.hermitian_norm_within(h, ratio) is (ratio > 1.0)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(0)
        a = mc.random_hermitian(rng, 5)
        assert mc.op_norm(mc.commutator(a, a)) == 0.0

    def test_pauli_pair(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        c = mc.commutator(sx, sz)
        assert np.allclose(c, [[0, -2], [2, 0]])
        assert mc.op_norm(c) == pytest.approx(2.0, abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(mc.MatrixShapeError):
            mc.commutator(np.eye(2), np.eye(3))


class TestApplyFunction:
    def test_identity_function(self):
        rng = np.random.default_rng(3)
        a = mc.random_hermitian(rng, 6)
        e = mc.eig_hermitian(a)
        assert mc.op_norm(e.matrix_function(lambda x: x) - a) <= 1e-12

    def test_indicator_matches_projection(self):
        rng = np.random.default_rng(4)
        e = mc.eig_hermitian(mc.random_hermitian(rng, 6))
        cut = float(np.median(e.eigenvalues))
        f = e.matrix_function(lambda x: (x > cut).astype(float))
        v = e.vectors[:, e.eigenvalues > cut]
        assert mc.op_norm(f - v @ v.conj().T) <= 1e-12

    def test_square_function(self):
        rng = np.random.default_rng(5)
        a = mc.random_hermitian(rng, 7)
        e = mc.eig_hermitian(a)
        assert mc.op_norm(e.matrix_function(lambda x: x ** 2) - a @ a) <= 1e-10


class TestEnergyBounds:
    """Nonconsecutive-orthogonality estimates on constructed vector chains."""

    @staticmethod
    def _chain(rng, n_vec, coupling):
        """Scaled unit vectors whose Gram matrix is exactly
        I + coupling * (shift + shift^T): nonconsecutive entries vanish and
        each neighbor overlap equals ``coupling`` after normalization."""
        gram = np.eye(n_vec) + coupling * (np.eye(n_vec, k=1) + np.eye(n_vec, k=-1))
        w, v = np.linalg.eigh(gram)
        assert w[0] > 0, "Gram must be positive definite for the construction"
        root = (v * np.sqrt(w)) @ v.conj().T
        scales = rng.uniform(0.3, 2.0, n_vec)
        return [scales[i] * root[:, i] for i in range(n_vec)]

    def test_upper_bound_constant_two(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            n_vec = int(rng.integers(2, 7))
            vecs = self._chain(rng, n_vec, float(rng.uniform(0, 0.45)))
            total = sum(vecs)
            lhs = float(np.linalg.norm(total)) ** 2
            rhs = 2 * sum(float(np.linalg.norm(v)) ** 2 for v in vecs)
            assert lhs <= rhs + 1e-10

    def test_lower_bound_semi_pythagorean(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n_vec = int(rng.integers(2, 7))
            c = float(rng.uniform(0, 0.45))
            vecs = self._chain(rng, n_vec, c)
            total = sum(vecs)
            lhs = float(np.linalg.norm(total)) ** 2
            rhs = (1 - 2 * c) * sum(float(np.linalg.norm(v)) ** 2 for v in vecs)
            assert lhs >= rhs - 1e-10
