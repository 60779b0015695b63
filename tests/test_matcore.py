"""Matrix kernel tests: examples with independently computed expectations,
plus property tests for the algebraic invariants."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearcommute import bounds as bd
from nearcommute import matcore as mc
from nearcommute import matio
from nearcommute import pipeline as pl
from nearcommute import projgeom as pg
from nearcommute import smoothing as sm
from nearcommute import subspace as sb
from nearcommute.gallery import tn_lift


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
        # n = 96 with one 40-fold eigenvalue: the cluster's Gram-Schmidt runs
        # on 40 x 96 coordinates, against the reference's 96 x 96 projector
        "large-cluster": conjugated_spectrum(rng, [0.5] * 40 + list(np.linspace(-3.0, 3.0, 56))),
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
                                             ("just-past-cluster-tol", []),
                                             ("large-cluster", [40])])
    def test_gram_schmidt_once_per_multiple_cluster(self, kind, ranks, monkeypatch):
        seen = []
        real = mc._gram_schmidt_span
        n = CANONICALISATION_CASES[kind].shape[0]

        def counting(columns, target_rank, tol):
            # a cluster's k x n coordinates, never the n x n projector
            assert columns.shape == (target_rank, n)
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


@pytest.mark.parametrize("call, message", [
    (lambda: mc.as_matrix(np.zeros((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: mc.as_matrix([[1.0, np.inf], [0.0, 1.0]]), "non-finite entries"),
    (lambda: mc.op_norm(np.zeros((2, 2, 2))), r"expected a matrix, got shape \(2, 2, 2\)"),
])
def test_shape_rejected(call, message):
    with pytest.raises(mc.MatrixShapeError, match=message):
        call()


class TestOrthonormalColumns:
    def test_vector_is_one_column(self):
        v = np.array([3.0, 4.0j, 0.0])
        q = mc.orthonormal_columns(v)
        assert q.shape == (3, 1)
        assert abs(np.vdot(q[:, 0], v / 5.0)) == pytest.approx(1.0, abs=1e-15)

    def test_no_columns(self):
        q = mc.orthonormal_columns(np.zeros((5, 0)))
        assert q.shape == (5, 0) and q.dtype == np.complex128


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


class TestRequireHermitian:
    @pytest.mark.parametrize("m", [
        mc.random_hermitian(np.random.default_rng(3), 6),
        # (m + m*)/2 would overflow here: the copy is m itself
        np.array([[1e308, 1e308j], [-1e308j, -1e308]]),
    ], ids=["random", "huge"])
    def test_bitwise_hermitian_input_is_copied(self, m):
        h, defect = mc.require_hermitian(m, "A")
        assert np.array_equal(h, m) and defect == 0.0
        assert not np.shares_memory(h, m)

    def test_roundoff_hermitian_input_gives_its_hermitian_part(self):
        m = mc.random_hermitian(np.random.default_rng(4), 6)
        m[1, 4] += 1e-13
        h, defect = mc.require_hermitian(m, "A")
        assert h.tobytes() == ((m + m.conj().T) / 2).tobytes()
        assert 0.0 < defect <= mc.HERMITIAN_TOL


class TestHermitianNorm:
    @pytest.mark.parametrize("n", [0, 1, 5, 70])
    def test_equals_op_norm_on_exact_structure(self, n):
        rng = np.random.default_rng(n)
        h = mc.random_hermitian(rng, n)
        k = h @ mc.random_hermitian(rng, n)
        x = k - k.conj().T
        assert mc.hermitian_norm(h) == mc.op_norm(h)
        assert mc.hermitian_norm(1j * x) == mc.op_norm(x)

    def test_zero_takes_no_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert mc.hermitian_norm(np.zeros((3, 3), dtype=complex)) == 0.0


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


GRAM_KINDS = ["general", "normal", "unitary difference", "commutator", "rank-one", "zero"]


def _gram_case(rng, kind, n):
    """An n x n matrix of a shape whose norm commute_hermitian_unitary
    takes: general, normal, U - U' for a nearby unitary U', [A, U],
    rank-one or zero."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "general":
        return g
    if kind == "zero" or n == 0:
        return np.zeros((n, n), dtype=complex)
    if kind == "rank-one":
        return np.outer(g[:, 0], g[0].conj())
    u = mc.random_unitary(rng, n)
    if kind == "normal":
        return (u * g[0]) @ u.conj().T
    if kind == "unitary difference":
        step = mc.eig_hermitian(mc.random_hermitian(rng, n, norm=1e-3))
        return u - u @ step.matrix_function(lambda x: np.exp(1j * x))
    return mc.commutator(mc.random_hermitian(rng, n, norm=1.0), u)


class TestGramNorm:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(GRAM_KINDS), st.integers(0, 40),
           st.sampled_from([1.0, 1e-200, 1e200]), st.integers(0, 10 ** 6))
    def test_matches_two_norm_without_svd(self, kind, n, scale, seed):
        x = scale * _gram_case(np.random.default_rng(seed), kind, n)
        expected = float(np.linalg.norm(x, 2)) if n else 0.0

        def refuse(*args, **kwargs):
            raise AssertionError("SVD reached")

        with pytest.MonkeyPatch.context() as mp:
            for name, mod in list(sys.modules.items()):
                if name.startswith("numpy.linalg") and hasattr(mod, "svd"):
                    mp.setattr(mod, "svd", refuse)
            got = mc.gram_norm(x)
        assert abs(got - expected) <= 1e-13 * max(n, 1) * expected
        if kind == "zero":
            assert got == 0.0

    def test_tensor_lifts_of_non_normal_matrices(self):
        # the lifts T_N(G) whose norms suite_tn takes, replayed from its
        # seed-1 draws (n, N, A, B, then G per trial): dimensions 4 to 81
        rng = np.random.default_rng(1)
        dims = set()
        for _ in range(50):
            n = int(rng.integers(2, 4))
            big_n = int(rng.integers(2, 5 if n == 3 else 6))
            mc.random_hermitian(rng, n, norm=1.0)
            mc.random_hermitian(rng, n, norm=1.0)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x = tn_lift(g, big_n)
            dims.add(x.shape[0])
            expected = mc.op_norm(x)
            assert abs(mc.gram_norm(x) - expected) <= 1e-14 * expected, (n, big_n)
        assert max(dims) == 81

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        x = np.eye(3, dtype=complex)
        x[1, 2] = bad
        with pytest.raises(mc.MatrixShapeError, match="non-finite"):
            mc.gram_norm(x)

    def test_rectangular_rejected(self):
        with pytest.raises(mc.MatrixShapeError):
            mc.gram_norm(np.ones((2, 3)))


class TestScreenedNorm:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(STRUCTURES), st.integers(1, 12), st.integers(1, 12),
           st.floats(0.0, 2.0), st.integers(0, 10 ** 6))
    def test_upper_bound_with_the_operator_norms_verdict(self, kind, n, cols, ratio, seed):
        # bounds from 0 to twice ||X|| cover all three regimes: below ||X||,
        # between ||X|| and ||X||_F (the fallback), and above ||X||_F
        x = _structured(np.random.default_rng(seed), kind, n, cols)
        norm = float(np.linalg.norm(x, 2))
        bound = ratio * norm
        got = mc.screened_norm(x, bound, mc.op_norm)
        assert got >= norm - 1e-13 * norm
        if abs(bound - norm) > 1e-12 * norm:
            assert (got <= bound) == (mc.op_norm(x) <= bound)

    def test_within_the_bound_takes_no_decomposition(self, refuse_svd):
        x = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert mc.screened_norm(x, 5.0, mc.op_norm) == 5.0

    def test_past_the_bound_takes_the_norm(self):
        x = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert mc.screened_norm(x, 4.5, mc.op_norm) == 4.0

    def test_nan_reaches_the_norm(self):
        x = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(mc.MatrixShapeError, match="non-finite"):
            mc.screened_norm(x, 1.0, mc.op_norm)


class TestAdjoint:
    """adjoint, hermitian_part, skew and hermitian_commutator equal, bit for
    bit, the elementwise expressions they replace, and never return a view
    of their input or change it."""

    @staticmethod
    def layouts(n):
        rng = np.random.default_rng(n)
        big = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        m = big[:n, :n].copy()
        # signed zeros and subnormals, on and off the diagonal
        specials = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                    complex(5e-324, -1e-310), complex(-2.5e-320, 3e-308)]
        if n:
            m.flat[[7 * i % m.size for i in range(len(specials))]] = specials
        big[::2, ::2] = m
        return {"C": m, "F": np.asfortranarray(m), "strided": big[::2, ::2]}

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17])
    def test_bitwise_equal_and_fresh(self, n, layout):
        m = self.layouts(n)[layout]
        keep = m.copy()
        k = m @ m.conj().T
        for got, want in ((mc.adjoint(m), m.conj().T),
                          (mc.hermitian_part(m), (m + m.conj().T) / 2),
                          (mc.skew(m), m - m.conj().T),
                          (mc.hermitian_commutator(m, m.conj().T), k - k.conj().T)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
            assert not np.shares_memory(got, m)
        assert m.tobytes() == keep.tobytes()


class TestHermitianCommutator:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 10 ** 6))
    def test_equals_ab_minus_ba_and_is_anti_hermitian(self, n, seed):
        rng = np.random.default_rng(seed)
        a = mc.random_hermitian(rng, n, norm=1.0)
        b = mc.random_hermitian(rng, n, norm=1.0)
        k = mc.hermitian_commutator(a, b)
        assert np.array_equal(k, -k.conj().T)
        assert mc.op_norm(k - (a @ b - b @ a)) <= 1e-15 * n

    def test_dim_mismatch(self):
        with pytest.raises(mc.MatrixShapeError, match=r"dimension mismatch: \(3, 3\) vs \(4, 4\)"):
            mc.hermitian_commutator(0.5 * np.eye(3), 0.5 * np.eye(4))


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


# ---------------------------------------------------------------------------
# Input gates at their tolerances, through every entry point that gates
# ---------------------------------------------------------------------------

def _skewed(h, e):
    """h with e added to its (0, 1) entry: Hermiticity defect e/2, and
    ||[m, m*]|| = e^2 for h = cI."""
    m = np.array(h, dtype=complex)
    m[0, 1] += e
    return m


def _tagged(m, tag, tmp_path):
    path = tmp_path / "m.json"
    matio.save_matrix(path, m, **{tag: True})
    return matio.load_matrix(path)


def _lieb_robinson(checker, last, s1=lambda x: x <= 3, s2=lambda x: x >= 7):
    """A Lieb-Robinson checker on H = s diag(-1..1), diagonal in B =
    diag(0..11)'s eigenbasis, so of finite range 1 and norm s; both come
    through the checked ``eig_hermitian``."""
    return lambda s, _: checker(mc.eig_hermitian(s * np.diag(np.linspace(-1.0, 1.0, 12))),
                                mc.eig_hermitian(np.diag(np.arange(12.0))), 1.0, s1, s2, last)


def _gate_cases():
    h = np.diag([0.5, -0.5, 0.2])          # a Hermitian contraction
    c = 0.3 * np.eye(3)                    # commutes with every matrix
    unit = np.diag([1.0, -0.5, 0.2])       # norm 1: s * unit has norm s
    a2 = np.array([[0.2, 0.1], [0.1, -0.2]])
    singles = [1, 1, 1]
    phases = np.diag(np.exp(1j * np.array([0.0, 0.1, 0.2])))
    m_tri = np.array([[0.75, 0.2], [0.2, 0.75]])  # norm 0.95
    cd = np.full(2, 0.6)
    profile = sm.smooth_profile(0.0, 1.0)
    # Hermitian: defect e/2 against 1e-9 (||m|| <= 1)
    herm = (1.8e-9, 2.2e-9, "must be Hermitian")
    # contraction: ||s * unit|| = s against 1 + 1e-9
    contr = (1.0 + 0.9e-9, 1.0 + 1.1e-9, "must be a contraction")
    # unitary: ||U*U - I|| = 2x + x^2 for U = diag(1, 1 + x, ...) against 1e-9
    unit_x = (0.45e-9, 0.55e-9, "must be unitary")
    stretch = lambda x, u: u @ np.diag([1.0, 1.0 + x, 1.0])  # noqa: E731
    return {
        "pair A Hermitian": (lambda e, _: pl.commute_hermitian_pair(_skewed(h, e), c), *herm),
        "pair B Hermitian": (lambda e, _: pl.commute_hermitian_pair(c, _skewed(h, e)), *herm),
        "pair A contraction": (lambda s, _: pl.commute_hermitian_pair(s * unit, c), *contr),
        "pair B contraction, commuting": (
            lambda s, _: pl.commute_hermitian_pair(c, s * unit), *contr),
        "pair B contraction, on eigenvalues": (
            lambda s, _: pl.commute_hermitian_pair(a2, s * np.diag([1.0, -0.5])), *contr),
        "cheap A Hermitian": (lambda e, _: pl.cheap_commute(_skewed(h, e), c), *herm),
        "three C Hermitian": (lambda e, _: pl.three_hermitian(c, c, _skewed(h, e)), *herm),
        "three B contraction": (lambda s, _: pl.three_hermitian(c, s * unit, c), *contr),
        "sweep B0 contraction": (
            lambda s, _: pl.delta_sweep(c, s * unit, np.ones((3, 3)), [1e-3]), *contr),
        "circle A Hermitian": (
            lambda e, _: pl.commute_hermitian_unitary(_skewed(h, e), np.eye(3)), *herm),
        "circle U unitary": (
            lambda x, _: pl.commute_hermitian_unitary(c, stretch(x, phases)), *unit_x),
        "gap U unitary": (lambda x, _: pl.unitary_pair_gap(stretch(x, np.eye(3)), phases),
                          *unit_x),
        "gap V unitary": (lambda x, _: pl.unitary_pair_gap(np.eye(3), stretch(x, phases)),
                          *unit_x),
        "verify_tridiagonal Hermitian": (
            lambda e, _: sb.verify_tridiagonal(_skewed(h, e), singles), *herm),
        "verify_tridiagonal contraction": (
            lambda s, _: sb.verify_tridiagonal(s * unit, singles), *contr),
        "tridiag_positive_test Hermitian": (
            lambda e, _: pg.tridiag_positive_test(_skewed(m_tri, e), cd, cd), *herm),
        "lin_oracle_projection A contraction": (
            lambda s, _: sb.lin_oracle_projection(mc.eig_hermitian(s * unit), h), *contr),
        "lin_oracle_projection B contraction": (
            lambda s, _: sb.lin_oracle_projection(mc.eig_hermitian(h), s * unit), *contr),
        "load_matrix hermitian tag": (
            lambda e, tmp: _tagged(_skewed(h, e), "hermitian", tmp), *herm),
        "load_matrix unitary tag": (
            lambda x, tmp: _tagged(stretch(x, phases), "unitary", tmp), *unit_x),
        "lieb_robinson_decay contraction": (_lieb_robinson(bd.lieb_robinson_decay, 0.1), *contr),
        "lieb_robinson_function contraction": (
            _lieb_robinson(bd.lieb_robinson_function, profile), *contr),
        "lieb_robinson_nested contraction": (
            _lieb_robinson(bd.lieb_robinson_nested, profile,
                           lambda x: 5 <= x <= 8, lambda x: 4 <= x <= 9), *contr),
        # normal: ||[N, N*]|| = e^2 against 1e-10 (||N|| <= 1)
        "normal_eig": (lambda e, _: sm.normal_eig(_skewed(0.5 * np.eye(3), e)),
                       0.9e-10 ** 0.5, 1.1e-10 ** 0.5, "matrix is not normal"),
    }


GATE_CASES = _gate_cases()


@pytest.mark.parametrize("entry", sorted(GATE_CASES))
def test_gate_boundary(entry, tmp_path):
    """Each gated entry point accepts an input just inside its gate's stated
    tolerance and rejects one just outside it with the gate's message."""
    call, inside, outside, message = GATE_CASES[entry]
    call(inside, tmp_path)
    with pytest.raises(ValueError, match=message):
        call(outside, tmp_path)
