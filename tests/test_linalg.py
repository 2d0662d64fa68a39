import numpy as np
import pytest

from krausblocks import (
    Tolerances,
    cluster_eigenvalues,
    haar_unitary,
    hermitian_eig,
    orthonormal_complement,
)
from krausblocks.errors import DimensionMismatch, NotHermitian, NotOrthonormal
from krausblocks.linalg import DEFAULT_TOL, max_abs

from tests.dense import null_space
from tests.util import random_hermitian


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.hermitian == 1e-10
        assert t.nullspace == 1e-8
        assert t.eigencluster == 1e-7
        assert t.residual == 1e-9
        assert t.optimizer == 1e-4

    @pytest.mark.parametrize("field", ["hermitian", "nullspace", "eigencluster", "residual", "optimizer"])
    def test_strictly_positive(self, field):
        for value in (0.0, -1e-3, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                Tolerances(**{field: value})


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert max_abs(v.conj().T @ v - np.eye(2)) < 1e-12

    def test_pauli_x(self):
        w, v = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])
        # eigenvectors are (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
        for k, sign in ((0, -1.0), (1, 1.0)):
            col = v[:, k]
            col = col * np.exp(-1j * np.angle(col[0]))
            assert np.allclose(col, np.array([1.0, sign]) / np.sqrt(2))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(5, rng)
        w, v = hermitian_eig(h)
        recon = (v * w) @ v.conj().T
        assert max_abs(recon - h) <= 1e-10 * max_abs(h)

    def test_reconstruction_sweep(self):
        # spot check over many random instances at small dimensions
        rng = np.random.default_rng(21)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            h = random_hermitian(d, rng)
            w, v = hermitian_eig(h)
            assert max_abs((v * w) @ v.conj().T - h) <= 1e-10 * max(max_abs(h), 1e-3)
            assert max_abs(v.conj().T @ v - np.eye(d)) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.zeros((2, 3)))


class TestNullSpace:
    def test_zero_matrix(self):
        ns = null_space(np.zeros((3, 3)))
        assert ns.shape == (3, 3)
        assert max_abs(ns.conj().T @ ns - np.eye(3)) < 1e-12

    def test_identity(self):
        assert null_space(np.eye(2)).shape == (2, 0)

    def test_rank_one(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = 1.0
        ns = null_space(m)
        assert ns.shape == (3, 2)
        # columns orthonormal, orthogonal to e1, and annihilated by m
        assert max_abs(ns.conj().T @ ns - np.eye(2)) < 1e-12
        assert max_abs(ns[0, :]) < 1e-12
        assert max_abs(m @ ns) <= DEFAULT_TOL.nullspace

    def test_rank_nullity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            rank = int(rng.integers(0, min(rows, cols) + 1))
            a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            ns = null_space(a)
            assert ns.shape[1] == cols - np.linalg.matrix_rank(a, tol=1e-9)
            if ns.shape[1]:
                assert max_abs(a @ ns) <= DEFAULT_TOL.nullspace * max(1.0, max_abs(a))


class TestOrthonormalComplement:
    def test_single_vector(self):
        b = np.array([[1.0], [0.0]], dtype=complex)
        c = orthonormal_complement(b, 2)
        assert c.shape == (2, 1)
        assert abs(abs(c[1, 0]) - 1.0) < 1e-12

    def test_full_basis(self):
        c = orthonormal_complement(np.eye(3), 3)
        assert c.shape == (3, 0)

    def test_superposition(self):
        b = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        c = orthonormal_complement(b, 2)
        # Gram-Schmidt oracle: complete [b, e1] by hand
        e1 = np.array([1.0, 0.0], dtype=complex)
        g = e1 - (b[:, 0].conj() @ e1) * b[:, 0]
        g = g / np.linalg.norm(g)
        overlap = abs(g.conj() @ c[:, 0])
        assert abs(overlap - 1.0) < 1e-12

    def test_union_is_complete(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, d + 1))
            b = haar_unitary(d, rng)[:, :k]
            c = orthonormal_complement(b, d)
            full = np.hstack([b, c])
            assert max_abs(full.conj().T @ full - np.eye(d)) < 1e-10

    def test_involution(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, d))
            b = haar_unitary(d, rng)[:, :k]
            cc = orthonormal_complement(orthonormal_complement(b, d), d)
            p1 = b @ b.conj().T
            p2 = cc @ cc.conj().T
            assert max_abs(p1 - p2) <= 1e-10

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            orthonormal_complement(np.array([[1.0], [1.0]]), 2)


class TestClusters:
    def test_grouping(self):
        vals = np.array([0.0, 1e-9, 0.5, 0.5 + 5e-8, 2.0])
        groups = cluster_eigenvalues(vals, 1e-7)
        assert [list(g) for g in groups] == [[0, 1], [2, 3], [4]]

    def test_single_chain(self):
        # single linkage: pairwise-close values chain into one cluster
        vals = np.array([0.0, 6e-8, 1.2e-7])
        assert len(cluster_eigenvalues(vals, 1e-7)) == 1


class TestHaarUnitary:
    def test_unitary_and_deterministic(self):
        u1 = haar_unitary(4, np.random.default_rng(5))
        u2 = haar_unitary(4, np.random.default_rng(5))
        assert max_abs(u1.conj().T @ u1 - np.eye(4)) < 1e-12
        assert max_abs(u1 - u2) == 0.0
