"""The dense commutant solve, kept as the oracle the tests compare against.

It solves ``A_i X = X A_i`` in ``d^2``-dimensional work: ``O(d^6)`` time and
``O(d^4)`` memory. Candidates come from one real symmetric ``eigh`` of the
commutators' ``d^2 x d^2`` Gram matrix in Hermitian coordinates, and the kernel
is decided on the singular values of the commutators themselves, not on their
squares. :func:`dense_decompose` splits along the eigenspaces of the
commutant projection of a random Hermitian matrix, redrawn until the
commutant compresses to the scalars on every eigenspace, certifies the
blocks as ``iris_decompose`` does, groups them into Wedderburn components
by the entries the commutant basis has between them, and checks those
components against the dense commutant's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from krausblocks import KrausChannel
from krausblocks.decomposition import (
    IrisDecomposition,
    SplitDecision,
    _certified_blocks,
)
from krausblocks.errors import ToleranceFailure
from krausblocks.linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    cluster_eigenvalues,
    hermitian_eig,
    max_abs,
    seeded_rng,
)

_MAX_DRAWS = 8  # random fixed operators tried before the dense split fails


def vec(sigma: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(sigma, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for a ``dim x dim`` matrix."""
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def null_space(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ``{x : M x = 0}`` as columns.

    The kernel dimension is the number of singular values below
    ``tol.nullspace`` relative to the largest one. An empty basis is a
    valid return (shape ``(cols, 0)``).
    """
    a = as_matrix(m)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.eye(a.shape[1], dtype=complex)
    # the kernel lives in V, which is complete unless the matrix is wide;
    # never materialize the (rows x rows) U of a tall stacked system
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    smax = s[0] if s.size else 0.0
    # pad: singular values beyond min(rows, cols) are exact zeros
    full = np.zeros(a.shape[1])
    full[: s.size] = s
    keep = full <= tol.nullspace * smax
    return vh.conj().T[:, keep]


@dataclass(frozen=True, eq=False)
class DenseCommutant:
    """Orthonormal Hermitian basis ``(count, dim, dim)`` of the commutant, the
    normalized identity first, with the singular values that decided it and
    their cut (:func:`commutant_kernel`)."""

    dim: int
    hermitian_basis: np.ndarray
    sigma: np.ndarray
    cut: float

    @property
    def count(self) -> int:
        return len(self.hermitian_basis)

    def is_scalar_on(self, basis, tol: Tolerances = DEFAULT_TOL) -> bool:
        """Irreducibility certificate of the span of the orthonormal columns B of
        ``basis``, whose projector must lie in this algebra (e.g. an eigenspace
        of an element): every ``B^dagger H B`` is a scalar up to a Frobenius
        norm of ``tol.eigencluster``, the width the split clusters at."""
        b = as_matrix(basis)
        c = b.conj().T @ self.hermitian_basis @ b
        scalars = np.trace(c, axis1=1, axis2=2)[:, None, None] / b.shape[1]
        traceless = np.linalg.norm(c - scalars * np.eye(b.shape[1]), axis=(1, 2))
        return bool(np.all(traceless <= tol.eigencluster))

    def project(self, sigma) -> np.ndarray:
        """Orthogonal projection of a Hermitian operator onto the commutant."""
        h = self.hermitian_basis
        coeff = np.real(np.tensordot(h.conj(), as_matrix(sigma), axes=2))
        return np.tensordot(coeff, h, axes=1)


def _commutant_gram(a: np.ndarray, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``G = sum_i C_i^dagger C_i`` for ``C_i = I kron A_i - A_i^T kron I``, the
    ``d^2 x d^2`` Gram matrix whose kernel is the column-stacked commutant:
    ``I kron T + conj(U) kron I - S - S^dagger`` with ``T = sum A_i^dagger A_i``,
    ``U = sum A_i A_i^dagger`` and ``S = sum conj(A_i) kron A_i``. T and U are
    not taken as I: validation allows ``tol.residual`` of non-unitality."""
    d = a.shape[1]
    s = KrausChannel(dim=d, kraus=a).superoperator_matrix()
    g = s.conj().T.copy()
    g += s
    g *= -1.0
    g4 = g.reshape(d, d, d, d)
    for p in range(d):  # slices are views: the Kronecker terms added in place
        g4[p, :, p, :] += t
        g4[:, p, :, p] += u.conj()
    return g


def _real_form(g: np.ndarray, d: int) -> np.ndarray:
    """``(Re(G + PGP) - Im(PG - GP)) / 2`` for the vec transpose P: the matrix of
    ``y -> vec(X)^dagger G vec(X)`` for ``X = sym(Y) + i antisym(Y)``, an
    isometry from the real ``y = vec(Y)`` onto the Hermitian matrices."""
    g4 = g.reshape(d, d, d, d)  # [q, p, q', p'] = G[q d + p, q' d + p']
    r = g4.real + g4.real.transpose(1, 0, 3, 2)
    r -= g4.imag.transpose(1, 0, 2, 3)
    r += g4.imag.transpose(0, 1, 3, 2)
    r *= 0.5
    return r.reshape(d * d, d * d)


def _hermitian(y: np.ndarray, d: int) -> np.ndarray:
    """The matrices ``sym(Y) + i antisym(Y)`` of the real columns ``y = vec(Y)``."""
    yt = y.T.reshape(-1, d, d)  # Y^T, since vec stacks columns
    return ((1 + 1j) * yt.transpose(0, 2, 1) + (1 - 1j) * yt) / 2


def commutant_kernel(a: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal columns ``vec(H_j)`` (column-stacked) of a Hermitian basis
    of ``{X : A_i X = X A_i for all i}``, ``H_0 = I / sqrt(d)`` first, with the
    verdict ``linalg.null_space`` gives on the stacked commutators ``C_i``, at
    no more than ``d^4`` entries per array.

    Candidates: the eigenvectors of :func:`_real_form` of
    ``G = sum C_i^dagger C_i`` (one real symmetric ``eigh``, with
    ``4 (|T| + |U|) >= 2 lambda_max(G)`` added on the direction of I to lift it
    out) with eigenvalue at most ``sqrt(tol.nullspace) * max(lambda_max, |T| + |U|)``.
    ``|T| + |U|`` is the rounding floor, the size of the terms that cancel in
    G, so a G that vanishes up to rounding keeps its whole space; the square
    root keeps every left-out direction far enough above the kernel that
    ``eigh``'s rounding tilts the candidates by about ``eps / sqrt(tol.nullspace)``.
    Decision: the candidates' commutators, real and imaginary parts stacked,
    formed a few Kraus operators at a time and folded into the R factor of
    one QR, have the singular values of the full stack, unsquared; those at
    most ``tol.nullspace * sqrt(lambda_max)`` give the kernel, as the
    candidates rotated by R's right singular vectors. Returns the kernel,
    those singular values and that cut.
    """
    k, d = a.shape[0], a.shape[1]
    t = np.einsum("kji,kjl->il", a.conj(), a)
    u = np.einsum("kij,klj->il", a, a.conj())
    floor = float(np.sum(np.linalg.eigvalsh(np.stack([t, u]))[:, -1]))
    g = _real_form(_commutant_gram(a, t, u), d)
    identity = np.arange(d) * (d + 1)  # the entries of vec(I)
    g[np.ix_(identity, identity)] += 4.0 * floor / d
    w, v = np.linalg.eigh(g)
    lam_max = float(np.max(w[:-1], initial=0.0))
    if not lam_max <= 2.0 * floor * (1.0 + tol.residual):
        raise ToleranceFailure(
            f"Gram eigenvalue {lam_max:.6e} exceeds its bound 2(|T| + |U|) = {2 * floor:.6e}"
        )
    y = v[:, w <= np.sqrt(tol.nullspace) * max(lam_max, floor)]
    sigma, cut = np.zeros(0), tol.nullspace * np.sqrt(lam_max)
    if y.shape[1]:
        x, n = _hermitian(y, d), y.shape[1]
        chunk = max(1, d * d // n)  # chunk * n * d^2 <= d^4 entries per image
        r = np.zeros((0, n))
        for i in range(0, k, chunk):
            ops = a[i : i + chunk, None]
            image = (ops @ x - x @ ops).transpose(0, 2, 3, 1).reshape(-1, n)
            r = np.linalg.qr(np.concatenate([r, image.real, image.imag]), mode="r")
        _, sigma, vh = np.linalg.svd(r)
        y = y @ vh.T[:, sigma <= cut]
    y = np.concatenate([np.eye(d).reshape(-1, 1) / np.sqrt(d), y], axis=1)
    return _hermitian(y, d).transpose(0, 2, 1).reshape(-1, d * d).T, sigma, cut


def dense_commutant(ch: KrausChannel, tol: Tolerances = DEFAULT_TOL) -> DenseCommutant:
    """The commutant of the Kraus operators from :func:`commutant_kernel`."""
    d = ch.dim
    kernel, sigma, cut = commutant_kernel(ch.kraus, tol)
    basis = kernel.T.reshape(-1, d, d).transpose(0, 2, 1)
    basis.setflags(write=False)
    return DenseCommutant(dim=d, hermitian_basis=basis, sigma=sigma, cut=float(cut))


def dense_split(commutant: "DenseCommutant", rng: np.random.Generator, tol: Tolerances) -> list:
    """Orthonormal bases of the irreducible blocks: the eigenspaces of the
    commutant projection of a random traceless Hermitian matrix, redrawn while
    it merges blocks (an eigenspace fails :meth:`DenseCommutant.is_scalar_on`)."""
    d = commutant.dim
    if commutant.count == 1:
        return [np.eye(d, dtype=complex)]
    for _ in range(_MAX_DRAWS):
        z = rng.standard_normal((2, d, d))
        x = z[0] + z[0].T + 1j * (z[1] - z[1].T)  # Z + Z^dagger
        sigma = commutant.project(x - np.trace(x) / d * np.eye(d))  # traceless: I is fixed
        w, v = hermitian_eig(sigma / max_abs(sigma), tol)
        bases = [v[:, idx] for idx in cluster_eigenvalues(w, tol.eigencluster)]
        if all(commutant.is_scalar_on(b, tol) for b in bases):
            return bases
    raise ToleranceFailure(
        f"could not split a reducible space: {_MAX_DRAWS} random fixed operators each merged "
        "blocks at the configured eigencluster width"
    )


def dense_components(commutant: "DenseCommutant", bases, tol: Tolerances) -> list[list[int]]:
    """The blocks grouped into Wedderburn components, as lists of indices:
    blocks B_j and B_l are copies when some element H of the commutant basis
    has an entry of ``B_j^dagger H B_l`` above ``tol.nullspace``."""
    components: list[list[int]] = []
    for j, b in enumerate(bases):
        left = b.conj().T @ commutant.hermitian_basis
        for c in components:
            if max_abs(left @ bases[c[0]]) > tol.nullspace:
                c.append(j)
                break
        else:
            components.append([j])
    return components


def dense_decompose(
    ch: KrausChannel,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
    commutant: DenseCommutant | None = None,
) -> IrisDecomposition:
    """The irreducible blocks split along the given (else solved) commutant
    (:func:`dense_split`) and certified as ``iris_decompose`` certifies them;
    ``split.method`` is ``"dense"``. The blocks are grouped into Wedderburn
    components by the dense commutant basis (:func:`dense_components`), and
    ``sum_c m_c^2`` must equal the dimension of that commutant
    (AssertionError otherwise), so a count compared against the oracle's is
    compared against the dense solve."""
    commutant = commutant or dense_commutant(ch, tol)
    blocks, _ = _certified_blocks(ch, dense_split(commutant, seeded_rng(seed), tol), tol)
    components = dense_components(commutant, [s.basis for s in blocks], tol)
    count = sum(len(c) ** 2 for c in components)
    if count != commutant.count:
        raise AssertionError(
            f"components give a commutant of dimension {count}, the dense solve {commutant.count}"
        )
    return IrisDecomposition(
        ambient_dim=ch.dim,
        blocks=blocks,
        components=tuple(tuple(c) for c in components),
        split=SplitDecision("dense"),
    )
