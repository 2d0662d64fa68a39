"""Fixed points of a unital channel via the Kraus commutation criterion.

For a unital trace-preserving map, an operator is fixed exactly when it
commutes with every Kraus operator, so the fixed set is computed as the
common kernel of the commutators ``X -> A_i X - X A_i``. That kernel is
spanned by Hermitian matrices, so candidates come from one real symmetric
``eigh`` of the commutators' ``d^2 x d^2`` Gram matrix in Hermitian
coordinates; the kernel is then decided on the singular values of the
commutators themselves, not on their squares, so the verdict is the one the
stacked commutation system gives. That system is better conditioned than the
null space of (superoperator - identity), kept as a test oracle.

The block decomposition does not need this solve on its main path: it spins
its blocks up from a random element of the algebra the Kraus operators
generate, so they depend on the Kraus operators and the seed, and counts the
commutant from them. The solve serves its dense fallback, the projection of a
degenerate fixed state, and callers of :func:`commutant_basis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
from .errors import DimensionMismatch, NotFixed, NotNormalized, ToleranceFailure
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, density_matrix, frozen, max_abs

# avoids a circular import; IrisDecomposition is only used for annotations
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .decomposition import IrisDecomposition


@dataclass(frozen=True, eq=False)
class CommutantBasis:
    """Orthonormal Hermitian basis of the fixed-point set.

    ``hermitian_basis`` is one read-only complex array of shape
    ``(count, dim, dim)``. Elements are orthonormal under the trace inner
    product; the first one is always the normalized identity ``I / sqrt(dim)``.
    """

    dim: int
    hermitian_basis: np.ndarray

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
        """Orthogonal projection of a Hermitian operator onto the fixed set."""
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


def _commutant_kernel(a: np.ndarray, tol: Tolerances) -> np.ndarray:
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
    candidates rotated by R's right singular vectors.
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
    if y.shape[1]:
        x, n = _hermitian(y, d), y.shape[1]
        chunk = max(1, d * d // n)  # chunk * n * d^2 <= d^4 entries per image
        r = np.zeros((0, n))
        for i in range(0, k, chunk):
            ops = a[i : i + chunk, None]
            image = (ops @ x - x @ ops).transpose(0, 2, 3, 1).reshape(-1, n)
            r = np.linalg.qr(np.concatenate([r, image.real, image.imag]), mode="r")
        _, sigma, vh = np.linalg.svd(r)
        y = y @ vh.T[:, sigma <= tol.nullspace * np.sqrt(lam_max)]
    y = np.concatenate([np.eye(d).reshape(-1, 1) / np.sqrt(d), y], axis=1)
    return _hermitian(y, d).transpose(0, 2, 1).reshape(-1, d * d).T


def commutant_basis(ch: KrausChannel, tol: Tolerances = DEFAULT_TOL) -> CommutantBasis:
    """Solve ``A_i s = s A_i`` for all i and return a Hermitian basis, the
    normalized identity first: ``O(d^6)`` time and ``O(d^4)`` memory whatever
    the Kraus rank (:func:`_commutant_kernel`)."""
    d = ch.dim
    basis = _commutant_kernel(ch.kraus, tol).T.reshape(-1, d, d).transpose(0, 2, 1)
    return CommutantBasis(dim=d, hermitian_basis=frozen(basis))


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of the two equivalent fixed-point criteria."""

    is_fixed: bool
    fix_residual: float
    commute_residual: float


def is_fixed(ch: KrausChannel, sigma, tol: Tolerances = DEFAULT_TOL) -> FixedPointReport:
    """Check ``apply(ch, sigma) = sigma`` and the Kraus commutation criterion.

    ``fix_residual`` is ``max |apply(ch, sigma) - sigma|`` and
    ``commute_residual`` is ``max_i max |A_i sigma - sigma A_i|``; the flag
    requires both to be at most ``tol.residual``.
    """
    s = as_matrix(sigma)
    if s.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"operator is {s.shape}, channel dim is {ch.dim}")
    fix_res = max_abs(ch.apply(s) - s)
    comm_res = max_abs(ch.kraus @ s - s @ ch.kraus)
    flag = fix_res <= tol.residual and comm_res <= tol.residual
    return FixedPointReport(is_fixed=flag, fix_residual=fix_res, commute_residual=comm_res)


@dataclass(frozen=True)
class PureStateReport:
    """Simultaneous-eigenvector check of a unit vector."""

    is_fixed: bool
    eigenvalues: tuple[complex, ...]


def fixed_pure_state_check(
    ch: KrausChannel, x, tol: Tolerances = DEFAULT_TOL
) -> PureStateReport:
    """Decide whether a pure state is fixed: x must be an eigenvector of every
    Kraus operator. Returns the per-operator Rayleigh quotients ``<x|A_i|x>``.
    """
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.shape != (ch.dim,):
        raise DimensionMismatch(f"vector has length {v.size}, channel dim is {ch.dim}")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol.residual:
        raise NotNormalized(f"|x| = {nrm:.12f} is not 1 within tol.residual")
    av = ch.kraus @ v
    lam = av @ v.conj()
    ok = bool(np.all(np.linalg.norm(av - lam[:, None] * v, axis=1) <= tol.residual))
    return PureStateReport(is_fixed=ok, eigenvalues=tuple(lam.tolist()))


@dataclass(frozen=True, eq=False)
class BlockMixture:
    """A fixed state written as a mixture of per-block completely mixed states."""

    weights: tuple[float, ...]
    residual: float


@dataclass(frozen=True, eq=False)
class DegenerateFixedState:
    """A fixed state that is not a mixture over the supplied decomposition.

    This happens when the decomposition is degenerate (the channel admits
    more than one); ``commutant_projection`` is the projection of the state
    onto the fixed-point set.
    """

    commutant_projection: np.ndarray
    residual: float


def classify_fixed_state(
    ch: KrausChannel,
    rho,
    decomposition: "IrisDecomposition",
    tol: Tolerances = DEFAULT_TOL,
):
    """Fit a fixed density matrix as ``sum_j c_j P_j / dim(S_j)``.

    The block projectors are orthogonal, so the least-squares weights are
    ``c_j = tr(P_j rho)``. Weights must be nonnegative (within ``tol.residual``,
    then clamped); a fit residual above ``tol.residual`` yields a
    :class:`DegenerateFixedState` instead of an error, projected with the
    commutant the decomposition was split from when it records one.
    """
    r = as_matrix(rho)
    if r.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"state is {r.shape}, channel dim is {ch.dim}")
    density_matrix(r, tol)

    report = is_fixed(ch, r, tol)
    if not report.is_fixed:
        raise NotFixed(
            f"state is not fixed (fix_residual={report.fix_residual:.3e})",
            residual=report.fix_residual,
        )

    weights = []
    fit = np.zeros_like(r)
    for block in decomposition.blocks:
        p = block.projector()
        c = float(np.real(np.trace(p @ r)))
        weights.append(c)
        fit += (c / block.dim) * p
    residual = max_abs(r - fit)
    if residual <= tol.residual and all(c >= -tol.residual for c in weights):
        clamped = tuple(max(c, 0.0) for c in weights)
        return BlockMixture(weights=clamped, residual=residual)
    basis = decomposition.commutant or commutant_basis(ch, tol)
    return DegenerateFixedState(
        commutant_projection=frozen(basis.project(r)), residual=residual
    )
