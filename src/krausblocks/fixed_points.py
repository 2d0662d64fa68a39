"""Fixed points of a unital channel via the Kraus commutation criterion.

For a unital trace-preserving map, an operator is fixed exactly when it
commutes with every Kraus operator, so the fixed set is computed as the
null space of the stacked commutation superoperators. That system is better
conditioned than the null space of (superoperator - identity), which is
kept as a cross-check oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
from .errors import DimensionMismatch, NotFixed, NotNormalized, ToleranceFailure
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, density_matrix, frozen, max_abs, null_space

# avoids a circular import; IrisDecomposition is only used for annotations
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .decomposition import IrisDecomposition


_NEGLIGIBLE_NORM = 1e-7  # Frobenius norm at or below which a remainder counts as zero


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

    def is_scalar_on(self, basis) -> bool:
        """Irreducibility certificate of the span of the orthonormal columns B of
        ``basis``, whose projector must lie in this algebra (e.g. an eigenspace
        of an element): every ``B^dagger H B`` is a scalar, which is the
        :func:`_orthonormalize` decision on them keeping only the identity."""
        b = as_matrix(basis)
        c = b.conj().T @ self.hermitian_basis @ b
        scalars = np.trace(c, axis1=1, axis2=2)[:, None, None] / b.shape[1]
        traceless = np.linalg.norm(c - scalars * np.eye(b.shape[1]), axis=(1, 2))
        return bool(np.all(traceless <= _NEGLIGIBLE_NORM))

    def project(self, sigma) -> np.ndarray:
        """Orthogonal projection of a Hermitian operator onto the fixed set."""
        h = self.hermitian_basis
        coeff = np.real(np.tensordot(h.conj(), as_matrix(sigma), axes=2))
        return np.tensordot(coeff, h, axes=1)


def _commutation_stack(ch: KrausChannel) -> np.ndarray:
    """Rows of ``vec(A_i s - s A_i) = (I kron A_i - A_i^T kron I) vec(s)``,
    written in place at row ``(i, p, r)``, column ``(q, t)``: ``A_i[r, t]`` where
    ``p = q``, minus ``A_i[q, p]`` where ``r = t``. No other large array."""
    a = ch.kraus
    k, d = a.shape[0], ch.dim
    stack = np.zeros((k, d, d, d, d), dtype=complex)
    for p in range(d):  # slices are views: all k operators at once, no temporaries
        stack[:, p, :, p, :] += a
        stack[:, :, p, :, p] -= a.transpose(0, 2, 1)
    return stack.reshape(k * d * d, d * d)


def commutant_basis(ch: KrausChannel, tol: Tolerances = DEFAULT_TOL) -> CommutantBasis:
    """Solve ``A_i s = s A_i`` for all i and return a Hermitian basis.

    The complex solution space is intersected with the Hermitian matrices by
    splitting each element B into ``(B + B^dagger)/2`` and
    ``(B - B^dagger)/(2i)``, then trace-orthonormalizing with the normalized
    identity pinned as the first basis element.
    """
    d = ch.dim
    kernel = null_space(_commutation_stack(ch), tol)
    n_complex = kernel.shape[1]

    # unvec of every kernel column (column-stacked), then its Hermitian and
    # anti-Hermitian parts, interleaved per column
    b = kernel.T.reshape(n_complex, d, d).transpose(0, 2, 1)
    b_dag = b.conj().transpose(0, 2, 1)
    candidates = np.stack([(b + b_dag) / 2.0, (b - b_dag) / 2.0j], axis=1)
    basis = _orthonormalize(d, candidates.reshape(2 * n_complex, d, d))

    if len(basis) != n_complex:
        raise ToleranceFailure(
            f"Hermitian commutant dimension {len(basis)} disagrees with the "
            f"complex solution count {n_complex}; tolerances are inconsistent"
        )
    return CommutantBasis(dim=d, hermitian_basis=basis)


def _orthonormalize(dim: int, candidates: np.ndarray) -> np.ndarray:
    """Trace-orthonormal basis ``(count, dim, dim)`` of the span of the Hermitian
    ``candidates``, with the normalized identity pinned first. Gram-Schmidt over
    the reals: Hermitian matrices form a real vector space, in which
    ``Re tr(H^dagger R)`` is the dot product of the float views."""
    pinned = np.eye(dim, dtype=complex)[None] / np.sqrt(dim)
    vectors = np.concatenate([pinned, candidates]).reshape(-1, dim * dim).view(float)
    basis = np.empty_like(vectors)
    count = 0
    for r in vectors:
        for _ in range(2):  # reorthogonalize once for 1e-12-level orthogonality
            r = r - (basis[:count] @ r) @ basis[:count]
        norm = float(np.linalg.norm(r))
        if norm > _NEGLIGIBLE_NORM:
            basis[count] = r / norm
            count += 1
    return frozen(basis[:count].view(complex).reshape(count, dim, dim))


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
    if abs(nrm - 1.0) > 1e-10:
        raise NotNormalized(f"|x| = {nrm:.12f} is not 1 within 1e-10")
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
    ``c_j = tr(P_j rho)``. Weights must be nonnegative (within 1e-10, then
    clamped); a fit residual above ``tol.residual`` yields a
    :class:`DegenerateFixedState` instead of an error, projected with the
    commutant the decomposition was split from when it records one.
    """
    r = as_matrix(rho)
    if r.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"state is {r.shape}, channel dim is {ch.dim}")
    density_matrix(r)

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
    if residual <= tol.residual and all(c >= -1e-10 for c in weights):
        clamped = tuple(max(c, 0.0) for c in weights)
        return BlockMixture(weights=clamped, residual=residual)
    basis = decomposition.commutant or commutant_basis(ch, tol)
    return DegenerateFixedState(
        commutant_projection=frozen(basis.project(r)), residual=residual
    )
