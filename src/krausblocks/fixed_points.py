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

from .channel import KrausChannel, unvec
from .errors import (
    DimensionMismatch,
    NotADensityMatrix,
    NotFixed,
    NotNormalized,
    ToleranceFailure,
)
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, frozen, max_abs, null_space

# avoids a circular import; IrisDecomposition is only used for annotations
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .decomposition import IrisDecomposition


@dataclass(frozen=True, eq=False)
class CommutantBasis:
    """Orthonormal Hermitian basis of the fixed-point set.

    Elements are orthonormal under the trace inner product; the first one is
    always the normalized identity ``I / sqrt(dim)``.
    """

    dim: int
    hermitian_basis: tuple[np.ndarray, ...]

    @property
    def count(self) -> int:
        return len(self.hermitian_basis)

    def compress(self, basis) -> "CommutantBasis":
        """Commutant of the channel restricted to the span of the orthonormal
        columns B of ``basis``: the compression ``B^dagger A' B``, valid when
        the span's projector lies in this algebra (e.g. any eigenspace of an
        element)."""
        b = as_matrix(basis)
        compressed = b.conj().T @ np.stack(self.hermitian_basis) @ b
        return CommutantBasis(b.shape[1], _orthonormalize(b.shape[1], compressed))

    def project(self, sigma) -> np.ndarray:
        """Orthogonal projection of a Hermitian operator onto the fixed set."""
        s = as_matrix(sigma)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for h in self.hermitian_basis:
            out += float(np.real(np.sum(h.conj() * s))) * h
        return out


def _commutation_stack(ch: KrausChannel) -> np.ndarray:
    """Rows of ``vec(A_i s - s A_i) = (I kron A_i - A_i^T kron I) vec(s)``."""
    d = ch.dim
    eye = np.eye(d)
    blocks = [np.kron(eye, a) - np.kron(a.T, eye) for a in ch.kraus]
    return np.vstack(blocks)


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

    candidates = []
    for k in range(n_complex):
        b = unvec(kernel[:, k], d)
        candidates.append((b + b.conj().T) / 2.0)
        candidates.append((b - b.conj().T) / 2.0j)
    basis = _orthonormalize(d, candidates)

    if len(basis) != n_complex:
        raise ToleranceFailure(
            f"Hermitian commutant dimension {len(basis)} disagrees with the "
            f"complex solution count {n_complex}; tolerances are inconsistent"
        )
    return CommutantBasis(dim=d, hermitian_basis=basis)


def _orthonormalize(dim: int, candidates) -> tuple[np.ndarray, ...]:
    """Trace-orthonormal basis of the span of Hermitian ``candidates``, with
    the normalized identity pinned first. Modified Gram-Schmidt over the
    reals: Hermitian matrices form a real vector space."""
    basis: list[np.ndarray] = []
    for c in [np.eye(dim, dtype=complex) / np.sqrt(dim), *candidates]:
        r = c.copy()
        for _ in range(2):  # reorthogonalize once for 1e-12-level orthogonality
            for h in basis:
                r -= float(np.real(np.sum(h.conj() * r))) * h
        norm = float(np.sqrt(np.real(np.sum(r.conj() * r))))
        if norm > 1e-7:
            basis.append(r / norm)
    return tuple(frozen(h) for h in basis)


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
    comm_res = max(max_abs(a @ s - s @ a) for a in ch.kraus)
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
    eigenvalues = []
    ok = True
    for a in ch.kraus:
        lam = complex(v.conj() @ (a @ v))
        eigenvalues.append(lam)
        if float(np.linalg.norm(a @ v - lam * v)) > tol.residual:
            ok = False
    return PureStateReport(is_fixed=ok, eigenvalues=tuple(eigenvalues))


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
    if max_abs(r - r.conj().T) > 1e-8:
        raise NotADensityMatrix("state is not Hermitian within 1e-8")
    if abs(float(np.real(np.trace(r))) - 1.0) > 1e-8:
        raise NotADensityMatrix(f"trace is {np.real(np.trace(r)):.10f}, not 1 within 1e-8")
    eigs = np.linalg.eigvalsh((r + r.conj().T) / 2.0)
    if float(eigs[0]) < -1e-8:
        raise NotADensityMatrix(f"minimum eigenvalue {eigs[0]:.3e} is below -1e-8")

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
