"""Fixed points of a unital channel and the classification of fixed states.

For a unital trace-preserving map an operator is fixed exactly when it
commutes with every Kraus operator, so the fixed set is the commutant
``sum_c M_(m_c) kron I_(n_c)`` of the algebra they generate
(Arias-Gheondea-Gudder). It is built in ``d x d`` work from one irreducible
decomposition of the channel: the ``m_c`` aligned copies of one
``n_c``-dimensional block form a Wedderburn component, and the matrix units
``W_a W_b^dagger`` between copies span the commutant. The split and its
components come from :func:`~krausblocks.decomposition.iris_decompose`, once;
only the copies are aligned here.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
from .decomposition import IrisDecomposition, _algebra_element, iris_decompose
from .errors import DimensionMismatch, NotFixed, NotNormalized
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, density_matrix, frozen, max_abs, seeded_rng


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


def _wedderburn(ch: KrausChannel, dec: IrisDecomposition) -> Iterator[np.ndarray]:
    """The Wedderburn components of the channel, each as a ``d x m x n`` array
    W of its m copies of an n-dimensional irreducible block, aligned so that
    ``W[:, a]^dagger A_i W[:, a]`` is the same for every copy a: the copies
    ``dec.components`` lists, from an irreducible decomposition ``dec`` of
    ``ch``, each rotated onto the eigenvectors of its compression of a random
    algebra element H (an intertwiner commutes with it, so is diagonal
    there), with the phases set against the first copy by the first row of
    one random Kraus combination. Nothing is split or grouped here."""
    a = ch.kraus
    rng = seeded_rng(0)
    h = _algebra_element(a, rng)
    z = rng.standard_normal((2, len(a)))
    k = np.tensordot(z[0] + 1j * z[1], a, axes=1)
    bases = [s.basis for s in dec.blocks]
    for group in dec.components:
        copies = [bases[j] @ np.linalg.eigh(bases[j].conj().T @ h @ bases[j])[1] for j in group]
        rows = [v[:, 0].conj() @ k @ v for v in copies]
        phases = [np.exp(1j * np.angle(rows[0] * row.conj())) for row in rows]
        yield np.stack([v * p for v, p in zip(copies, phases)], axis=1)


def commutant_basis(ch: KrausChannel, tol: Tolerances = DEFAULT_TOL) -> CommutantBasis:
    """A Hermitian basis of ``{X : A_i X = X A_i for all i}``, the normalized
    identity first, from the matrix units of the Wedderburn components
    (:func:`_wedderburn`) of one :func:`iris_decompose` split at seed 0: for
    m copies ``W_a`` of an n-dimensional block,
    ``E_ab = W_a W_b^dagger / sqrt(n)`` gives ``E_aa`` and, for a < b,
    ``(E_ab + E_ba) / sqrt(2)`` and ``i (E_ab - E_ba) / sqrt(2)``:
    ``sum_c m_c^2`` elements. One reflection rotates the ``E_aa`` so the first
    is ``I / sqrt(d) = sum u_j E_jj`` with ``u_j = sqrt(n_j / d)``."""
    d = ch.dim
    diagonal, offdiagonal = [], []
    for w in _wedderburn(ch, iris_decompose(ch, tol)):
        m, n = w.shape[1:]
        for i in range(m):
            for j in range(i, m):
                e = w[:, i] @ w[:, j].conj().T / np.sqrt(n)
                if i == j:
                    diagonal.append(e)
                else:
                    offdiagonal += [(e + e.conj().T) / np.sqrt(2), 1j * (e - e.conj().T) / np.sqrt(2)]
    u = np.array([np.trace(e).real for e in diagonal]) / np.sqrt(d)
    v = u + np.eye(len(u))[0]  # 2 v v^T / |v|^2 - I swaps e_0 and u
    reflection = 2 * np.outer(v, v) / (v @ v) - np.eye(len(u))
    basis = list(np.tensordot(reflection, np.stack(diagonal), axes=1)) + offdiagonal
    return CommutantBasis(dim=d, hermitian_basis=frozen(np.stack(basis)))


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
    decomposition: IrisDecomposition,
    tol: Tolerances = DEFAULT_TOL,
):
    """Fit a fixed density matrix as ``sum_j c_j P_j / dim(S_j)`` over the
    blocks ``S_j`` of ``decomposition``, which must be an irreducible
    decomposition of ``ch`` (DimensionMismatch if its ambient space is not
    the channel's).

    The block projectors are orthogonal, so the least-squares weights are
    ``c_j = tr(P_j rho)``. Weights must be nonnegative (within ``tol.residual``,
    then clamped); a fit residual above ``tol.residual`` yields a
    :class:`DegenerateFixedState` instead of an error. Its projection onto the
    fixed-point set is taken one Wedderburn component of ``decomposition`` at
    a time (:func:`_wedderburn`), as ``W (sigma kron I_n) W^dagger`` with the
    copies W side by side and ``sigma_ab = tr(W_a^dagger rho W_b) / n``; no
    second split or grouping is made.
    """
    r = as_matrix(rho)
    if r.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"state is {r.shape}, channel dim is {ch.dim}")
    if decomposition.ambient_dim != ch.dim:
        raise DimensionMismatch(
            f"decomposition ambient dim {decomposition.ambient_dim} != channel dim {ch.dim}"
        )
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
    projection = np.zeros_like(r)
    for w in _wedderburn(ch, decomposition):
        m, n = w.shape[1:]
        w = w.reshape(ch.dim, m * n)
        sigma = np.trace((w.conj().T @ r @ w).reshape(m, n, m, n), axis1=1, axis2=3) / n
        projection += w @ np.kron(sigma, np.eye(n)) @ w.conj().T
    return DegenerateFixedState(commutant_projection=frozen(projection), residual=residual)
