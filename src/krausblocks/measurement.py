"""Measurement-statistics preservation under a unital channel.

A POVM element's statistics survive the channel for every input state exactly
when the adjoint channel fixes the element, which in turn happens exactly when
the element is a nonnegative combination of invariant-block projectors: for a
projective measurement, when the channel fixes every projector (d x d work),
which implies that the measurement channel commutes with it. One ``eigh`` of the
stacked elements and one adjoint channel serve every element. The commutator
``[sum_k L_{P_k}, L_phi]``, ``L_P = conj(P) kron P``, is ``F^T G`` for two
``n x d^2`` factors, n = 2 sum_k rank(P_k)^2 from the ranges or n = 2 k K from
``{P_k A_i}`` and ``{A_i P_k}``, whichever is smaller: O(n d^4) time and at
most 16 MB of product at once, against O(d^6) time and three d^2 x d^2 arrays
for the products of :func:`channels_commute`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .channel import _PRODUCT_ENTRIES, KrausChannel
from .decomposition import Subspace, is_invariant_subspace
from .errors import (
    DimensionMismatch,
    InvalidMeasurement,
    NoViolation,
    NotAProjector,
    NotPSD,
    ToleranceFailure,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    cluster_eigenvalues,
    frozen,
    hermitian_eig,
    hermitian_part,
    max_abs,
    psd_part,
)


def _complete_family(dim: int, ops, tol: Tolerances, family: str, noun: str, check):
    """One pass over a measurement's operators: each is ``dim x dim`` and passes
    ``check(k, m, earlier)``; together they sum to the identity within
    ``tol.residual``."""
    if not ops:
        raise InvalidMeasurement(f"a {family} needs at least one {noun}")
    mats = []
    for k, op in enumerate(ops):
        m = frozen(op)
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"{noun} {k} is {m.shape}, expected {dim}x{dim}")
        check(k, m, mats)
        mats.append(m)
    if max_abs(sum(mats) - np.eye(dim)) > tol.residual:
        raise InvalidMeasurement(f"{noun}s do not sum to the identity within tol.residual")
    return tuple(mats)


def _projector(p, tol: Tolerances, error, name: str) -> np.ndarray:
    """Check P as an orthogonal projector: Hermitian (:func:`hermitian_part`)
    and ``max |P^2 - P| <= tol.residual``; returns P."""
    hermitian_part(p, tol, error, name)
    if max_abs(p @ p - p) > tol.residual:
        raise error(f"{name} is not idempotent")
    return p


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite list of PSD elements summing to the identity."""

    dim: int
    elements: tuple[np.ndarray, ...]
    tol: InitVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self, tol):
        def psd(k, m, earlier):
            psd_part(m, tol, InvalidMeasurement, f"element {k}")

        mats = _complete_family(self.dim, self.elements, tol, "POVM", "element", psd)
        object.__setattr__(self, "elements", mats)


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete family of mutually orthogonal projectors."""

    dim: int
    projectors: tuple[np.ndarray, ...]
    tol: InitVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self, tol):
        def orthogonal_projector(k, m, earlier):
            _projector(m, tol, InvalidMeasurement, f"projector {k}")
            for kk, other in enumerate(earlier):
                if max_abs(other @ m) > tol.residual:
                    raise InvalidMeasurement(f"projectors {kk} and {k} are not orthogonal")

        mats = _complete_family(self.dim, self.projectors, tol, "projective measurement",
                                "projector", orthogonal_projector)
        object.__setattr__(self, "projectors", mats)


def projective_channel(m: ProjectiveMeasurement) -> KrausChannel:
    """The measurement channel ``rho -> sum_k P_k rho P_k``.

    The measurement checked its projectors self-adjoint and complete, so this
    is unital and trace preserving by construction, with no second check.
    """
    return KrausChannel(m.dim, m.projectors)


@dataclass(frozen=True)
class CommutationReport:
    commute: bool
    residual: float


def projection_intertwines(
    ch: KrausChannel, pi, tol: Tolerances = DEFAULT_TOL
) -> CommutationReport:
    """Check ``P phi(rho) P = phi(P rho P)`` for all rho, as superoperators.

    Equivalent to the range of P being invariant, which :func:`measurement_preserved`
    decides in d x d work. ``residual = max |L_P L_phi - L_phi L_P|``, the distance
    between the superoperators of ``{P A_i}`` and ``{A_i P}``, costs
    O(min(rank(P)^2, K) d^4) for K Kraus operators without forming either.
    """
    p = _projector(as_matrix(pi), tol, NotAProjector, "matrix")
    if p.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"projector is {p.shape}, channel dim is {ch.dim}")
    residual = _commutator_residual(ch, [p])
    return CommutationReport(commute=residual <= tol.residual, residual=residual)


def _measurement_commutes(
    ch: KrausChannel, m: ProjectiveMeasurement, tol: Tolerances, ranges=None
) -> CommutationReport:
    """``channels_commute(projective_channel(m), ch)`` without its d^2 x d^2 products."""
    residual = _commutator_residual(ch, m.projectors, ranges)
    return CommutationReport(commute=residual <= tol.residual, residual=residual)


def _kron_columns(ops: np.ndarray, v: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Columns ``(a, b)`` of ``sum_i conj(B_i V) kron B_i V`` for a stack of ``d x d``
    operators B_i, one row of length d^2 per pair, gathered a block of pairs at a time."""
    d = v.shape[0]
    u = (ops.reshape(-1, d) @ v).reshape(len(ops), d, -1).transpose(2, 1, 0)
    out = np.empty((len(ia), d * d), dtype=u.dtype)
    step = max(1, _PRODUCT_ENTRIES // (d * len(ops)))
    for s in range(0, len(ia), step):
        a, b = u[ia[s : s + step]], u[ib[s : s + step]]
        out[s : s + step] = (a.conj() @ b.transpose(0, 2, 1)).reshape(-1, d * d)
    return out


def _ranges(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ranks (eigenvalues that round to 1) and range bases of projectors, from their eigenpairs."""
    ranks = np.count_nonzero(np.rint(w) == 1, axis=1)
    return ranks, [vk[:, len(vk) - r :] for vk, r in zip(v, ranks)]


def _commutator_residual(ch: KrausChannel, projectors, ranges=None) -> float:
    """``max |[sum_k L_{P_k}, L_phi]|`` for checked projectors, read off ``F^T G``
    for two ``n x d^2`` factors in O(n d^4) time, a block of rows at a time.

    With ranges ``P_k = V_k V_k^dagger`` of rank r_k, ``sum_k L_{P_k} = W W^dagger``
    for ``W = [conj(V_k) kron V_k]_k``, so the commutator is ``W Y^dagger - Z W^dagger``
    with ``Z = L_phi W`` and ``Y = L_phi^dagger W``: n = 2 sum r_k^2. Otherwise it
    is the signed Kraus sum over ``{P_k A_i}`` and ``{A_i P_k}``, n = 2 k K, realigned,
    which permutes its entries and so keeps the max. The form with fewer terms wins.
    """
    d, a, p = ch.dim, ch.kraus, np.stack(projectors)
    ranks, bases = ranges or _ranges(*np.linalg.eigh(p))
    if np.sum(ranks**2) < len(p) * ch.n_kraus:
        v = np.hstack(bases)
        block = np.repeat(np.arange(len(ranks)), ranks)
        ia, ib = np.nonzero(block[:, None] == block[None, :])
        w, z, y = (_kron_columns(ops, v, ia, ib)
                   for ops in (np.eye(d)[None], a, a.conj().transpose(0, 2, 1)))
        f, g = np.vstack([w, z]), np.vstack([y, -w]).conj()
    else:
        pa, ap = (p[:, None] @ a).reshape(-1, d * d), (a @ p[:, None]).reshape(-1, d * d)
        f, g = np.vstack([pa, -ap]).conj(), np.vstack([pa, ap])
    rows = max(1, _PRODUCT_ENTRIES // (d * d))
    return max(max_abs(f[:, i : i + rows].T @ g) for i in range(0, d * d, rows))


def channels_commute(
    a: KrausChannel, b: KrausChannel, tol: Tolerances = DEFAULT_TOL
) -> CommutationReport:
    """Superoperator commutator test for two channels on the same space."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"channel dims differ: {a.dim} vs {b.dim}")
    la = a.superoperator_matrix()
    lb = b.superoperator_matrix()
    residual = max_abs(la @ lb - lb @ la)
    return CommutationReport(commute=residual <= tol.residual, residual=residual)


def _psd_operator(ch: KrausChannel, e, tol: Tolerances) -> np.ndarray:
    """The Hermitian part of E, checked as a PSD operator on the channel's space."""
    m = psd_part(e, tol, NotPSD, "operator")[0]
    if m.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"operator is {m.shape}, channel dim is {ch.dim}")
    return m


@dataclass(frozen=True)
class PreservationReport:
    preserved: bool
    residual: float


def statistics_preserved(
    ch: KrausChannel, e, tol: Tolerances = DEFAULT_TOL
) -> PreservationReport:
    """Decide whether ``tr(E rho) = tr(E phi(rho))`` for every density matrix.

    Operationalized exactly as the adjoint channel fixing E:
    ``residual = max |phi^dagger(E) - E|``.
    """
    m = _psd_operator(ch, e, tol)
    residual = max_abs(ch.adjoint().apply(m) - m)
    return PreservationReport(preserved=residual <= tol.residual, residual=residual)


@dataclass(frozen=True, eq=False)
class StructuralTerm:
    weight: float
    subspace: Subspace


@dataclass(frozen=True, eq=False)
class StructuralDecomposition:
    """A preserved element written as nonnegative weights on invariant eigenspaces."""

    terms: tuple[StructuralTerm, ...]


@dataclass(frozen=True, eq=False)
class StructuralFailure:
    """First spectral eigenspace of a non-preserved element that is not invariant."""

    witness_subspace: Subspace


@dataclass(frozen=True, eq=False)
class ElementReport:
    preserved: bool
    residual: float
    structure: StructuralDecomposition | StructuralFailure


def _element_report(ch: KrausChannel, adjoint, m, w, v, tol: Tolerances, projective=False):
    """Decide the preservation of an element M, Hermitian to the bit, by ``adjoint``
    fixing it, and scan its eigenspaces (eigenpairs w, v) descending: eigenvalues grouped
    at ``tol.eigencluster``, or for a projector rounded to 0 and 1 (range, then kernel).
    Also returns whether the first eigenspace, a nonzero projector's range, is invariant."""
    residual = max_abs(adjoint.apply(m) - m)
    preserved = residual <= tol.residual
    clusters = cluster_eigenvalues(np.rint(w) if projective else w, tol.eigencluster)

    terms = []
    for idx in reversed(clusters):  # descending eigenvalue
        sub = Subspace(ch.dim, v[:, idx])
        if not is_invariant_subspace(ch, sub, tol).invariant:
            if preserved:
                raise ToleranceFailure(
                    "element is preserved but one of its eigenspaces failed the "
                    "invariance check; eigencluster tolerance is inconsistent"
                )
            return ElementReport(preserved, residual, StructuralFailure(sub)), bool(terms)
        terms.append(StructuralTerm(weight=max(float(np.mean(w[idx])), 0.0), subspace=sub))
    if not preserved:
        raise ToleranceFailure(
            "element is not preserved yet every eigenspace passed the invariance "
            "check; tolerances are inconsistent"
        )
    return ElementReport(preserved, residual, StructuralDecomposition(terms=tuple(terms))), True


def povm_structural_decomposition(ch: KrausChannel, e, tol: Tolerances = DEFAULT_TOL):
    """Spectral form of a POVM element against the channel's block structure.

    For a preserved element every eigenspace is an invariant subspace and the
    element equals the weighted sum of their projectors; for a non-preserved
    element the first non-invariant eigenspace (scanning eigenvalues in
    descending order) is returned as a witness.
    """
    m = _psd_operator(ch, e, tol)  # (E + E^dagger) / 2, Hermitian to the bit
    return _element_report(ch, ch.adjoint(), m, *np.linalg.eigh(m), tol)[0].structure


def violation_witness(ch: KrausChannel, e, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A pure density matrix whose statistics the channel visibly changes.

    Built from the top eigenvector (by magnitude) of ``E - phi^dagger(E)``;
    the achieved gap ``|tr(E rho) - tr(E phi(rho))|`` equals that eigenvalue's
    magnitude.
    """
    m = _psd_operator(ch, e, tol)
    diff = m - ch.adjoint().apply(m)
    if max_abs(diff) <= tol.residual:
        raise NoViolation("element statistics are preserved; no witness exists")
    w, v = hermitian_eig(diff, tol)
    x = v[:, int(np.argmax(np.abs(w)))]
    return np.outer(x, x.conj())


@dataclass(frozen=True, eq=False)
class MeasurementReport:
    """Per-element preservation verdicts, plus the projective-only cross-checks."""

    elements: tuple[ElementReport, ...]
    all_preserved: bool
    commute: CommutationReport | None = None
    ranges_invariant: bool | None = None


def measurement_preserved(
    ch: KrausChannel, m: Povm | ProjectiveMeasurement, tol: Tolerances = DEFAULT_TOL
) -> MeasurementReport:
    """Aggregate the per-element checks over a measurement, in one pass.

    For projective measurements, three criteria are evaluated: all elements
    preserved, the channel fixing each range's projector (the first eigenspace of
    its element's scan; a zero projector's range {0} passes) and the measurement
    channel commuting with it. The first two are equivalent and imply the third; a
    violation raises ToleranceFailure. The third alone is possible (depolarizing
    commutes with every unital channel).
    """
    if m.dim != ch.dim:
        raise DimensionMismatch(f"measurement dim {m.dim} != channel dim {ch.dim}")
    projective = isinstance(m, ProjectiveMeasurement)
    h = np.stack(m.projectors if projective else m.elements)
    h += h.conj().transpose(0, 2, 1)  # (E + E^dagger) / 2 in place, Hermitian to the bit
    h /= 2
    w, v = np.linalg.eigh(h)
    adj = ch.adjoint()
    reports, firsts = zip(*(_element_report(ch, adj, *x, tol, projective) for x in zip(h, w, v)))
    del h, adj  # not held through the commutator's products
    all_preserved = all(r.preserved for r in reports)

    commute = ranges_invariant = None
    if projective:
        ranges = _ranges(w, v)
        commute = _measurement_commutes(ch, m, tol, ranges)
        ranges_invariant = all(first or not r for first, r in zip(firsts, ranges[0]))
        if all_preserved != ranges_invariant:
            raise ToleranceFailure(
                "per-element preservation and projector-range invariance "
                f"disagree (preserved={all_preserved}, invariant={ranges_invariant}); "
                "tolerances are inconsistent"
            )
        if ranges_invariant and not commute.commute:
            raise ToleranceFailure(
                "every projector range is invariant yet the measurement channel "
                f"fails to commute (residual={commute.residual:.3e}); "
                "tolerances are inconsistent"
            )
    return MeasurementReport(reports, all_preserved, commute, ranges_invariant)
