"""Measurement-statistics preservation under a unital channel.

A POVM element's statistics survive the channel for every input state exactly
when the adjoint channel fixes the element, which in turn happens exactly when
the element is a nonnegative combination of invariant-block projectors. For
projective measurements this is equivalent to the measurement channel
commuting with the channel under test. With ``L_P = conj(P) kron P``, the
product ``L_P L_phi`` is the superoperator of the Kraus set ``{P A_i}`` (and
``L_phi L_P`` that of ``{A_i P}``), so no Kronecker product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
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
    max_abs,
)


def _complete_family(dim: int, ops, family: str, noun: str, not_hermitian: str, check):
    """One pass over a measurement's operators: each is ``dim x dim``, Hermitian
    within 1e-10 (else ``not_hermitian`` is raised) and passes ``check(k, m,
    earlier)``; together they sum to the identity within 1e-9."""
    if not ops:
        raise InvalidMeasurement(f"a {family} needs at least one {noun}")
    mats = []
    for k, op in enumerate(ops):
        m = as_matrix(op)
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"{noun} {k} is {m.shape}, expected {dim}x{dim}")
        if max_abs(m - m.conj().T) > 1e-10:
            raise InvalidMeasurement(not_hermitian.format(k=k))
        check(k, m, mats)
        mats.append(frozen(m))
    if max_abs(sum(mats) - np.eye(dim)) > 1e-9:
        raise InvalidMeasurement(f"{noun}s do not sum to the identity within 1e-9")
    return tuple(mats)


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite list of PSD elements summing to the identity."""

    dim: int
    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        def psd(k, m, earlier):
            if float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()) < -1e-10:
                raise InvalidMeasurement(f"element {k} has an eigenvalue below -1e-10")

        mats = _complete_family(self.dim, self.elements, "POVM", "element",
                                "element {k} is not Hermitian within 1e-10", psd)
        object.__setattr__(self, "elements", mats)


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete family of mutually orthogonal projectors."""

    dim: int
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        def orthogonal_projector(k, m, earlier):
            if max_abs(m @ m - m) > 1e-10:
                raise InvalidMeasurement(f"projector {k} is not an orthogonal projector")
            for kk, other in enumerate(earlier):
                if max_abs(other @ m) > 1e-10:
                    raise InvalidMeasurement(f"projectors {kk} and {k} are not orthogonal")

        mats = _complete_family(self.dim, self.projectors, "projective measurement",
                                "projector", "projector {k} is not an orthogonal projector",
                                orthogonal_projector)
        object.__setattr__(self, "projectors", mats)


def projective_channel(m: ProjectiveMeasurement) -> KrausChannel:
    """The measurement channel ``rho -> sum_k P_k rho P_k``.

    Projectors are self-adjoint and complete, so this is unital and trace
    preserving by construction.
    """
    return KrausChannel.from_kraus(list(m.projectors))


def _check_projector(pi, tol: Tolerances) -> np.ndarray:
    p = as_matrix(pi)
    if p.shape[0] != p.shape[1]:
        raise NotAProjector("projector must be square")
    if max_abs(p - p.conj().T) > tol.hermitian * max(1.0, max_abs(p)):
        raise NotAProjector("matrix is not Hermitian")
    if max_abs(p @ p - p) > max(tol.residual, 1e-10):
        raise NotAProjector("matrix is not idempotent")
    return p


@dataclass(frozen=True)
class CommutationReport:
    commute: bool
    residual: float


def projection_intertwines(
    ch: KrausChannel, pi, tol: Tolerances = DEFAULT_TOL
) -> CommutationReport:
    """Check ``P phi(rho) P = phi(P rho P)`` for all rho, as superoperators.

    Equivalent to the range of P being an invariant subspace of the channel.
    ``residual = max |L_P L_phi - L_phi L_P|``, computed in O(k d^4) as the
    distance between the superoperators of ``{P A_i}`` and ``{A_i P}``.
    """
    p = _check_projector(pi, tol)
    if p.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"projector is {p.shape}, channel dim is {ch.dim}")
    left = KrausChannel(dim=ch.dim, kraus=p @ ch.kraus).superoperator_matrix()
    right = KrausChannel(dim=ch.dim, kraus=ch.kraus @ p).superoperator_matrix()
    residual = max_abs(left - right)
    return CommutationReport(commute=residual <= tol.residual, residual=residual)


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


def _adjoint_image(ch: KrausChannel, e, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Validate E as a PSD operator on the channel's space; return its
    Hermitian part and ``phi^dagger`` of it."""
    m = as_matrix(e)
    if m.shape[0] != m.shape[1]:
        raise NotPSD("operator must be square")
    if max_abs(m - m.conj().T) > 1e-8:
        raise NotPSD("operator is not Hermitian within 1e-8")
    m = (m + m.conj().T) / 2
    if float(np.linalg.eigvalsh(m).min()) < -1e-8:
        raise NotPSD("operator has an eigenvalue below -1e-8")
    if m.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"operator is {m.shape}, channel dim is {ch.dim}")
    return m, ch.adjoint().apply(m)


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
    m, image = _adjoint_image(ch, e, tol)
    residual = max_abs(image - m)
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


def _element_report(ch: KrausChannel, e, tol: Tolerances) -> ElementReport:
    """Validate E, decide its preservation, and give its spectral form."""
    m, image = _adjoint_image(ch, e, tol)
    residual = max_abs(image - m)
    preserved = residual <= tol.residual
    w, v = hermitian_eig(m, tol)
    clusters = cluster_eigenvalues(w, tol.eigencluster)

    terms = []
    for idx in reversed(clusters):  # descending eigenvalue
        sub = Subspace(ch.dim, v[:, idx])
        if not is_invariant_subspace(ch, sub, tol).invariant:
            if preserved:
                raise ToleranceFailure(
                    "element is preserved but one of its eigenspaces failed the "
                    "invariance check; eigencluster tolerance is inconsistent"
                )
            return ElementReport(preserved, residual, StructuralFailure(witness_subspace=sub))
        terms.append(StructuralTerm(weight=max(float(np.mean(w[idx])), 0.0), subspace=sub))
    if not preserved:
        raise ToleranceFailure(
            "element is not preserved yet every eigenspace passed the invariance "
            "check; tolerances are inconsistent"
        )
    return ElementReport(preserved, residual, StructuralDecomposition(terms=tuple(terms)))


def povm_structural_decomposition(ch: KrausChannel, e, tol: Tolerances = DEFAULT_TOL):
    """Spectral form of a POVM element against the channel's block structure.

    For a preserved element every eigenspace is an invariant subspace and the
    element equals the weighted sum of their projectors; for a non-preserved
    element the first non-invariant eigenspace (scanning eigenvalues in
    descending order) is returned as a witness.
    """
    return _element_report(ch, e, tol).structure


def violation_witness(ch: KrausChannel, e, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A pure density matrix whose statistics the channel visibly changes.

    Built from the top eigenvector (by magnitude) of ``E - phi^dagger(E)``;
    the achieved gap ``|tr(E rho) - tr(E phi(rho))|`` equals that eigenvalue's
    magnitude.
    """
    m, image = _adjoint_image(ch, e, tol)
    diff = m - image
    if max_abs(diff) <= tol.residual:
        raise NoViolation("element statistics are preserved; no witness exists")
    w, v = hermitian_eig((diff + diff.conj().T) / 2, tol)
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
    """Aggregate the per-element checks over a measurement.

    For projective measurements, three criteria are evaluated: all elements
    preserved, every projector range invariant, and the measurement channel
    commuting with the channel. The first two are equivalent, and invariance
    implies commutation; a violation of either proven implication raises
    ToleranceFailure. Commutation without invariance is genuinely possible
    (the depolarizing family commutes with every unital channel) and is
    reported as-is.
    """
    if m.dim != ch.dim:
        raise DimensionMismatch(f"measurement dim {m.dim} != channel dim {ch.dim}")
    projective = isinstance(m, ProjectiveMeasurement)
    reports = tuple(
        _element_report(ch, e, tol) for e in (m.projectors if projective else m.elements)
    )
    all_preserved = all(r.preserved for r in reports)

    commute = ranges_invariant = None
    if projective:
        commute = channels_commute(projective_channel(m), ch, tol)
        ranges_invariant = all(projection_intertwines(ch, p, tol).commute for p in m.projectors)
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
