"""Unital-channel data model: validation, application, adjoint, superoperator
form, Kraus remixing, direct sums, and standard channel generators, whose
Weyl operators ``X^a Z^b`` are written entry by entry (:func:`_weyl`).

Channels are immutable after construction. The superoperator convention is
column-stacking: ``vec(A s B) = (B^T kron A) vec(s)``, so a Kraus channel has
superoperator ``sum_i conj(A_i) kron A_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NotUnitary, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    frozen,
    haar_unitary,
    max_abs,
    operator_stack,
    require_at_least,
    require_orthonormal,
    seeded_rng,
)


_PRODUCT_ENTRIES = 2**20  # entries of one chunk of a stacked product held at once: 16 MB


@dataclass(frozen=True)
class ValidationReport:
    """Trace-preservation and unitality residuals of a Kraus operator set."""

    is_trace_preserving: bool
    is_unital: bool
    tp_residual: float
    unital_residual: float


def validate_kraus(ops, tol: Tolerances = DEFAULT_TOL) -> ValidationReport:
    """Measure how far a Kraus set is from a unital trace-preserving channel.

    ``tp_residual`` is ``max |sum A_i^dagger A_i - I|`` and ``unital_residual``
    is ``max |sum A_i A_i^dagger - I|``; the flags compare them against
    ``tol.residual``. Both sums are GEMMs of the vertical stack ``[A_1; ...; A_k]``
    and the horizontal stack ``[A_1 ... A_k]``, a chunk of operators at a time.
    """
    a = operator_stack(ops)
    d = a.shape[1]
    tp, un = np.zeros((2, d, d), dtype=complex)
    step = max(1, _PRODUCT_ENTRIES // (d * d))
    for s in range(0, len(a), step):
        vertical = a[s : s + step].reshape(-1, d)
        horizontal = a[s : s + step].transpose(1, 0, 2).reshape(d, -1)
        tp += vertical.conj().T @ vertical
        un += horizontal @ horizontal.conj().T
    tp_res = max_abs(tp - np.eye(d))
    un_res = max_abs(un - np.eye(d))
    return ValidationReport(
        is_trace_preserving=tp_res <= tol.residual,
        is_unital=un_res <= tol.residual,
        tp_residual=tp_res,
        unital_residual=un_res,
    )


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A unital quantum operation given by its Kraus operators.

    ``kraus`` is stored as one read-only complex array of shape
    ``(n_kraus, dim, dim)``, uncopied when it is given as one, else copied;
    ``kraus[i]`` is the operator ``A_i``. Construct through :meth:`from_kraus`
    (or the generator functions below), which reject operator sets that are
    not unital and trace preserving.
    """

    dim: int
    kraus: np.ndarray = field(repr=False)

    def __post_init__(self):
        kraus = operator_stack(self.kraus)
        if kraus.shape[1] != self.dim:
            raise DimensionMismatch(f"Kraus operators act on dim {kraus.shape[1]}, not {self.dim}")
        object.__setattr__(self, "kraus", frozen(kraus))

    @classmethod
    def from_kraus(cls, ops, tol: Tolerances = DEFAULT_TOL) -> "KrausChannel":
        kraus = operator_stack(ops)
        report = validate_kraus(kraus, tol)
        if not (report.is_trace_preserving and report.is_unital):
            raise ValidationError(
                "Kraus operators are not a unital trace-preserving channel "
                f"(tp_residual={report.tp_residual:.3e}, "
                f"unital_residual={report.unital_residual:.3e})",
                report=report,
            )
        return cls(dim=kraus.shape[1], kraus=kraus)

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)

    def apply(self, sigma) -> np.ndarray:
        """Evaluate ``sum_i A_i sigma A_i^dagger``.

        ``sigma`` is one ``dim x dim`` operator or a stack of them with leading
        batch axes, ``(..., dim, dim)``; each operator is mapped on its own.
        """
        s = np.asarray(sigma, dtype=complex)
        if s.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(f"operator is {s.shape}, channel dim is {self.dim}")
        a = self.kraus
        return np.sum(a @ s[..., None, :, :] @ a.conj().transpose(0, 2, 1), axis=-3)

    def adjoint(self) -> "KrausChannel":
        """The adjoint channel, with Kraus operators ``A_i^dagger``.

        The adjoint of a unital trace-preserving map is again unital and
        trace preserving, so this validates cleanly.
        """
        kraus = self.kraus.conj().transpose(0, 2, 1)
        kraus.setflags(write=False)  # the conjugate is this channel's own copy
        return KrausChannel(dim=self.dim, kraus=kraus)

    def superoperator_matrix(self) -> np.ndarray:
        """The ``dim^2 x dim^2`` matrix acting on column-stacked operators."""
        d = self.dim
        # entry (p, q, r, s) is sum_i conj(A_i)[p, q] A_i[r, s]
        out = np.tensordot(self.kraus.conj(), self.kraus, axes=(0, 0))
        return out.transpose(0, 2, 1, 3).reshape(d * d, d * d)

    def remix(self, u, tol: Tolerances = DEFAULT_TOL) -> "KrausChannel":
        """Re-express the channel with Kraus operators ``B_j = sum_i u_ij A_i``.

        ``u`` must be ``k x k`` unitary with ``k >= n_kraus``; the operator
        list is zero-padded to ``k`` first. The resulting channel has the
        same superoperator.
        """
        um = as_matrix(u)
        k = um.shape[0]
        if um.shape != (k, k):
            raise DimensionMismatch("remix matrix must be square")
        if k < self.n_kraus:
            raise DimensionMismatch(
                f"remix unitary is {k}x{k} but the channel has {self.n_kraus} Kraus operators"
            )
        require_orthonormal(um, tol, NotUnitary)
        # the zero-padded operators add nothing, so only n_kraus rows of u enter
        mixed = np.tensordot(um[: self.n_kraus], self.kraus, axes=(0, 0))
        return KrausChannel.from_kraus(mixed, tol)


def superoperator_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Max-entry distance between the two superoperator matrices.

    Channel equality is always decided through this distance, never by
    comparing Kraus lists, which are only unique up to remixing.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"channel dims differ: {a.dim} vs {b.dim}")
    return max_abs(a.superoperator_matrix() - b.superoperator_matrix())


def direct_sum(
    a: KrausChannel,
    b: KrausChannel,
    conjugating_unitary=None,
    tol: Tolerances = DEFAULT_TOL,
) -> KrausChannel:
    """Block-diagonal sum of two channels, optionally conjugated by a unitary.

    The shorter Kraus list is zero-padded so both have the same length; each
    resulting operator is ``blockdiag(A_i, B_i)``, then ``U K U^dagger`` if a
    unitary is supplied.
    """
    d = a.dim + b.dim
    ops = np.zeros((max(a.n_kraus, b.n_kraus), d, d), dtype=complex)
    ops[: a.n_kraus, : a.dim, : a.dim] = a.kraus
    ops[: b.n_kraus, a.dim :, a.dim :] = b.kraus
    if conjugating_unitary is not None:
        u = as_matrix(conjugating_unitary)
        if u.shape != (d, d):
            raise DimensionMismatch(f"conjugating unitary must be {d}x{d}")
        require_orthonormal(u, tol, NotUnitary)
        ops = u @ ops @ u.conj().T
    return KrausChannel.from_kraus(ops, tol)


def _weyl(dim: int, shifts: int) -> np.ndarray:
    """The Weyl operators ``X^a Z^b`` for ``a < shifts`` and ``b < dim``, a-major:
    entry ``omega^(b j)`` at row ``(j + a) mod dim``, column j, with
    ``omega = exp(2 pi i / dim)``."""
    a, b, j = np.ogrid[:shifts, :dim, :dim]
    ops = np.zeros((shifts, dim, dim, dim), dtype=complex)
    ops[a, b, (j + a) % dim, j] = np.exp(2j * np.pi * (b * j % dim) / dim)
    return ops.reshape(-1, dim, dim)


def identity_channel(dim: int) -> KrausChannel:
    require_at_least("dim", dim, 1)
    return KrausChannel.from_kraus([np.eye(dim, dtype=complex)])


def unitary_channel(u, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Conjugation by a single unitary."""
    um = as_matrix(u)
    if um.shape[0] != um.shape[1]:
        raise DimensionMismatch("unitary must be square")
    require_orthonormal(um, tol, NotUnitary)
    return KrausChannel.from_kraus([um], tol)


def depolarizing_channel(dim: int, p: float) -> KrausChannel:
    """The map ``sigma -> (1-p) sigma + p tr(sigma) I / dim``.

    Realized with the ``dim^2`` Weyl operators: their uniform mixture is the
    completely depolarizing map, so weighting the identity by ``1 - p + p/dim^2``
    and the rest by ``p/dim^2`` reproduces the map exactly for every ``dim``.
    """
    require_at_least("dim", dim, 1)
    if not 0 < p <= 1:
        raise InvalidParameter(f"depolarizing strength must satisfy 0 < p <= 1, got {p}")
    ops = _weyl(dim, dim)
    ops[0] *= np.sqrt(1 - p + p / dim**2)
    ops[1:] *= np.sqrt(p / dim**2)
    ops.setflags(write=False)  # the channel keeps this stack uncopied
    return KrausChannel.from_kraus(ops)


def dephasing_channel(dim: int) -> KrausChannel:
    """Complete dephasing to the computational basis: ``Z^a / sqrt(dim)``.

    For ``dim = 2`` this is the familiar pair ``{I, Z} / sqrt(2)``.
    """
    require_at_least("dim", dim, 1)
    return KrausChannel.from_kraus(_weyl(dim, 1) / np.sqrt(dim))


def random_unital_channel(dim: int, n_unitaries: int, seed: int) -> KrausChannel:
    """Equal-weight mixture of ``n_unitaries`` Haar-random unitaries."""
    require_at_least("dim", dim, 1)
    require_at_least("n_unitaries", n_unitaries, 1)
    rng = seeded_rng(seed)
    ops = [haar_unitary(dim, rng) / np.sqrt(n_unitaries) for _ in range(n_unitaries)]
    return KrausChannel.from_kraus(ops)

