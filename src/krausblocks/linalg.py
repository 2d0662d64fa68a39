"""Dense complex linear-algebra primitives with one shared tolerance policy.

All norms are max-absolute-entry unless noted; relative cutoffs divide by
the largest singular value. Matrices are dense ``numpy`` arrays; every
function is pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionMismatch, InvalidParameter, NotADensityMatrix, NotHermitian, NotOrthonormal, NotPSD
)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every module.

    hermitian: relative max-entry deviation in ``M - M^†`` (:func:`hermitian_part`).
    nullspace: relative singular-value cutoff for kernel extraction and rank.
    eigencluster: width for grouping near-degenerate eigenvalues into blocks.
    residual: operator-identity checks (unitality, fixing, ...) and :func:`psd_part`.
    optimizer: convergence target of the entropy optimizers, in bits.
    """

    hermitian: float = 1e-10
    nullspace: float = 1e-8
    eigencluster: float = 1e-7
    residual: float = 1e-9
    optimizer: float = 1e-4

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name!r} must be finite and strictly positive")


DEFAULT_TOL = Tolerances()


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def operator_stack(ops) -> np.ndarray:
    """Stack a nonempty sequence of ``d x d`` matrices into a complex
    ``(k, d, d)`` array; a complex array of that shape is returned uncopied."""
    try:
        a = np.asarray(ops, dtype=complex)
    except ValueError:
        raise DimensionMismatch("operators must all be square matrices of one size") from None
    if a.shape[:1] == (0,):
        raise DimensionMismatch("need at least one operator")
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    return a


def max_abs(m) -> float:
    """Max-absolute-entry norm; 0 for empty arrays."""
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def frozen(a) -> np.ndarray:
    """Read-only complex ``a``, copied unless it already is a read-only complex array."""
    if isinstance(a, np.ndarray) and a.dtype == complex and not a.flags.writeable:
        return a
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def require_orthonormal(b: np.ndarray, tol: Tolerances, error=NotOrthonormal) -> None:
    """Raise ``error`` when ``max |B^dagger B - I|`` exceeds ``tol.residual``: the
    one check of orthonormal columns, and of a unitary when B is square."""
    dev = max_abs(b.conj().T @ b - np.eye(b.shape[1]))
    if dev > tol.residual:
        raise error(f"max |B^dagger B - I| = {dev:.3e}")


def hermitian_part(m, tol: Tolerances, error=NotHermitian, name="matrix") -> np.ndarray:
    """``(M + M^dagger) / 2`` of a square M, the one Hermiticity check: raises ``error``
    about ``name`` unless ``max |M - M^dagger| <= tol.hermitian * max(1, max |M|)``."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} is {a.shape[0]}x{a.shape[1]}, not square")
    dev = max_abs(a - a.conj().T)
    if dev > tol.hermitian * max(1.0, max_abs(a)):
        raise error(f"{name} is not Hermitian: max |M - M^dagger| = {dev:.3e}")
    return (a + a.conj().T) / 2


def psd_part(m, tol: Tolerances, error=NotPSD, name="matrix") -> tuple[np.ndarray, np.ndarray]:
    """:func:`hermitian_part` of M and its ascending eigenvalues, the one PSD check:
    raises ``error`` unless the smallest eigenvalue is at least ``-tol.residual``."""
    h = hermitian_part(m, tol, error, name)
    w = np.linalg.eigvalsh(h)
    if float(w[0]) < -tol.residual:
        raise error(f"{name} has minimum eigenvalue {w[0]:.3e}, below -tol.residual")
    return h, w


def density_matrix(rho, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian part of ``rho``; NotADensityMatrix unless ``rho`` passes
    :func:`psd_part` and its trace is 1 within ``tol.residual``."""
    h, w = psd_part(rho, tol, NotADensityMatrix, "state")
    if abs(float(np.sum(w)) - 1.0) > tol.residual:
        raise NotADensityMatrix(f"trace is {np.sum(w):.10f}, not 1 within tol.residual")
    return h


def hermitian_eig(m, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (:func:`hermitian_part`).

    Returns ascending real eigenvalues and an orthonormal eigenvector
    matrix (columns). Raises NotHermitian / DimensionMismatch.
    """
    return np.linalg.eigh(hermitian_part(m, tol))


def orthonormal_complement(basis, ambient_dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``span(basis)``.

    ``basis`` holds orthonormal columns (checked against ``DEFAULT_TOL``) in a
    space of dimension ``ambient_dim``; the union of input and output columns
    is an orthonormal basis of the whole space. The output is the trailing
    columns of the complete QR factor of ``basis``.
    """
    b = np.asarray(basis, dtype=complex)
    if b.ndim == 1:
        b = b[:, None]
    if b.ndim != 2 or b.shape[0] != ambient_dim:
        raise DimensionMismatch(
            f"basis has {b.shape[0] if b.ndim == 2 else '?'} rows, ambient dim is {ambient_dim}"
        )
    if b.shape[1] > ambient_dim:
        raise DimensionMismatch("more columns than the ambient dimension")
    if b.shape[1] == 0:
        return np.eye(ambient_dim, dtype=complex)
    require_orthonormal(b, DEFAULT_TOL)
    return np.linalg.qr(b, mode="complete")[0][:, b.shape[1]:]


def cluster_eigenvalues(values: np.ndarray, width: float) -> list[np.ndarray]:
    """Group an ascending eigenvalue list by single-linkage with the given width.

    Returns index arrays, one per cluster, in ascending eigenvalue order.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return []
    breaks = np.nonzero(np.diff(v) > width)[0]
    return np.split(np.arange(v.size), breaks + 1)


def require_at_least(name: str, value: int, least: int) -> None:
    """Raise InvalidParameter when the integer argument ``value`` is below ``least``."""
    if value < least:
        raise InvalidParameter(f"{name} must be >= {least}")


def seeded_rng(seed: int) -> np.random.Generator:
    """``numpy.random.default_rng(seed)``, with InvalidParameter for a negative seed."""
    require_at_least("seed", seed, 0)
    return np.random.default_rng(seed)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian, phase-fixed diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))

