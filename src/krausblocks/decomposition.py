"""Invariant subspaces, the irreducible block decomposition, channel
restriction, and matching of two decompositions.

A subspace is invariant exactly when the channel fixes its projector;
equivalently all Kraus operators are block-diagonal with respect to it. The
decomposition routine solves the commutant once and splits the space in one
step along the eigenspaces of the commutant projection of a random Hermitian
matrix (so the split depends on the commutant and the seed, not on its
basis), redrawn until the commutant compresses to the scalars (is
irreducible) on every eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel
from .errors import (
    DimensionMismatch,
    MultisetMismatch,
    NotInvariant,
    ToleranceFailure,
)
from .fixed_points import CommutantBasis, commutant_basis
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    cluster_eigenvalues,
    frozen,
    hermitian_eig,
    max_abs,
    orthonormal_complement,
    require_orthonormal,
    seeded_rng,
)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace given by orthonormal basis columns in the ambient space."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        if b.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis has {b.shape[0]} rows, ambient dim is {self.ambient_dim}"
            )
        if b.shape[1] < 1 or b.shape[1] > self.ambient_dim:
            raise DimensionMismatch(f"basis must have between 1 and {self.ambient_dim} columns")
        require_orthonormal(b, DEFAULT_TOL)
        object.__setattr__(self, "basis", frozen(b))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement(self) -> "Subspace":
        return Subspace(self.ambient_dim, orthonormal_complement(self.basis, self.ambient_dim))

    @classmethod
    def span(cls, vectors) -> "Subspace":
        """Subspace spanned by the given (not necessarily orthonormal) columns."""
        v = np.asarray(vectors, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        q, r = np.linalg.qr(v)
        keep = np.abs(np.diagonal(r)) > DEFAULT_TOL.nullspace * max(1.0, max_abs(r))
        return cls(v.shape[0], q[:, keep])


@dataclass(frozen=True, eq=False)
class IrisDecomposition:
    """Ordered orthogonal blocks covering the ambient space, each certified
    irreducible (restricted commutant of size one), with the channel's
    commutant they were split from when known."""

    ambient_dim: int
    blocks: tuple[Subspace, ...]
    irreducibility_certificates: tuple[int, ...]
    commutant: CommutantBasis | None = None
    # the block bases side by side, in block order: a unitary once checked
    frame: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.blocks) != len(self.irreducibility_certificates):
            raise DimensionMismatch("one certificate per block required")
        if any(c != 1 for c in self.irreducibility_certificates):
            raise ToleranceFailure("every block must certify a commutant count of 1")
        if any(s.ambient_dim != self.ambient_dim for s in self.blocks):
            raise DimensionMismatch("all blocks must live in the same ambient space")
        total = sum(s.dim for s in self.blocks)
        if total != self.ambient_dim:
            raise DimensionMismatch(
                f"block dimensions sum to {total}, ambient dim is {self.ambient_dim}"
            )
        # pairwise orthogonal blocks: their bases together are orthonormal
        object.__setattr__(self, "frame", frozen(np.hstack([s.basis for s in self.blocks])))
        require_orthonormal(self.frame, DEFAULT_TOL)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.blocks)

    def dimension_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.block_dims))


@dataclass(frozen=True)
class InvarianceReport:
    invariant: bool
    residual: float


def is_invariant_subspace(
    ch: KrausChannel, s: Subspace, tol: Tolerances = DEFAULT_TOL
) -> InvarianceReport:
    """Projector-fixing test: S is invariant iff ``apply(ch, P_S) = P_S``."""
    if s.ambient_dim != ch.dim:
        raise DimensionMismatch(f"subspace ambient dim {s.ambient_dim} != channel dim {ch.dim}")
    p = s.projector()
    residual = max_abs(ch.apply(p) - p)
    return InvarianceReport(invariant=residual <= tol.residual, residual=residual)


def offdiagonal_residual(ch: KrausChannel, s: Subspace) -> float:
    """Largest off-diagonal Kraus matrix element across the S / S-perp split.

    Vanishes exactly when S (and its complement) are invariant, i.e. when
    every Kraus operator is block-diagonal in a basis adapted to S.
    """
    if s.ambient_dim != ch.dim:
        raise DimensionMismatch(f"subspace ambient dim {s.ambient_dim} != channel dim {ch.dim}")
    if s.dim == s.ambient_dim:
        return 0.0
    a = ch.kraus
    b = s.basis
    c = orthonormal_complement(b, s.ambient_dim)
    return max(max_abs(c.conj().T @ a @ b), max_abs(b.conj().T @ a @ c))


def restrict(ch: KrausChannel, s: Subspace, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Channel restricted to an invariant subspace, Kraus ops ``B^dagger A_i B``."""
    report = is_invariant_subspace(ch, s, tol)
    if not report.invariant:
        raise NotInvariant(
            f"subspace is not invariant (residual={report.residual:.3e})",
            residual=report.residual,
        )
    b = s.basis
    return KrausChannel.from_kraus(b.conj().T @ ch.kraus @ b, tol)


def _canonical_basis(basis: np.ndarray) -> np.ndarray:
    """Re-orthonormalize and fix column phases so output is reproducible.

    Each column is rotated so its largest-magnitude entry is real positive.
    """
    q, _ = np.linalg.qr(basis)
    out = np.array(q)
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        phase = col[i] / abs(col[i])
        out[:, j] = col * phase.conjugate()
    return out


def _block_sort_key(s: Subspace):
    p = s.projector()
    i = int(np.argmax(np.real(np.diagonal(p))))
    lead = np.round(p[:, i] / np.sqrt(p[i, i].real), 9)
    return (s.dim, tuple(float(x) for pair in zip(lead.real, lead.imag) for x in pair))


_MAX_DRAWS = 8  # random fixed operators tried before a split fails


def _split(commutant: CommutantBasis, rng: np.random.Generator, tol: Tolerances) -> list:
    """Orthonormal bases of the irreducible blocks: the eigenspaces of the
    commutant projection of a random traceless Hermitian matrix, redrawn while
    it merges blocks (an eigenspace fails :meth:`CommutantBasis.is_scalar_on`)."""
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


def iris_decompose(
    ch: KrausChannel,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
    commutant: CommutantBasis | None = None,
) -> IrisDecomposition:
    """Decompose the space into irreducible invariant blocks of the channel.

    The space is split once along the eigenspaces of a random element of the
    channel's commutant, solved here unless ``commutant`` passes in that solve.
    Every Kraus operator is simultaneously block-diagonal with respect to the
    returned blocks (checked in the ambient space), the commutant compresses
    to the scalars on each block, and the sorted dimension list is
    independent of ``seed`` and of the Kraus representation. Deterministic
    for a fixed seed.

    Blocks are ordered by dimension ascending, ties broken by the rounded
    column ``P[:, i] / sqrt(P_ii)`` of the block projector at its largest
    diagonal entry. Blocks and order depend only on the commutant and
    ``seed``; the basis inside a block of dimension above 1 is set by rounding.
    """
    if commutant is None:
        commutant = commutant_basis(ch, tol)
    elif commutant.dim != ch.dim:
        raise DimensionMismatch(f"commutant dim {commutant.dim} != channel dim {ch.dim}")
    bases = _split(commutant, seeded_rng(seed), tol)

    blocks = sorted(
        (Subspace(ch.dim, _canonical_basis(b)) for b in bases), key=_block_sort_key
    )
    for s in blocks:
        if offdiagonal_residual(ch, s) > tol.residual:
            raise ToleranceFailure(
                "a recovered block leaves off-diagonal Kraus weight above tol.residual"
            )
        report = is_invariant_subspace(ch, s, tol)
        if not report.invariant:
            raise ToleranceFailure(
                f"a recovered block failed the invariance check (residual={report.residual:.3e})"
            )
    return IrisDecomposition(
        ambient_dim=ch.dim,
        blocks=tuple(blocks),
        irreducibility_certificates=(1,) * len(blocks),
        commutant=commutant,
    )


@dataclass(frozen=True)
class MatchingComponent:
    """A connected component of the block-overlap graph."""

    left_block_indices: tuple[int, ...]
    right_block_indices: tuple[int, ...]
    common_dimension_multiset: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionMatching:
    components: tuple[MatchingComponent, ...]
    bijection: tuple[tuple[int, int], ...]


def match_decompositions(
    d1: IrisDecomposition, d2: IrisDecomposition, tol: Tolerances = DEFAULT_TOL
) -> DecompositionMatching:
    """Match two decompositions through the bipartite block-overlap graph.

    Blocks overlap when a basis vector v of the left one has squared overlap
    mass ``sum_k |<v|b_k>|^2`` with the right one above ``tol.residual``, all
    read from the one product ``d1.frame^dagger d2.frame``. Connected
    components (nodes: left blocks, then right blocks; ordered by smallest
    node) must hold equally many blocks of equal dimensions on both sides,
    else MultisetMismatch: an input is not a decomposition of the same
    channel. A dimension-preserving bijection is emitted.
    """
    if d1.ambient_dim != d2.ambient_dim:
        raise DimensionMismatch("decompositions live in different ambient spaces")
    nl = d1.n_blocks
    mass = np.abs(d1.frame.conj().T @ d2.frame) ** 2  # per left and right basis vector
    mass = np.add.reduceat(mass, np.cumsum((0,) + d2.block_dims[:-1]), axis=1)
    overlap = np.maximum.reduceat(mass, np.cumsum((0,) + d1.block_dims[:-1]), axis=0)

    # union-find with path halving; each root is its component's smallest node
    parent = list(range(nl + d2.n_blocks))

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for i, j in zip(*np.nonzero(overlap > tol.residual)):
        a, b = root(int(i)), root(nl + int(j))
        parent[max(a, b)] = min(a, b)
    roots = [root(u) for u in range(len(parent))]

    components: list[MatchingComponent] = []
    bijection: list[tuple[int, int]] = []
    for r in sorted(set(roots)):
        left = [i for i in range(nl) if roots[i] == r]
        right = [j for j in range(d2.n_blocks) if roots[nl + j] == r]
        left_dims = sorted(d1.blocks[i].dim for i in left)
        right_dims = sorted(d2.blocks[j].dim for j in right)
        if len(left) != len(right) or left_dims != right_dims:
            raise MultisetMismatch(
                f"component has {len(left)} left blocks {left_dims} vs "
                f"{len(right)} right blocks {right_dims}"
            )
        components.append(
            MatchingComponent(
                left_block_indices=tuple(left),
                right_block_indices=tuple(right),
                common_dimension_multiset=tuple(left_dims),
            )
        )
        pair_left = sorted(left, key=lambda i: (d1.blocks[i].dim, i))
        pair_right = sorted(right, key=lambda j: (d2.blocks[j].dim, j))
        bijection.extend(zip(pair_left, pair_right))

    bijection.sort()
    return DecompositionMatching(components=tuple(components), bijection=tuple(bijection))
