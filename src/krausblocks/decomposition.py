"""Invariant subspaces, the irreducible block decomposition, channel
restriction, and matching of two decompositions.

A subspace is invariant exactly when the channel fixes its projector;
equivalently all Kraus operators are block-diagonal with respect to it. The
decomposition works in ``d x d`` arrays only: it draws a random Hermitian
element H of the algebra the Kraus operators generate and spins each
irreducible block up from a random vector in an eigenspace of H (the
smallest subspace every Kraus operator maps into itself), certified by a
simple spectrum of H on the block. The blocks therefore depend on the Kraus
operators and the seed. Near-reducible inputs, where that split is
ill-conditioned, are refined instead: subspace iteration with the
symmetrized channel finds the operators that commute with every Kraus
operator to within the null-space cut, and the space splits along the
eigenspaces of a random one of them.
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


@dataclass(frozen=True)
class SplitDecision:
    """Which path split the space, ``"spin"`` or ``"refined"``, and how far
    its deciding quantities were from their cutoffs. ``closure_margin`` is
    the smallest singular value accepted while closing a block under the
    Kraus operators, over the rank cut; ``eigengap_margin`` is the smallest
    gap between eigenvalues of the drawn element on one block, over
    ``tol.eigencluster``. Each is None where no block needed it (every block
    one-dimensional), and both are None on the refined path."""

    method: str
    closure_margin: float | None = None
    eigengap_margin: float | None = None


@dataclass(frozen=True, eq=False)
class IrisDecomposition:
    """Ordered orthogonal irreducible blocks covering the ambient space, the
    block indices of each Wedderburn component's m_c copies in block order
    (the commutant counts ``sum_c m_c^2``), and the split path when known."""

    ambient_dim: int
    blocks: tuple[Subspace, ...]
    components: tuple[tuple[int, ...], ...]
    split: SplitDecision | None = None
    # the block bases side by side, in block order: a unitary once checked
    frame: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if sorted(j for c in self.components for j in c) != list(range(len(self.blocks))):
            raise DimensionMismatch("the components must hold every block exactly once")
        if any(len({self.blocks[j].dim for j in c}) != 1 for c in self.components):
            raise DimensionMismatch("the copies of one component must have one dimension")
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

    @property
    def commutant_count(self) -> int:
        return sum(len(c) ** 2 for c in self.components)

    def dimension_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.block_dims))


def _images(a: np.ndarray, b: np.ndarray):
    """The images ``A_i B`` side by side as ``d x (m n)`` arrays, m Kraus
    operators at a time, at most ``d^3`` entries each."""
    d, n = b.shape
    chunk = max(1, d * d // n)
    for i in range(0, len(a), chunk):
        ops = a[i : i + chunk]
        yield (ops.reshape(-1, d) @ b).reshape(len(ops), d, n).transpose(1, 0, 2).reshape(d, -1)


@dataclass(frozen=True)
class InvarianceReport:
    invariant: bool
    residual: float


def is_invariant_subspace(
    ch: KrausChannel, s: Subspace, tol: Tolerances = DEFAULT_TOL
) -> InvarianceReport:
    """Projector-fixing test: S is invariant iff ``apply(ch, P_S) = P_S``.

    ``apply(ch, B B^dagger)`` is formed as ``sum_i (A_i B)(A_i B)^dagger``, a
    few Kraus operators at a time: ``O(k d^2 dim S)`` time.
    """
    if s.ambient_dim != ch.dim:
        raise DimensionMismatch(f"subspace ambient dim {s.ambient_dim} != channel dim {ch.dim}")
    image = -s.projector()
    for y in _images(ch.kraus, s.basis):
        image += y @ y.conj().T
    residual = max_abs(image)
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
    return max(max_abs(c.conj().T @ (a @ b)), max_abs((b.conj().T @ a) @ c))


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
    """The basis of a block fixed by its projector alone.

    The columns B are re-orthonormalized and rotated onto the eigenvectors Y
    of ``B^dagger D B`` for the fixed diagonal ``D = diag(0, 1, ..., d - 1)``,
    which every orthonormal basis of the span rotates to alike; then each
    column of ``B Y`` is rotated so its largest-magnitude entry is real
    positive. Where ``B^dagger D B`` has a repeated eigenvalue, the basis
    inside that eigenspace is still set by rounding.
    """
    q, _ = np.linalg.qr(basis)
    _, y = np.linalg.eigh((q.conj().T * np.arange(len(q))) @ q)
    out = q @ y
    lead = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    return out * (lead.conj() / np.abs(lead))


def _block_sort_key(s: Subspace):
    p = s.projector()
    i = int(np.argmax(np.real(np.diagonal(p))))
    lead = np.round(p[:, i] / np.sqrt(p[i, i].real), 9)
    return (s.dim, tuple(float(x) for pair in zip(lead.real, lead.imag) for x in pair))


_MAX_DRAWS = 8  # random elements drawn before a spin gives up
_CLOSURE_FLOOR = 100.0  # accepted closure singular values below this many cuts: refine
_LOOSE_CUT = 1e-5  # relative rank cut of a spin that seeds the refined path
_MAX_SWEEPS = 200  # subspace-iteration sweeps of the refined path


def _orthogonalized(y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``y`` with the span of the orthonormal columns ``q`` projected out, twice."""
    for _ in range(2):
        y = y - q @ (q.conj().T @ y)
    return y


def _spin(a: np.ndarray, frame: np.ndarray, n: int, cut: float) -> tuple[int, float]:
    """Close the unit column ``frame[:, n]`` under the Kraus operators ``a``.

    The images ``A_i F`` of the newest columns F, with ``frame[:, :top]``
    projected out, are folded a few operators at a time into a ``d x d``
    factor with their column space and singular values; the singular vectors
    above ``cut`` become the next columns, until none is left or the frame is
    full. Returns ``top``, the end of the block ``frame[:, n:top]``, and the
    smallest singular value accepted (inf if none).
    """
    d = a.shape[1]
    lo, top, smallest = n, n + 1, np.inf
    while lo < top < d:
        r = np.zeros((d, 0), dtype=complex)
        for image in _images(a, frame[:, lo:top]):
            y = _orthogonalized(np.concatenate([r, image], axis=1), frame[:, :top])
            r = np.linalg.qr(y.conj().T, mode="r").conj().T if y.shape[1] > d else y
        u, s, _ = np.linalg.svd(r, full_matrices=False)
        grown = min(int(np.count_nonzero(s > cut)), d - top)
        if grown:
            smallest = min(smallest, float(s[grown - 1]))
        frame[:, top : top + grown] = u[:, :grown]
        lo, top = top, top + grown
    return top, smallest


def _algebra_element(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random Hermitian element of the algebra the Kraus operators generate,
    ``H = sum_c H_c kron I_(m_c)`` in Wedderburn form, scaled to largest entry
    1: ``H = X + X^dagger`` with ``X = B_0 + B_1 B_2^dagger`` and
    ``B_j = sum_i c_ji A_i`` for a complex Gaussian c."""
    z = rng.standard_normal((2, 3, len(a)))
    b = np.tensordot(z[0] + 1j * z[1], a, axes=1)
    x = b[0] + b[1] @ b[2].conj().T
    h = x + x.conj().T
    return h / (max_abs(h) or 1.0)


def _spin_blocks(
    a: np.ndarray, h: np.ndarray, rng: np.random.Generator, tol: Tolerances, cut: float
):
    """Blocks spun from each eigenspace of the normalized Hermitian ``h`` in
    turn, from a random vector of the part not yet covered, until it is
    covered: the block bases, a list of (eigenspace dimension, indices of the
    bases spun from it), the smallest closure singular value and eigengap;
    None when ``h`` repeats an eigenvalue on a block, so the draw must be
    redrawn."""
    d = a.shape[1]
    frame = np.zeros((d, d), dtype=complex)
    n, bases, groups, closure, gap = 0, [], [], np.inf, np.inf
    w, v = np.linalg.eigh(h)  # X + X^dagger scaled by a real number: Hermitian to the bit
    for idx in cluster_eigenvalues(w, tol.eigencluster):
        first = len(bases)
        while n < d:
            u, s, _ = np.linalg.svd(_orthogonalized(v[:, idx], frame[:, :n]), full_matrices=False)
            room = u[:, s > 0.5]  # exactly 0 or 1: covered blocks reduce h
            if not room.shape[1]:
                break
            z = rng.standard_normal((2, d))
            x = room @ (room.conj().T @ (z[0] + 1j * z[1]))  # drawn in the ambient space
            frame[:, n] = x / np.linalg.norm(x)
            top, sigma = _spin(a, frame, n, cut)
            block = frame[:, n:top]
            gaps = np.diff(np.linalg.eigvalsh(block.conj().T @ h @ block))
            if np.any(gaps <= tol.eigencluster):
                return None
            closure, gap = min(closure, sigma), min(gap, float(np.min(gaps, initial=np.inf)))
            bases.append(block)
            n = top
        groups.append((len(idx), list(range(first, len(bases)))))
    return bases, groups, closure, gap


def _spin_draws(a: np.ndarray, rng: np.random.Generator, tol: Tolerances, cut: float):
    """:func:`_spin_blocks` of the first of up to ``_MAX_DRAWS`` random
    elements that has a simple spectrum on every block; None if none has."""
    for _ in range(_MAX_DRAWS):
        spun = _spin_blocks(a, _algebra_element(a, rng), rng, tol, cut)
        if spun is not None:
            return spun
    return None


def _spin_split(a: np.ndarray, rng: np.random.Generator, tol: Tolerances):
    """Split the space in ``d x d`` work: block bases, the Wedderburn
    components as lists of indices into them, and the decision; the last two
    are None, with the bases spun (if any), when the refined path decides.

    The block a vector of one eigenspace of H (:func:`_algebra_element`)
    spins up to is irreducible when H has a simple spectrum on it (any
    operator commuting with the block's algebra is then diagonal in H's
    eigenbasis and fixes the cyclic vector); an eigenspace of ``H_c`` spins
    the ``m_c`` equal-dimension copies of component c. A repeated eigenvalue
    on a block is redrawn (:func:`_spin_draws`). The rank cut is
    ``tol.nullspace`` times the Kraus scale ``sqrt(sum_i |A_i|_F^2 / d)``.
    """
    d = a.shape[1]
    cut = tol.nullspace * float(np.sqrt(np.vdot(a, a).real / d))
    spun = _spin_draws(a, rng, tol, cut)
    if spun is None:
        return [], None, None
    bases, groups, closure, gap = spun
    if (
        sum(block.shape[1] for block in bases) != d
        or closure < _CLOSURE_FLOOR * cut
        or any(g and (len(g) != m or len({bases[j].shape[1] for j in g}) > 1) for m, g in groups)
    ):
        return bases, None, None
    components = [g for _, g in groups if g]
    decision = SplitDecision(
        "spin",
        closure_margin=None if closure == np.inf else closure / cut,
        eigengap_margin=None if gap == np.inf else gap / tol.eigencluster,
    )
    return bases, components, decision


def _real(x: np.ndarray) -> np.ndarray:
    """A stack of complex matrices as the rows of a real array, whose dot
    product is the trace inner product ``Re tr(X^dagger Y)``."""
    return np.ascontiguousarray(x.reshape(len(x), -1)).view(float)


def _orthonormal(x: np.ndarray, tol: Tolerances) -> np.ndarray:
    """An orthonormal basis, under the trace inner product, of the traceless
    Hermitian parts of the stack ``x``: one QR, without the directions whose
    pivot is at most ``tol.nullspace`` relative."""
    d = x.shape[-1]
    x = (x + x.conj().transpose(0, 2, 1)) / 2
    x = x - np.trace(x, axis1=1, axis2=2)[:, None, None] * (np.eye(d) / d)
    q, r = np.linalg.qr(_real(x).T)
    q = q[:, np.abs(np.diagonal(r)) > tol.nullspace * max_abs(r)]
    return np.ascontiguousarray(q.T).view(complex).reshape(-1, d, d)


def _commutators(a: np.ndarray, x: np.ndarray):
    """For the orthonormal Hermitian stack ``x``, a few Kraus operators at a
    time: the R factor of the commutators ``[A_i, X]`` stacked as real arrays,
    with the unsquared singular values of ``X -> ([A_i, X])_i`` on the span
    of ``x``; and ``G(X) = sum_i [A_i^dagger, [A_i, X]]``, its Gram map."""
    r, g, step = np.zeros((0, len(x))), np.zeros_like(x), max(1, a.shape[1] // len(x))
    for i in range(0, len(a), step):
        ops = a[i : i + step, None]
        c = ops @ x - x @ ops
        adj = ops.conj().transpose(0, 1, 3, 2)
        g += np.sum(adj @ c - c @ adj, axis=0)
        r = np.linalg.qr(np.concatenate([r, _real(c.transpose(1, 0, 2, 3)).T]), mode="r")
    return r, g


def _refined_split(a: np.ndarray, rng: np.random.Generator, tol: Tolerances, spun) -> list:
    """Split a near-reducible space in ``d x d`` work: the block bases.

    The operators commuting with every Kraus operator are the kernel of G
    (:func:`_commutators`), ``G = 2 (I - (phi + phi^dagger) / 2)`` for unital
    trace-preserving maps. Subspace iteration with ``I - G / 4`` starts from a
    random guard direction and the traceless block projectors of ``spun``
    (spun at ``tol.nullspace``) and of spins at the loose cut ``_LOOSE_CUT``,
    which splits wherever the coupling is small, and at the geometric mean of
    the two cuts, where a loose spin merged. Each sweep first rotates onto
    the commutators' right singular vectors, smallest first; the sweeps stop
    once all but the last direction move by at most ``tol.nullspace`` and no
    less than before, or after ``_MAX_SWEEPS``. Kept are the directions whose
    unsquared singular value is at most the null-space cut of the stacked
    commutators, ``tol.nullspace * sqrt(lambda_max)`` with ``lambda_max`` at
    its bound ``4 scale^2``; the space splits along the eigenspaces of a
    random kept element, or is one block if none is kept.
    """
    d = a.shape[1]
    scale = float(np.sqrt(np.vdot(a, a).real / d))
    z = rng.standard_normal((2, d, d))
    for cut in (_LOOSE_CUT, np.sqrt(_LOOSE_CUT * tol.nullspace)):
        loose = _spin_draws(a, rng, tol, cut * scale)
        spun = list(spun) + (loose[0] if loose else [])
    y = _orthonormal(np.stack([z[0] + 1j * z[1]] + [b @ b.conj().T for b in spun]), tol)
    if not len(y):  # d = 1: nothing is traceless
        return [np.eye(d, dtype=complex)]
    m, x, moved = max(len(y) - 1, 1), y, np.inf
    for _ in range(_MAX_SWEEPS):
        r, g = _commutators(a, y)
        _, sigma, vh = np.linalg.svd(r)
        y, g = np.tensordot(vh[::-1], y, axes=1), np.tensordot(vh[::-1], g, axes=1)
        u, v = _real(x[:m]), _real(y[:m])
        last, moved = moved, float(np.max(np.linalg.norm(v - (v @ u.T) @ u, axis=1)))
        if moved <= tol.nullspace and moved >= last:
            break
        x, y = y, _orthonormal(y - g / 4, tol)
    kept = y[sigma[::-1] <= 2.0 * tol.nullspace * scale]
    if not len(kept):
        return [np.eye(d, dtype=complex)]
    element = np.tensordot(rng.standard_normal(len(kept)), kept, axes=1)
    w, v = hermitian_eig(element / max_abs(element), tol)
    return [v[:, idx] for idx in cluster_eigenvalues(w, tol.eigencluster)]


def _components(bases, h: np.ndarray, tol: Tolerances) -> list[list[int]]:
    """The blocks grouped into Wedderburn components, as lists of block
    indices: the copies of one irreducible representation share the spectrum
    of their compression of ``H = sum_c H_c kron I_(m_c)``
    (:func:`_algebra_element`), which a random H separates between
    components, here beyond ``tol.eigencluster``."""
    spectra = [np.linalg.eigvalsh(b.conj().T @ h @ b) for b in bases]
    groups: list[list[int]] = []
    for j, w in enumerate(spectra):
        for g in groups:
            if len(spectra[g[0]]) == len(w) and max_abs(spectra[g[0]] - w) <= tol.eigencluster:
                g.append(j)
                break
        else:
            groups.append([j])
    return groups


def _certified_blocks(ch: KrausChannel, bases, tol: Tolerances):
    """The blocks in canonical basis and order, each checked block-diagonal
    and invariant (ToleranceFailure otherwise), and each base's position."""
    spaces = [Subspace(ch.dim, _canonical_basis(b)) for b in bases]
    order = sorted(range(len(spaces)), key=lambda j: _block_sort_key(spaces[j]))
    blocks = tuple(spaces[j] for j in order)
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
    return blocks, np.argsort(order).tolist()


def iris_decompose(
    ch: KrausChannel, tol: Tolerances = DEFAULT_TOL, seed: int = 0
) -> IrisDecomposition:
    """Decompose the space into irreducible invariant blocks of the channel.

    The space is split by spinning blocks up from a random element of the
    algebra the Kraus operators generate (:func:`_spin_split`). The refined
    path (:func:`_refined_split`) decides instead when the spin-up is near
    its cutoffs (an accepted closure singular value below 100 rank cuts,
    copies that do not add up, or ``_MAX_DRAWS`` draws that each repeat an
    eigenvalue on a block) or a spun block fails the checks below, and groups
    the Wedderburn components (:func:`_components`), which on the spin path
    are the copies spun from one eigenspace. ``split`` records the path.

    Every Kraus operator is simultaneously block-diagonal with respect to the
    returned blocks (checked in the ambient space), each block is
    irreducible, and the sorted dimension list is independent of ``seed``
    and of the Kraus representation. Deterministic for a fixed seed.

    Blocks are ordered by dimension ascending, ties broken by the rounded
    column ``P[:, i] / sqrt(P_ii)`` of the block projector at its largest
    diagonal entry. Where the decomposition is unique the blocks are too;
    isomorphic copies depend on the Kraus operators and ``seed``. The basis
    inside a block is fixed by the block's projector (:func:`_canonical_basis`).
    """
    rng = seeded_rng(seed)
    bases, components, decision = _spin_split(ch.kraus, rng, tol)
    try:
        blocks, rank = _certified_blocks(ch, bases, tol) if decision else (None, None)
    except ToleranceFailure:
        blocks = None  # a spun block leaks: the refined path decides
    if blocks is None:
        blocks, _ = _certified_blocks(ch, _refined_split(ch.kraus, rng, tol, bases), tol)
        rank, decision = range(len(blocks)), SplitDecision("refined")  # blocks sorted already
        components = _components([s.basis for s in blocks], _algebra_element(ch.kraus, rng), tol)
    return IrisDecomposition(
        ambient_dim=ch.dim,
        blocks=blocks,
        components=tuple(sorted(tuple(sorted(rank[j] for j in c)) for c in components)),
        split=decision,
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
