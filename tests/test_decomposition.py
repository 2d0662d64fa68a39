import numpy as np
import pytest

from krausblocks import (
    DecompositionMatching,
    DegenerateFixedState,
    IrisDecomposition,
    KrausChannel,
    MatchingComponent,
    Subspace,
    classify_fixed_state,
    commutant_basis,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    haar_unitary,
    identity_channel,
    iris_decompose,
    is_invariant_subspace,
    match_decompositions,
    offdiagonal_residual,
    random_unital_channel,
    restrict,
    superoperator_distance,
    unitary_channel,
    validate_kraus,
)
from krausblocks.errors import (
    DimensionMismatch,
    MultisetMismatch,
    NotInvariant,
    NotOrthonormal,
    ToleranceFailure,
)
from krausblocks import decomposition, fixed_points
from krausblocks.decomposition import _spin_split
from krausblocks.linalg import DEFAULT_TOL, max_abs

from tests import dense
from tests.dense import DenseCommutant, dense_commutant, dense_decompose, dense_split
from tests.test_golden import CASES as GOLDEN_CASES, NON_DEGENERATE, _isomorphic_copies
from tests.util import (
    count_calls,
    coupled_blocks,
    near_isomorphic_blocks,
    random_density,
    random_subspace,
    random_unit_vector,
    rotated_direct_sum,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


class TestSubspace:
    def test_projector(self):
        s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        p = s.projector()
        assert max_abs(p @ p - p) < 1e-12
        assert max_abs(p - p.conj().T) < 1e-12

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1e-3]], dtype=complex))

    def test_span(self):
        s = Subspace.span(np.array([[2.0, 2.0], [0.0, 1.0]], dtype=complex))
        assert s.dim == 2

    def test_decomposition_invariants(self):
        e1 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        with pytest.raises(Exception):
            IrisDecomposition(2, (e1, e1), ((0, 1),))  # not orthogonal
        with pytest.raises(Exception):
            IrisDecomposition(2, (e1,), ((0,),))  # dims don't cover

    @pytest.mark.parametrize("components, message", [
        (((0, 1), (1, 2)), "every block exactly once"),  # overlapping
        (((0,), (2,)), "every block exactly once"),  # block 1 left out
        (((0, 1, 2), (3,)), "every block exactly once"),  # no block 3
        (((0, 1), (2,), ()), "one dimension"),  # an empty component
        (((0,), (1, 2)), "one dimension"),  # copies of dimensions 1 and 2
    ], ids=["overlap", "missing", "extra", "empty", "unequal"])
    def test_decomposition_components(self, components, message):
        e = np.eye(4, dtype=complex)
        blocks = (Subspace(4, e[:, :1]), Subspace(4, e[:, 1:2]), Subspace(4, e[:, 2:]))
        with pytest.raises(DimensionMismatch, match=message):
            IrisDecomposition(4, blocks, components)

    def test_decomposition_ambient_dims(self):
        e1 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        e3 = Subspace(3, np.array([[0.0], [0.0], [1.0]], dtype=complex))
        with pytest.raises(DimensionMismatch, match="same ambient space"):
            IrisDecomposition(3, (e1, e3), ((0,), (1,)))


class TestInvariance:
    def test_full_space_invariant(self):
        ch = depolarizing_channel(3, 0.5)
        s = Subspace(3, np.eye(3, dtype=complex))
        r = is_invariant_subspace(ch, s)
        assert r.invariant and r.residual <= 1e-10

    def test_depolarizing_ray_not_invariant(self):
        # phi(P) - P = p (I/2 - P) has max entry p/2 = 0.25
        ch = depolarizing_channel(2, 0.5)
        s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        r = is_invariant_subspace(ch, s)
        assert not r.invariant
        assert abs(r.residual - 0.25) < 1e-12

    def test_embedded_block_invariant(self):
        ch = direct_sum(depolarizing_channel(2, 0.5), depolarizing_channel(3, 0.5))
        s = Subspace(5, np.eye(5, dtype=complex)[:, :2])
        r = is_invariant_subspace(ch, s)
        assert r.invariant and r.residual <= 1e-12


class TestOffdiagonal:
    def test_diagonal_unitary(self):
        ch = unitary_channel(Z)
        s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        assert offdiagonal_residual(ch, s) == 0.0

    def test_bit_flip(self):
        ch = unitary_channel(X)
        s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        assert abs(offdiagonal_residual(ch, s) - 1.0) < 1e-12

    def test_block_construction(self):
        ch = direct_sum(depolarizing_channel(2, 0.5), identity_channel(1))
        s = Subspace(3, np.eye(3, dtype=complex)[:, :2])
        assert offdiagonal_residual(ch, s) <= 1e-12

    def test_equivalence_with_projector_criterion(self):
        rng = np.random.default_rng(10)
        for trial in range(100):
            if trial % 2 == 0:
                ch, _, projectors = rotated_direct_sum((2, 2), seed=trial)
                w, v = np.linalg.eigh(projectors[0])
                s = Subspace(4, v[:, w > 0.5])
            else:
                ch, _, _ = rotated_direct_sum((2, 2), seed=trial)
                s = random_subspace(4, int(rng.integers(1, 4)), rng)
            inv = is_invariant_subspace(ch, s).invariant
            off = offdiagonal_residual(ch, s) <= 1e-9
            assert inv == off

    def test_complement_closure(self):
        rng = np.random.default_rng(20)
        for trial in range(50):
            ch, _, _ = rotated_direct_sum((1, 2), seed=trial + 500)
            s = random_subspace(3, int(rng.integers(1, 3)), rng)
            a = is_invariant_subspace(ch, s).invariant
            b = is_invariant_subspace(ch, s.complement()).invariant
            assert a == b


class TestDecompose:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_depolarizing_single_block(self, d):
        dec = iris_decompose(depolarizing_channel(d, 0.3), seed=1)
        assert dec.block_dims == (d,)
        assert dec.components == ((0,),) and dec.commutant_count == 1

    def test_dephasing_splits_into_rays(self):
        dec = iris_decompose(dephasing_channel(2), seed=0)
        assert dec.block_dims == (1, 1)
        # blocks are the computational rays (up to phase)
        got = sorted(int(np.argmax(np.abs(s.basis[:, 0]))) for s in dec.blocks)
        assert got == [0, 1]

    def test_rotated_blocks_recovered(self):
        ch, _, _ = rotated_direct_sum((2, 3), seed=6)
        dec = iris_decompose(ch, seed=4)
        assert dec.dimension_multiset() == (2, 3)

    def test_every_block_certified(self):
        ch, _, _ = rotated_direct_sum((1, 2, 3), seed=15)
        dec = iris_decompose(ch, seed=2)
        for s in dec.blocks:
            assert is_invariant_subspace(ch, s).invariant
            assert offdiagonal_residual(ch, s) <= 1e-9
            sub = restrict(ch, s)
            r = validate_kraus(sub.kraus)
            assert r.is_trace_preserving and r.is_unital
            assert commutant_basis(sub).count == 1

    def test_deterministic_given_seed(self):
        ch, _, _ = rotated_direct_sum((2, 2), seed=3)
        d1 = iris_decompose(ch, seed=9)
        d2 = iris_decompose(ch, seed=9)
        for a, b in zip(d1.blocks, d2.blocks):
            assert max_abs(a.basis - b.basis) == 0.0

    def test_multiset_stable_over_seeds_and_remix(self):
        ch, _, _ = rotated_direct_sum((2, 3), seed=8)
        ref = iris_decompose(ch, seed=0).dimension_multiset()
        for seed in range(1, 4):
            assert iris_decompose(ch, seed=seed).dimension_multiset() == ref
        u = haar_unitary(ch.n_kraus, np.random.default_rng(1))
        assert iris_decompose(ch.remix(u), seed=0).dimension_multiset() == ref

    def test_isomorphic_copies_split(self):
        # two identical irreducible blocks: the commutant is 4-dimensional
        # (M_2 tensor I_2), and one split of a random element of it lands on
        # two blocks of the right size
        base = depolarizing_channel(2, 0.7)
        ops = []
        for a in base.kraus:
            k = np.zeros((4, 4), dtype=complex)
            k[:2, :2] = a
            k[2:, 2:] = a
            ops.append(k)
        from krausblocks import KrausChannel

        ch = KrausChannel.from_kraus(ops)
        assert commutant_basis(ch).count == 4
        dec = iris_decompose(ch, seed=5)
        assert dec.dimension_multiset() == (2, 2)

    def test_identity_channel_rays(self):
        dec = iris_decompose(identity_channel(3), seed=7)
        assert dec.dimension_multiset() == (1, 1, 1)

    @pytest.mark.parametrize("dims", [(1, 2, 3), (6,)])
    def test_one_commutant_solve(self, monkeypatch, dims):
        # at most one: the spin path counts the commutant without solving it
        ch, _, _ = rotated_direct_sum(dims, seed=21)
        calls = count_calls(monkeypatch, fixed_points, "commutant_basis")
        dec = iris_decompose(ch, seed=0)
        assert len(calls) == 0
        assert dec.commutant_count == len(dims)

    @pytest.mark.parametrize(
        "eps, dims",
        [(1e-7, (5,)), (3e-9, None), (1e-10, (2, 3))],
        ids=["coupled", "ambiguous", "decoupled"],
    )
    def test_near_reducible_verdicts(self, eps, dims):
        # a coupling above the null-space cutoff makes one block; one below
        # it but above tol.residual must fail rather than return blocks that
        # leave off-diagonal Kraus weight; one below both splits cleanly
        ch = coupled_blocks(eps)
        if dims is None:
            with pytest.raises(ToleranceFailure):
                iris_decompose(ch)
        else:
            assert iris_decompose(ch).dimension_multiset() == dims


class TestComponents:
    """The Wedderburn components are grouped once, by iris_decompose."""

    def test_identity_is_one_component(self):
        dec = iris_decompose(identity_channel(3))
        assert dec.components == ((0, 1, 2),) and dec.commutant_count == 9

    def test_two_copies(self):
        # the one component holds both copies; its projector is the whole space
        projectors = []
        for seed in range(8):
            dec = iris_decompose(_isomorphic_copies(3, 2, seed), seed=seed)
            assert dec.components == ((0, 1),) and dec.block_dims == (3, 3)
            assert dec.commutant_count == 4
            projectors.append(sum(dec.blocks[j].projector() for j in dec.components[0]))
        for p in projectors:
            assert max_abs(p - projectors[0]) <= 1e-10

    def test_copies_beside_another_block(self):
        # the copies' component projector does not depend on the seed
        u = haar_unitary(7, np.random.default_rng(3))
        ch = direct_sum(_isomorphic_copies(2, 2, 5), random_unital_channel(3, 3, seed=9), u)
        projectors = []
        for seed in range(8):
            dec = iris_decompose(ch, seed=seed)
            assert dec.components == ((0, 1), (2,)) and dec.commutant_count == 5
            projectors.append(dec.blocks[0].projector() + dec.blocks[1].projector())
        for p in projectors:
            assert max_abs(p - projectors[0]) <= 1e-10

    def test_distinct_blocks_are_singletons(self):
        ch, _, _ = rotated_direct_sum((1, 2, 3), seed=21)
        dec = iris_decompose(ch)
        assert dec.components == ((0,), (1,), (2,)) and dec.commutant_count == 3

    def test_fixed_points_do_not_regroup(self):
        ch, _, _ = rotated_direct_sum((1, 2, 3), seed=21)
        assert commutant_basis(ch).count == 3
        assert commutant_basis(_isomorphic_copies(3, 2, 107)).count == 4
        identity = identity_channel(3)
        rho = random_density(3, np.random.default_rng(4))
        result = classify_fixed_state(identity, rho, iris_decompose(identity))
        assert isinstance(result, DegenerateFixedState)
        assert max_abs(result.commutant_projection - rho) <= 1e-10


class ScriptedDraws:
    """Random generator stand-in for ``dense_split``: returns the scripted draws
    first, then those of a seeded generator, and counts every draw."""

    def __init__(self, draws, seed=0):
        self.draws = list(draws)
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def standard_normal(self, shape):
        self.calls += 1
        return self.draws.pop(0) if self.draws else self.rng.standard_normal(shape)


def merging_draw(projectors, a, b):
    """A draw ``z`` whose Hermitian matrix ``X = Z + Z^dagger`` (``Z = z[0] + i z[1]``)
    is ``P_a + P_b``: its projection onto the commutant has the same
    eigenvalue on blocks ``a`` and ``b``."""
    x = projectors[a] + projectors[b]
    return np.stack([x.real, x.imag]) / 2


class TestOneSplit:
    """The dense oracle's split, which the tests compare the library against."""

    def setup_method(self):
        self.ch, _, self.projectors = rotated_direct_sum((1, 2, 3), seed=21)
        self.commutant = dense_commutant(self.ch)

    def test_merging_draw_is_redrawn(self):
        rng = ScriptedDraws([merging_draw(self.projectors, 1, 2)])
        bases = dense_split(self.commutant, rng, DEFAULT_TOL)
        assert rng.calls == 2
        assert sorted(b.shape[1] for b in bases) == [1, 2, 3]
        for b, p in zip(sorted(bases, key=lambda b: b.shape[1]), self.projectors):
            assert max_abs(b @ b.conj().T - p) < 1e-9

    def test_every_draw_merging_fails(self):
        c = merging_draw(self.projectors, 1, 2)
        rng = ScriptedDraws([c] * 8)
        with pytest.raises(ToleranceFailure):
            dense_split(self.commutant, rng, DEFAULT_TOL)
        assert rng.calls == 8

    def test_given_commutant_is_used(self, monkeypatch):
        monkeypatch.setattr(dense, "dense_commutant", None)  # no second solve
        dec = dense_decompose(self.ch, seed=3, commutant=self.commutant)
        assert dec.commutant_count == self.commutant.count == 3
        assert dec.split.method == "dense"
        # the spin path finds the same blocks, and the projectors fix the bases
        for a, b in zip(dec.blocks, iris_decompose(self.ch, seed=3).blocks):
            assert max_abs(a.basis - b.basis) <= 1e-10


def rotated_commutant(commutant, seed):
    """The same commutant with its traceless elements rotated by a random real
    orthogonal matrix: another orthonormal Hermitian basis, identity first."""
    h = commutant.hermitian_basis
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(h) - 1,) * 2))
    rotated = np.concatenate([h[:1], np.tensordot(q, h[1:], axes=1)])
    return DenseCommutant(commutant.dim, rotated, commutant.sigma, commutant.cut)


class TestBasisFreeSplit:
    """The dense oracle's blocks depend on the commutant, not on its basis."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: identity_channel(3),
            lambda: GOLDEN_CASES["copies_3x2"](),
            lambda: rotated_direct_sum((2, 2, 1), seed=41)[0],
        ],
        ids=["identity_d3", "copies_3x2", "shared_sum_2_2_1"],
    )
    def test_blocks_and_order_ignore_the_commutant_basis(self, make):
        ch = make()
        commutant = dense_commutant(ch)
        ref = dense_decompose(ch, seed=3, commutant=commutant)
        for seed in (1, 2):
            dec = dense_decompose(ch, seed=3, commutant=rotated_commutant(commutant, seed))
            assert dec.block_dims == ref.block_dims
            for a, b in zip(dec.blocks, ref.blocks):
                assert max_abs(a.projector() - b.projector()) <= 1e-10


def rotated(ch, seed):
    u = haar_unitary(ch.dim, np.random.default_rng(seed))
    return KrausChannel.from_kraus(u @ ch.kraus @ u.conj().T)


def depolarizing_sum(dims, seed):
    """Depolarizing blocks of the given dimensions and random strengths,
    summed with a shared environment under a Haar unitary."""
    rng = np.random.default_rng(seed)
    ch = depolarizing_channel(dims[0], rng.uniform(0.2, 0.9))
    for d in dims[1:]:
        ch = direct_sum(ch, depolarizing_channel(d, rng.uniform(0.2, 0.9)))
    return rotated(ch, seed)


# the channel shapes of the three benchmark workloads (blocks-mid, kraus-heavy,
# capacity-small), each at one seed
WORKLOAD_SHAPES = (
    [lambda s, d=d: rotated_direct_sum((d,), seed=s)[0] for d in (2, 3, 4, 5, 6, 16, 18)]
    + [lambda s, dims=dims: rotated_direct_sum(dims, seed=s)[0]
       for dims in ((1, 2), (1, 3), (2, 3), (1, 2, 3), (4, 5, 7), (3, 5, 7, 9))]
    + [lambda s, dims=dims: rotated_direct_sum(dims, seed=s, shared_environment=False)[0]
       for dims in ((1, 2), (1, 3), (1, 4), (7, 9), (2, 5, 9))]
    + [lambda s, d=d: rotated(depolarizing_channel(d, 0.2 + 0.07 * d), s)
       for d in (2, 3, 4, 5, 6, 8, 9, 11)]
    + [lambda s, dims=dims: depolarizing_sum(dims, s)
       for dims in ((3, 5), (4, 6), (3, 4, 5), (5, 7), (2, 6), (2, 3, 4), (3, 6))]
    + [lambda s, d=d: rotated(dephasing_channel(d), s) for d in (2, 3, 4, 5, 6)]
)


class ScriptedCoefficients:
    """Random generator stand-in for ``_spin_split``: the scripted draws serve
    the draws of their own shape (H's coefficients) first, every other draw
    comes from a seeded generator, and the shape of every draw is recorded."""

    def __init__(self, draws, seed=0):
        self.draws = list(draws)
        self.rng = np.random.default_rng(seed)
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        if self.draws and self.draws[0].shape == shape:
            return self.draws.pop(0)
        return self.rng.standard_normal(shape)


class TestSpinSplit:
    def setup_method(self):
        # I/sqrt(2) as a Kraus operator: coefficients on it alone draw H = c I
        ch, _, self.projectors = rotated_direct_sum((1, 2, 3), seed=21)
        ops = np.concatenate([np.eye(6)[None] / np.sqrt(2), ch.kraus / np.sqrt(2)])
        self.ch = KrausChannel.from_kraus(ops)
        self.scalar_draw = np.zeros((2, 3, len(ops)))
        self.scalar_draw[0, 0, 0] = 1.0

    def test_shared_eigenvalue_is_redrawn(self):
        rng = ScriptedCoefficients([self.scalar_draw])
        bases, groups, decision = _spin_split(self.ch.kraus, rng, DEFAULT_TOL)
        assert rng.shapes.count(self.scalar_draw.shape) == 2
        # three blocks, each the only copy of its component
        assert groups == [[0], [1], [2]] and decision.method == "spin"
        for b, p in zip(sorted(bases, key=lambda b: b.shape[1]), self.projectors):
            assert max_abs(b @ b.conj().T - p) < 1e-9

    def test_every_draw_shared_falls_back(self, monkeypatch):
        # the refined path decides, without a commutant solve, and finds the
        # blocks and the commutant count of the dense oracle
        rng = ScriptedCoefficients([self.scalar_draw] * 8, seed=4)
        scripted = [rng]
        monkeypatch.setattr(
            decomposition,
            "seeded_rng",
            lambda seed: scripted.pop() if scripted else np.random.default_rng(seed),
        )
        calls = count_calls(monkeypatch, fixed_points, "commutant_basis")
        dec = iris_decompose(self.ch, seed=4)
        assert rng.draws == [] and calls == [] and dec.split.method == "refined"
        assert dec.split.closure_margin is None and dec.split.eigengap_margin is None
        ref = dense_decompose(self.ch, seed=4)
        assert dec.block_dims == ref.block_dims and dec.commutant_count == ref.commutant_count
        for a, b in zip(dec.blocks, ref.blocks):
            assert max_abs(a.basis - b.basis) <= 1e-10

    @pytest.mark.parametrize(
        "name", ["identity_d3", "copies_3x2", "dephasing_d4"] + NON_DEGENERATE
    )
    def test_commutant_count(self, name):
        ch = GOLDEN_CASES[name]()
        dec = iris_decompose(ch, seed=3)
        assert dec.split.method == "spin"
        assert dec.commutant_count == dense_commutant(ch).count

    def test_identity_count(self):
        assert iris_decompose(identity_channel(3)).commutant_count == 9

    @pytest.mark.parametrize("name", NON_DEGENERATE)
    def test_no_dense_arrays(self, monkeypatch, name):
        ch = GOLDEN_CASES[name]()
        solves = count_calls(monkeypatch, fixed_points, "commutant_basis")
        supers = count_calls(monkeypatch, KrausChannel, "superoperator_matrix")
        dec = iris_decompose(ch, seed=3)
        assert dec.split.method == "spin"
        assert solves == [] and supers == []

    def test_margins_clear_the_fallback(self):
        dec = iris_decompose(rotated_direct_sum((2, 3), seed=8)[0], seed=1)
        assert dec.split.closure_margin >= 100 and dec.split.eigengap_margin > 1
        rays = iris_decompose(identity_channel(3)).split
        assert rays.closure_margin is None and rays.eigengap_margin is None

    def test_no_fallback_on_workload_shapes(self, monkeypatch):
        calls = count_calls(monkeypatch, fixed_points, "commutant_basis")
        for seed, make in enumerate(WORKLOAD_SHAPES):
            assert iris_decompose(make(seed), seed=seed).split.method == "spin"
        assert calls == []

    def test_fallback_in_the_near_reducible_band(self, monkeypatch):
        # the spin path hands some of these to the refined path, and every
        # verdict is the one the dense oracle gives
        def verdict(decompose, ch):
            try:
                return decompose(ch).dimension_multiset()
            except ToleranceFailure:
                return None

        band = [coupled_blocks(eps, seed) for eps in (1e-6, 1e-7, 1e-8) for seed in range(3)]
        oracle = [verdict(dense_decompose, ch) for ch in band]
        calls = count_calls(monkeypatch, decomposition, "_refined_split")
        assert [verdict(iris_decompose, ch) for ch in band] == oracle
        assert len(calls) >= 1


# near-reducible shapes, as coupled_blocks arguments: every block pair, one
# pair, or a chain with couplings eps, 30 eps and eps / 30 coupled
SWEEP_SHAPES = {
    "2+3": {},
    "2+3+4-one-pair": dict(dims=(2, 3, 4), couplings={(1, 2): 1.0}),
    "2+3+4-all-pairs": dict(dims=(2, 3, 4)),
    "1+2+2+3-chain": dict(dims=(1, 2, 2, 3), couplings={(0, 1): 1.0, (1, 2): 30.0, (2, 3): 1 / 30}),
    "3x2-copies": dict(dims=(2, 2, 2), copies=True),
}
SWEEP_EPS = (1e-5, 1e-6, 1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 3e-10, 1e-10, 1e-12)


def verdict(decompose, ch):
    """The block multiset and the commutant count ``sum_c m_c^2`` read off the
    components, or None on ToleranceFailure."""
    try:
        dec = decompose(ch)
    except ToleranceFailure:
        return None
    return dec.dimension_multiset(), sum(len(c) ** 2 for c in dec.components)


class TestRefinedSplit:
    @pytest.mark.parametrize("eps", SWEEP_EPS)
    @pytest.mark.parametrize("shape", SWEEP_SHAPES)
    def test_verdicts_of_the_oracle(self, shape, eps):
        for seed in range(3):
            ch = coupled_blocks(eps, seed, **SWEEP_SHAPES[shape])
            commutant = dense_commutant(ch)
            want = verdict(lambda c: dense_decompose(c, commutant=commutant), ch)
            got = verdict(iris_decompose, ch)
            assert want is None or want[1] == commutant.count
            if got != want:
                # allowed only where the oracle's deciding singular value is
                # within 10x of its cut
                ratio = commutant.sigma / commutant.cut
                assert np.any((ratio > 0.1) & (ratio < 10)), (seed, got, want)

    @pytest.mark.parametrize(
        "eps", [1e-5, 3e-6, 1e-6, 3e-7, 1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 3e-10, 1e-10, 1e-11, 1e-12]
    )
    def test_two_blocks_exactly(self, eps):
        for seed in range(10):
            ch = coupled_blocks(eps, seed)
            commutant = dense_commutant(ch)
            got = verdict(iris_decompose, ch)
            assert got == verdict(lambda c: dense_decompose(c, commutant=commutant), ch), seed
            assert got is None or got[1] == commutant.count, seed

    @pytest.mark.parametrize("n", [2, 3])
    def test_near_isomorphic_copies_match_the_oracle(self, n):
        # two blocks a distance of order 3e-8 from being copies: the count is
        # the dense commutant's or a ToleranceFailure, and one channel never
        # gets two different verdicts
        for channel_seed in range(6):
            ch = near_isomorphic_blocks(n, 3.2e-8, channel_seed)
            count = dense_commutant(ch).count
            verdicts = {verdict(lambda c: iris_decompose(c, seed=seed), ch) for seed in range(4)}
            verdicts.discard(None)
            assert len(verdicts) <= 1, (channel_seed, verdicts)
            assert all(v[1] == count for v in verdicts), (channel_seed, verdicts, count)

    def test_no_dense_arrays(self, monkeypatch):
        near = coupled_blocks(1e-10, 0, dims=(2, 3, 4))
        identity = identity_channel(4)
        rho = random_density(4, np.random.default_rng(2))
        supers = count_calls(monkeypatch, KrausChannel, "superoperator_matrix")
        assert iris_decompose(near).split.method == "refined"
        assert commutant_basis(near).count == 3
        result = classify_fixed_state(identity, rho, iris_decompose(identity))
        assert isinstance(result, DegenerateFixedState)
        assert commutant_basis(identity).count == 16
        assert supers == []

    def test_one_dimensional_leak_is_a_tolerance_failure(self):
        # off trace preservation by 2e-6: the spun block fails its invariance
        # check, and the refined path has no traceless direction to start from
        with pytest.raises(ToleranceFailure):
            iris_decompose(KrausChannel(1, np.array([[[1.0 + 1e-6]]])))

    @pytest.mark.parametrize("d", [3, 8])
    def test_leak_is_a_tolerance_failure(self, d):
        # a non-unital map from the bare constructor is rejected only by the
        # invariance check of its one block, the whole space
        ch = KrausChannel(d, random_unital_channel(d, 3, 0).kraus * (1 + 1e-6))
        with pytest.raises(ToleranceFailure, match="residual=2.000e-06"):
            iris_decompose(ch)

    @pytest.mark.parametrize("p", [1e-17, 3.2e-17, 1e-16])
    def test_near_identity_blocks_are_the_oracle_or_fail(self, p):
        # the rays of the near-identity channel move their projectors by only
        # p / 2, yet the off-diagonal gate keeps them from being returned as
        # blocks: the dense oracle finds one block here
        ch = depolarizing_channel(2, p)
        want = dense_decompose(ch)
        try:
            got = iris_decompose(ch)
        except ToleranceFailure:
            return
        assert got.block_dims == want.block_dims
        assert all(max_abs(a.projector() - b.projector()) <= 1e-10
                   for a, b in zip(got.blocks, want.blocks))

    def test_degenerate_state_at_d64(self, monkeypatch):
        # the identity fixes every state: its projection is the state
        ch = identity_channel(64)
        rho = random_density(64, np.random.default_rng(5))
        dec = iris_decompose(ch)
        solves = count_calls(monkeypatch, fixed_points, "commutant_basis")
        result = classify_fixed_state(ch, rho, dec)
        assert isinstance(result, DegenerateFixedState) and solves == []
        assert max_abs(result.commutant_projection - rho) <= 1e-9


class TestRestrict:
    def test_full_space(self):
        ch = depolarizing_channel(2, 0.5)
        s = Subspace(2, np.eye(2, dtype=complex))
        assert superoperator_distance(restrict(ch, s), ch) <= 1e-12

    def test_embedded_block_equals_constituent(self):
        a = depolarizing_channel(2, 0.5)
        ch = direct_sum(a, identity_channel(1))
        s = Subspace(3, np.eye(3, dtype=complex)[:, :2])
        assert superoperator_distance(restrict(ch, s), a) <= 1e-12

    def test_dephasing_ray_restricts_to_identity(self):
        ch = dephasing_channel(2)
        s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        sub = restrict(ch, s)
        assert sub.dim == 1
        assert superoperator_distance(sub, identity_channel(1)) <= 1e-12

    def test_rejects_non_invariant(self):
        ch = depolarizing_channel(2, 0.5)
        s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        with pytest.raises(NotInvariant):
            restrict(ch, s)


def closure_matching(d1, d2) -> DecompositionMatching:
    """Reference matcher: overlap masses block pair by block pair, components
    from the boolean transitive closure, ordered by smallest node."""
    nl, n = d1.n_blocks, d1.n_blocks + d2.n_blocks
    reach = np.eye(n, dtype=bool)
    for i, a in enumerate(d1.blocks):
        for j, b in enumerate(d2.blocks):
            masses = np.sum(np.abs(a.basis.conj().T @ b.basis) ** 2, axis=1)
            reach[i, nl + j] = reach[nl + j, i] = np.max(masses) > DEFAULT_TOL.residual
    for _ in range(n):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    components, bijection = [], []
    for first in sorted({int(np.argmax(row)) for row in reach}):
        left = [i for i in range(nl) if reach[first, i]]
        right = [j for j in range(d2.n_blocks) if reach[first, nl + j]]
        dims = sorted(d1.blocks[i].dim for i in left)
        components.append(MatchingComponent(tuple(left), tuple(right), tuple(dims)))
        bijection += zip(sorted(left, key=lambda i: (d1.blocks[i].dim, i)),
                         sorted(right, key=lambda j: (d2.blocks[j].dim, j)))
    return DecompositionMatching(tuple(components), tuple(sorted(bijection)))


class TestMatch:
    def test_self_match_distinct_dims(self):
        ch, _, _ = rotated_direct_sum((2, 3), seed=11)
        dec = iris_decompose(ch, seed=0)
        m = match_decompositions(dec, dec)
        assert len(m.components) == dec.n_blocks
        assert m.bijection == tuple((i, i) for i in range(dec.n_blocks))

    def test_identity_channel_two_bases(self):
        e = np.eye(2, dtype=complex)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        d1 = IrisDecomposition(
            2, (Subspace(2, e[:, :1]), Subspace(2, e[:, 1:])), ((0, 1),)
        )
        d2 = IrisDecomposition(
            2, (Subspace(2, h[:, :1]), Subspace(2, h[:, 1:])), ((0, 1),)
        )
        m = match_decompositions(d1, d2)
        # cross overlaps are all 1/2, so the graph is one connected component
        assert len(m.components) == 1
        assert m.components[0].common_dimension_multiset == (1, 1)
        assert sorted(p[0] for p in m.bijection) == [0, 1]

    def test_rotated_blocks_two_seeds(self):
        ch, _, _ = rotated_direct_sum((2, 3), seed=11)
        d1 = iris_decompose(ch, seed=1)
        d2 = iris_decompose(ch, seed=2)
        m = match_decompositions(d1, d2)
        assert len(m.components) == 2
        assert sorted(c.common_dimension_multiset for c in m.components) == [(2,), (3,)]
        for i, j in m.bijection:
            assert d1.blocks[i].dim == d2.blocks[j].dim

    def test_mismatch_detected(self):
        e = np.eye(2, dtype=complex)
        rays = IrisDecomposition(
            2, (Subspace(2, e[:, :1]), Subspace(2, e[:, 1:])), ((0, 1),)
        )
        whole = IrisDecomposition(2, (Subspace(2, e),), ((0,),))
        with pytest.raises(MultisetMismatch):
            match_decompositions(rays, whole)

    def test_degenerate_identity_subblock(self):
        # an identity sub-block decomposes into seed-dependent rays; the
        # matcher must still pair them within one component
        rng = np.random.default_rng(55)
        u = haar_unitary(4, rng)
        ch = direct_sum(identity_channel(2), depolarizing_channel(2, 0.5), u)
        d1 = iris_decompose(ch, seed=1)
        d2 = iris_decompose(ch, seed=2)
        assert d1.dimension_multiset() == d2.dimension_multiset() == (1, 1, 2)
        m = match_decompositions(d1, d2)
        assert sorted(c.common_dimension_multiset for c in m.components) == [(1, 1), (2,)]

    def test_matches_overlap_closure(self):
        # the golden corpus, degenerate blocks (identity, copies) included,
        # at seed pairs in {0..3}^2; components come by smallest node
        for name, case in GOLDEN_CASES.items():
            decs = [iris_decompose(case(), seed=s) for s in range(4)]
            for d1 in decs:
                for d2 in decs:
                    m = match_decompositions(d1, d2)
                    assert m == closure_matching(d1, d2), name
                    firsts = [min(c.left_block_indices) for c in m.components]
                    assert firsts == sorted(firsts)


class TestRoundTrip:
    def test_embedded_boundary_respected(self):
        rng = np.random.default_rng(99)
        for trial in range(10):
            dims = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            ch, _, projectors = rotated_direct_sum(dims, seed=trial + 300)
            dec = iris_decompose(ch, seed=trial)
            # multiset refines the construction; never coarsens across blocks
            assert sum(dec.block_dims) == sum(dims)
            for s in dec.blocks:
                masses = [np.real(np.trace(s.projector() @ p)) for p in projectors]
                best = int(np.argmax(masses))
                # block sits inside exactly one constituent
                assert masses[best] >= s.dim - 1e-8
                off = max(
                    max_abs((np.eye(ch.dim) - s.projector()) @ p @ s.projector())
                    for p in projectors
                )
                assert off <= 1e-8

    def test_block_count_equals_commutant_count_generic(self):
        for seed in range(5):
            ch, _, _ = rotated_direct_sum((1, 2), seed=seed + 40)
            dec = iris_decompose(ch, seed=0)
            assert dec.n_blocks == commutant_basis(ch).count
