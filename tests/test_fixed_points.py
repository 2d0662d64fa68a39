import tracemalloc

import numpy as np
import pytest

from krausblocks import (
    BlockMixture,
    DegenerateFixedState,
    IrisDecomposition,
    KrausChannel,
    Subspace,
    classify_fixed_state,
    commutant_basis,
    depolarizing_channel,
    dephasing_channel,
    direct_sum,
    fixed_pure_state_check,
    identity_channel,
    haar_unitary,
    iris_decompose,
    is_fixed,
    random_unital_channel,
    restrict,
    unitary_channel,
)
from krausblocks import decomposition
from krausblocks.errors import (
    DimensionMismatch,
    NotADensityMatrix,
    NotFixed,
    NotNormalized,
    ToleranceFailure,
)
from krausblocks.linalg import DEFAULT_TOL, max_abs

from tests import dense
from tests.dense import (
    _commutant_gram,
    _real_form,
    commutant_kernel,
    dense_commutant,
    null_space,
)
from tests.test_golden import CASES as GOLDEN_CASES
from tests.util import (
    count_calls,
    coupled_blocks,
    fixed_hermitian_basis_oracle,
    random_density,
    random_hermitian,
    rotated_direct_sum,
    span_projector,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def block_channel_2_3() -> KrausChannel:
    return direct_sum(depolarizing_channel(2, 0.5), depolarizing_channel(3, 0.5))


def commutator_stack(ch: KrausChannel) -> np.ndarray:
    """The ``k d^2 x d^2`` stack of ``I kron A_i - A_i^T kron I``, from Kronecker
    products: the system whose null space is the column-stacked commutant."""
    eye = np.eye(ch.dim)
    return np.vstack([np.kron(eye, a) - np.kron(a.T, eye) for a in ch.kraus])


def restrict_to_ray() -> KrausChannel:
    """The channel restricted to the 1-dimensional block of a rotated sum."""
    ch, u, _ = rotated_direct_sum((1, 2), seed=31)
    return restrict(ch, Subspace(3, u[:, :1]))


def scalar_mixture(dim: int, seed: int = 4) -> KrausChannel:
    """The identity channel written with Kraus operators ``c_i I`` for 7 random
    complex weights: its commutator Gram matrix vanishes only up to rounding."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    return KrausChannel.from_kraus([z * np.eye(dim) for z in c / np.linalg.norm(c)])


KERNEL_CASES = {
    **{f"identity{d}": (lambda d=d: identity_channel(d)) for d in range(1, 6)},
    **{f"scalars{d}": (lambda d=d: scalar_mixture(d)) for d in range(1, 5)},
    "ray": restrict_to_ray,
    "depolarizing4": lambda: depolarizing_channel(4, 0.5),
    **{f"coupled1e-{n}": (lambda n=n: coupled_blocks(10.0**-n)) for n in range(2, 12)},
}


class TestCommutantBasis:
    def test_basis_is_a_read_only_stack(self):
        basis = commutant_basis(block_channel_2_3()).hermitian_basis
        assert isinstance(basis, np.ndarray)
        assert basis.shape[1:] == (5, 5) and basis.dtype == complex
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 1.0

    def test_scalar_certificate(self):
        # the dense oracle's irreducibility certificate
        ch, _, projectors = rotated_direct_sum((1, 2, 3), seed=21)
        cb = dense_commutant(ch)

        def range_of(p):
            return np.linalg.eigh(p)[1][:, -round(np.trace(p).real):]

        assert all(cb.is_scalar_on(range_of(p)) for p in projectors)
        assert not cb.is_scalar_on(range_of(projectors[0] + projectors[2]))

    def test_gram_matches_stacked_commutators(self):
        # off unital and trace preserving by about 1e-10, as validation allows:
        # G must keep T and U as computed, not assume 2I - L - L^dagger
        base = random_unital_channel(3, 4, seed=8)
        ch = KrausChannel(3, base.kraus * (1 + 1e-10 * np.arange(1, 5))[:, None, None])
        t = sum(a.conj().T @ a for a in ch.kraus)
        u = sum(a @ a.conj().T for a in ch.kraus)
        assert max_abs(t - np.eye(3)) > 5e-11 and max_abs(u - np.eye(3)) > 5e-11
        stack = commutator_stack(ch)
        assert max_abs(_commutant_gram(ch.kraus, t, u) - stack.conj().T @ stack) <= 1e-12

    def test_real_form_is_the_commutator_norm_on_hermitian_matrices(self):
        # the channel of the test above: T and U are off I by about 1e-10, a
        # relative 1e-10 of the form, which the 1e-12 check resolves
        base = random_unital_channel(3, 4, seed=8)
        ch = KrausChannel(3, base.kraus * (1 + 1e-10 * np.arange(1, 5))[:, None, None])
        t = sum(a.conj().T @ a for a in ch.kraus)
        u = sum(a @ a.conj().T for a in ch.kraus)
        g = _real_form(_commutant_gram(ch.kraus, t, u), 3)
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = random_hermitian(3, rng)
            y = (x.real + x.imag).reshape(-1, order="F")  # X = sym(Y) + i antisym(Y)
            want = sum(np.linalg.norm(a @ x - x @ a) ** 2 for a in ch.kraus)
            assert abs(y @ g @ y - want) <= 1e-12 * want

    def test_gram_above_its_bound_is_a_tolerance_failure(self, monkeypatch):
        gram = dense._commutant_gram
        monkeypatch.setattr(dense, "_commutant_gram", lambda *args: 10 * gram(*args))
        with pytest.raises(ToleranceFailure):
            dense_commutant(random_unital_channel(3, 3, seed=1))

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_kernel_matches_stacked_null_space(self, name):
        ch = KERNEL_CASES[name]()
        stack = commutator_stack(ch)
        oracle = null_space(stack, DEFAULT_TOL)
        sigma = np.zeros(stack.shape[1])
        s = np.linalg.svd(stack, compute_uv=False)
        sigma[: s.size] = s
        cutoff = DEFAULT_TOL.nullspace * sigma[0]
        # the oracle's verdict is only sharp when no singular value lies
        # within a factor 2 of its cutoff
        if np.any((sigma > cutoff / 2) & (sigma < 2 * cutoff)):
            pytest.skip("a singular value is within 2x of the cutoff")
        kernel = commutant_kernel(ch.kraus, DEFAULT_TOL)[0]
        assert kernel.shape[1] == oracle.shape[1]
        assert max_abs(kernel @ kernel.conj().T - oracle @ oracle.conj().T) <= 1e-10

    def test_memory_stays_order_d4(self):
        # the k d^2 x d^2 commutator stack of this channel alone is 268 MB
        ch = depolarizing_channel(16, 0.5)
        tracemalloc.start()
        try:
            commutant_basis(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_identity_channel_full_space(self):
        cb = commutant_basis(identity_channel(2))
        assert cb.count == 4

    def test_depolarizing_scalars_only(self):
        cb = commutant_basis(depolarizing_channel(3, 0.5))
        assert cb.count == 1
        assert max_abs(cb.hermitian_basis[0] - np.eye(3) / np.sqrt(3)) < 1e-12

    def test_block_channel_spanned_by_projectors(self):
        ch = block_channel_2_3()
        cb = commutant_basis(ch)
        assert cb.count == 2
        p1 = np.diag([1, 1, 0, 0, 0]).astype(complex)
        p2 = np.diag([0, 0, 1, 1, 1]).astype(complex)
        expected = span_projector([p1 / np.sqrt(2), p2 / np.sqrt(3)])
        got = span_projector(list(cb.hermitian_basis))
        assert max_abs(expected - got) < 1e-10

    def test_matches_superoperator_oracle(self):
        # independent route: Hermitian null space of (superoperator - identity)
        for ch in (
            identity_channel(3),
            depolarizing_channel(2, 0.3),
            block_channel_2_3(),
            random_unital_channel(4, 3, seed=3),
        ):
            cb = commutant_basis(ch)
            oracle = fixed_hermitian_basis_oracle(ch)
            assert cb.count == len(oracle)
            got = span_projector(list(cb.hermitian_basis))
            expected = span_projector(oracle)
            assert max_abs(got - expected) < 1e-8

    def test_orthonormal_and_identity_first(self):
        cb = commutant_basis(block_channel_2_3())
        n = cb.count
        gram = np.array(
            [
                [np.sum(a.conj() * b) for b in cb.hermitian_basis]
                for a in cb.hermitian_basis
            ]
        )
        assert max_abs(gram - np.eye(n)) <= 1e-10
        assert max_abs(cb.hermitian_basis[0] - np.eye(5) / np.sqrt(5)) < 1e-12

    def test_elements_commute_and_are_fixed(self):
        ch = block_channel_2_3()
        for h in commutant_basis(ch).hermitian_basis:
            report = is_fixed(ch, h)
            assert report.is_fixed
            assert report.fix_residual <= 1e-9
            assert report.commute_residual <= 1e-9

    def test_count_invariant_under_remix(self):
        rng = np.random.default_rng(8)
        ch = block_channel_2_3()
        u = haar_unitary(ch.n_kraus, rng)
        assert commutant_basis(ch.remix(u)).count == commutant_basis(ch).count


class TestIsFixed:
    def test_identity_operator(self):
        ch = random_unital_channel(3, 3, seed=1)
        report = is_fixed(ch, np.eye(3))
        assert report.is_fixed
        assert report.fix_residual <= 1e-12

    def test_depolarizing_moves_pure_state(self):
        ch = depolarizing_channel(2, 0.5)
        report = is_fixed(ch, np.diag([1.0, 0.0]))
        # phi(|0><0|) = diag(0.75, 0.25), so the residual is exactly 0.25
        assert not report.is_fixed
        assert abs(report.fix_residual - 0.25) < 1e-12

    def test_block_projector_fixed(self):
        ch = block_channel_2_3()
        sigma = np.diag([0.5, 0.5, 0, 0, 0]).astype(complex)
        report = is_fixed(ch, sigma)
        assert report.is_fixed
        assert report.fix_residual <= 1e-12

    def test_criteria_agree_on_random_operators(self):
        rng = np.random.default_rng(44)
        channels = [
            random_unital_channel(int(rng.integers(2, 7)), 3, seed=int(rng.integers(1000)))
            for _ in range(5)
        ]
        for ch in channels:
            for _ in range(40):
                sigma = random_hermitian(ch.dim, rng)
                r = is_fixed(ch, sigma)
                assert (r.fix_residual <= 1e-9) == (r.commute_residual <= 1e-9)


class TestFixedPureState:
    def test_dephasing_basis_state(self):
        ch = dephasing_channel(2)
        report = fixed_pure_state_check(ch, np.array([1.0, 0.0]))
        assert report.is_fixed
        assert np.allclose(report.eigenvalues, [np.sqrt(0.5), np.sqrt(0.5)])

    def test_dephasing_superposition_not_fixed(self):
        ch = dephasing_channel(2)
        report = fixed_pure_state_check(ch, np.array([1.0, 1.0]) / np.sqrt(2))
        assert not report.is_fixed

    def test_unitary_eigenvector(self):
        ch = unitary_channel(X)
        report = fixed_pure_state_check(ch, np.array([1.0, 1.0]) / np.sqrt(2))
        assert report.is_fixed
        assert np.allclose(report.eigenvalues, [1.0])

    def test_agrees_with_is_fixed(self):
        rng = np.random.default_rng(5)
        ch = dephasing_channel(3)
        for _ in range(50):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            a = fixed_pure_state_check(ch, v).is_fixed
            b = is_fixed(ch, np.outer(v, v.conj())).is_fixed
            assert a == b

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            fixed_pure_state_check(dephasing_channel(2), np.array([1.0, 1.0]))


class TestClassify:
    def test_maximally_mixed(self):
        from krausblocks import iris_decompose

        ch = block_channel_2_3()
        dec = iris_decompose(ch, seed=0)
        result = classify_fixed_state(ch, np.eye(5) / 5, dec)
        assert isinstance(result, BlockMixture)
        expected = sorted(s.dim / 5 for s in dec.blocks)
        assert np.allclose(sorted(result.weights), expected)

    def test_block_mixture_weights(self):
        from krausblocks import iris_decompose

        ch = block_channel_2_3()
        dec = iris_decompose(ch, seed=0)
        p1 = np.diag([1, 1, 0, 0, 0]).astype(complex)
        p2 = np.diag([0, 0, 1, 1, 1]).astype(complex)
        rho = 0.4 * p1 / 2 + 0.6 * p2 / 3
        result = classify_fixed_state(ch, rho, dec)
        assert isinstance(result, BlockMixture)
        assert np.allclose(sorted(result.weights), [0.4, 0.6])

    def test_degenerate_fixed_state(self):
        # the identity channel fixes every state; a superposition ray is fixed
        # but is not a mixture over the computational-ray decomposition
        ch = identity_channel(2)
        dec = IrisDecomposition(
            ambient_dim=2,
            blocks=(
                Subspace(2, np.array([[1.0], [0.0]], dtype=complex)),
                Subspace(2, np.array([[0.0], [1.0]], dtype=complex)),
            ),
            components=((0, 1),),
        )
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        result = classify_fixed_state(ch, np.outer(v, v), dec)
        assert isinstance(result, DegenerateFixedState)
        # the commutant of the identity channel is everything, so the
        # projection returns the state itself
        assert max_abs(result.commutant_projection - np.outer(v, v)) < 1e-10

    def test_not_fixed_raises(self):
        from krausblocks import iris_decompose

        ch = depolarizing_channel(2, 0.5)
        dec = iris_decompose(ch, seed=0)
        with pytest.raises(NotFixed) as exc:
            classify_fixed_state(ch, np.diag([1.0, 0.0]), dec)
        assert exc.value.residual == pytest.approx(0.25)

    def test_rejects_non_density(self):
        from krausblocks import iris_decompose

        ch = depolarizing_channel(2, 0.5)
        dec = iris_decompose(ch, seed=0)
        with pytest.raises(NotADensityMatrix):
            classify_fixed_state(ch, np.diag([2.0, 0.0]), dec)


# channels with isomorphic copies, where a fixed state can be no mixture over
# a decomposition, and how closely projections at different seeds must agree
DEGENERATE = {
    "identity_d64": (lambda: identity_channel(64), 1e-12),
    "copies_3x2": (GOLDEN_CASES["copies_3x2"], 1e-12),
    "identity_d5": (GOLDEN_CASES["identity_d5"], 1e-12),
    "refined_copies": (
        lambda: coupled_blocks(1e-9, 0, dims=(2, 2, 2), copies=True), DEFAULT_TOL.residual
    ),
}


class TestDegenerateProjection:
    """A degenerate state is projected with the decomposition it was fitted
    against; no second split is made."""

    @pytest.mark.parametrize("case", DEGENERATE)
    def test_seeds_agree_with_the_oracle(self, case):
        make, tol = DEGENERATE[case]
        ch = make()
        rho = random_density(ch.dim, np.random.default_rng(6))
        # a fixed state is its own projection: the dense oracle's projection
        # of a random state, except at d = 64, where the oracle would need
        # d^4 entries and the identity fixes every state
        if ch.dim <= 8:
            rho = dense_commutant(ch).project(rho)
        for seed in (0, 3, 7):
            result = classify_fixed_state(ch, rho, iris_decompose(ch, seed=seed))
            assert isinstance(result, DegenerateFixedState), seed
            assert max_abs(result.commutant_projection - rho) <= tol, seed

    def test_refined_copies_take_the_refined_path(self):
        make, _ = DEGENERATE["refined_copies"]
        assert iris_decompose(make()).split.method == "refined"

    def test_no_split(self, monkeypatch):
        ch = identity_channel(6)
        dec = iris_decompose(ch, seed=3)
        rho = random_density(6, np.random.default_rng(1))
        splits = count_calls(monkeypatch, decomposition, "iris_decompose")
        assert isinstance(classify_fixed_state(ch, rho, dec), DegenerateFixedState)
        assert splits == []
        assert commutant_basis(ch).count == 36
        assert len(splits) == 1

    def test_decomposition_of_another_dimension(self):
        dec = iris_decompose(identity_channel(3))
        with pytest.raises(DimensionMismatch, match="decomposition ambient dim 3"):
            classify_fixed_state(identity_channel(2), np.eye(2) / 2, dec)


class TestStructuralFacts:
    def test_irreducible_fixed_density_is_maximally_mixed(self):
        # commutant count 1 forces any fixed density matrix to be I/d
        for ch in (depolarizing_channel(3, 0.4), random_unital_channel(4, 3, seed=12)):
            cb = commutant_basis(ch)
            if cb.count != 1:
                continue
            h = cb.hermitian_basis[0]
            rho = h / np.real(np.trace(h))
            assert is_fixed(ch, rho).is_fixed
            assert max_abs(rho - np.eye(ch.dim) / ch.dim) <= 1e-8

    def test_convex_mixtures_are_fixed(self):
        from krausblocks import iris_decompose

        rng = np.random.default_rng(77)
        ch, _, _ = _rotated_blocks()
        dec = iris_decompose(ch, seed=0)
        for _ in range(20):
            w = rng.random(dec.n_blocks)
            w /= w.sum()
            rho = sum(
                wi * s.projector() / s.dim for wi, s in zip(w, dec.blocks)
            )
            assert is_fixed(ch, rho).fix_residual <= 1e-10


def _rotated_blocks():
    from tests.util import rotated_direct_sum

    return rotated_direct_sum((2, 3), seed=42)
