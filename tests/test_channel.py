import tracemalloc

import numpy as np
import pytest

from krausblocks import (
    KrausChannel,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    haar_unitary,
    identity_channel,
    random_unital_channel,
    superoperator_distance,
    unitary_channel,
    validate_kraus,
)
from krausblocks import channel
from krausblocks.errors import (
    DimensionMismatch,
    InvalidParameter,
    NotUnitary,
    ValidationError,
)
from krausblocks.linalg import max_abs
from krausblocks.serialize import channel_to_document, dumps_report, parse_channel_ops

from tests.dense import unvec, vec
from tests.util import random_density, random_hermitian

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def dephasing_qubit() -> KrausChannel:
    return KrausChannel.from_kraus([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * Z])


class TestValidate:
    def test_identity(self):
        r = validate_kraus([np.eye(2)])
        assert r.is_trace_preserving and r.is_unital
        assert r.tp_residual == 0.0 and r.unital_residual == 0.0

    def test_depolarizing_pauli_set(self):
        p = 0.5
        ops = [np.sqrt(1 - 3 * p / 4) * np.eye(2), np.sqrt(p / 4) * X,
               np.sqrt(p / 4) * Y, np.sqrt(p / 4) * Z]
        # Pauli algebra oracle: each P^dagger P = I, weights sum to 1
        total = sum(a.conj().T @ a for a in ops)
        assert max_abs(total - np.eye(2)) < 1e-12
        r = validate_kraus(ops)
        assert r.is_trace_preserving and r.is_unital
        assert r.tp_residual <= 1e-12 and r.unital_residual <= 1e-12

    def test_amplitude_damping_not_unital(self):
        g = 0.3
        k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
        r = validate_kraus([k0, k1])
        assert r.is_trace_preserving
        assert not r.is_unital
        assert abs(r.unital_residual - g) < 1e-12
        with pytest.raises(ValidationError) as exc:
            KrausChannel.from_kraus([k0, k1])
        assert exc.value.report.unital_residual == pytest.approx(g)

    def test_ragged_input(self):
        with pytest.raises(DimensionMismatch):
            validate_kraus([np.eye(2), np.eye(3)])

    def test_chunked_sums_match_per_operator_loops(self, monkeypatch):
        # chunks of two operators over five, the last chunk short
        rng = np.random.default_rng(3)
        ops = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        eye = np.eye(3)
        tp = max_abs(sum(a.conj().T @ a for a in ops) - eye)
        un = max_abs(sum(a @ a.conj().T for a in ops) - eye)
        monkeypatch.setattr(channel, "_PRODUCT_ENTRIES", 2 * 3 * 3)
        r = validate_kraus(ops)
        assert abs(r.tp_residual - tp) <= 1e-12 * tp and abs(r.unital_residual - un) <= 1e-12 * un
        assert r.tp_residual != r.unital_residual  # a swapped pair of sums would show

    def test_memory_stays_near_the_stack(self):
        # the adjoint stack and the k products took three times the stack here;
        # chunked sums and the generator's read-only stack leave about 1.4 times
        tracemalloc.start()
        try:
            ch = depolarizing_channel(48, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * ch.kraus.nbytes


class TestApply:
    def test_unitality(self):
        for ch in (dephasing_qubit(), depolarizing_channel(3, 0.7)):
            assert max_abs(ch.apply(np.eye(ch.dim)) - np.eye(ch.dim)) <= 1e-10

    def test_fully_depolarizing_pure_state(self):
        ch = depolarizing_channel(2, 1.0)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert max_abs(ch.apply(rho) - np.eye(2) / 2) < 1e-12

    def test_dephasing_kills_coherences(self):
        ch = dephasing_qubit()
        rho = np.full((2, 2), 0.5, dtype=complex)
        # (rho + Z rho Z)/2 computed by hand
        assert max_abs(ch.apply(rho) - np.diag([0.5, 0.5])) < 1e-12

    def test_trace_preservation(self):
        rng = np.random.default_rng(0)
        ch = random_unital_channel(4, 3, seed=5)
        for _ in range(50):
            s = random_hermitian(4, rng)
            assert abs(np.trace(ch.apply(s)) - np.trace(s)) <= 1e-10 * abs(np.trace(s)) + 1e-12

    def test_psd_preserved(self):
        rng = np.random.default_rng(1)
        ch = random_unital_channel(3, 4, seed=9)
        for _ in range(1000):
            rho = random_density(3, rng)
            w = np.linalg.eigvalsh(ch.apply(rho))
            assert w[0] >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            identity_channel(2).apply(np.eye(3))


class TestAdjoint:
    def test_identity(self):
        adj = identity_channel(2).adjoint()
        assert superoperator_distance(adj, identity_channel(2)) == 0.0

    def test_unitary(self):
        rng = np.random.default_rng(4)
        u = haar_unitary(3, rng)
        adj = unitary_channel(u).adjoint()
        assert superoperator_distance(adj, unitary_channel(u.conj().T)) < 1e-12

    def test_duality(self):
        rng = np.random.default_rng(17)
        ch = random_unital_channel(3, 3, seed=2)
        for _ in range(20):
            e = random_hermitian(3, rng)
            rho = random_density(3, rng)
            lhs = np.trace(e @ ch.apply(rho))
            rhs = np.trace(ch.adjoint().apply(e) @ rho)
            assert abs(lhs - rhs) <= 1e-10

    def test_adjoint_validates(self):
        r = validate_kraus(random_unital_channel(4, 3, seed=3).adjoint().kraus)
        assert r.is_trace_preserving and r.is_unital


class TestStorage:
    def test_kraus_is_a_read_only_stack(self):
        ops = [haar_unitary(3, np.random.default_rng(s)) / 2 for s in range(4)]
        for ch in (KrausChannel.from_kraus(ops), KrausChannel(dim=3, kraus=ops)):
            for kraus in (ch.kraus, ch.adjoint().kraus):
                assert isinstance(kraus, np.ndarray)
                assert kraus.shape == (4, 3, 3) and kraus.dtype == complex
                assert not kraus.flags.writeable
                with pytest.raises(ValueError):
                    kraus[0, 0, 0] = 1.0
        # a writeable stack is copied, not viewed, by either constructor
        for build in (KrausChannel.from_kraus, lambda a: KrausChannel(3, a)):
            stack = np.array(ops)
            ch = build(stack)
            stack[0] = 0.0
            assert max_abs(ch.kraus[0] - ops[0]) == 0.0

    def test_parsed_stack_is_stored_uncopied(self):
        doc = dumps_report(channel_to_document(random_unital_channel(3, 4, seed=1)))
        dim, ops = parse_channel_ops(doc)
        assert not ops.flags.writeable
        for ch in (KrausChannel(dim, ops), KrausChannel.from_kraus(ops)):
            assert np.shares_memory(ops, ch.kraus)
        # the adjoint stores its one conjugated copy as a view, not a second copy
        adj = KrausChannel(dim, ops).adjoint()
        assert adj.kraus.base is not None and not adj.kraus.flags.writeable

    def test_dim_must_match_the_stack(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel(dim=5, kraus=np.eye(3)[None])

    def test_contractions_match_per_operator_loops(self):
        ch = random_unital_channel(3, 4, seed=8)
        rng = np.random.default_rng(2)
        s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert max_abs(ch.apply(s) - sum(a @ s @ a.conj().T for a in ch.kraus)) < 1e-14
        adj = ch.adjoint().apply(s)
        assert max_abs(adj - sum(a.conj().T @ s @ a for a in ch.kraus)) < 1e-14
        sup = sum(np.kron(a.conj(), a) for a in ch.kraus)
        assert max_abs(ch.superoperator_matrix() - sup) < 1e-14

    def test_apply_takes_batch_axes(self):
        # a (2, 3, d, d) stack maps operator by operator, as single calls do
        ch = random_unital_channel(3, 4, seed=8)
        rng = np.random.default_rng(2)
        s = rng.standard_normal((2, 3, 3, 3)) + 1j * rng.standard_normal((2, 3, 3, 3))
        out = ch.apply(s)
        assert out.shape == s.shape
        for idx in np.ndindex(2, 3):
            assert max_abs(out[idx] - ch.apply(s[idx])) < 1e-14
        with pytest.raises(DimensionMismatch):
            ch.apply(np.zeros((2, 3, 4, 4)))


class TestSuperoperator:
    def test_identity(self):
        assert max_abs(identity_channel(2).superoperator_matrix() - np.eye(4)) == 0.0

    def test_unitary_conjugation_is_kron(self):
        l = unitary_channel(X).superoperator_matrix()
        assert max_abs(l - np.kron(X.conj(), X)) < 1e-14

    def test_action_matches_apply(self):
        rng = np.random.default_rng(3)
        ch = random_unital_channel(3, 3, seed=8)
        l = ch.superoperator_matrix()
        for _ in range(30):
            s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert max_abs(unvec(l @ vec(s), 3) - ch.apply(s)) <= 1e-10

    def test_unitality_in_vec_form(self):
        ch = depolarizing_channel(2, 0.6)
        l = ch.superoperator_matrix()
        assert max_abs(l @ vec(np.eye(2)) - vec(np.eye(2))) < 1e-12


class TestRemix:
    def test_identity_remix(self):
        ch = dephasing_qubit()
        out = ch.remix(np.eye(2))
        assert all(max_abs(a - b) < 1e-15 for a, b in zip(ch.kraus, out.kraus))

    def test_hadamard_remix_gives_projectors(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        out = dephasing_qubit().remix(h)
        assert max_abs(out.kraus[0] - np.diag([1.0, 0.0])) < 1e-12
        assert max_abs(out.kraus[1] - np.diag([0.0, 1.0])) < 1e-12
        assert superoperator_distance(out, dephasing_qubit()) < 1e-12

    def test_random_remix_preserves_superoperator(self):
        rng = np.random.default_rng(23)
        ch = depolarizing_channel(2, 0.5)
        u = haar_unitary(ch.n_kraus, rng)
        assert superoperator_distance(ch.remix(u), ch) <= 1e-10

    def test_padding(self):
        rng = np.random.default_rng(29)
        ch = dephasing_qubit()
        u = haar_unitary(4, rng)
        out = ch.remix(u)
        assert out.n_kraus == 4
        assert superoperator_distance(out, ch) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            dephasing_qubit().remix(np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestDirectSum:
    def test_identity_blocks(self):
        out = direct_sum(identity_channel(1), identity_channel(1))
        assert superoperator_distance(out, identity_channel(2)) == 0.0

    def test_block_structure(self):
        out = direct_sum(depolarizing_channel(2, 0.5), identity_channel(1))
        assert out.dim == 3
        assert out.n_kraus == 4  # shorter list zero-padded to the longer one
        for a in out.kraus:
            assert max_abs(a[2:, :2]) == 0.0
            assert max_abs(a[:2, 2:]) == 0.0

    def test_conjugated_superoperator(self):
        rng = np.random.default_rng(31)
        a = depolarizing_channel(2, 0.5)
        b = identity_channel(1)
        u = haar_unitary(3, rng)
        plain = direct_sum(a, b)
        rotated = direct_sum(a, b, conjugating_unitary=u)
        k = np.kron(u.conj(), u)
        expected = k @ plain.superoperator_matrix() @ k.conj().T
        assert max_abs(rotated.superoperator_matrix() - expected) <= 1e-10


class TestStandardChannels:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_depolarizing_matches_map(self, d, p):
        ch = depolarizing_channel(d, p)
        # check against the defining map on a full operator basis
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                expected = (1 - p) * e + p * np.trace(e) * np.eye(d) / d
                assert max_abs(ch.apply(e) - expected) <= 1e-12

    @pytest.mark.parametrize("d", range(1, 10))
    def test_weyl_operators_match_matrix_powers(self, d):
        # the closed-form X^a Z^b against products of the shift and clock matrices
        x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        z = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
        weyl = np.array([np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
                         for a in range(d) for b in range(d)])
        for p in (1e-3, 0.5, 1.0):
            w = np.full(d * d, p / d**2)
            w[0] = 1 - p + p / d**2
            expected = np.sqrt(w)[:, None, None] * weyl
            assert max_abs(depolarizing_channel(d, p).kraus - expected) <= 1e-14
        assert max_abs(dephasing_channel(d).kraus - weyl[:d] / np.sqrt(d)) <= 1e-14

    def test_unitary_kind(self):
        ch = unitary_channel(X)
        assert ch.n_kraus == 1
        assert max_abs(ch.kraus[0] - X) == 0.0

    def test_random_unital_validates(self):
        ch = random_unital_channel(3, 3, seed=7)
        r = validate_kraus(ch.kraus)
        assert r.tp_residual <= 1e-12 and r.unital_residual <= 1e-12

    def test_random_unital_deterministic(self):
        a = random_unital_channel(3, 3, seed=7)
        b = random_unital_channel(3, 3, seed=7)
        assert superoperator_distance(a, b) == 0.0

    def test_dephasing_general_dim(self):
        ch = dephasing_channel(3)
        rho = random_density(3, np.random.default_rng(2))
        out = ch.apply(rho)
        assert max_abs(out - np.diag(np.diagonal(rho))) < 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            depolarizing_channel(2, 0.0)
        with pytest.raises(InvalidParameter):
            depolarizing_channel(2, 1.5)
