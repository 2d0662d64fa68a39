import itertools
import sys

import numpy as np
import pytest

from krausblocks import (
    KrausChannel,
    Povm,
    ProjectiveMeasurement,
    StructuralDecomposition,
    StructuralFailure,
    Subspace,
    channels_commute,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    identity_channel,
    iris_decompose,
    is_invariant_subspace,
    measurement_preserved,
    povm_structural_decomposition,
    projection_intertwines,
    projective_channel,
    random_unital_channel,
    statistics_preserved,
    superoperator_distance,
    unitary_channel,
    violation_witness,
)
from krausblocks import decomposition, measurement
from krausblocks.decomposition import InvarianceReport
from krausblocks.errors import (
    InvalidMeasurement,
    NoViolation,
    NotAProjector,
    NotPSD,
    ToleranceFailure,
)
from krausblocks.measurement import CommutationReport
from krausblocks.linalg import DEFAULT_TOL, Tolerances, max_abs

from tests.util import (
    block_measurement,
    computational_measurement,
    count_calls,
    coupled_blocks,
    random_density,
    random_hermitian,
    random_subspace,
    rotated_direct_sum,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)  # |+><+|
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestMeasurementTypes:
    def test_povm_validation(self):
        Povm(2, (0.3 * np.eye(2, dtype=complex), 0.7 * np.eye(2, dtype=complex)))
        with pytest.raises(InvalidMeasurement):
            Povm(2, (np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
        with pytest.raises(InvalidMeasurement):
            Povm(2, (np.diag([1.5, 1.0]).astype(complex), np.diag([-0.5, 0.0]).astype(complex)))

    def test_projective_validation(self):
        computational_measurement(3)
        with pytest.raises(InvalidMeasurement):
            ProjectiveMeasurement(2, (PLUS, np.diag([0.0, 1.0]).astype(complex)))


class TestProjectiveChannel:
    def test_trivial(self):
        m = ProjectiveMeasurement(2, (np.eye(2, dtype=complex),))
        assert superoperator_distance(projective_channel(m), identity_channel(2)) == 0.0

    def test_computational_basis_dephases(self):
        ch = projective_channel(computational_measurement(2))
        out = ch.apply(PLUS)
        assert max_abs(out - np.diag([0.5, 0.5])) < 1e-12

    def test_block_projectors_zero_off_blocks(self):
        ch = projective_channel(block_measurement(4, 2))
        rng = np.random.default_rng(1)
        s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = ch.apply(s)
        assert max_abs(out[:2, 2:]) < 1e-12
        assert max_abs(out[2:, :2]) < 1e-12
        assert max_abs(out[:2, :2] - s[:2, :2]) < 1e-12


class TestIntertwining:
    def test_identity_projector(self):
        ch = random_unital_channel(3, 3, seed=4)
        r = projection_intertwines(ch, np.eye(3))
        assert r.commute and r.residual <= 1e-12

    def test_depolarizing_ray_fails(self):
        ch = depolarizing_channel(2, 0.5)
        r = projection_intertwines(ch, np.diag([1.0, 0.0]))
        assert not r.commute
        assert r.residual > 0.1

    def test_block_projector_intertwines(self):
        ch = direct_sum(depolarizing_channel(2, 0.5), depolarizing_channel(2, 0.8))
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        r = projection_intertwines(ch, p)
        assert r.commute and r.residual <= 1e-12

    def test_rejects_non_projector(self):
        with pytest.raises(NotAProjector):
            projection_intertwines(identity_channel(2), np.diag([0.5, 0.5]))

    @pytest.mark.parametrize("kind", ["unitary", "random", "depolarizing"])
    @pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "random_p"])
    def test_residual_is_the_kron_commutator(self, kind, aligned):
        # k = 1, 3 and d^2 Kraus operators, against the d^2 x d^2 products
        rng = np.random.default_rng(17)
        ch, _, projectors = rotated_direct_sum((2, 3), seed=40)
        if kind == "unitary":
            ch = unitary_channel(ch.kraus[0] * np.sqrt(3))
        elif kind == "depolarizing":
            ch = depolarizing_channel(5, 0.3)
        assert ch.n_kraus == {"unitary": 1, "random": 3, "depolarizing": 25}[kind]
        p = projectors[0] if aligned else random_subspace(5, 2, rng).projector()
        l_p = np.kron(p.conj(), p)
        l_ch = ch.superoperator_matrix()
        expected = max_abs(l_p @ l_ch - l_ch @ l_p)
        assert abs(projection_intertwines(ch, p).residual - expected) <= 1e-12

    def test_matches_invariance_flag(self):
        rng = np.random.default_rng(3)
        for trial in range(500):
            if trial % 2 == 0:
                ch, _, projectors = rotated_direct_sum((2, 2), seed=trial)
                p = projectors[0]
            else:
                ch, _, _ = rotated_direct_sum((2, 2), seed=trial)
                p = random_subspace(4, int(rng.integers(1, 4)), rng).projector()
            w, v = np.linalg.eigh(p)
            s = Subspace(4, v[:, w > 0.5])
            assert projection_intertwines(ch, p).commute == is_invariant_subspace(ch, s).invariant


class TestChannelsCommute:
    def test_self(self):
        ch = random_unital_channel(3, 3, seed=1)
        r = channels_commute(ch, ch)
        assert r.commute and r.residual <= 1e-12

    def test_diagonal_pair(self):
        a = projective_channel(computational_measurement(2))
        b = dephasing_channel(2)
        assert channels_commute(a, b).commute

    def test_measurement_vs_hadamard(self):
        a = projective_channel(computational_measurement(2))
        b = unitary_channel(H)
        assert not channels_commute(a, b).commute


def _block_sum():
    ch, _, projectors = rotated_direct_sum((2, 3), seed=40)
    return ch, ProjectiveMeasurement(5, tuple(projectors))


# (channel and measurement, form of the whole-measurement residual): the range
# form when sum_k r_k^2 < k K, else the Kraus form
FACTORED = {
    "computational basis, random channel": (
        lambda: (random_unital_channel(5, 3, seed=8), computational_measurement(5)), "range"),
    "block projectors, rotated sum": (_block_sum, "kraus"),
    "trivial measurement": (
        lambda: (random_unital_channel(5, 3, seed=8),
                 ProjectiveMeasurement(5, (np.eye(5, dtype=complex),))), "kraus"),
    "computational basis, depolarizing (k = d^2)": (
        lambda: (depolarizing_channel(4, 0.5), computational_measurement(4)), "range"),
    "computational basis, dephasing": (
        lambda: (dephasing_channel(5), computational_measurement(5)), "range"),
    "computational basis and a zero projector": (
        lambda: (random_unital_channel(3, 3, seed=8), ProjectiveMeasurement(
            3, computational_measurement(3).projectors + (np.zeros((3, 3), complex),))),
        "range"),
}


def _check_against_dense(monkeypatch, ch, m, form: str, within: float):
    """The whole-measurement and per-projector residuals against the d^2 x d^2
    products of ``channels_commute`` and ``superoperator_distance``."""
    kron = count_calls(monkeypatch, measurement, "_kron_columns")
    measurement._measurement_commutes(ch, m, DEFAULT_TOL)
    assert ("range" if kron else "kraus") == form
    commute = measurement_preserved(ch, m).commute
    dense = channels_commute(projective_channel(m), ch)
    assert abs(commute.residual - dense.residual) <= within
    assert commute.commute == dense.commute
    for p in m.projectors:
        one = projection_intertwines(ch, p)
        distance = superoperator_distance(KrausChannel(ch.dim, p @ ch.kraus),
                                          KrausChannel(ch.dim, ch.kraus @ p))
        assert abs(one.residual - distance) <= within
        assert one.commute == (distance <= DEFAULT_TOL.residual)


class TestFactoredCommutator:
    @pytest.mark.parametrize("case", FACTORED, ids=str)
    def test_matches_dense_products(self, monkeypatch, case):
        make, form = FACTORED[case]
        ch, m = make()
        _check_against_dense(monkeypatch, ch, m, form, 1e-13)

    def test_near_tolerance_projectors(self, monkeypatch):
        # (1 + 1e-11) u u^dagger still passes as a projector; the range form
        # puts u u^dagger in its place
        rng = np.random.default_rng(12)
        u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        m = ProjectiveMeasurement(
            5, tuple((1 + 1e-11) * np.outer(u[:, k], u[:, k].conj()) for k in range(5)))
        assert max(max_abs(p @ p - p) for p in m.projectors) > 1e-12
        _check_against_dense(monkeypatch, random_unital_channel(5, 3, seed=8), m, "range", 1e-10)

    @pytest.mark.parametrize("entries", [1, 2, 40, 10**6])
    def test_row_blocks_keep_the_max(self, monkeypatch, entries):
        # at large d the product is read a block of rows at a time; blocks of
        # other shapes may round differently
        for make, _ in FACTORED.values():
            ch, m = make()
            whole = measurement._commutator_residual(ch, m.projectors)
            with monkeypatch.context() as patch:
                patch.setattr(measurement, "_PRODUCT_ENTRIES", entries * ch.dim)
                assert abs(measurement._commutator_residual(ch, m.projectors) - whole) <= 1e-15

    @pytest.mark.parametrize("case", [c for c in FACTORED if FACTORED[c][1] == "range"], ids=str)
    def test_gather_blocks_keep_the_residual(self, monkeypatch, case):
        # the range form gathers the Kraus images of a block of pairs at a
        # time; each pair's row is a product of its own, so blocks of two
        # pairs give the same residual bit for bit
        ch, m = FACTORED[case][0]()
        assert np.sum(measurement._ranges(*np.linalg.eigh(np.stack(m.projectors)))[0] ** 2) > 2
        whole = measurement._commutator_residual(ch, m.projectors)
        with monkeypatch.context() as patch:
            patch.setattr(measurement, "_PRODUCT_ENTRIES", 2 * ch.dim * ch.n_kraus)
            assert measurement._commutator_residual(ch, m.projectors) == whole

    def test_one_commutator_per_measurement(self, monkeypatch):
        # each range is decided by the channel fixing its projector, not by a
        # superoperator commutator of its own
        calls = count_calls(monkeypatch, measurement, "_commutator_residual")
        report = measurement_preserved(dephasing_channel(5), computational_measurement(5))
        assert report.ranges_invariant and len(calls) == 1

    @pytest.mark.parametrize("case", FACTORED, ids=str)
    def test_ranges_match_projection_intertwines(self, case):
        # {I} has rank d and the zero projector rank 0: both ranges are invariant
        ch, m = FACTORED[case][0]()
        report = measurement_preserved(ch, m)
        assert report.ranges_invariant == all(
            projection_intertwines(ch, p).commute for p in m.projectors)

    def test_no_superoperator_matrix(self, monkeypatch):
        cases = [make() for make, _ in FACTORED.values()]
        supers = count_calls(monkeypatch, KrausChannel, "superoperator_matrix")
        for ch, m in cases:
            measurement_preserved(ch, m)
        assert len(supers) == 0


def _outcome(ch, m) -> str:
    """``"P"`` preserved, ``"N"`` not preserved or ``"T"`` ToleranceFailure; a
    report's flags must agree with each other."""
    try:
        r = measurement_preserved(ch, m)
    except ToleranceFailure:
        return "T"
    assert r.ranges_invariant == r.all_preserved == all(e.preserved for e in r.elements)
    assert r.commute.commute or not r.ranges_invariant
    return "P" if r.all_preserved else "N"


def _verdicts(channels, m) -> str:
    return "".join(_outcome(ch, m) for ch in channels)


def _expected(n: int, preserved: int, failures: int = 0) -> str:
    return "P" * preserved + "T" * failures + "N" * (n - preserved - failures)


def _scaled(m: ProjectiveMeasurement, scale: float) -> ProjectiveMeasurement:
    return ProjectiveMeasurement(m.dim, tuple(scale * p for p in m.projectors))


def _blocks(dims) -> ProjectiveMeasurement:
    d, edges = sum(dims), np.cumsum((0,) + tuple(dims))
    return ProjectiveMeasurement(d, tuple(
        np.diag((np.arange(d) >= lo) & (np.arange(d) < hi)).astype(complex)
        for lo, hi in zip(edges[:-1], edges[1:])))


def _mixed_unitary(q: float, theta: float, seed: int, dims) -> KrausChannel:
    """``(1 - q) id + q U . U^dagger`` with ``U = exp(i theta H)`` for a random
    Hermitian H whose entries lie only between the blocks of ``dims``."""
    d, block = sum(dims), np.repeat(np.arange(len(dims)), dims)
    h = random_hermitian(d, np.random.default_rng(seed)) * (block[:, None] != block[None, :])
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * theta * w)) @ v.conj().T
    return KrausChannel.from_kraus([np.sqrt(1 - q) * np.eye(d), np.sqrt(q) * u])


# (preserved, ToleranceFailure) counts of the 21 eps of each coupled_blocks seed 0-5
COUPLED_RANGES = {
    (2, 3): [(13, 1), (12, 1), (11, 1), (11, 1), (12, 1), (12, 1)],
    (1, 2, 3): [(12, 1), (12, 0), (11, 1), (11, 2), (12, 1), (11, 2)],
    (3, 4): [(12, 0), (12, 1), (12, 1), (12, 1), (12, 0), (12, 1)],
}
# preserved counts of the 37 theta of _mixed_unitary seeds 0-2 at q = 1e-6, 1e-3, 0.5
MIXED_RANGES = {
    (2, 3): [(33, 21, 10), (32, 20, 9), (31, 19, 9)],
    (1, 2, 3): [(32, 20, 9), (32, 20, 9), (31, 19, 9)],
}


class TestCoupledRanges:
    """Verdicts across tol.residual on channels whose ranges are weakly coupled.

    Every preserved or not-preserved verdict is the one the superoperator range
    residual gave. Where that residual and the element residual fell on either
    side of tol.residual it raised ToleranceFailure: once among the coupled
    blocks ((3, 4), seed 0) and at one or two p of the depolarizing channel at
    d = 3 and 5. The projector-fixing residual agrees with the element residual
    there."""

    @pytest.mark.parametrize("dims", COUPLED_RANGES, ids=str)
    def test_eps_sweep(self, dims):
        # equal-weight Kraus sets, measured with the uncoupled block projectors.
        # Projectors idempotent only to about 1e-11 give the verdicts of exact
        # ones, for the blocks and for the computational basis.
        d = sum(dims)
        for m in (_blocks(dims), computational_measurement(d)):
            p = _scaled(m, 1 + 1e-11).projectors[0]
            assert max_abs(p @ p - p) > 1e-12
        for seed, counts in enumerate(COUPLED_RANGES[dims]):
            channels = [coupled_blocks(eps, seed, dims) for eps in np.logspace(-12, -7, 21)]
            assert _verdicts(channels, _blocks(dims)) == _expected(21, *counts), seed
            for m in (_blocks(dims), computational_measurement(d)):
                assert _verdicts(channels, _scaled(m, 1 + 1e-11)) == _verdicts(channels, m)

    @pytest.mark.parametrize("d, preserved", [(2, 22), (3, 21), (5, 21)])
    def test_depolarizing_sweep(self, d, preserved):
        # a heavy identity Kraus operator and d^2 - 1 light ones of weight p / d^2
        channels = [depolarizing_channel(d, p) for p in np.logspace(-14, -6, 33)]
        for m in (computational_measurement(d), _blocks((1, d - 1))):
            assert _verdicts(channels, m) == _expected(33, preserved)

    def test_loose_projector_is_its_range_and_kernel(self):
        # eigenvalues 1 and 1 - 3e-6 are two clusters at tol.eigencluster, yet
        # one range of a projector checked at tol.residual = 1e-5
        tol = Tolerances(residual=1e-5)
        u = np.eye(3, dtype=complex)
        u[:2, :2] = [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
        p = np.diag([1, 1 - 3e-6, 0]).astype(complex)
        m = ProjectiveMeasurement(3, (p, np.eye(3) - p), tol)
        r = measurement_preserved(unitary_channel(u), m, tol)
        assert r.all_preserved and r.ranges_invariant and r.commute.commute
        ranges = [e.structure.terms[0].subspace.projector() for e in r.elements]
        assert max_abs(ranges[0] - np.diag([1, 1, 0])) <= 1e-12
        assert max_abs(ranges[1] - np.diag([0, 0, 1])) <= 1e-12

    def test_weak_depolarizing(self):
        # a light Kraus operator that couples a range at sqrt(p / 4) = 5e-6
        # leaves the range invariant within tol.residual, as its statistics are
        r = measurement_preserved(depolarizing_channel(2, 1e-10), computational_measurement(2))
        assert r.all_preserved and r.ranges_invariant and r.commute.commute

    @pytest.mark.parametrize("dims", MIXED_RANGES, ids=str)
    def test_mixed_unitary_sweep(self, dims):
        # two Kraus operators of weights 1 - q and q; the light one couples the blocks
        for seed, counts in enumerate(MIXED_RANGES[dims]):
            for q, preserved in zip((1e-6, 1e-3, 0.5), counts):
                channels = [_mixed_unitary(q, t, seed, dims) for t in np.logspace(-11, -2, 37)]
                for m in (_blocks(dims), computational_measurement(sum(dims))):
                    assert _verdicts(channels, m) == _expected(37, preserved), (seed, q)


class TestStatisticsPreserved:
    def test_identity_element(self):
        ch = random_unital_channel(3, 3, seed=6)
        assert statistics_preserved(ch, np.eye(3)).preserved

    def test_scaled_identity(self):
        ch = random_unital_channel(2, 3, seed=7)
        assert statistics_preserved(ch, 0.3 * np.eye(2)).preserved

    def test_dephasing_plus_state(self):
        r = statistics_preserved(dephasing_channel(2), PLUS)
        assert not r.preserved
        assert abs(r.residual - 0.5) < 1e-12

    def test_rejects_non_psd(self):
        with pytest.raises(NotPSD):
            statistics_preserved(identity_channel(2), np.diag([1.0, -1.0]))

    def test_duality_on_random_probes(self):
        rng = np.random.default_rng(8)
        ch = random_unital_channel(3, 3, seed=9)
        e = np.eye(3) * 0.5
        for _ in range(30):
            rho = random_density(3, rng)
            lhs = np.trace(e @ ch.apply(rho))
            rhs = np.trace(ch.adjoint().apply(e) @ rho)
            assert abs(lhs - rhs) <= 1e-10


class TestStructuralDecomposition:
    def test_identity_single_term(self):
        ch = random_unital_channel(3, 3, seed=2)
        out = povm_structural_decomposition(ch, np.eye(3))
        assert isinstance(out, StructuralDecomposition)
        assert len(out.terms) == 1
        assert out.terms[0].weight == pytest.approx(1.0)
        assert out.terms[0].subspace.dim == 3

    def test_block_weighted_sum(self):
        ch = direct_sum(depolarizing_channel(2, 0.5), depolarizing_channel(3, 0.5))
        p1 = np.diag([1, 1, 0, 0, 0]).astype(complex)
        p2 = np.diag([0, 0, 1, 1, 1]).astype(complex)
        out = povm_structural_decomposition(ch, 0.7 * p1 + 0.2 * p2)
        assert isinstance(out, StructuralDecomposition)
        got = sorted((round(t.weight, 9), t.subspace.dim) for t in out.terms)
        assert got == [(0.2, 3), (0.7, 2)]
        for t in out.terms:
            assert is_invariant_subspace(ch, t.subspace).invariant
        recon = sum(t.weight * t.subspace.projector() for t in out.terms)
        assert max_abs(recon - (0.7 * p1 + 0.2 * p2)) < 1e-9

    def test_failure_witness(self):
        out = povm_structural_decomposition(dephasing_channel(2), PLUS)
        assert isinstance(out, StructuralFailure)
        v = out.witness_subspace.basis[:, 0]
        v = v * np.exp(-1j * np.angle(v[0]))
        assert np.allclose(v, np.array([1.0, 1.0]) / np.sqrt(2))


class TestViolationWitness:
    def test_dephasing_plus(self):
        ch = dephasing_channel(2)
        rho = violation_witness(ch, PLUS)
        gap = abs(np.trace(PLUS @ rho) - np.trace(PLUS @ ch.apply(rho)))
        assert abs(gap - 0.5) < 1e-12

    def test_fully_depolarizing(self):
        ch = depolarizing_channel(2, 1.0)
        e = np.diag([1.0, 0.0]).astype(complex)
        rho = violation_witness(ch, e)
        gap = abs(np.trace(e @ rho) - np.trace(e @ ch.apply(rho)))
        assert abs(gap - 0.5) < 1e-12
        # witness is a computational basis state
        assert max_abs(rho @ rho - rho) < 1e-12

    def test_no_violation(self):
        with pytest.raises(NoViolation):
            violation_witness(identity_channel(2), np.eye(2))

    def test_gap_equals_top_eigenvalue(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            ch, _, _ = rotated_direct_sum((2, 2), seed=trial + 100)
            e = random_density(4, rng) * 2
            e = (e + e.conj().T) / 2
            e = e - min(0.0, float(np.linalg.eigvalsh(e)[0])) * np.eye(4)
            r = statistics_preserved(ch, e)
            if r.preserved:
                continue
            diff = e - ch.adjoint().apply(e)
            top = float(np.max(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))
            rho = violation_witness(ch, e)
            gap = abs(np.trace(e @ rho) - np.trace(e @ ch.apply(rho)))
            assert abs(gap - top) <= 1e-10


class TestMeasurementPreserved:
    def test_computational_vs_dephasing(self):
        rep = measurement_preserved(dephasing_channel(2), computational_measurement(2))
        assert rep.all_preserved
        assert rep.commute.commute
        assert rep.ranges_invariant

    def test_computational_vs_depolarizing(self):
        rep = measurement_preserved(depolarizing_channel(2, 0.5), computational_measurement(2))
        assert not rep.all_preserved
        # phi^dagger(|0><0|) = diag(0.75, 0.25): residual 0.25 per element
        for er in rep.elements:
            assert not er.preserved
            assert abs(er.residual - 0.25) < 1e-12
        # the depolarizing family commutes with every unital channel, so the
        # commutation flag may be true even though nothing is preserved
        assert rep.commute.commute
        assert not rep.ranges_invariant

    def test_trivial_povm(self):
        ch = random_unital_channel(3, 3, seed=5)
        rep = measurement_preserved(ch, Povm(3, (np.eye(3, dtype=complex),)))
        assert rep.all_preserved
        assert rep.commute is None

    def test_block_povm_on_block_channel(self):
        ch, _, projectors = rotated_direct_sum((2, 3), seed=21)
        m = Povm(5, (0.5 * projectors[0] + 0.1 * projectors[1],
                     0.5 * projectors[0] + 0.9 * projectors[1]))
        rep = measurement_preserved(ch, m)
        assert rep.all_preserved
        for er in rep.elements:
            assert isinstance(er.structure, StructuralDecomposition)

    def test_three_way_equivalence_random(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            aligned = trial % 2 == 0
            ch, _, projectors = rotated_direct_sum((2, 2), seed=trial + 700)
            if aligned:
                m = ProjectiveMeasurement(4, tuple(projectors))
            else:
                u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
                m = ProjectiveMeasurement(
                    4, (u[:, :2] @ u[:, :2].conj().T, u[:, 2:] @ u[:, 2:].conj().T)
                )
            rep = measurement_preserved(ch, m)
            assert rep.all_preserved == rep.ranges_invariant
            if rep.ranges_invariant:
                assert rep.commute.commute

    @pytest.mark.parametrize("projective", [True, False], ids=["projective", "povm"])
    def test_one_adjoint_per_measurement(self, monkeypatch, projective):
        ch, _, projectors = rotated_direct_sum((2, 3), seed=21)
        if projective:
            m = ProjectiveMeasurement(5, tuple(projectors))
        else:
            m = Povm(5, (0.5 * projectors[0] + 0.1 * projectors[1],
                         0.5 * projectors[0] + 0.9 * projectors[1],
                         0.0 * projectors[0]))
        calls = count_calls(monkeypatch, KrausChannel, "adjoint")
        rep = measurement_preserved(ch, m)
        assert rep.all_preserved and len(calls) == 1

    def test_projectors_checked_once(self, monkeypatch):
        # ProjectiveMeasurement checked its projectors; the range-invariance
        # cross-check must not check them again
        ch, _, projectors = rotated_direct_sum((2, 3, 4), seed=23)
        m = ProjectiveMeasurement(9, tuple(projectors))
        calls = []
        real = measurement._projector

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(measurement, "_projector", counting)
        rep = measurement_preserved(ch, m)
        assert rep.all_preserved and rep.ranges_invariant
        assert len(calls) == 0

    def test_structural_equivalence_on_constructed_elements(self):
        ch, _, _ = rotated_direct_sum((2, 3), seed=77)
        dec = iris_decompose(ch, seed=0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            weights = rng.random(dec.n_blocks)
            e = sum(w * s.projector() for w, s in zip(weights, dec.blocks))
            assert statistics_preserved(ch, e).preserved
            out = povm_structural_decomposition(ch, e)
            assert isinstance(out, StructuralDecomposition)
            for t in out.terms:
                assert is_invariant_subspace(ch, t.subspace).invariant


def _eigh_calls(monkeypatch) -> list:
    """Patch ``np.linalg.eigh``; the returned list gains one entry per call made
    from ``measurement``."""
    calls, real = [], np.linalg.eigh

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == measurement.__name__:
            calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _ranges_invariant_reference(ch, m: ProjectiveMeasurement) -> bool:
    """The former cross-check, kept as a reference: the channel fixes the projector
    onto each range, the top-rank(P) eigenvectors of the projector's own ``eigh``;
    a zero projector's range {0} is invariant."""
    ranges = []
    for p in m.projectors:
        w, v = np.linalg.eigh(p)
        rank = np.count_nonzero(np.rint(w) == 1)
        if rank:
            ranges.append(Subspace(ch.dim, v[:, ch.dim - rank :]))
    return all(is_invariant_subspace(ch, r).invariant for r in ranges)


class TestOnePass:
    """One stacked ``eigh``, one adjoint and one scan per element decide a measurement."""

    @pytest.mark.parametrize("d", [8, 64])
    def test_computational_basis_on_dephasing(self, monkeypatch, d):
        # each rank-1 projector's scan checks its range and its kernel, and the
        # range is checked once, not again for ranges_invariant
        ch, m = dephasing_channel(d), computational_measurement(d)
        adjoints = count_calls(monkeypatch, KrausChannel, "adjoint")
        checks = count_calls(monkeypatch, decomposition, "is_invariant_subspace")
        eighs = _eigh_calls(monkeypatch)
        rep = measurement_preserved(ch, m)
        assert rep.all_preserved and rep.ranges_invariant
        assert (len(adjoints), len(checks), len(eighs)) == (1, 2 * d, 1)

    def test_block_projectors(self, monkeypatch):
        ch, _, projectors = rotated_direct_sum((2, 3, 4), seed=23)
        m = ProjectiveMeasurement(9, tuple(projectors))
        adjoints = count_calls(monkeypatch, KrausChannel, "adjoint")
        checks = count_calls(monkeypatch, decomposition, "is_invariant_subspace")
        eighs = _eigh_calls(monkeypatch)
        rep = measurement_preserved(ch, m)
        assert rep.all_preserved and rep.ranges_invariant
        assert [len(e.structure.terms) for e in rep.elements] == [2, 2, 2]
        assert (len(adjoints), len(checks), len(eighs)) == (1, 2 * len(projectors), 1)

    def test_ranges_invariant_matches_reference(self):
        cases = [make() for make, _ in FACTORED.values()]
        cases.append((dephasing_channel(4), ProjectiveMeasurement(
            4, computational_measurement(4).projectors + (np.zeros((4, 4), complex),))))
        for dims in COUPLED_RANGES:
            for seed in range(len(COUPLED_RANGES[dims])):
                for eps in np.logspace(-12, -7, 21):
                    ch = coupled_blocks(eps, seed, dims)
                    cases += [(ch, _blocks(dims)), (ch, computational_measurement(ch.dim))]
        compared = 0
        for ch, m in cases:
            try:
                report = measurement_preserved(ch, m)
            except ToleranceFailure:  # no report to compare: 21 of the 756 coupled cases
                continue
            assert report.ranges_invariant == _ranges_invariant_reference(ch, m)
            compared += 1
        assert compared > 0.95 * len(cases)


def _report(cls, flag: bool):
    """A factory of a replacement criterion that returns ``cls(flag, residual)``
    whatever it is given."""
    return lambda: lambda *args, **kwargs: cls(flag, 0.0 if flag else 1.0)


def _range_passes_kernel_fails():
    """An ``is_invariant_subspace`` that passes every other call, the first
    included: the scan of a rank-1 projector at d = 2 checks its range, then its
    kernel, so every range passes and every kernel fails."""
    calls = itertools.count()
    return lambda *args, **kwargs: InvarianceReport(next(calls) % 2 == 0, 0.0)


# criteria that disagree with the others: (channel, patched name, a factory of a
# fresh replacement, message); each must end in ToleranceFailure, never in an
# inconsistent report
INCONSISTENT = {
    "preserved element, eigenspace not invariant": (
        dephasing_channel, "is_invariant_subspace", _report(InvarianceReport, False),
        "element is preserved but one of its eigenspaces failed the invariance check"),
    "element not preserved, every eigenspace invariant": (
        lambda d: depolarizing_channel(d, 0.5), "is_invariant_subspace",
        _report(InvarianceReport, True),
        "element is not preserved yet every eigenspace passed the invariance check"),
    "preservation and range invariance disagree": (
        lambda d: depolarizing_channel(d, 0.5), "is_invariant_subspace",
        _range_passes_kernel_fails,
        "per-element preservation and projector-range invariance disagree"),
    "invariant ranges, channels do not commute": (
        dephasing_channel, "_measurement_commutes", _report(CommutationReport, False),
        "every projector range is invariant yet the measurement channel fails to commute"),
}


class TestInconsistentTolerances:
    @pytest.mark.parametrize("case", INCONSISTENT, ids=str)
    def test_tolerance_failure(self, monkeypatch, case):
        make, name, replacement, message = INCONSISTENT[case]
        monkeypatch.setattr(measurement, name, replacement())
        with pytest.raises(ToleranceFailure, match=message):
            measurement_preserved(make(2), computational_measurement(2))
