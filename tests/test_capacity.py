import tracemalloc

import numpy as np
import pytest

from krausblocks import (
    ChannelQuantity,
    coherent_information,
    coherent_information_value,
    dephasing_channel,
    depolarizing_channel,
    ent_assisted_capacity,
    exchange_matrix,
    haar_unitary,
    identity_channel,
    iris_decompose,
    min_output_renyi,
    quantum_mutual_information,
    random_unital_channel,
    reduce_over_blocks,
    renyi_entropy,
    restrict,
    unitary_channel,
)
from krausblocks.errors import (
    EmptyBlockList,
    InvalidAlpha,
    InvalidParameter,
    NotADensityMatrix,
)

from krausblocks.capacity import (
    _EIG_FLOOR,
    _LN2,
    _ascent_parts,
    _renyi_bits,
    _sphere_descent,
    _state_ascent,
)
from krausblocks.channel import KrausChannel
from krausblocks.linalg import DEFAULT_TOL

from tests.util import (
    count_calls,
    random_density,
    random_hermitian,
    random_unit_vector,
    rotated_direct_sum,
)


class TestRenyiEntropy:
    def test_pure_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        for alpha in (1, 1.5, 2, 5):
            assert renyi_entropy(rho, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_alpha2(self):
        assert renyi_entropy(np.eye(2) / 2, 2) == pytest.approx(1.0, abs=1e-12)

    def test_von_neumann_frozen_value(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert renyi_entropy(rho, 1) == pytest.approx(expected, abs=1e-12)
        assert renyi_entropy(rho, 1) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_continuity_near_one(self):
        # exactly alpha-independent spectra stay put; near-uniform spectra move
        # by ~ (alpha-1)/2 * Var(log lambda), far below 1e-6 here
        states = [
            np.eye(2) / 2,
            np.eye(4) / 4,
            np.diag([0.2501, 0.2500, 0.2500, 0.2499]).astype(complex),
            np.diag([1.0, 0.0]).astype(complex),
        ]
        for rho in states:
            assert abs(renyi_entropy(rho, 1 + 1e-4) - renyi_entropy(rho, 1)) <= 1e-6

    def test_limit_from_above(self):
        rng = np.random.default_rng(2)
        rho = random_density(3, rng)
        s1 = renyi_entropy(rho, 1)
        diffs = [abs(renyi_entropy(rho, 1 + h) - s1) for h in (1e-2, 1e-4, 1e-6)]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-6

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho = random_density(d, rng)
            for alpha in (1, 2, 5):
                s = renyi_entropy(rho, alpha)
                assert 0.0 <= s <= np.log2(d) + 1e-12

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_density(4, rng)
            s1, s2, s5 = (renyi_entropy(rho, a) for a in (1, 2, 5))
            assert s1 >= s2 - 1e-12
            assert s2 >= s5 - 1e-12

    def test_rejects(self):
        for alpha in (0.5, float("nan"), float("inf")):
            with pytest.raises(InvalidAlpha):
                renyi_entropy(np.eye(2) / 2, alpha)
            with pytest.raises(InvalidAlpha):
                min_output_renyi(identity_channel(2), alpha, restarts=1)
        with pytest.raises(NotADensityMatrix):
            renyi_entropy(np.eye(2), 2)


class TestMinOutputRenyi:
    def test_identity_channel_zero(self):
        for alpha in (1, 2):
            q = min_output_renyi(identity_channel(2), alpha, restarts=4, seed=0)
            assert q.value == pytest.approx(0.0, abs=1e-9)

    def test_depolarizing_qubit_value(self):
        # every pure input yields output spectrum {1 - p/2, p/2}
        q = min_output_renyi(depolarizing_channel(2, 0.5), 1, restarts=8, seed=1)
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert q.value == pytest.approx(expected, abs=1e-9)
        # cross-check with a dense grid over pure qubit states
        grid = []
        for t in np.linspace(0, np.pi, 20):
            for ph in np.linspace(0, 2 * np.pi, 40, endpoint=False):
                x = np.array([np.cos(t / 2), np.exp(1j * ph) * np.sin(t / 2)])
                rho = depolarizing_channel(2, 0.5).apply(np.outer(x, x.conj()))
                grid.append(renyi_entropy(rho, 1))
        assert q.value <= min(grid) + 1e-9

    def test_fully_depolarizing(self):
        q = min_output_renyi(depolarizing_channel(2, 1.0), 2, restarts=4, seed=0)
        assert q.value == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        ch = random_unital_channel(3, 3, seed=3)
        a = min_output_renyi(ch, 2, restarts=8, seed=5)
        b = min_output_renyi(ch, 2, restarts=8, seed=5)
        assert a.value == b.value

    def test_monotone_in_alpha(self):
        ch = random_unital_channel(3, 3, seed=9)
        vals = [min_output_renyi(ch, a, restarts=8, seed=2).value for a in (1, 2, 5)]
        assert vals[0] >= vals[1] - 1e-6
        assert vals[1] >= vals[2] - 1e-6

    def test_metadata(self):
        q = min_output_renyi(identity_channel(2), 2, restarts=4, seed=0)
        assert isinstance(q, ChannelQuantity)
        assert q.kind == "min_output_renyi"
        assert q.method == "optimized"
        assert q.restarts_used == 4
        assert q.alpha == 2.0
        assert q.achieved_argument is not None
        assert 0.0 <= q.value <= np.log2(2)


def _dense_sphere_descent(ch, alpha, x0, max_iters=400):
    """The sphere descent on d x d output states: ``apply`` on x x^dagger for
    each value and ``adjoint().apply`` of dS/drho for each gradient, with the
    same step sizes, Armijo rule, stall stop and batch mask."""

    def evaluate(x):
        out = ch.apply(x[:, :, None] * x[:, None, :].conj())
        out = (out + out.conj().swapaxes(1, 2)) / 2
        return out, _renyi_bits(np.linalg.eigvalsh(out), alpha)

    def gradient_matrix(rho):
        w, v = np.linalg.eigh(rho)
        lam = np.clip(w, _EIG_FLOOR, None)
        if alpha == 1:
            g = -(np.log2(lam) + 1.0 / _LN2)
        else:
            t = np.sum(lam**alpha, axis=-1, keepdims=True)
            g = (alpha / ((1.0 - alpha) * t * _LN2)) * lam ** (alpha - 1.0)
        return (v * g[:, None, :]) @ v.conj().swapaxes(1, 2)

    adjoint = ch.adjoint()
    n = len(x0)
    x = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    out, f = evaluate(x)
    eta, stall = np.full(n, 0.2), np.zeros(n, dtype=int)
    steps, active = np.zeros(n, dtype=int), np.ones(n, dtype=bool)
    for _ in range(max_iters):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        xl = x[live]
        grad = 2.0 * (adjoint.apply(gradient_matrix(out[live])) @ xl[:, :, None])[:, :, 0]
        grad = grad - np.real(np.sum(xl.conj() * grad, axis=1))[:, None] * xl
        gn = np.linalg.norm(grad, axis=1)
        done = gn < 1e-10
        active[live[done]] = False
        live, xl, grad, gn = live[~done], xl[~done], grad[~done], gn[~done]
        f_prev = f[live]
        moved = np.zeros(live.size, dtype=bool)
        search = eta[live] > 1e-14
        while search.any():
            s = np.flatnonzero(search)
            i = live[s]
            xn = xl[s] - eta[i][:, None] * grad[s]
            xn = xn / np.linalg.norm(xn, axis=1, keepdims=True)
            on, fn = evaluate(xn)
            ok = fn < f[i] - 1e-4 * eta[i] * gn[s] * gn[s]
            a, r = i[ok], i[~ok]
            x[a], out[a], f[a] = xn[ok], on[ok], fn[ok]
            eta[a] = np.minimum(eta[a] * 1.5, 1.0)
            eta[r] *= 0.5
            moved[s[ok]] = True
            search[s] = ~ok & (eta[i] > 1e-14)
        active[live[~moved]] = False
        live, f_prev = live[moved], f_prev[moved]
        steps[live] += 1
        stall[live] = np.where(f_prev - f[live] < 1e-10, stall[live] + 1, 0)
        active[live[stall[live] >= 2]] = False
    return f, x, steps


class TestKrausImageDescent:
    # the descent reads each value and gradient off the Kraus images A_i x and
    # the smaller Gram matrix; the d x d output states give the same paths
    @pytest.mark.parametrize("make", [
        lambda: random_unital_channel(5, 3, seed=1),  # k < d
        lambda: dephasing_channel(4),  # k = d
        lambda: depolarizing_channel(3, 0.4),  # k > d
    ], ids=["k<d", "k=d", "k>d"])
    @pytest.mark.parametrize("alpha", [1, 2, 5])
    @pytest.mark.parametrize("max_iters", [400, 6])
    def test_matches_output_states(self, make, alpha, max_iters):
        ch = make()
        z = np.random.default_rng(6).standard_normal((8, 2, ch.dim))
        x0 = z[:, 0] + 1j * z[:, 1]
        f, _, steps = _sphere_descent(ch, alpha, x0, max_iters)
        f_ref, _, steps_ref = _dense_sphere_descent(ch, alpha, x0, max_iters)
        assert np.max(np.abs(f - f_ref)) <= 1e-12
        # a path that reaches a pure output (dephasing, alpha = 1) ends at the
        # rounding floor, values near 1e-14 bits, where the Armijo and stall
        # tests compare rounding errors: its last step may go either way
        floor = f_ref < 1e-12
        assert steps[~floor].tolist() == steps_ref[~floor].tolist()
        assert np.all(np.abs(steps - steps_ref)[floor] <= 1)

    def test_restarts_end_where_they_end_alone(self):
        # at the rounding floor (dephasing, alpha = 1) the last step compares
        # rounding errors, so a restart ends where it ends alone only when its
        # arithmetic does not depend on the size of the batch
        ch = dephasing_channel(4)
        z = np.random.default_rng(6).standard_normal((8, 2, 4))
        x0 = z[:, 0] + 1j * z[:, 1]
        f, x, steps = _sphere_descent(ch, 1, x0)
        for r in range(len(x0)):
            f_r, x_r, steps_r = _sphere_descent(ch, 1, x0[r : r + 1])
            assert f_r[0] == f[r] and steps_r[0] == steps[r]
            assert np.array_equal(x_r[0], x[r])

    def test_no_output_states(self, monkeypatch):
        calls = count_calls(monkeypatch, KrausChannel, "apply")
        adjoints = count_calls(monkeypatch, KrausChannel, "adjoint")
        min_output_renyi(random_unital_channel(4, 3, seed=2), 1, restarts=4, seed=0)
        assert len(calls) == 0 and len(adjoints) == 0

    def test_memory_stays_order_kd(self):
        # the (k, d, d) products of the output states took 66 MB here
        ch = depolarizing_channel(16, 0.5)
        tracemalloc.start()
        try:
            min_output_renyi(ch, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestExchangeMatrix:
    def test_pure_input_spectra_match(self):
        # for pure inputs the exchange matrix and the channel output share
        # their nonzero spectrum
        rng = np.random.default_rng(6)
        ch = random_unital_channel(3, 4, seed=8)
        for _ in range(10):
            x = random_unit_vector(3, rng)
            rho = np.outer(x, x.conj())
            w1 = np.sort(np.linalg.eigvalsh(ch.apply(rho)))[::-1]
            w2 = np.sort(np.linalg.eigvalsh(exchange_matrix(ch, rho)))[::-1]
            k = min(len(w1), len(w2))
            assert np.allclose(w1[:k], w2[:k], atol=1e-10)

    def test_entrywise(self):
        # W_ij = tr(A_i rho A_j^dagger) on a complex channel and state, where
        # W is Hermitian but not symmetric, so W and W^T differ
        ch = random_unital_channel(3, 4, seed=8)
        rho = random_density(3, np.random.default_rng(6))
        want = np.array([[np.trace(ai @ rho @ aj.conj().T) for aj in ch.kraus] for ai in ch.kraus])
        assert np.max(np.abs(want - want.T)) > 1e-2
        assert np.max(np.abs(exchange_matrix(ch, rho) - want)) < 1e-14

    def test_batch_axis(self):
        ch = random_unital_channel(3, 4, seed=8)
        rng = np.random.default_rng(6)
        rhos = np.array([random_density(3, rng) for _ in range(5)])
        w = exchange_matrix(ch, rhos)
        assert w.shape == (5, 4, 4)
        for r in range(5):
            assert np.max(np.abs(w[r] - exchange_matrix(ch, rhos[r]))) < 1e-14


class TestAscentGradient:
    @pytest.mark.parametrize("include_input_entropy", [True, False])
    def test_matches_central_differences(self, include_input_entropy):
        # the gradient drops multiples of I, so it is checked along traceless
        # Hermitian directions H: d/dt f(rho + t H) = tr(grad H)
        ch = random_unital_channel(3, 4, seed=8)
        rng = np.random.default_rng(9)
        rho = random_density(3, rng)
        _, grad = _ascent_parts(ch, rho, include_input_entropy)
        eps = 1e-5
        for _ in range(5):
            h = random_hermitian(3, rng)
            h -= np.trace(h) / 3 * np.eye(3)
            h /= np.linalg.norm(h)
            plus, _ = _ascent_parts(ch, rho + eps * h, include_input_entropy)
            minus, _ = _ascent_parts(ch, rho - eps * h, include_input_entropy)
            fd = (plus - minus) / (2 * eps)
            assert abs(np.real(np.trace(grad @ h)) - fd) < 1e-6


class TestRestartIndependence:
    # every restart of a batch must follow the path it takes alone: the same
    # final value and the same number of accepted steps. The full-length runs
    # have restarts that stop at different steps and leave the batch early;
    # the truncated runs end mid-path, where the value depends on every step
    # size taken.

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("max_iters", [400, 6])
    def test_sphere_descent(self, alpha, max_iters):
        ch = random_unital_channel(3, 3, seed=0)
        z = np.random.default_rng(6).standard_normal((8, 2, 3))
        x0 = z[:, 0] + 1j * z[:, 1]
        f, _, steps = _sphere_descent(ch, alpha, x0, max_iters=max_iters)
        if max_iters == 400:
            assert len(set(steps.tolist())) > 1 and steps.max() < max_iters
        for r in range(len(x0)):
            f_r, _, steps_r = _sphere_descent(ch, alpha, x0[r : r + 1], max_iters=max_iters)
            assert abs(f_r[0] - f[r]) <= DEFAULT_TOL.optimizer
            assert steps_r[0] == steps[r]

    @pytest.mark.parametrize("include_input_entropy", [False, True])
    @pytest.mark.parametrize("max_iters", [500, 3])
    @pytest.mark.parametrize("identity", [False, True])
    def test_state_ascent(self, include_input_entropy, max_iters, identity):
        # on the identity channel the maximally mixed start certifies itself
        # at once and some line searches halve the step below 1
        ch = identity_channel(3) if identity else random_unital_channel(3, 3, seed=0)
        rng = np.random.default_rng(2)
        starts = np.array([np.eye(3) / 3] + [random_density(3, rng) for _ in range(8)])
        gap_tol = DEFAULT_TOL.optimizer * 0.5
        v, _, gap, steps = _state_ascent(ch, starts, include_input_entropy, gap_tol, max_iters)
        if max_iters == 500:
            assert len(set(steps.tolist())) > 1 and np.all(gap <= gap_tol)
        for r in range(len(starts)):
            v_r, _, gap_r, steps_r = _state_ascent(
                ch, starts[r : r + 1], include_input_entropy, gap_tol, max_iters
            )
            assert abs(v_r[0] - v[r]) <= DEFAULT_TOL.optimizer
            assert steps_r[0] == steps[r]
            assert abs(gap_r[0] - gap[r]) <= DEFAULT_TOL.optimizer


class TestEntAssistedCapacity:
    def test_identity_qubit(self):
        q = ent_assisted_capacity(identity_channel(2))
        assert q.value == pytest.approx(2.0, abs=1e-3)
        # oracle: evaluate the objective at the maximally mixed state
        assert quantum_mutual_information(identity_channel(2), np.eye(2) / 2) == pytest.approx(2.0, abs=1e-12)

    def test_fully_depolarizing_qubit(self):
        q = ent_assisted_capacity(depolarizing_channel(2, 1.0))
        assert q.value == pytest.approx(0.0, abs=1e-3)

    def test_identity_qutrit(self):
        q = ent_assisted_capacity(identity_channel(3))
        assert q.value == pytest.approx(2 * np.log2(3), abs=1e-3)

    def test_value_dominates_probes(self):
        rng = np.random.default_rng(7)
        ch = random_unital_channel(3, 3, seed=4)
        q = ent_assisted_capacity(ch)
        for _ in range(20):
            rho = random_density(3, rng)
            assert q.value >= quantum_mutual_information(ch, rho) - 2e-4


class TestCoherentInformation:
    def test_identity_qubit(self):
        q = coherent_information(identity_channel(2), restarts=8, seed=0)
        assert q.value == pytest.approx(1.0, abs=1e-4)

    def test_fully_depolarizing(self):
        q = coherent_information(depolarizing_channel(2, 1.0), restarts=8, seed=0)
        assert q.value == pytest.approx(0.0, abs=1e-6)
        # grid cross-check: J is nonpositive everywhere for this channel
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density(2, rng)
            assert coherent_information_value(depolarizing_channel(2, 1.0), rho) <= 1e-9

    def test_unitary_channel(self):
        rng = np.random.default_rng(10)
        u = haar_unitary(3, rng)
        q = coherent_information(unitary_channel(u), restarts=8, seed=1)
        assert q.value == pytest.approx(np.log2(3), abs=1e-4)

    def test_lower_bounds_probes(self):
        rng = np.random.default_rng(11)
        ch = random_unital_channel(2, 3, seed=5)
        q = coherent_information(ch, restarts=16, seed=2)
        for _ in range(20):
            rho = random_density(2, rng)
            assert q.value >= coherent_information_value(ch, rho) - 2e-4


class TestArgumentRanges:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: ent_assisted_capacity(identity_channel(2), max_iters=-1),
            lambda: coherent_information(identity_channel(2), restarts=2, max_iters=-1),
            lambda: min_output_renyi(identity_channel(2), 1.0, restarts=2, seed=-1),
            lambda: coherent_information(identity_channel(2), restarts=2, seed=-1),
            lambda: random_unital_channel(2, 2, seed=-1),
            lambda: iris_decompose(identity_channel(2), seed=-1),
        ],
        ids=["ce-max-iters", "coh-max-iters", "smin-seed", "coh-seed", "random-unital-seed",
             "decompose-seed"],
    )
    def test_invalid_parameter(self, call):
        with pytest.raises(InvalidParameter):
            call()


class TestReduction:
    def test_min_rule(self):
        assert reduce_over_blocks("min_output_renyi", [0.3, 0.7]) == 0.3

    def test_max_rule(self):
        assert reduce_over_blocks("coherent_information", [0.3, 0.7]) == 0.7

    def test_log_sum_exp2(self):
        assert reduce_over_blocks("ent_assisted_capacity", [1.0, 2.0]) == pytest.approx(
            np.log2(6), abs=1e-12
        )
        assert reduce_over_blocks("classical_capacity", [1.0, 1.0]) == pytest.approx(2.0)

    def test_empty(self):
        with pytest.raises(EmptyBlockList):
            reduce_over_blocks("min_output_renyi", [])

    def test_non_finite(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameter):
                reduce_over_blocks("classical_capacity", [1.0, value])

    def test_min_output_reduction_on_blocks(self):
        for seed in (0, 1):
            ch, _, _ = rotated_direct_sum((2, 2), seed=seed + 60)
            dec = iris_decompose(ch, seed=0)
            for alpha in (1, 2):
                full = min_output_renyi(ch, alpha, restarts=16, seed=3).value
                per_block = [
                    min_output_renyi(restrict(ch, s), alpha, restarts=16, seed=3).value
                    for s in dec.blocks
                ]
                assert abs(full - reduce_over_blocks("min_output_renyi", per_block)) <= 2e-4

    def test_ent_assisted_dominates_log_sum(self):
        # the log-sum combination is a lower bound on the full value: feed the
        # blocks' optimizers through a classically mixed block-diagonal input.
        # It is NOT exact: coherences between blocks survive in the joint
        # output state, so the full value can exceed it (see the noiseless
        # qubit below).
        ch, _, _ = rotated_direct_sum((2, 2), seed=62)
        dec = iris_decompose(ch, seed=0)
        full = ent_assisted_capacity(ch).value
        per_block = [ent_assisted_capacity(restrict(ch, s)).value for s in dec.blocks]
        assert full >= reduce_over_blocks("ent_assisted_capacity", per_block) - 2e-4

    def test_ent_assisted_log_sum_not_exact(self):
        # the noiseless and the completely dephasing qubit both split into two
        # 1-dim blocks of value 0, so every rule over per-block values gives
        # them the same number; yet their full values are 2 and 1 bits. The
        # log-sum rule (1 bit) is met by the dephasing qubit, where no
        # coherence between the blocks survives, and the bracket's upper end
        # 2 log2 sum 2^(v/2) (2 bits) by the noiseless one.
        for ch, expected in ((identity_channel(2), 2.0), (dephasing_channel(2), 1.0)):
            dec = iris_decompose(ch, seed=0)
            assert dec.block_dims == (1, 1)
            per_block = [ent_assisted_capacity(restrict(ch, s)).value for s in dec.blocks]
            assert per_block == pytest.approx([0.0, 0.0], abs=1e-3)
            combined = reduce_over_blocks("ent_assisted_capacity", per_block)
            assert combined == pytest.approx(1.0, abs=1e-3)
            assert ent_assisted_capacity(ch).value == pytest.approx(expected, abs=1e-3)

    def test_coherent_one_sided_bound(self):
        # only the lower bound is asserted; the deviation from equality is
        # reported because block coherences can push the full value higher
        ch, _, _ = rotated_direct_sum((2, 2), seed=63)
        dec = iris_decompose(ch, seed=0)
        full = coherent_information(ch, restarts=16, seed=1).value
        per_block = [
            coherent_information(restrict(ch, s), restarts=16, seed=1).value
            for s in dec.blocks
        ]
        assert full >= max(per_block) - 1e-4
        print(f"coherent information: full {full:.6f} vs block max {max(per_block):.6f}")

    def test_remix_invariance(self):
        # all quantities depend only on the superoperator, so a Kraus remix
        # (here with one padding slot, changing the environment size) is inert
        ch, _, _ = rotated_direct_sum((1, 2), seed=64)
        u = haar_unitary(ch.n_kraus + 1, np.random.default_rng(0))
        mixed = ch.remix(u)
        a = min_output_renyi(ch, 2, restarts=16, seed=4).value
        b = min_output_renyi(mixed, 2, restarts=16, seed=4).value
        assert abs(a - b) <= 1e-4
        ca = ent_assisted_capacity(ch).value
        cb = ent_assisted_capacity(mixed).value
        assert abs(ca - cb) <= 1e-4
        ja = coherent_information(ch, restarts=8, seed=4).value
        jb = coherent_information(mixed, restarts=8, seed=4).value
        assert abs(ja - jb) <= 1e-4
