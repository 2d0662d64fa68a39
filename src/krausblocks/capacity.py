"""Entropic channel quantities and their block-combination rules.

The block rule is exact for the minimal output entropy and only a lower
bound for coherent information and the entanglement-assisted capacity (see
``reduce_over_blocks``).

Output entropies are minimized over pure inputs by projected gradient descent
on the unit sphere with seeded restarts; coherent information and the
entanglement-assisted capacity are maximized over states by monotone mirror
ascent with a duality-gap stopping certificate (the mutual information is
concave, so one start suffices there). The restarts of one call run as one
batch: their vectors or states are stacked, each step evaluates every restart
still running with one batched ``eigh``/``matmul`` (``KrausChannel.apply`` and
``exchange_matrix`` take a leading batch axis), and each restart keeps its
own step size and stopping rule, so it takes the path it would take alone.
A pure input x has the output ``M M^dagger``, ``M = [A_1 x ... A_k x]``; by
``f(M M^dagger) M = M f(M^dagger M)`` the descent reads values and gradients off
the Kraus images and the smaller Gram matrix, ``M^dagger M`` or ``M M^dagger``.
The environment side of the mutual information uses the exchange matrix
``W_ij = tr(A_i rho A_j^dagger)``, whose nonzero spectrum matches the joint
output of the channel applied to half of a purification.

All values are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
from .errors import EmptyBlockList, InvalidAlpha, InvalidParameter, NonConvergence
from .linalg import DEFAULT_TOL, Tolerances, density_matrix, require_at_least, seeded_rng

_LN2 = float(np.log(2.0))
# This floor and the optimizers' step-size, Armijo and stall constants set their
# paths, which the golden optimizer corpus pins: no verdict, so not ``Tolerances``.
_EIG_FLOOR = 1e-18

QUANTITY_KINDS = (
    "min_output_renyi",
    "coherent_information",
    "ent_assisted_capacity",
    "classical_capacity",
)


@dataclass(frozen=True, eq=False)
class ChannelQuantity:
    """A computed or combined channel quantity, in bits.

    ``method`` records provenance: ``optimized``, the one value the
    optimizers here produce.
    """

    kind: str
    value: float
    method: str
    restarts_used: int = 0
    alpha: float | None = None
    achieved_argument: np.ndarray | None = None


def _dag(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + _dag(m)) / 2


def _entropy_bits(eigs: np.ndarray):
    """Von Neumann entropy, in bits, of each spectrum along the last axis."""
    lam = np.clip(np.real(eigs), 0.0, None)
    # eigenvalues at or below the floor contribute exactly 0
    return -np.sum(lam * np.log2(np.where(lam > _EIG_FLOOR, lam, 1.0)), axis=-1)


def _renyi_bits(eigs: np.ndarray, alpha: float):
    """Renyi-``alpha`` entropy, in bits, of each spectrum along the last axis,
    renormalized to unit mass."""
    lam = np.clip(eigs, 0.0, None)
    lam = lam / np.sum(lam, axis=-1, keepdims=True)
    if alpha == 1:
        return _entropy_bits(lam)
    return np.log2(np.sum(lam**alpha, axis=-1)) / (1.0 - alpha)


def require_renyi_order(alpha: float) -> None:
    """Raise InvalidAlpha unless ``alpha`` is a finite Renyi order ``>= 1``."""
    if not (math.isfinite(alpha) and alpha >= 1):
        raise InvalidAlpha(f"Renyi order must be finite and >= 1, got {alpha}")


def renyi_entropy(rho, alpha: float) -> float:
    """Renyi-``alpha`` entropy of a density matrix, in bits.

    ``alpha = 1`` is the von Neumann entropy; for ``alpha > 1`` the value is
    ``log2(sum lambda^alpha) / (1 - alpha)``. The spectrum is renormalized to
    unit mass so that trace error is not amplified by ``1/(1-alpha)`` near
    ``alpha = 1``.
    """
    require_renyi_order(alpha)
    h = density_matrix(rho)
    return max(0.0, float(_renyi_bits(np.linalg.eigvalsh(h), alpha)))


def exchange_matrix(ch: KrausChannel, rho) -> np.ndarray:
    """The ``n_kraus x n_kraus`` matrix ``W_ij = tr(A_i rho A_j^dagger)``.

    ``rho`` may carry leading batch axes, ``(..., dim, dim)``; the result then
    has shape ``(..., n_kraus, n_kraus)``.
    """
    a = ch.kraus
    k, d = a.shape[0], ch.dim
    r = np.asarray(rho, dtype=complex)
    b = (a @ r[..., None, :, :]).reshape(*r.shape[:-2], k, d * d)
    return _herm(b @ a.conj().reshape(k, d * d).T)


def quantum_mutual_information(ch: KrausChannel, rho) -> float:
    """``S(rho) + S(phi(rho)) - S(W(rho))`` in bits; concave in the state."""
    h = density_matrix(rho)
    return float(_entropy_bits(np.linalg.eigvalsh(h))) + coherent_information_value(ch, h)


def coherent_information_value(ch: KrausChannel, rho) -> float:
    """``S(phi(rho)) - S(W(rho))`` in bits for one input state."""
    h = density_matrix(rho)
    return float(
        _entropy_bits(np.linalg.eigvalsh(_herm(ch.apply(h))))
        - _entropy_bits(np.linalg.eigvalsh(exchange_matrix(ch, h)))
    )


# ---------------------------------------------------------------------------
# minimal output Renyi entropy: projected gradient descent on the sphere
# ---------------------------------------------------------------------------


def _kraus_images(
    ch: KrausChannel, x: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Kraus images ``Y = M^T`` (rows ``A_i x``) of the pure inputs in the rows
    of ``x``, the eigenpairs of the smaller Gram matrix, ``M^dagger M`` (k x k) or
    the output ``M M^dagger`` (d x d), and the output Renyi entropies."""
    k, d = ch.n_kraus, ch.dim
    # one product per restart: a GEMM over all rows rounds by its row count,
    # and a restart must end bit for bit where it ends alone
    y = (ch.kraus.reshape(k * d, d) @ x[:, :, None]).reshape(len(x), k, d)
    w, v = np.linalg.eigh(y.conj() @ y.swapaxes(1, 2) if k < d else y.swapaxes(1, 2) @ y.conj())
    return y, w, v, _renyi_bits(w, alpha)


def _sphere_gradient(
    ch: KrausChannel, y: np.ndarray, w: np.ndarray, v: np.ndarray, alpha: float
) -> np.ndarray:
    """``2 sum_i A_i^dagger G A_i x`` for ``G = dS_alpha/drho`` at each output,
    from the Kraus images and their Gram eigenpairs (eigenvalues floored for
    logs): the rows ``G A_i x`` of ``(G M)^T`` are ``g(M^dagger M)^T Y`` when
    k < d, as ``G M = M g(M^dagger M)``, else ``Y G^T``."""
    lam = np.clip(w, _EIG_FLOOR, None)
    if alpha == 1:
        g = -(np.log2(lam) + 1.0 / _LN2)
    else:
        t = np.sum(lam**alpha, axis=-1, keepdims=True)
        g = (alpha / ((1.0 - alpha) * t * _LN2)) * lam ** (alpha - 1.0)
    gt = (v.conj() * g[:, None, :]) @ v.swapaxes(1, 2)  # g(Gram)^T
    gy = gt @ y if ch.n_kraus < ch.dim else y @ gt
    return 2.0 * (gy.reshape(len(y), 1, -1) @ ch.kraus.conj().reshape(-1, ch.dim))[:, 0]


def _sphere_descent(
    ch: KrausChannel, alpha: float, x0: np.ndarray, max_iters: int = 400
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient descent on the unit sphere from every row of ``x0``.

    All restarts advance together, one batched evaluation per step, but each
    keeps its own step size, Armijo line search and stopping rule, and leaves
    the batch when it stops, so its path is the one it would take alone.
    Values and gradients come from the Kraus images and the smaller of the k x k
    and d x d Gram matrices, by ``f(M M^dagger) M = M f(M^dagger M)``.
    Returns each restart's final value, point and number of accepted steps.
    """
    n = len(x0)
    x = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    y, w, v, f = _kraus_images(ch, x, alpha)
    eta = np.full(n, 0.2)
    stall = np.zeros(n, dtype=int)
    steps = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    for _ in range(max_iters):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        xl = x[live]
        grad = _sphere_gradient(ch, y[live], w[live], v[live], alpha)
        # project onto the tangent space
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
            yn, wn, vn, fn = _kraus_images(ch, xn, alpha)
            ok = fn < f[i] - 1e-4 * eta[i] * gn[s] * gn[s]
            a, r = i[ok], i[~ok]
            x[a], y[a], w[a], v[a], f[a] = xn[ok], yn[ok], wn[ok], vn[ok], fn[ok]
            eta[a] = np.minimum(eta[a] * 1.5, 1.0)
            eta[r] *= 0.5
            moved[s[ok]] = True
            search[s] = ~ok & (eta[i] > 1e-14)
        active[live[~moved]] = False
        live, f_prev = live[moved], f_prev[moved]
        steps[live] += 1
        # linear local convergence: a couple of sub-1e-10 steps means the
        # remaining tail is far below the optimizer tolerance
        stall[live] = np.where(f_prev - f[live] < 1e-10, stall[live] + 1, 0)
        active[live[stall[live] >= 2]] = False
    return f, x, steps


def min_output_renyi(
    ch: KrausChannel,
    alpha: float,
    restarts: int = 32,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> ChannelQuantity:
    """Best-effort minimal output Renyi entropy over pure inputs.

    Multi-start projected gradient descent, all restarts run as one batch;
    deterministic for a fixed seed. The reported value is an upper bound on
    the true minimum.
    """
    require_renyi_order(alpha)
    require_at_least("restarts", restarts, 1)
    z = seeded_rng(seed).standard_normal((restarts, 2, ch.dim))
    f, x, _ = _sphere_descent(ch, alpha, z[:, 0] + 1j * z[:, 1])
    best = int(np.argmin(f))  # ties go to the first restart
    return ChannelQuantity(
        kind="min_output_renyi",
        value=max(0.0, float(f[best])),
        method="optimized",
        restarts_used=restarts,
        alpha=float(alpha),
        achieved_argument=x[best],
    )


# ---------------------------------------------------------------------------
# mutual information / coherent information: mirror ascent over states
# ---------------------------------------------------------------------------


def _eigh_log(m: np.ndarray, log=np.log2) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and matrix logarithm (eigenvalues floored) of Hermitian
    PSD matrices, one per leading index."""
    w, v = np.linalg.eigh(m)
    return w, (v * log(np.clip(w, _EIG_FLOOR, None))[..., None, :]) @ _dag(v)


def _ascent_parts(ch: KrausChannel, rho: np.ndarray, include_input_entropy: bool):
    """Objective values and gradients (bits) of a state or a stack of states,
    dropping additive multiples of I."""
    w_out, log_out = _eigh_log(_herm(ch.apply(rho)))
    w_ex, log_ex = _eigh_log(exchange_matrix(ch, rho))
    value = _entropy_bits(w_out) - _entropy_bits(w_ex)
    # sum_j A_j^dagger (sum_i log W_ji A_i)
    a = ch.kraus
    lam = np.sum(_dag(a) @ np.tensordot(log_ex, a, axes=(-1, 0)), axis=-3)
    grad = -ch.adjoint().apply(log_out) + _herm(lam)
    if include_input_entropy:
        w_in, log_in = _eigh_log(rho)
        value = value + _entropy_bits(w_in)
        grad = grad - log_in
    return value, _herm(grad)


def _mirror_step(log_rho: np.ndarray, grad_bits: np.ndarray, eta: np.ndarray) -> np.ndarray:
    m = _herm(log_rho + (eta * _LN2)[:, None, None] * grad_bits)
    w, v = np.linalg.eigh(m)
    e = np.exp(w - w.max(axis=-1, keepdims=True))
    return (v * (e / np.sum(e, axis=-1, keepdims=True))[:, None, :]) @ _dag(v)


def _state_ascent(
    ch: KrausChannel,
    rho0: np.ndarray,
    include_input_entropy: bool,
    gap_tol: float,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Monotone mirror ascent from every state of the stack ``rho0``.

    All starts advance together, one batched evaluation per step, but each
    restarts its own line search at step 1, stops on its own duality-gap
    certificate and leaves the batch when it stops. Returns each start's
    final value, state, last duality gap and number of accepted steps.
    """
    rho = _herm(np.asarray(rho0, dtype=complex))
    value, grad = _ascent_parts(ch, rho, include_input_entropy)
    n = len(rho)
    gap = np.full(n, np.inf)
    steps = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    for _ in range(max_iters + 1):  # the +1 lets an optimal start certify itself
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        g = grad[live]
        top = np.linalg.eigvalsh(g)[:, -1]
        gap[live] = top - np.real(np.sum(g.conj() * rho[live], axis=(1, 2)))
        done = gap[live] <= gap_tol
        active[live[done]] = False
        live = live[~done]
        log_rho = _eigh_log(rho[live], np.log)[1]
        eta = np.ones(live.size)
        accepted = np.zeros(live.size, dtype=bool)
        search = np.ones(live.size, dtype=bool)
        while search.any():
            s = np.flatnonzero(search)
            i = live[s]
            cand = _mirror_step(log_rho[s], grad[i], eta[s])
            v_c, g_c = _ascent_parts(ch, cand, include_input_entropy)
            ok = v_c > value[i] + 1e-15
            a = i[ok]
            rho[a], value[a], grad[a] = cand[ok], v_c[ok], g_c[ok]
            eta[s[~ok]] *= 0.5
            accepted[s[ok]] = True
            search[s] = ~ok & (eta[s] > 1e-8)
        active[live[~accepted]] = False
        steps[live[accepted]] += 1
    return value, rho, gap, steps


def ent_assisted_capacity(
    ch: KrausChannel, tol: Tolerances = DEFAULT_TOL, max_iters: int = 5000
) -> ChannelQuantity:
    """Entanglement-assisted classical capacity: the maximum quantum mutual
    information over input states.

    The objective is concave, so the mirror ascent (a batch of one start, the
    maximally mixed state) converges to the global maximum; iteration stops
    once the concavity duality gap certifies the value to within
    ``tol.optimizer`` bits.
    """
    require_at_least("max_iters", max_iters, 0)
    rho0 = np.eye(ch.dim, dtype=complex)[None] / ch.dim
    value, rho, gap, _ = _state_ascent(
        ch, rho0, include_input_entropy=True, gap_tol=tol.optimizer * 0.5, max_iters=max_iters
    )
    if gap[0] > tol.optimizer:
        raise NonConvergence(
            f"mutual-information ascent stalled with duality gap {gap[0]:.3e} bits "
            f"after {max_iters} iterations"
        )
    return ChannelQuantity(
        kind="ent_assisted_capacity",
        value=max(0.0, float(value[0])),
        method="optimized",
        restarts_used=1,
        achieved_argument=rho[0],
    )


def coherent_information(
    ch: KrausChannel,
    restarts: int = 32,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    max_iters: int = 500,
) -> ChannelQuantity:
    """Best-effort one-shot coherent information maximum over input states.

    The objective is not concave, so this is multi-start local ascent from
    the maximally mixed state, the computational pure states, and seeded
    random states, all run as one batch; the result is a lower bound on the
    true maximum. Pure inputs give exactly zero, so the value is always
    nonnegative.
    """
    require_at_least("restarts", restarts, 1)
    require_at_least("max_iters", max_iters, 0)
    d = ch.dim
    eye = np.eye(d, dtype=complex)
    corners = 0.999 * eye[:, :, None] * eye[:, None, :] + 0.001 * np.eye(d) / d
    z = seeded_rng(seed).standard_normal((restarts, 2, d, d))
    z = z[:, 0] + 1j * z[:, 1]
    m = z @ _dag(z)
    randoms = m / np.real(np.trace(m, axis1=1, axis2=2))[:, None, None]
    starts = np.concatenate([eye[None] / d, corners, randoms])
    v, rho, _, _ = _state_ascent(
        ch, starts, include_input_entropy=False, gap_tol=tol.optimizer * 0.5,
        max_iters=max_iters,
    )
    best = int(np.argmax(v))  # ties go to the first start
    if v[best] > 0.0:
        best_v, best_rho = float(v[best]), rho[best]
    else:  # pure inputs achieve exactly 0
        best_v, best_rho = 0.0, np.outer(eye[0], eye[0])
    return ChannelQuantity(
        kind="coherent_information",
        value=best_v,
        method="optimized",
        restarts_used=restarts,
        achieved_argument=best_rho,
    )


def reduce_over_blocks(kind: str, per_block) -> float:
    """Combine per-block values: pure arithmetic, no optimization.

    Minimum for the minimal output Renyi entropy, maximum for coherent
    information, and ``log2(sum_j 2^v_j)`` for the classical capacities.
    The min rule and the log-sum rule for the unassisted capacity are exact;
    for the entanglement-assisted capacity and coherent information the
    combination is only a lower bound on the full-channel value, since block
    coherences survive in the joint output (see README, "Known limits"). The
    assisted capacity also stays at or below ``2 log2(sum_j 2^(v_j / 2))``, and
    equals the log-sum when every block has its own environment.
    """
    values = [float(v) for v in per_block]
    if not values:
        raise EmptyBlockList("need at least one per-block value")
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameter(f"per-block values must be finite, got {values}")
    if kind == "min_output_renyi":
        return min(values)
    if kind == "coherent_information":
        return max(values)
    if kind in ("ent_assisted_capacity", "classical_capacity"):
        return float(np.log2(np.sum(np.exp2(values))))
    raise InvalidParameter(f"unknown quantity kind {kind!r}; choose from {QUANTITY_KINDS}")
