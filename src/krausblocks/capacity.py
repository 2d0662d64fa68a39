"""Entropic channel quantities and their block-combination rules.

The block rules are exact for the minimal output entropy and only lower
bounds for coherent information and the entanglement-assisted capacity (see
``reduce_over_blocks``).

Output entropies are minimized over pure inputs by projected gradient descent
on the unit sphere with seeded restarts; the entanglement-assisted capacity
maximizes the quantum mutual information, which is concave, by monotone
mirror ascent with a duality-gap stopping certificate. The environment side
of the mutual information uses the exchange matrix ``W_ij = tr(A_i rho
A_j^dagger)``, whose nonzero spectrum matches the joint output of the channel
applied to half of a purification.

All values are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
from .errors import (
    DimensionTooLarge,
    EmptyBlockList,
    InvalidAlpha,
    InvalidParameter,
    NonConvergence,
)
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, density_matrix

_LN2 = float(np.log(2.0))
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

    ``method`` records provenance: ``optimized`` for values produced by the
    optimizers here, ``combined`` for block combinations, ``external`` for
    caller-supplied per-block inputs.
    """

    kind: str
    value: float
    method: str
    restarts_used: int = 0
    alpha: float | None = None
    achieved_argument: np.ndarray | None = None


def _entropy_bits(eigs: np.ndarray) -> float:
    lam = np.clip(np.real(np.asarray(eigs)), 0.0, None)
    lam = lam[lam > _EIG_FLOOR]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log2(lam)))


def renyi_entropy(rho, alpha: float) -> float:
    """Renyi-``alpha`` entropy of a density matrix, in bits.

    ``alpha = 1`` is the von Neumann entropy; for ``alpha > 1`` the value is
    ``log2(sum lambda^alpha) / (1 - alpha)``. The spectrum is renormalized to
    unit mass so that trace error is not amplified by ``1/(1-alpha)`` near
    ``alpha = 1``.
    """
    if alpha < 1:
        raise InvalidAlpha(f"Renyi order must be >= 1, got {alpha}")
    h = density_matrix(rho)
    lam = np.clip(np.linalg.eigvalsh(h), 0.0, None)
    lam = lam / np.sum(lam)
    if alpha == 1:
        return max(0.0, _entropy_bits(lam))
    return max(0.0, float(np.log2(np.sum(lam**alpha)) / (1.0 - alpha)))


def exchange_matrix(ch: KrausChannel, rho) -> np.ndarray:
    """The ``n_kraus x n_kraus`` matrix ``W_ij = tr(A_i rho A_j^dagger)``."""
    a = ch.kraus
    w = np.tensordot(a @ as_matrix(rho), a.conj(), axes=([1, 2], [1, 2]))
    return (w + w.conj().T) / 2


def quantum_mutual_information(ch: KrausChannel, rho) -> float:
    """``S(rho) + S(phi(rho)) - S(W(rho))`` in bits; concave in the state."""
    h = density_matrix(rho)
    return (
        _entropy_bits(np.linalg.eigvalsh(h))
        + _entropy_bits(np.linalg.eigvalsh(_herm(ch.apply(h))))
        - _entropy_bits(np.linalg.eigvalsh(exchange_matrix(ch, h)))
    )


def coherent_information_value(ch: KrausChannel, rho) -> float:
    """``S(phi(rho)) - S(W(rho))`` in bits for one input state."""
    h = density_matrix(rho)
    return _entropy_bits(np.linalg.eigvalsh(_herm(ch.apply(h)))) - _entropy_bits(
        np.linalg.eigvalsh(exchange_matrix(ch, h))
    )


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# minimal output Renyi entropy: projected gradient descent on the sphere
# ---------------------------------------------------------------------------


def _output_state(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    return _herm(ch.apply(np.outer(x, x.conj())))


def _output_renyi_value(ch: KrausChannel, x: np.ndarray, alpha: float) -> float:
    lam = np.clip(np.linalg.eigvalsh(_output_state(ch, x)), 0.0, None)
    lam = lam / np.sum(lam)
    if alpha == 1:
        return _entropy_bits(lam)
    return float(np.log2(np.sum(lam**alpha)) / (1.0 - alpha))


def _entropy_gradient_matrix(rho: np.ndarray, alpha: float) -> np.ndarray:
    """d S_alpha / d rho as a Hermitian matrix, eigenvalues floored for logs."""
    w, v = np.linalg.eigh(rho)
    lam = np.clip(w, _EIG_FLOOR, None)
    if alpha == 1:
        g = -(np.log2(lam) + 1.0 / _LN2)
    else:
        t = float(np.sum(lam**alpha))
        g = (alpha / ((1.0 - alpha) * t * _LN2)) * lam ** (alpha - 1.0)
    return (v * g) @ v.conj().T


def _sphere_descent(
    ch: KrausChannel, alpha: float, x0: np.ndarray, max_iters: int = 400
) -> tuple[float, np.ndarray]:
    adjoint = ch.adjoint()
    x = x0 / np.linalg.norm(x0)
    f = _output_renyi_value(ch, x, alpha)
    eta = 0.2
    stall = 0
    for _ in range(max_iters):
        m = adjoint.apply(_entropy_gradient_matrix(_output_state(ch, x), alpha))
        grad = 2.0 * (m @ x)
        grad = grad - float(np.real(x.conj() @ grad)) * x  # project onto the tangent space
        gn = float(np.linalg.norm(grad))
        if gn < 1e-10:
            break
        f_prev = f
        moved = False
        while eta > 1e-14:
            xn = x - eta * grad
            xn = xn / np.linalg.norm(xn)
            fn = _output_renyi_value(ch, xn, alpha)
            if fn < f - 1e-4 * eta * gn * gn:
                x, f = xn, fn
                eta = min(eta * 1.5, 1.0)
                moved = True
                break
            eta *= 0.5
        if not moved:
            break
        # linear local convergence: a couple of sub-1e-10 steps means the
        # remaining tail is far below the optimizer tolerance
        stall = stall + 1 if f_prev - f < 1e-10 else 0
        if stall >= 2:
            break
    return f, x


def min_output_renyi(
    ch: KrausChannel,
    alpha: float,
    restarts: int = 32,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> ChannelQuantity:
    """Best-effort minimal output Renyi entropy over pure inputs.

    Multi-start projected gradient descent; deterministic for a fixed seed.
    The reported value is an upper bound on the true minimum.
    """
    if alpha < 1:
        raise InvalidAlpha(f"Renyi order must be >= 1, got {alpha}")
    if restarts < 1:
        raise InvalidParameter("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    best_f = np.inf
    best_x = None
    for _ in range(restarts):
        x0 = rng.standard_normal(ch.dim) + 1j * rng.standard_normal(ch.dim)
        f, x = _sphere_descent(ch, alpha, x0)
        if f < best_f:
            best_f, best_x = f, x
    return ChannelQuantity(
        kind="min_output_renyi",
        value=max(0.0, float(best_f)),
        method="optimized",
        restarts_used=restarts,
        alpha=float(alpha),
        achieved_argument=best_x,
    )


# ---------------------------------------------------------------------------
# mutual information / coherent information: mirror ascent over states
# ---------------------------------------------------------------------------


def _log2_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.log2(np.clip(w, _EIG_FLOOR, None))) @ v.conj().T


def _ascent_parts(ch: KrausChannel, rho: np.ndarray, include_input_entropy: bool):
    """Objective value and gradient (bits), dropping additive multiples of I."""
    out = _herm(ch.apply(rho))
    w_ex = exchange_matrix(ch, rho)
    value = _entropy_bits(np.linalg.eigvalsh(out)) - _entropy_bits(
        np.linalg.eigvalsh(w_ex)
    )
    # sum_j A_j^dagger (sum_i log W_ji A_i)
    a = ch.kraus
    mixed = np.tensordot(_log2_psd(w_ex), a, axes=(1, 0))
    lam = np.tensordot(a.conj(), mixed, axes=([0, 1], [0, 1]))
    grad = -ch.adjoint().apply(_log2_psd(out)) + _herm(lam)
    if include_input_entropy:
        value += _entropy_bits(np.linalg.eigvalsh(rho))
        grad = grad - _log2_psd(rho)
    return value, _herm(grad)


def _mirror_step(rho: np.ndarray, grad_bits: np.ndarray, eta: float) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    log_rho = (v * np.log(np.clip(w, _EIG_FLOOR, None))) @ v.conj().T
    m = _herm(log_rho + eta * _LN2 * grad_bits)
    w2, v2 = np.linalg.eigh(m)
    e = np.exp(w2 - w2.max())
    return (v2 * (e / np.sum(e))) @ v2.conj().T


def _state_ascent(
    ch: KrausChannel,
    rho0: np.ndarray,
    include_input_entropy: bool,
    gap_tol: float,
    max_iters: int,
) -> tuple[float, np.ndarray, float]:
    """Monotone mirror ascent; returns (value, state, final duality gap)."""
    rho = _herm(np.asarray(rho0, dtype=complex))
    value, grad = _ascent_parts(ch, rho, include_input_entropy)
    gap = np.inf
    for _ in range(max_iters + 1):  # the +1 lets an optimal start certify itself
        top = float(np.linalg.eigvalsh(grad)[-1])
        gap = top - float(np.real(np.sum(grad.conj() * rho)))
        if gap <= gap_tol:
            break
        eta = 1.0
        accepted = False
        while eta > 1e-8:
            cand = _mirror_step(rho, grad, eta)
            v_c, g_c = _ascent_parts(ch, cand, include_input_entropy)
            if v_c > value + 1e-15:
                rho, value, grad = cand, v_c, g_c
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
    return value, rho, gap


def ent_assisted_capacity(
    ch: KrausChannel,
    tol: Tolerances = DEFAULT_TOL,
    max_iters: int = 5000,
    dim_cap: int = 6,
) -> ChannelQuantity:
    """Entanglement-assisted classical capacity: the maximum quantum mutual
    information over input states.

    The objective is concave, so the mirror ascent converges to the global
    maximum; iteration stops once the concavity duality gap certifies the
    value to within ``tol.optimizer`` bits.
    """
    if ch.dim > dim_cap:
        raise DimensionTooLarge(f"dim {ch.dim} exceeds the configured cap {dim_cap}")
    rho0 = np.eye(ch.dim, dtype=complex) / ch.dim
    value, rho, gap = _state_ascent(
        ch, rho0, include_input_entropy=True, gap_tol=tol.optimizer * 0.5, max_iters=max_iters
    )
    if gap > tol.optimizer:
        raise NonConvergence(
            f"mutual-information ascent stalled with duality gap {gap:.3e} bits "
            f"after {max_iters} iterations"
        )
    return ChannelQuantity(
        kind="ent_assisted_capacity",
        value=max(0.0, float(value)),
        method="optimized",
        restarts_used=1,
        achieved_argument=rho,
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
    random states; the result is a lower bound on the true maximum. Pure
    inputs give exactly zero, so the value is always nonnegative.
    """
    if restarts < 1:
        raise InvalidParameter("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    d = ch.dim
    starts = [np.eye(d, dtype=complex) / d]
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        starts.append(0.999 * e + 0.001 * np.eye(d) / d)
    for _ in range(restarts):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = z @ z.conj().T
        starts.append(m / np.real(np.trace(m)))

    best_v = 0.0  # pure inputs achieve exactly 0
    best_rho = None
    for rho0 in starts:
        v, rho, _ = _state_ascent(
            ch, rho0, include_input_entropy=False, gap_tol=tol.optimizer * 0.5,
            max_iters=max_iters,
        )
        if v > best_v:
            best_v, best_rho = v, rho
    if best_rho is None:
        e = np.zeros((d, d), dtype=complex)
        e[0, 0] = 1.0
        best_rho = e
    return ChannelQuantity(
        kind="coherent_information",
        value=float(best_v),
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
    if kind == "min_output_renyi":
        return min(values)
    if kind == "coherent_information":
        return max(values)
    if kind in ("ent_assisted_capacity", "classical_capacity"):
        return float(np.log2(np.sum(np.exp2(values))))
    raise InvalidParameter(f"unknown quantity kind {kind!r}; choose from {QUANTITY_KINDS}")
