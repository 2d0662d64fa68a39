"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

from krausblocks import (
    KrausChannel,
    ProjectiveMeasurement,
    Subspace,
    direct_sum,
    haar_unitary,
    random_unital_channel,
)
from krausblocks import capacity, channel, cli, decomposition, fixed_points, measurement
from krausblocks.linalg import DEFAULT_TOL

from tests.dense import null_space, unvec


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2


def random_psd(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return z @ z.conj().T


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    m = random_psd(d, rng)
    return m / np.real(np.trace(m))


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_subspace(d: int, k: int, rng: np.random.Generator) -> Subspace:
    return Subspace(d, haar_unitary(d, rng)[:, :k])


def rotated_direct_sum(
    dims: tuple[int, ...],
    seed: int,
    n_unitaries: int = 3,
    rotate: bool = True,
    shared_environment: bool = True,
) -> tuple[KrausChannel, np.ndarray, list[np.ndarray]]:
    """Random unital blocks glued together and conjugated by a Haar unitary.

    With ``shared_environment`` the blocks' Kraus operators are paired as
    ``blockdiag(A_i, B_i)`` (``direct_sum``), so coherence between blocks
    survives. Without it the Kraus set is every ``blockdiag(A_i, 0)`` together
    with every ``blockdiag(0, B_j)``: each block has its own environment and
    inter-block coherence is destroyed (the Fukuda-Wolf direct sum). For a
    given seed both forms have the same blocks and the same conjugating
    unitary.

    Returns the channel, the conjugating unitary, and the embedded block
    projectors (in the rotated frame).
    """
    rng = np.random.default_rng(seed)
    blocks = [
        random_unital_channel(d, n_unitaries, seed=int(rng.integers(2**31)))
        for d in dims
    ]
    total = sum(dims)
    if shared_environment:
        ch = blocks[0]
        for b in blocks[1:]:
            ch = direct_sum(ch, b)
        ops = list(ch.kraus)
    else:
        ops = []
        offset = 0
        for d, b in zip(dims, blocks):
            for a in b.kraus:
                k = np.zeros((total, total), dtype=complex)
                k[offset : offset + d, offset : offset + d] = a
                ops.append(k)
            offset += d
    u = haar_unitary(total, rng) if rotate else np.eye(total, dtype=complex)
    ops = [u @ a @ u.conj().T for a in ops]
    ch = KrausChannel.from_kraus(ops)
    projectors = []
    offset = 0
    for d in dims:
        p = np.zeros((total, total), dtype=complex)
        p[offset : offset + d, offset : offset + d] = np.eye(d)
        projectors.append(u @ p @ u.conj().T)
        offset += d
    return ch, u, projectors


def coupled_blocks(
    eps: float,
    seed: int = 0,
    dims: tuple[int, ...] = (2, 3),
    couplings: dict | None = None,
    copies: bool = False,
) -> KrausChannel:
    """A random-unitary direct sum of blocks of the given dimensions (with
    ``copies``, ``len(dims)`` copies of one random block) whose blocks are
    coupled by multiplying every Kraus operator by ``exp(i eps H)``, with H a
    random Hermitian matrix that has entries only between blocks. The entries
    between blocks i < j are scaled by ``couplings[(i, j)]``: every pair by 1
    when ``couplings`` is None, else the pairs it leaves out by 0. The result
    stays unital and trace preserving; for eps != 0 coupled blocks generically
    merge, with off-diagonal Kraus weight of order eps times the coupling."""
    d = sum(dims)
    if copies:
        base = random_unital_channel(dims[0], 3, seed=seed)
        ch = KrausChannel.from_kraus([np.kron(np.eye(len(dims)), a) for a in base.kraus])
    else:
        ch, _, _ = rotated_direct_sum(dims, seed=seed, rotate=False)
    h = random_hermitian(d, np.random.default_rng(seed))
    edges = np.cumsum((0,) + tuple(dims))
    scale = np.zeros((d, d))
    for i in range(len(dims)):
        for j in range(i + 1, len(dims)):
            c = 1.0 if couplings is None else couplings.get((i, j), 0.0)
            scale[edges[i] : edges[i + 1], edges[j] : edges[j + 1]] = c
    h *= scale + scale.T
    w, v = np.linalg.eigh(h)
    g = v @ np.diag(np.exp(1j * eps * w)) @ v.conj().T
    return KrausChannel.from_kraus([g @ a for a in ch.kraus])


def near_isomorphic_blocks(n: int, eps: float, seed: int = 0) -> KrausChannel:
    """Two n-dimensional blocks that are almost, but not, copies of one
    another: ``K_j = blockdiag(U_j, U_j exp(i eps H_j)) / sqrt(3)`` for three
    Haar unitaries U_j and three random Hermitian H_j, conjugated by one Haar
    unitary of size 2n. For eps != 0 and generic draws the commutant is, in
    exact arithmetic, spanned by the two block projectors: ``sum_c m_c^2 = 2``."""
    rng = np.random.default_rng(seed)
    units = [haar_unitary(n, rng) for _ in range(3)]
    hs = [random_hermitian(n, rng) for _ in range(3)]
    w = haar_unitary(2 * n, rng)
    ops = []
    for u, h in zip(units, hs):
        lam, v = np.linalg.eigh(h)
        k = np.zeros((2 * n, 2 * n), dtype=complex)
        k[:n, :n], k[n:, n:] = u, u @ (v * np.exp(1j * eps * lam)) @ v.conj().T
        ops.append(w @ k @ w.conj().T / np.sqrt(3))
    return KrausChannel.from_kraus(ops)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Patch ``owner.<name>``: a method when ``owner`` is a class, else a module
    function in every package module that imported it; the returned list
    gains one entry per call."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counting)
    for m in (channel, fixed_points, decomposition, measurement, capacity, cli):
        if getattr(m, name, None) is real:
            monkeypatch.setattr(m, name, counting)
    return calls


def computational_measurement(d: int) -> ProjectiveMeasurement:
    projs = []
    for k in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[k, k] = 1.0
        projs.append(p)
    return ProjectiveMeasurement(dim=d, projectors=tuple(projs))


def block_measurement(d: int, split: int) -> ProjectiveMeasurement:
    p1 = np.zeros((d, d), dtype=complex)
    p1[:split, :split] = np.eye(split)
    return ProjectiveMeasurement(dim=d, projectors=(p1, np.eye(d) - p1))


def fixed_hermitian_basis_oracle(ch: KrausChannel) -> list[np.ndarray]:
    """Independent fixed-point solver: Hermitian null space of (L - I).

    Cross-checks the commutation-system route used by the library.
    """
    d = ch.dim
    l = ch.superoperator_matrix() - np.eye(d * d)
    kernel = null_space(l, DEFAULT_TOL)
    mats = []
    for k in range(kernel.shape[1]):
        b = unvec(kernel[:, k], d)
        mats.append((b + b.conj().T) / 2)
        mats.append((b - b.conj().T) / 2j)
    # orthonormalize over the reals, dropping dependent directions
    basis: list[np.ndarray] = []
    for c in mats:
        r = c.copy()
        for h in basis:
            r -= np.real(np.sum(h.conj() * r)) * h
        n = np.sqrt(np.real(np.sum(r.conj() * r)))
        if n > 1e-7:
            basis.append(r / n)
    return basis


def span_projector(mats: list[np.ndarray]) -> np.ndarray:
    """Projector (as a Gram-based map on vectorized space) onto span of matrices."""
    v = np.column_stack([m.reshape(-1) for m in mats])
    q, _ = np.linalg.qr(v)
    return q @ q.conj().T
