"""Seeded inputs and fixed operation lists for the benchmark workloads.

Everything here is the harness's own numpy code: channels, measurements and
states are built from their mathematical definitions, never with
``krausblocks`` functions, so the correctness checks can compare the CLI's
reports against the construction.

A workload is a fixed list of channel *shapes* (dimensions, block
dimensions, Kraus rank, verbs). The seed draws the Haar frame of every
channel, the measurements, the fixed states and the CLI seeds; the block
channels come from a fixed seed (``BLOCK_SEED``). So every seed does the
same amount of linear algebra and nearly the same optimizer work, and
run-to-run spread reflects the machine rather than the inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("blocks-mid", "kraus-heavy", "capacity-small")

# coherent information runs d + 1 fixed starts plus --restarts random ones;
# the CLI default of 32 makes a single operation take 4-17 s. The minimal
# output entropy keeps the CLI default of 32 restarts.
COH_RESTARTS = 2
SMIN_RESTARTS = 32

# The block channels are drawn from this fixed seed; --seed draws the Haar
# frame they sit in, the measurements, states and CLI seeds. Optimizer
# iteration counts depend on the block channel, so a per-seed channel would
# make the capacity work itself vary from run to run.
BLOCK_SEED = 20111212


# ---------------------------------------------------------------------------
# channel constructions
# ---------------------------------------------------------------------------


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_unital_kraus(d: int, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Equal-weight mixture of k Haar unitaries."""
    return [haar_unitary(d, rng) / np.sqrt(k) for _ in range(k)]


def _weyl(d: int) -> tuple[np.ndarray, np.ndarray]:
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return shift, clock


def depolarizing_kraus(d: int, p: float) -> list[np.ndarray]:
    """Weyl operators X^a Z^b weighted so the map is (1-p) rho + p tr(rho) I/d."""
    x, z = _weyl(d)
    ops = []
    xa = np.eye(d, dtype=complex)
    for a in range(d):
        xz = xa.copy()
        for b in range(d):
            w = 1 - p + p / d**2 if a == b == 0 else p / d**2
            ops.append(np.sqrt(w) * xz)
            xz = xz @ z
        xa = xa @ x
    return ops


def dephasing_kraus(d: int) -> list[np.ndarray]:
    """Complete dephasing in the computational basis: Z^a / sqrt(d)."""
    _, z = _weyl(d)
    return [np.linalg.matrix_power(z, a) / np.sqrt(d) for a in range(d)]


@dataclass
class Channel:
    """A constructed channel together with the facts the checks compare against.

    ``blocks`` holds each construction block's Kraus operators in its own
    frame and ``bases`` the ambient orthonormal basis of that block, so the
    channel acts as ``U (⊕_j Φ_j) U†`` with ``U = [bases...]``.
    """

    name: str
    kind: str
    kraus: list[np.ndarray]
    blocks: list[list[np.ndarray]]
    bases: list[np.ndarray]
    p: float | None = None

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def dims(self) -> list[int]:
        return [b.shape[1] for b in self.bases]

    def projectors(self) -> list[np.ndarray]:
        return [b @ b.conj().T for b in self.bases]


def _block_sum(blocks: list[list[np.ndarray]], shared: bool) -> list[np.ndarray]:
    """Block-diagonal Kraus set.

    ``shared``: operator i is ``⊕_j A_i^(j)`` (shorter lists zero-padded), so
    the blocks share one environment. Otherwise every ``A_i^(j)`` is embedded
    on its own and each block has its own environment.
    """
    dims = [b[0].shape[0] for b in blocks]
    total = sum(dims)
    offsets = np.cumsum([0] + dims)

    def embed(parts):
        k = np.zeros((total, total), dtype=complex)
        for j, a in parts:
            k[offsets[j] : offsets[j + 1], offsets[j] : offsets[j + 1]] = a
        return k

    if shared:
        n = max(len(b) for b in blocks)
        return [embed([(j, b[i]) for j, b in enumerate(blocks) if i < len(b)]) for i in range(n)]
    return [embed([(j, a)]) for j, b in enumerate(blocks) for a in b]


def rotated_sum(name, kind, blocks, rng, shared=True, p=None) -> Channel:
    """Conjugate a block-diagonal Kraus set by a Haar unitary."""
    ops = _block_sum(blocks, shared)
    u = haar_unitary(ops[0].shape[0], rng)
    ops = [u @ a @ u.conj().T for a in ops]
    dims = [b[0].shape[0] for b in blocks]
    offsets = np.cumsum([0] + dims)
    bases = [u[:, offsets[j] : offsets[j + 1]] for j in range(len(dims))]
    return Channel(name, kind, ops, blocks, bases, p)


def build_channel(spec: tuple, rng: np.random.Generator, name: str,
                  block_rng: np.random.Generator) -> Channel:
    """``block_rng`` draws the block channels, ``rng`` the frame they sit in."""
    kind = spec[0]
    if kind == "random_unital":
        d = spec[1]
        return rotated_sum(name, kind, [random_unital_kraus(d, 3, block_rng)], rng)
    if kind in ("sum_shared", "sum_disjoint"):
        blocks = [random_unital_kraus(d, 3, block_rng) for d in spec[1]]
        return rotated_sum(name, kind, blocks, rng, shared=kind == "sum_shared")
    if kind == "depolarizing":
        p = float(block_rng.uniform(0.2, 0.9))
        return rotated_sum(name, kind, [depolarizing_kraus(spec[1], p)], rng, p=p)
    if kind == "depolarizing_sum":
        blocks = [depolarizing_kraus(d, float(block_rng.uniform(0.2, 0.9))) for d in spec[1]]
        return rotated_sum(name, kind, blocks, rng)
    if kind == "dephasing":
        d = spec[1]
        ch = rotated_sum(name, kind, [dephasing_kraus(d)], rng)
        # complete dephasing splits into d one-dimensional blocks
        ch.blocks = [[a[k : k + 1, k : k + 1] for a in dephasing_kraus(d)] for k in range(d)]
        ch.bases = [ch.bases[0][:, k : k + 1] for k in range(d)]
        return ch
    raise ValueError(f"unknown channel kind {kind!r}")


# ---------------------------------------------------------------------------
# measurements and states
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    name: str
    type: str  # "projective" or "povm"
    elements: list[np.ndarray]
    preserved: list[bool]  # what the construction implies for each element


def block_projective(ch: Channel) -> Measurement:
    return Measurement("blocks", "projective", ch.projectors(), [True] * len(ch.dims))


def computational_basis(ch: Channel) -> Measurement:
    d = ch.dim
    elements = []
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        elements.append(e)
    # every channel here is Haar-rotated or depolarizing, so no basis
    # projector is a combination of block projectors
    return Measurement("computational", "projective", elements, [False] * d)


def block_povm(ch: Channel, rng: np.random.Generator) -> Measurement:
    """Two elements t_j P_j and (1 - t_j) P_j summed over blocks: preserved."""
    t = rng.uniform(0.1, 0.9, size=len(ch.dims))
    projs = ch.projectors()
    e1 = sum(tj * p for tj, p in zip(t, projs))
    e2 = sum((1 - tj) * p for tj, p in zip(t, projs))
    return Measurement("block_povm", "povm", [e1, e2], [True, True])


def random_povm(ch: Channel, rng: np.random.Generator, n: int = 3) -> Measurement:
    """G^{-1/2} M_k G^{-1/2} for random PSD M_k: generic, so not preserved."""
    d = ch.dim
    ms = []
    for _ in range(n):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ms.append(z @ z.conj().T)
    w, v = np.linalg.eigh(sum(ms))
    g = (v / np.sqrt(w)) @ v.conj().T
    return Measurement("random_povm", "povm", [g @ m @ g for m in ms], [False] * n)


def block_mixture_state(ch: Channel, rng: np.random.Generator) -> tuple[np.ndarray, list[float]]:
    """sum_j w_j P_j / d_j with Dirichlet weights: a fixed state."""
    w = rng.dirichlet(np.ones(len(ch.dims)))
    rho = sum(wj * p / dj for wj, p, dj in zip(w, ch.projectors(), ch.dims))
    return rho, [float(x) for x in w]


# ---------------------------------------------------------------------------
# documents (the CLI's wire format, written with the harness's own code)
# ---------------------------------------------------------------------------


def wire(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def unwire(data: list, rows: int, cols: int) -> np.ndarray:
    a = np.array(data, dtype=float)
    return (a[:, 0] + 1j * a[:, 1]).reshape(rows, cols)


def channel_document(ch: Channel) -> dict:
    return {"schema_version": "1", "dim": ch.dim, "kraus": [wire(a) for a in ch.kraus]}


def measurement_document(m: Measurement) -> dict:
    d = m.elements[0].shape[0]
    return {"schema_version": "1", "dim": d, "type": m.type, "elements": [wire(e) for e in m.elements]}


def operator_document(rho: np.ndarray) -> dict:
    return {"schema_version": "1", "dim": rho.shape[0], "matrix": wire(rho)}


# ---------------------------------------------------------------------------
# workload shapes
# ---------------------------------------------------------------------------

STRUCTURE_VERBS = ("decompose", "fixed-states", "check-measurement", "match", "restrict")
HEAVY_VERBS = ("validate", "decompose", "fixed-states", "check-measurement", "restrict")
CAPACITY_VERBS = ("capacity-smin1", "capacity-smin2", "capacity-ce")
ALL_MEASUREMENTS = ("blocks", "computational", "block_povm", "random_povm")

# Every verb once on a small block-structured channel, in every workload, so
# that every layer the traced run reports is exercised (no structural zeros).
# These operations also serve as the warm-up.
COVERAGE_VERBS = (
    "validate", "decompose", "fixed-states", "check-measurement", "match", "restrict",
    "capacity-smin1", "capacity-ce", "capacity-coh",
)
COVERAGE = [([("sum_shared", (1, 2))], COVERAGE_VERBS, ("blocks",))]

# A workload is a list of groups: (channel specs, verbs, measurements).
SHAPES = {
    # commutant solve + recursive split/certify at ambient d = 16-24
    # (validate keeps the cheap operations a clear majority, so that the
    # median latency does not sit in the gap between cheap and solve-bound
    # operations)
    "blocks-mid": [
        ([("random_unital", 16), ("random_unital", 18), ("sum_shared", (4, 5, 7)),
          ("sum_shared", (3, 5, 7, 9)), ("sum_disjoint", (7, 9)), ("sum_disjoint", (2, 5, 9))],
         ("validate",) + STRUCTURE_VERBS, ALL_MEASUREMENTS),
    ],
    # tall k*d^2 x d^2 commutation stacks: depolarizing (k = d^2) and sums of
    # depolarizing blocks of unequal dimensions
    "kraus-heavy": [
        ([("depolarizing", 8), ("depolarizing", 8), ("depolarizing", 9), ("depolarizing", 11),
          ("depolarizing_sum", (3, 5)), ("depolarizing_sum", (4, 6)),
          ("depolarizing_sum", (3, 4, 5)), ("depolarizing_sum", (5, 7)),
          ("depolarizing_sum", (2, 6)), ("depolarizing_sum", (2, 3, 4)),
          ("depolarizing_sum", (3, 6))],
         HEAVY_VERBS, ("computational",)),
    ],
    # optimizer inner loops at d = 2-6. Coherent information runs only where
    # its work does not depend on the seed: random blocks of dim <= 2, and the
    # covariant depolarizing and dephasing channels. On a random block of
    # dim 3 one operation takes 0.4-2 s depending on where the seeded starts
    # fall.
    "capacity-small": [
        ([("random_unital", 2), ("random_unital", 2), ("sum_shared", (1, 2)),
          ("sum_disjoint", (1, 2)), ("depolarizing", 2), ("depolarizing", 3),
          ("dephasing", 2), ("dephasing", 3), ("dephasing", 4), ("dephasing", 5),
          ("dephasing", 6)],
         CAPACITY_VERBS + ("capacity-coh",), ()),
        ([("random_unital", 3), ("random_unital", 3), ("random_unital", 4), ("random_unital", 5),
          ("random_unital", 6), ("sum_shared", (1, 3)), ("sum_shared", (2, 3)),
          ("sum_shared", (1, 2, 3)), ("sum_disjoint", (1, 3)), ("sum_disjoint", (1, 4)),
          ("depolarizing", 4), ("depolarizing", 5), ("depolarizing", 6)],
         CAPACITY_VERBS, ()),
    ],
}

# the small-size variant used by the benchmark's own tests
SMALL_SHAPES = {
    "blocks-mid": [([("random_unital", 4), ("sum_shared", (1, 2, 3)), ("sum_disjoint", (2, 3))],
                    STRUCTURE_VERBS, ALL_MEASUREMENTS)],
    "kraus-heavy": [([("depolarizing", 3), ("depolarizing_sum", (2, 3))], HEAVY_VERBS,
                     ("computational",))],
    "capacity-small": [([("random_unital", 2), ("sum_disjoint", (1, 2)), ("depolarizing", 2),
                         ("dephasing", 2)], CAPACITY_VERBS + ("capacity-coh",), ())],
}


@dataclass
class Op:
    """One CLI invocation and what its report must satisfy."""

    verb: str
    argv: list[str]
    channel: str
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    channels: dict[str, Channel]
    measurements: dict[str, Measurement]
    states: dict[str, tuple[np.ndarray, list[float]]]
    ops: list[Op]
    docs: dict[str, dict]  # file name -> document

    def write_documents(self, directory: str) -> dict[str, str]:
        """Write every input document; returns file name -> path."""
        os.makedirs(directory, exist_ok=True)
        paths = {}
        for fname, doc in self.docs.items():
            path = os.path.join(directory, fname)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths[fname] = path
        return paths

    def argv(self, op: Op, paths: dict[str, str]) -> list[str]:
        """Resolve document names in an operation's argv to written paths."""
        return [paths.get(a, a) for a in op.argv]


def _verb_ops(verb: str, ch: Channel, rng: np.random.Generator, wl: Workload, mnames) -> list[Op]:
    doc = f"{ch.name}.json"
    s = str(int(rng.integers(0, 1000)))
    if verb == "validate":
        return [Op("validate", ["validate", doc], ch.name)]
    if verb == "decompose":
        return [Op("decompose", ["decompose", doc, "--seed", s], ch.name)]
    if verb == "fixed-states":
        rho, weights = block_mixture_state(ch, rng)
        sname = f"{ch.name}.state.json"
        wl.states[sname] = (rho, weights)
        wl.docs[sname] = operator_document(rho)
        return [Op("fixed-states", ["fixed-states", doc, "--state", sname, "--seed", s],
                   ch.name, {"state": sname})]
    if verb == "check-measurement":
        ops = []
        for mname in mnames:
            if mname == "blocks":
                m = block_projective(ch)
            elif mname == "computational":
                m = computational_basis(ch)
            elif mname == "block_povm":
                m = block_povm(ch, rng)
            else:
                m = random_povm(ch, rng)
            fname = f"{ch.name}.{mname}.json"
            wl.measurements[fname] = m
            wl.docs[fname] = measurement_document(m)
            ops.append(Op("check-measurement", ["check-measurement", doc, fname], ch.name,
                          {"measurement": fname}))
        return ops
    if verb == "match":
        s2 = str(int(rng.integers(1000, 2000)))
        return [Op("match", ["match", doc, "--seeds", s, s2], ch.name)]
    if verb == "restrict":
        b = int(rng.integers(0, len(ch.dims)))
        return [Op("restrict", ["restrict", doc, "--block", str(b), "--seed", s], ch.name,
                   {"block": b})]
    if verb.startswith("capacity-"):
        q = verb[len("capacity-"):]
        argv = ["capacity", doc, "--seed", s]
        if q in ("smin1", "smin2"):
            argv += ["--quantity", "smin", "--alpha", q[-1]]
        elif q == "ce":
            argv += ["--quantity", "ce"]
        else:
            argv += ["--quantity", "coh", "--restarts", str(COH_RESTARTS)]
        return [Op("capacity", argv, ch.name, {"quantity": q})]
    raise ValueError(f"unknown verb {verb!r}")


def build_workload(name: str, seed: int, small: bool = False) -> Workload:
    """The workload's inputs and its fixed operation list (one round)."""
    if name not in SHAPES:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    wl = Workload(name, seed, {}, {}, {}, [], {})
    groups = (SMALL_SHAPES if small else SHAPES)[name] + COVERAGE
    plan = [(spec, verbs, mnames) for specs, verbs, mnames in groups for spec in specs]
    for i, (spec, verbs, mnames) in enumerate(plan):
        block_rng = np.random.default_rng([BLOCK_SEED, WORKLOADS.index(name), i])
        ch = build_channel(spec, rng, f"ch{i:02d}", block_rng)
        wl.channels[ch.name] = ch
        wl.docs[f"{ch.name}.json"] = channel_document(ch)
        for verb in verbs:
            wl.ops.extend(_verb_ops(verb, ch, rng, wl, mnames))
    return wl
