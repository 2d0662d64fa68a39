"""Golden corpus: block dimensions and block projectors of ``iris_decompose``,
and the commutant projector of ``commutant_basis``.

The recorded values guard refactors of the decomposition: every case must
reproduce its block dimensions exactly and its block projectors to 1e-10.
Degenerate cases (identity, isomorphic copies) are included on purpose: their
split into copies is not unique and depends on the random element H of the
Kraus algebra, and the random vectors, drawn during the spin-up, so they
expose any change in those draws. Where the decomposition is unique (the
other cases, ``NON_DEGENERATE``) the blocks depend on neither, and the basis
reported inside each block is fixed by its projector, so it agrees across
seeds and with the dense oracle of ``tests/dense.py``.

The commutant projector is the orthogonal projector onto the span of the
vectorized commutant, ``sum_j vec(H_j) vec(H_j)^dagger`` over the
orthonormal Hermitian basis. It does not depend on the basis, so it guards
the commutant built from matrix units to 1e-10 even in the degenerate cases;
the recorded values came from the dense commutant solve.

Regenerate (only when a behaviour change is intended) with
``PYTHONPATH=src python -m tests.test_golden``, or re-record only the blocks
of some cases with ``PYTHONPATH=src python -m tests.test_golden CASE ...``
(their commutant projectors and all other cases stay as recorded).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from krausblocks import (
    KrausChannel,
    commutant_basis,
    dephasing_channel,
    depolarizing_channel,
    haar_unitary,
    identity_channel,
    iris_decompose,
    random_unital_channel,
)

from tests.dense import dense_decompose
from tests.util import rotated_direct_sum

GOLDEN_PATH = Path(__file__).with_name("golden_decompositions.json")
DECOMPOSE_SEED = 3


def _isomorphic_copies(dim: int, copies: int, seed: int) -> KrausChannel:
    """``U (A_i kron I_copies) U^dagger`` for an irreducible random block."""
    base = random_unital_channel(dim, 3, seed=seed)
    u = haar_unitary(dim * copies, np.random.default_rng(seed + 1))
    eye = np.eye(copies, dtype=complex)
    return KrausChannel.from_kraus([u @ np.kron(a, eye) @ u.conj().T for a in base.kraus])


CASES = {
    "irreducible_d5": lambda: rotated_direct_sum((5,), seed=101)[0],
    "irreducible_d8": lambda: rotated_direct_sum((8,), seed=102)[0],
    "shared_sum_2_3": lambda: rotated_direct_sum((2, 3), seed=103)[0],
    "shared_sum_1_2_3": lambda: rotated_direct_sum((1, 2, 3), seed=104)[0],
    "disjoint_sum_2_3": lambda: rotated_direct_sum((2, 3), seed=105, shared_environment=False)[0],
    "disjoint_sum_1_1_2_3": lambda: rotated_direct_sum(
        (1, 1, 2, 3), seed=106, shared_environment=False
    )[0],
    "identity_d3": lambda: identity_channel(3),
    "identity_d5": lambda: identity_channel(5),
    "dephasing_d4": lambda: dephasing_channel(4),
    "depolarizing_d4": lambda: depolarizing_channel(4, 0.3),
    "copies_3x2": lambda: _isomorphic_copies(3, 2, seed=107),
}


# cases whose decomposition is unique: no isomorphic copies
NON_DEGENERATE = sorted(set(CASES) - {"identity_d3", "identity_d5", "copies_3x2"})


def _decompose(name: str):
    return iris_decompose(CASES[name](), seed=DECOMPOSE_SEED)


def _commutant_projector(name: str) -> np.ndarray:
    h = commutant_basis(CASES[name]()).hermitian_basis
    v = h.reshape(len(h), -1).T
    return v @ v.conj().T


def _wire(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _unwire(doc: dict) -> np.ndarray:
    return np.array(doc["re"]) + 1j * np.array(doc["im"])


def record(names=None) -> None:
    """Write the golden file from the current implementation. With ``names``,
    re-record only the blocks of those cases: their commutant projector, which
    is unique, and every other case keep their recorded values."""
    doc = json.loads(GOLDEN_PATH.read_text()) if names else {}
    for name in names or CASES:
        dec = _decompose(name)
        doc[name] = {
            "block_dims": list(dec.block_dims),
            "projectors": [_wire(s.projector()) for s in dec.blocks],
            "commutant_projector": (
                doc[name]["commutant_projector"] if names else _wire(_commutant_projector(name))
            ),
        }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_decomposition_matches_golden(golden, name):
    dec = _decompose(name)
    want = golden[name]
    assert list(dec.block_dims) == want["block_dims"]
    for s, p in zip(dec.blocks, want["projectors"]):
        assert np.max(np.abs(s.projector() - _unwire(p))) <= 1e-10


@pytest.mark.parametrize("name", NON_DEGENERATE)
def test_bases_fixed_by_projectors(name):
    ch = CASES[name]()
    ref = iris_decompose(ch, seed=0)
    decs = [iris_decompose(ch, seed=s) for s in (1, 2, 3)]
    decs.append(dense_decompose(ch, seed=0))
    assert ref.split.method == "spin" and decs[-1].split.method == "dense"
    for dec in decs:
        assert dec.block_dims == ref.block_dims
        for a, b in zip(dec.blocks, ref.blocks):
            assert np.max(np.abs(a.basis - b.basis)) <= 1e-10


@pytest.mark.parametrize("name", sorted(CASES))
def test_commutant_matches_golden(golden, name):
    ref = _unwire(golden[name]["commutant_projector"])
    assert np.max(np.abs(_commutant_projector(name) - ref)) <= 1e-10


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    record(sys.argv[1:])
