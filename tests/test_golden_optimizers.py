"""Golden corpus: values of the entropy optimizers on small channels.

The recorded values guard refactors of ``capacity``: every case must
reproduce ``min_output_renyi`` (alpha 1 and 2, 32 restarts),
``coherent_information`` (8 restarts) and ``ent_assisted_capacity`` to
``tol.optimizer``. The multi-start optimizers are only best-effort, so the
corpus pins the value each seeded run reaches, not the true optimum. One
case is recorded because it stops far above the minimum:
``random_unital_channel(3, 3, 0)`` with 4 restarts and seed 6 reports about
0.6629 bits while the minimum is about 0.3588.

Regenerate (only when a behaviour change is intended) with
``PYTHONPATH=src python -m tests.test_golden_optimizers``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from krausblocks import (
    coherent_information,
    dephasing_channel,
    depolarizing_channel,
    ent_assisted_capacity,
    identity_channel,
    min_output_renyi,
    random_unital_channel,
)
from krausblocks.linalg import DEFAULT_TOL

from tests.util import rotated_direct_sum

GOLDEN_PATH = Path(__file__).with_name("golden_optimizers.json")
SMIN_SEED = 1
COH_SEED = 2

CHANNELS = {
    "irreducible_d2": lambda: random_unital_channel(2, 3, seed=201),
    "irreducible_d3": lambda: random_unital_channel(3, 3, seed=202),
    "irreducible_d4": lambda: random_unital_channel(4, 3, seed=203),
    "shared_sum_1_2": lambda: rotated_direct_sum((1, 2), seed=204)[0],
    "shared_sum_2_2": lambda: rotated_direct_sum((2, 2), seed=205)[0],
    "disjoint_sum_1_3": lambda: rotated_direct_sum((1, 3), seed=206, shared_environment=False)[0],
    "disjoint_sum_2_2": lambda: rotated_direct_sum((2, 2), seed=207, shared_environment=False)[0],
    "depolarizing_d3": lambda: depolarizing_channel(3, 0.4),
    "dephasing_d3": lambda: dephasing_channel(3),
    "identity_d2": lambda: identity_channel(2),
}

QUANTITIES = {
    "smin1": lambda ch: min_output_renyi(ch, 1, restarts=32, seed=SMIN_SEED),
    "smin2": lambda ch: min_output_renyi(ch, 2, restarts=32, seed=SMIN_SEED),
    "coh": lambda ch: coherent_information(ch, restarts=8, seed=COH_SEED),
    "ce": lambda ch: ent_assisted_capacity(ch),
}

# the few-restart case that stops far above the minimum
FEW_RESTARTS = "smin1_restarts4_irreducible_d3_seed0"


def _few_restarts():
    return min_output_renyi(random_unital_channel(3, 3, seed=0), 1, restarts=4, seed=6)


def _cases():
    for name in CHANNELS:
        for quantity in QUANTITIES:
            yield f"{quantity}_{name}"
    yield FEW_RESTARTS


def _value(case: str) -> float:
    if case == FEW_RESTARTS:
        return _few_restarts().value
    quantity, name = case.split("_", 1)
    return QUANTITIES[quantity](CHANNELS[name]()).value


def record() -> None:
    """Write the golden file from the current implementation."""
    doc = {case: _value(case) for case in _cases()}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_value_matches_golden(golden, case):
    assert abs(_value(case) - golden[case]) <= DEFAULT_TOL.optimizer


def test_few_restarts_stop_above_the_minimum(golden):
    # the recorded value is far above what 128 restarts find, so a change in
    # the restarts' starts or stopping rule shows up here first
    assert golden[FEW_RESTARTS] == pytest.approx(0.6629, abs=1e-4)
    many = min_output_renyi(random_unital_channel(3, 3, seed=0), 1, restarts=128, seed=6)
    assert many.value == pytest.approx(0.3588, abs=1e-4)


if __name__ == "__main__":
    record()
