"""Tests of the benchmark itself: small runs of every workload, the traced
counts, and that every correctness check rejects a corrupted report.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import worker
from workloads import WORKLOADS, build_workload, channel_document, rotated_sum, random_unital_kraus

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from krausblocks.cli import run_command  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_completes_without_failures(workload):
    line = run.run_workload(workload, seed=3, seconds=0, trace=False, small=True)["line"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert line["correct"] is True
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_repeats_counts():
    lines = [run.run_workload("capacity-small", seed=5, seconds=0, trace=True, small=True)["line"]
             for _ in range(2)]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for line in lines:
        assert line["failed"] == 0 and line["correct"] is True
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    counts = [{k: v["value"] for k, v in line["metrics"].items() if v["unit"] in ("count", "bytes")}
              for line in lines]
    assert counts[0] == counts[1]


def test_run_out_of_time_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "DEADLINE_S", 0.01)
    code = run.main(["--workload", "capacity-small", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert "did not end within" in out.err


def test_an_escaping_exception_counts_as_a_failed_operation():
    def raises(argv):
        raise MemoryError("out of memory in the null-space SVD")

    _, code, out, err = worker._run_one(raises, ["decompose", "x.json"])
    assert code == 1 and out == ""
    assert "MemoryError" in err


@pytest.mark.parametrize("dims, calls", [((4,), 3), ((1, 2, 3), 8)])
def test_commutant_solves_per_cli_decompose(tmp_path, dims, calls):
    rng = np.random.default_rng(0)
    ch = rotated_sum("c", "sum_shared", [random_unital_kraus(d, 3, rng) for d in dims], rng)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(channel_document(ch)))
    tracer = tracing.Tracer()
    with tracer.installed():
        code, _ = _cli(["decompose", str(path)])
    assert code == 0
    assert tracer.metrics()["fixed_points.commutant_basis.calls"] == calls
    # the wrappers are gone again
    from krausblocks import fixed_points
    assert not hasattr(fixed_points.commutant_basis, "__wrapped__")


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "blocks-mid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# every check accepts the real report and rejects a corrupted one
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Reports of every operation of the small blocks-mid and capacity-small
    workloads, run in-process: {(workload, verb, extra): (wl, op, report)}."""
    out = {}
    for name in ("blocks-mid", "capacity-small"):
        wl = build_workload(name, seed=11, small=True)
        paths = wl.write_documents(str(tmp_path_factory.mktemp(name)))
        for op in wl.ops:
            code, text = _cli(wl.argv(op, paths))
            assert code == 0, op.argv
            ch = wl.channels[op.channel]
            key = (name, op.verb, ch.kind, len(ch.dims), _extra(op))
            out.setdefault(key, (wl, op, json.loads(text)))
    return out


def _extra(op):
    """The measurement name (``chNN.<name>.json``) or the capacity quantity."""
    if "measurement" in op.params:
        return op.params["measurement"].split(".")[1]
    return op.params.get("quantity")


def _check(entry, report):
    wl, op, _ = entry
    return checks.check_op(wl, op, json.dumps(report), np.random.default_rng(0), {})


def _pick(reports, **want):
    for key, entry in reports.items():
        fields = dict(zip(("workload", "verb", "kind", "blocks", "extra"), key))
        if all(fields[k] == v for k, v in want.items()):
            return entry
    raise LookupError(want)


def test_every_real_report_passes(reports):
    for key, entry in reports.items():
        assert _check(entry, entry[2]) == [], key


def _swap_dims(r):
    r["decomposition"]["block_dims"].reverse()


def _bump_commutant(r):
    r["commutant_count"] += 1


def _flip_preserved(r):
    r["elements"][0]["preserved"] = not r["elements"][0]["preserved"]


def _shift_combined(r):
    r["quantity"]["combined_bits"] += 1e-2


def _shift_block_value(r):
    r["quantity"]["per_block"][0] += 1e-2
    r["quantity"]["combined_bits"] += 1e-2


def _swap_weights(r):
    r["classification"]["weights"].reverse()


def _cross_pairs(r):
    r["bijection"] = [[0, len(r["bijection"]) - 1], [len(r["bijection"]) - 1, 0]] + r["bijection"][1:-1]


def _perturb_restricted(r):
    r["channel"]["kraus"][0][0][0] += 1e-2


def _reject_valid(r):
    r["validation"]["is_unital"] = False


def _rotate_block(r):
    basis = r["decomposition"]["blocks"][-1]["basis"]
    basis[0], basis[1] = basis[1], basis[0]


CORRUPTIONS = [
    (dict(verb="decompose", blocks=3), _swap_dims),
    (dict(verb="decompose", blocks=3), _bump_commutant),
    (dict(verb="decompose", kind="random_unital"), _rotate_block),
    (dict(verb="fixed-states", blocks=3), _swap_weights),
    (dict(verb="fixed-states", blocks=3), _swap_dims),
    (dict(verb="check-measurement", extra="blocks"), _flip_preserved),
    (dict(verb="check-measurement", extra="computational"), _flip_preserved),
    (dict(verb="check-measurement", extra="random_povm"), _flip_preserved),
    (dict(verb="match", blocks=3), _cross_pairs),
    (dict(verb="restrict", workload="blocks-mid"), _perturb_restricted),
    (dict(verb="validate"), _reject_valid),
    (dict(verb="capacity", extra="smin2"), _shift_combined),
    (dict(verb="capacity", kind="depolarizing", extra="smin1"), _shift_block_value),
    (dict(verb="capacity", kind="depolarizing", extra="smin2"), _shift_block_value),
    (dict(verb="capacity", kind="depolarizing", extra="ce"), _shift_block_value),
    (dict(verb="capacity", kind="sum_disjoint", extra="ce"), _shift_combined),
    (dict(verb="capacity", extra="coh"), _shift_combined),
]


@pytest.mark.parametrize("want, corrupt", CORRUPTIONS,
                         ids=[f"{c.__name__}-{'-'.join(map(str, w.values()))}" for w, c in CORRUPTIONS])
def test_check_rejects_corrupted_report(reports, want, corrupt):
    entry = _pick(reports, **want)
    bad = copy.deepcopy(entry[2])
    corrupt(bad)
    assert _check(entry, bad) != []
