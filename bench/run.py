"""Benchmark of the krausblocks CLI verbs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is a closed loop with one
client: a fixed list of CLI operations, generated from ``--seed``, executed
in whole rounds through ``krausblocks.cli.run_command`` in a separate worker
process, after an untimed warm-up. Rounds repeat while the next one, taken to
last as long as the one before, still ends within ``--seconds``; a round is
never cut short. Every report is checked by the harness's own numpy code
(``checks.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` a further round runs with spans around
every layer and the metrics are the per-layer ones. Result and span files go
to ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_op
from tracing import verb_latency_p50
from workloads import COVERAGE_VERBS, WORKLOADS, build_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up is timed in fresh interpreters, half of them before the timed rounds
# and half after, so that the median spans the run's stretch of machine speed
SETUP_BATCH = 5
# a run must end within 180 s; the worker gets what is left of this
DEADLINE_S = 170.0


class OutOfTime(Exception):
    pass


def _left(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise OutOfTime
    return left


def _subprocess(args: list[str], t_start: float, **kwargs) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(args, timeout=_left(t_start), check=True, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise OutOfTime from exc


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _setup_times(wl, paths, t_start: float) -> list[float]:
    """Import + parse/validate of every document, each in a fresh interpreter."""
    kinds = []
    for fname, path in paths.items():
        if fname in wl.measurements:
            kinds.append(f"measurement={path}")
        elif fname in wl.states:
            kinds.append(f"operator={path}")
        else:
            kinds.append(f"channel={path}")
    times = []
    for _ in range(SETUP_BATCH):
        proc = _subprocess([sys.executable, str(HERE / "worker.py"), "setup", str(SRC), *kinds],
                           t_start, capture_output=True, text=True)
        times.append(json.loads(proc.stdout)["setup_s"])
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one benchmark run and return the result line plus details.

    ``small`` shrinks every channel (used by the benchmark's own tests).
    Raises ``OutOfTime`` when the run cannot end within ``DEADLINE_S``.
    """
    t_start = time.perf_counter()
    wl = build_workload(name, seed, small)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths = wl.write_documents(str(work))
        setup = [] if trace else _setup_times(wl, paths, t_start)
        ops = [wl.argv(op, paths) for op in wl.ops]
        plan = {
            "ops": ops,
            # the coverage operations touch every verb on a small channel
            "warmup": list(range(len(ops) - len(COVERAGE_VERBS), len(ops))),
            "seconds": seconds,
            "trace": bool(trace),
            "trace_path": str(OUT / f"{tag}.spans.jsonl"),
        }
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        result_path = work / "worker.json"
        _subprocess([sys.executable, str(HERE / "worker.py"), "run", str(SRC), str(plan_path),
                     str(result_path)], t_start)
        res = json.loads(result_path.read_text())
        if not trace:
            setup += _setup_times(wl, paths, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    codes = [c for per_op in res["codes"] for c in per_op]
    failed = sum(1 for c in codes if c != 0)
    rng = np.random.default_rng([seed, 7])
    cache: dict = {}
    problems = {}
    for i, (op, text) in enumerate(zip(wl.ops, res["reports"])):
        if any(c != 0 for c in res["codes"][i]):
            continue  # counted in failed; correctness speaks of the rest
        errs = check_op(wl, op, text, rng, cache)
        if not res["identical"][i]:
            errs.append("report differs between rounds")
        if errs:
            problems[" ".join(op.argv)] = errs

    latencies = [x for per_op in res["latencies_s"] for x in per_op]
    if trace:
        values = {**verb_latency_p50([op.verb for op in wl.ops], res["latencies_s"]),
                  **res["layers"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            # the median round resists a transient slowdown of the machine
            "ops_per_s": len(ops) / statistics.median(res["round_walls_s"]),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = _units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}

    line = {"correct": not problems, "attempted": len(codes), "failed": failed,
            "metrics": metrics}
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "rounds": res["rounds"], "ops_per_round": len(ops),
        "round_walls_s": res["round_walls_s"], "traced_wall_s": res.get("traced_wall_s"),
        "setup_times_s": setup,
        "problems": problems,
        "errors": {" ".join(wl.ops[int(i)].argv): err for i, err in res["errors"].items()},
        "latencies_s": {" ".join(op.argv): lat for op, lat in zip(wl.ops, res["latencies_s"])},
    }
    return {"line": line, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "krausblocks" / "__init__.py").is_file():
        print(f"error: the krausblocks sources are not at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except OutOfTime:
        print(f"error: the run did not end within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    out["details"]["run_wall_s"] = time.perf_counter() - t0
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.result.json").write_text(json.dumps({**out["details"], **out["line"]}, indent=1))
    for cmd, errs in out["details"]["problems"].items():
        print(f"INCORRECT {cmd}: {'; '.join(errs)}", file=sys.stderr)
    for cmd, err in out["details"]["errors"].items():
        last = err.strip().splitlines()[-1] if err.strip() else "no message"
        print(f"FAILED {cmd}: {last}", file=sys.stderr)
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
