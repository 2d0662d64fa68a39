"""Benchmark worker: runs in its own process, so that its peak RSS and its
import time belong to the program under test and not to the harness.

    python3 bench/worker.py setup SRC KIND=DOC... time import + parse/validate
    python3 bench/worker.py run SRC PLAN OUT      time the operation rounds

Only the standard library is imported at module level, so that ``setup``
times the import of ``numpy`` and ``krausblocks`` from a cold interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def setup(src: str, docs: list[str]) -> None:
    """Print the seconds taken to import krausblocks and to parse and validate
    each input document once (channels through ``KrausChannel.from_kraus``)."""
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from krausblocks.channel import KrausChannel
    from krausblocks.serialize import parse_channel_ops, parse_measurement, parse_operator

    for entry in docs:
        kind, path = entry.split("=", 1)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if kind == "channel":
            _, ops = parse_channel_ops(text)
            KrausChannel.from_kraus(ops)
        elif kind == "measurement":
            parse_measurement(text)
        else:
            parse_operator(text)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _run_one(run_command, argv: list[str]) -> tuple[float, int, str, str]:
    """Time one CLI call. An exception that escapes ``run_command`` ends the
    call the way it ends the real CLI: exit code 1, traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_command(argv)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc()
            code = 1
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def run(src: str, plan_path: str, out_path: str) -> None:
    """Warm up, then run whole rounds of the operation list.

    Without tracing, rounds repeat while the next one, taken to last as long
    as the one before, still ends within ``seconds`` (at least one round).
    With tracing, one round runs without spans, for the per-verb latencies,
    and then exactly one round with spans, so that the traced counts are the
    same in every run.

    Peak RSS is read after the first round: later rounds repeat the same
    operations, and the high-water mark they add is heap the allocator kept
    from earlier rounds (it moved between 154 and 183 MB on one workload),
    which no single CLI invocation would see.
    """
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, src)
    from krausblocks.cli import run_command

    ops = plan["ops"]
    for i in plan["warmup"]:
        _run_one(run_command, ops[i])

    latencies: list[list[float]] = [[] for _ in ops]
    codes: list[list[int]] = [[] for _ in ops]
    reports: list[str | None] = [None] * len(ops)
    identical = [True] * len(ops)
    errors: dict[int, str] = {}
    rounds = 0
    t_start = time.perf_counter()
    round_walls = []
    while True:
        t_round = time.perf_counter()
        for i, argv in enumerate(ops):
            dt, code, text, err = _run_one(run_command, argv)
            latencies[i].append(dt)
            codes[i].append(code)
            if code != 0:
                errors.setdefault(i, err)
            if reports[i] is None:
                reports[i] = text
            elif text != reports[i]:
                identical[i] = False
        round_walls.append(time.perf_counter() - t_round)
        if rounds == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if plan["trace"] or elapsed + round_walls[-1] > plan["seconds"]:
            break

    result = {
        "rounds": rounds,
        "elapsed_s": elapsed,
        "round_walls_s": round_walls,
        "latencies_s": latencies,
        "codes": codes,
        "reports": reports,
        "identical": identical,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
    }

    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        t_round = time.perf_counter()
        with tracer.installed():
            for i, argv in enumerate(ops):
                _, code, text, err = _run_one(run_command, argv)
                codes[i].append(code)
                if code != 0:
                    errors.setdefault(i, err)
                if text != reports[i]:
                    identical[i] = False
        result["traced_wall_s"] = time.perf_counter() - t_round
        result["layers"] = tracer.metrics()
        tracer.write(plan["trace_path"])

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3:])
    elif mode == "run":
        run(sys.argv[2], sys.argv[3], sys.argv[4])
    else:
        sys.exit(f"unknown mode {mode!r}")
