"""One-off reference timings of single public calls (the ROADMAP baseline
rows at d <= 32), each in a fresh process so that its peak RSS is its own.

    python3 bench/reference.py

Prints one line per row: what was timed, seconds, and the process's peak RSS
after the call. These are single runs, not part of the benchmark's metrics.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

ROWS = [
    ("commutant_basis, irreducible k=3", "commutant", 24),
    ("commutant_basis, irreducible k=3", "commutant", 32),
    ("iris_decompose, irreducible k=3", "iris", 32),
    ("CLI decompose, irreducible k=3", "cli", 32),
    ("iris_decompose, depolarizing k=d^2", "iris_dep", 16),
    ("coherent_information, 32 restarts", "coh", 4),
    ("min_output_renyi alpha=2, 32 restarts", "smin", 4),
    ("min_output_renyi alpha=2, 32 restarts", "smin", 16),
    ("ent_assisted_capacity", "ce", 4),
    ("ent_assisted_capacity", "ce", 6),
]


def one(kind: str, d: int) -> dict:
    sys.path.insert(0, str(SRC))
    import contextlib
    import io
    import os
    import tempfile

    import krausblocks as kb
    from krausblocks.cli import run_command
    from krausblocks.serialize import channel_to_document, dumps_report

    ch = kb.depolarizing_channel(d, 0.5) if kind == "iris_dep" else kb.random_unital_channel(d, 3, 1)
    if kind == "cli":
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ch.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps_report(channel_to_document(ch)))
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                run_command(["decompose", path])
            dt = time.perf_counter() - t0
    else:
        call = {
            "commutant": lambda: kb.commutant_basis(ch),
            "iris": lambda: kb.iris_decompose(ch),
            "iris_dep": lambda: kb.iris_decompose(ch),
            "coh": lambda: kb.coherent_information(ch, restarts=32),
            "smin": lambda: kb.min_output_renyi(ch, 2.0, restarts=32),
            "ce": lambda: kb.ent_assisted_capacity(ch),
        }[kind]
        t0 = time.perf_counter()
        call()
        dt = time.perf_counter() - t0
    return {"s": dt, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> None:
    for label, kind, d in ROWS:
        proc = subprocess.run([sys.executable, __file__, kind, str(d)], capture_output=True,
                              text=True, check=True, timeout=600)
        r = json.loads(proc.stdout)
        print(f"{label:40s} d={d:3d}  {r['s']:8.3f} s  peak {r['peak_rss_mb']:7.1f} MB")


if __name__ == "__main__":
    if len(sys.argv) == 3:
        print(json.dumps(one(sys.argv[1], int(sys.argv[2]))))
    else:
        main()
