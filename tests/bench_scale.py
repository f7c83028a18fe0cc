"""Scale runs of ``approx_scds`` on sparse connected graphs, one child
process per size.

For n = 10**4, 3 * 10**4 and 10**5 with m = 3n (perfbench's generator
``sparse_connected``, seeded with ``random.Random(f"scale:{n}")``) a child
process builds the graph, runs ``approx_scds`` and certifies the union.  It
reports the build and approximation times, its peak RSS (``ru_maxrss``)
once the graph is built and at the end, |d_sc| and whether the set
certified.  Each child's address space is capped at ``LIMIT_MB``, so a
size the code cannot afford is recorded as failed instead of exhausting
the machine.  The children import ``scds`` from ``PYTHONPATH``; the rows are
stored under ``--label`` in the JSON file ``--out``, next to the rows of
other labels already there:

    PYTHONPATH=src python tests/bench_scale.py --label change --out BENCH_<date>_<tag>.json
    PYTHONPATH=<other checkout>/src python tests/bench_scale.py --label parent --out BENCH_<date>_<tag>.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

SIZES = (10_000, 30_000, 100_000)
LIMIT_MB = 1536
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)  # KiB on Linux


def _child(n: int) -> None:
    sys.path.insert(0, str(PERFBENCH))
    from workloads import sparse_connected

    from scds import Graph, approx_scds, is_scds

    edges = sparse_connected(random.Random(f"scale:{n}"), n, 3 * n)
    start = time.perf_counter()
    g = Graph(n, edges)
    build_s = time.perf_counter() - start
    del edges
    graph_rss = _rss_mb()
    start = time.perf_counter()
    out = approx_scds(g)
    approx_s = time.perf_counter() - start
    print(json.dumps({
        "n": n, "m": g.m, "build_s": round(build_s, 3), "approx_s": round(approx_s, 3),
        "rss_after_build_mb": graph_rss, "peak_rss_mb": _rss_mb(), "d_sc": len(out.d_sc),
        "certified": is_scds(g, out.d_sc) is not None,
    }))


def _run(n: int) -> dict:
    limit = LIMIT_MB * 2**20
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(n)], capture_output=True, text=True,
        timeout=900, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"n": n, "m": 3 * n, "failed": last[0]}
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    rows = []
    for n in SIZES:
        rows.append(_run(n))
        print(json.dumps(rows[-1]), flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "command": "python tests/bench_scale.py --label LABEL --out FILE",
        "generator": "perfbench/workloads.sparse_connected(random.Random(f'scale:{n}'), n, 3 * n)",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "limit_mb": LIMIT_MB,
    })
    doc.setdefault("runs", {})[args.label] = rows
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(int(sys.argv[2]))
    else:
        main()
