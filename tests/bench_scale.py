"""Scale runs, one child process each: ``approx_scds`` on sparse connected
graphs (``--mode approx``, the default), and the class validators on long
paths (``--mode validators``).

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

``--mode validators`` writes two files to a temporary directory: the path
P_n for n = 1.2 * 10**5, and the path P_n for n = 6 * 10**4 with a path tree
over its even side.  A child process runs the CLI's ``main`` on
``check chordal-bipartite`` over the first and ``check tree-convex`` over
the second, under the same cap.  Each row holds the wall time of the whole
child, its peak RSS, its exit code and its stdout.  The rows go under
``validators`` in the same JSON file.
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
import tempfile
import time
from contextlib import redirect_stdout
from io import StringIO
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


def _child_cli(argv: list[str]) -> None:
    from scds.cli import main

    with redirect_stdout(StringIO()) as out:
        code = main(argv)
    print(json.dumps({"exit": code, "stdout": out.getvalue(), "peak_rss_mb": _rss_mb()}))


def _run(child_args: list[str], row: dict) -> dict:
    """The child's JSON line, or ``row`` with its last error line if it fails."""
    limit = LIMIT_MB * 2**20
    proc = subprocess.run(
        [sys.executable, __file__, *child_args], capture_output=True, text=True,
        timeout=900, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {**row, "failed": last[0]}
    return json.loads(proc.stdout.splitlines()[-1])


def _path_text(n: int, step: int = 1) -> str:
    edges = [(i, i + step) for i in range(0, n - step, step)]
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _validator_rows() -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        long_path, host, tree = (os.path.join(tmp, name) for name in ("long", "host", "tree"))
        Path(long_path).write_text(_path_text(120_000))
        Path(host).write_text(_path_text(60_000))
        Path(tree).write_text(_path_text(60_000, step=2))
        cases = [
            ("check chordal-bipartite", 120_000, ["check", "chordal-bipartite", "--input", long_path]),
            ("check tree-convex", 60_000, ["check", "tree-convex", "--input", host, "--tree", tree]),
        ]
        for command, n, argv in cases:
            start = time.perf_counter()
            row = _run(["--child-cli", *argv], {})
            rows.append({"command": command, "n": n, **row, "wall_s": round(time.perf_counter() - start, 3)})
            print(json.dumps(rows[-1]), flush=True)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("approx", "validators"), default="approx")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "limit_mb": LIMIT_MB,
    })
    if args.mode == "validators":
        section = doc.setdefault("validators", {})
        section.update({
            "command": "python tests/bench_scale.py --mode validators --label LABEL --out FILE",
            "inputs": "P_120000 (check chordal-bipartite); P_60000 with the path tree "
                      "0-2-4-...-59998 (check tree-convex)",
        })
        section.setdefault("runs", {})[args.label] = _validator_rows()
    else:
        rows = []
        for n in SIZES:
            rows.append(_run(["--child", str(n)], {"n": n, "m": 3 * n}))
            print(json.dumps(rows[-1]), flush=True)
        doc.update({
            "command": "python tests/bench_scale.py --label LABEL --out FILE",
            "generator": "perfbench/workloads.sparse_connected(random.Random(f'scale:{n}'), n, 3 * n)",
        })
        doc.setdefault("runs", {})[args.label] = rows
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(int(sys.argv[2]))
    elif sys.argv[1:2] == ["--child-cli"]:
        _child_cli(sys.argv[2:])
    else:
        main()
