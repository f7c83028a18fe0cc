"""The measured process of one workload.

It imports ``scds`` from the checkout's ``src``, runs the warm-up pass, and
then runs whole rounds of CLI operations, each ``scds.cli.main(argv)`` from
an input file to JSON on stdout, in a closed loop with one caller.  Inputs
are written beforehand by ``run.py``, which also checks the outputs; this
process only reads them.  Modes:

* ``setup``: import plus warm-up, then exit (one sample of setup_s);
* ``timed``: untraced rounds for the end-to-end figures;
* ``traced``: untraced and traced rounds alternate; spans are kept in
  memory and written out at the end.

Usage: python3 perfbench/worker.py MANIFEST MODE RESULT
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # an escaped exception is a failed operation, not a crash of the run
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def _read_edges(path):
    """The benchmark's own reader, used only to feed the allocation probe."""
    lines = Path(path).read_text().split("\n")
    n = int(lines[0].split()[0])
    return n, [tuple(map(int, line.split())) for line in lines[1:] if line]


def main(argv) -> int:
    manifest_path, mode, result_path = argv
    manifest = json.loads(Path(manifest_path).read_text())
    ops = manifest["ops"]
    order = manifest["order"]

    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import scds.cli

    if Path(scds.cli.__file__).resolve().parent != (src / "scds").resolve():
        raise SystemExit(f"imported scds from {scds.cli.__file__}, not from {src}")
    cli_main = scds.cli.main
    _run_op(cli_main, ops[0])  # the warm-up pass
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if mode == "setup":
        Path(result_path).write_text(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced":
        from tracing import Tracer, graph_build_peak

        # tracemalloc slows the Theta(n^2) build about fifty-fold, so one input is probed.
        n, edges = _read_edges(manifest["graphs"][0])
        result["build_alloc_bytes"] = graph_build_peak(scds.graph.Graph, n, edges)
        tracer = Tracer()

    latencies, traced_flags, outputs = [], [], {}
    rounds = 0
    seconds, min_ops = manifest["seconds"], manifest["min_ops"]
    gc.collect()
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for i in order:
            gc.collect()
            if traced:
                tracer.op = len(latencies)
                elapsed, code, out, err = _run_op(tracer.root(cli_main), ops[i])
            else:
                elapsed, code, out, err = _run_op(cli_main, ops[i])
            latencies.append(elapsed)
            traced_flags.append(traced)
            key = (i, code, out, err)
            outputs[key] = outputs.get(key, 0) + 1
        if traced:
            tracer.uninstall()
        rounds += 1
        done = time.perf_counter() - loop_start >= seconds and len(latencies) >= min_ops
        if done and (tracer is None or rounds % 2 == 0):
            break

    result.update({
        "latencies": latencies,
        "traced": traced_flags,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": [{"index": i, "code": code, "stdout": out, "stderr": err, "count": count}
                    for (i, code, out, err), count in outputs.items()],
    })
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
