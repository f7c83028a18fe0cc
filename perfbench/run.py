"""Run one workload of the scds benchmark and print its figures.

From the root of a checkout:

    python3 perfbench/run.py --workload approx_sparse --seed 1 --seconds 25 --trace 0

The run writes the workload's inputs under ``.perfbench/``, measures them
in fresh single-threaded worker processes (``worker.py``), checks every
output with ``checks.py`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from a
separate traced run with ``--trace 1``.  This process never imports
``scds``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5
DEADLINE_S = 170
# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "graph.parse_s": "s", "graph.build_s": "s", "graph.build_alloc_mb": "MB",
    "graph.induced_subgraph_s": "s", "graph.bipartition_s": "s",
    "approx.greedy_cds_s": "s", "approx.greedy_ds_s": "s", "approx.residual_n": "vertices",
    "certify.is_scds_s": "s", "certify.is_scds_calls": "count",
    "certify.defenders_of_calls": "count", "certify.defenders_of_s": "s",
    "exact.min_scds_s": "s", "exact.explored": "candidates", "exact.candidates_per_s": "1/s",
    "chain.ordering_s": "s", "chain.construct_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _run_worker(manifest: Path, mode: str, result: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), mode, str(result)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result.read_text())


def _returned_vertices(workload: str, out: dict) -> int:
    """Size of the vertex set one operation returns (the failing vertex for verify)."""
    key = {"approx_sparse": "d_sc", "exact_scds": "witness", "chain_dense": "upper_bound_set"}.get(workload)
    return len(out[key]) if key else 1


def _check_outputs(wl, result) -> tuple[int, int, bool, dict[int, dict]]:
    """attempted, failed, correct, and each instance's (single) parsed output."""
    attempted = failed = 0
    correct = True
    adjs: dict[int, list[set[int]]] = {}
    seen: dict[int, dict] = {}
    check = checks.CHECKS[wl.name]
    for entry in result["outputs"]:
        i, code, count = entry["index"], entry["code"], entry["count"]
        attempted += count
        if code not in (0, 1):
            failed += count
            print(f"instance {i}: operation failed with exit code {code}: {entry['stderr'][-500:]}",
                  file=sys.stderr)
            continue
        inst = wl.instances[i]
        adj = adjs.setdefault(i, checks.adjacency(inst.n, inst.edges))
        try:
            out = json.loads(entry["stdout"])
            check(inst, adj, code, out)
        except (checks.CheckFailed, ValueError, KeyError, TypeError) as exc:
            correct = False
            print(f"instance {i}: wrong output: {exc}", file=sys.stderr)
            continue
        if i in seen:
            correct = False
            print(f"instance {i}: output differs between operations", file=sys.stderr)
        seen[i] = out
    return attempted, failed, correct, seen


def _self_test(wl, outputs: dict[int, dict]) -> None:
    """Feed outputs that are wrong by construction to the checks; each must be rejected."""
    for i in sorted(outputs):
        inst = wl.instances[i]
        adj = checks.adjacency(inst.n, inst.edges)
        bad = checks.corruptions(wl.name, inst, adj, outputs[i])
        for label, out in bad:
            try:
                checks.CHECKS[wl.name](inst, adj, wl.expect_code, out)
            except checks.CheckFailed:
                continue
            raise BenchError(f"the {wl.name} check accepted a corrupted output ({label})")
        if bad:
            return
    if outputs:
        raise BenchError(f"no corrupted output could be built for {wl.name}")


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _layer_metrics(wl, result, outputs) -> dict[str, tuple[float, str]]:
    values = layer_metrics(result["spans"], result["latencies"], result["traced"])
    values["graph.build_alloc_mb"] = result["build_alloc_bytes"] / 2**20
    residual = [wl.instances[i].n - len(out["d_c"]) for i, out in outputs.items() if "d_c" in out]
    values["approx.residual_n"] = statistics.median(residual) if residual else 0
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "scds" / "cli.py").is_file():
        raise BenchError(f"no scds sources under {ROOT / 'src'}; run from a checkout of the repository")
    deadline = time.monotonic() + DEADLINE_S
    wl = workloads.build(name, seed)
    work = WORK / f"{wl.name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    graphs, ops = [], []
    for k, inst in enumerate(wl.instances):
        path = work / f"{k}.graph"
        path.write_text(workloads.graph_text(inst.n, inst.edges))
        graphs.append(str(path))
        ops.append(wl.words + ["--input", str(path)] + inst.extra_args)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({
        "ops": ops, "graphs": graphs, "order": wl.order,
        "seconds": seconds, "min_ops": wl.min_ops,
    }))
    result_path = work / "worker.json"
    try:
        if trace:
            result = _run_worker(manifest, "traced", result_path, deadline)
        else:
            # Set-up samples come before and after the timed run, so a slow
            # phase of the machine moves fewer of them.
            setups = [_run_worker(manifest, "setup", result_path, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES // 2)]
            result = _run_worker(manifest, "timed", result_path, deadline)
            setups.append(result["setup_s"])
            setups += [_run_worker(manifest, "setup", result_path, deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES // 2)]
    finally:
        for path in graphs:
            Path(path).unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)

    attempted, failed, correct, outputs = _check_outputs(wl, result)
    _self_test(wl, outputs)
    latencies = result["latencies"]
    if trace:
        metrics = _layer_metrics(wl, result, outputs)
        (work / "trace.json").write_text(json.dumps(result["spans"]))
    else:
        size = sum(_returned_vertices(wl.name, out) for out in outputs.values())
        metrics = {
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (_percentile(latencies, wl.tail_pct), "s"),
            "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "scds_size": (size, "vertices"),
        }
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    (work / f"result-trace{trace}.json").write_text(json.dumps({
        **summary, "tail_percentile": wl.tail_pct, "rounds": result["rounds"],
        "latencies": latencies, "traced": result["traced"],
        "setups": None if trace else setups,
    }, indent=1))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all four in turn (one JSON line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            summary = run(name, args.seed, args.seconds, args.trace)
        except (BenchError, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"workload": name, **summary} if len(names) > 1 else summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
