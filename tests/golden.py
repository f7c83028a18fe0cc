"""The golden CLI corpus: a fixed set of ``scds`` commands whose outputs are
pinned by one SHA-256 per command family in ``golden_digest.json``.

Every command runs in-process through ``scds.cli.main``.  Its record is the
argv, the exit code, stdout, stderr and every file it wrote, with the
temporary directory replaced by ``<tmp>``.  The digest file keeps, per
family, the SHA-256 of all records and an 8-hex-digit prefix of each
record's own SHA-256, so a mismatch names the first command that differs.

Regenerate the digest file (after a declared output change only):

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

from helpers import all_graphs
from test_cli import GRAPH_REDUCTIONS, PARSE_ERRORS, _degenerate_commands

from scds import Graph, bipartition, format_graph, parse_graph
from scds.cli import main

HERE = Path(__file__).resolve().parent
DIGEST_PATH = HERE / "golden_digest.json"
PERFBENCH = HERE.parent / "perfbench"

SAMPLE_PER_N = 4               # seeded labelled graphs for each of n = 5 and n = 6
EXACT_POOL_GRAPHS = (0, 7, 8)  # the three exact_scds pool graphs solved fastest (under 0.05 s)


def _sampled_graphs(n, count):
    rng = random.Random(f"golden:{n}")
    pairs = list(combinations(range(n), 2))
    for _ in range(count):
        yield Graph(n, [p for p in pairs if rng.random() < 0.5])


class Corpus:
    """Writes input files into ``root/in`` and yields (family, argv) pairs."""

    def __init__(self, root: Path):
        self.inputs = root / "in"
        self.out = root / "out"
        self.inputs.mkdir()
        self.out.mkdir()
        self._files = 0

    def write(self, text: str) -> str:
        self._files += 1
        path = self.inputs / f"{self._files}.txt"
        path.write_text(text)
        return str(path)

    def graph_commands(self, graph):
        n = graph.n
        g = self.write(format_graph(graph))
        out = str(self.out / "r")
        every = ",".join(map(str, range(n)))
        yield ["approx", "--input", g]
        yield ["check", "chain", "--input", g]
        yield ["check", "chordal-bipartite", "--input", g]
        for checker in ("peo", "dpeo"):
            yield ["check", checker, "--input", g, "--order", every]
            yield ["check", checker, "--input", g, "--order", ",".join(map(str, range(n)[::-1]))]
        parts = bipartition(graph)
        if parts is not None:
            for side, part in (("left", sorted(parts.left)), ("right", sorted(parts.right))):
                tree = self.write(format_graph(Graph(n, zip(part, part[1:]))))  # a path
                for kind in ("general", "star", "comb"):
                    yield ["check", "tree-convex", "--input", g, "--tree", tree, "--side", side,
                           "--kind", kind]
        for problem in ("ds", "cds", "scds", "vc"):
            yield ["solve", "--problem", problem, "--input", g]
        for problem in ("ds", "cds", "scds"):
            for mask in range(1 << n):
                s = ",".join(str(v) for v in range(n) if mask >> v & 1)
                yield ["verify", "--problem", problem, "--input", g, "--set", s]
        for kind in GRAPH_REDUCTIONS:
            yield ["reduce", kind, "--input", g, "--out", out]

    def families(self):
        for n in range(5):
            for graph in all_graphs(n):
                for argv in self.graph_commands(graph):
                    yield "sweep_n_le_4", argv
        for n in (5, 6):
            for graph in _sampled_graphs(n, SAMPLE_PER_N):
                for argv in self.graph_commands(graph):
                    yield "sample_n5_n6", argv

        sys.path.insert(0, str(PERFBENCH))
        try:
            import workloads
        finally:
            sys.path.remove(str(PERFBENCH))
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 1)
            picked = EXACT_POOL_GRAPHS if name == "exact_scds" else range(len(wl.instances))
            for i in picked:
                inst = wl.instances[i]
                g = self.write(workloads.graph_text(inst.n, inst.edges))
                yield "workloads_seed_1", wl.words + ["--input", g] + inst.extra_args

        degenerate = self.inputs / "degenerate"
        degenerate.mkdir()
        for argv in _degenerate_commands(degenerate):  # their outputs go to out/, to be recorded
            yield "degenerate", [a.replace(str(degenerate / "out"), str(self.out / "d")) for a in argv]

        for parser, text, _message in PARSE_ERRORS:
            bad = self.write(text)
            command = ["approx"] if parser is parse_graph else ["solve", "--problem", "setcover"]
            yield "parse_errors", command + ["--input", bad]

        k2 = self.write("2 1\n0 1\n")
        for p, q in ((2, 3), (4, 4), (5, 2)):
            for seed in (0, 1):
                yield "gen_bench", ["gen", "chain", "--p", str(p), "--q", str(q), "--seed", str(seed)]
        for n, prob in (("6", "0.3"), ("9", "0.5"), ("12", "0.2")):
            yield "gen_bench", ["gen", "random", "--n", n, "--edge-prob", prob, "--seed", "3"]
        yield "gen_bench", ["gen", "random", "--n", "7", "--out", str(self.out / "g")]
        yield "gen_bench", ["gen", "gc", "--input", k2]
        for jobs in ("1", "2"):
            yield "gen_bench", ["bench", "--count", "3", "--n", "7", "--seed", "2", "--jobs", jobs]
        yield "gen_bench", ["bench", "--count", "2", "--n", "6", "--out", str(self.out / "b")]


def run(argv, out_dir: Path) -> dict:
    """One command's record: exit code, stdout, stderr and the files it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    files = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = path.read_text()
        path.unlink()
    return {"argv": argv, "code": code, "files": files, "stderr": err.getvalue(),
            "stdout": out.getvalue()}


def records():
    """Yield (family, normalised record text) for the whole corpus, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Corpus(Path(tmp))
        for family, argv in corpus.families():
            record = json.dumps(run(argv, corpus.out), sort_keys=True)
            yield family, record.replace(tmp, "<tmp>")


def digests(stream) -> dict:
    """Per family: the SHA-256 of its records, their count and the 8-hex-digit
    prefixes of each record's SHA-256, in corpus order."""
    whole, each, count = {}, {}, {}
    for family, record in stream:
        whole.setdefault(family, hashlib.sha256()).update(record.encode() + b"\n")
        each.setdefault(family, []).append(hashlib.sha256(record.encode()).hexdigest()[:8])
        count[family] = count.get(family, 0) + 1
    return {family: {"commands": count[family], "each": "".join(each[family]),
                     "sha256": whole[family].hexdigest()} for family in whole}


if __name__ == "__main__":
    DIGEST_PATH.write_text(json.dumps(digests(records()), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")
