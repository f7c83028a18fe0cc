import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import complete_bipartite, cycle, path
from scds import (
    Graph,
    GraphFormatError,
    SetCoverFormatError,
    load_graph,
    parse_graph,
    parse_set_cover,
    save_graph,
)
from scds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_scds(tmp_path, capsys):
    save_graph(path(3), tmp_path / "p3.graph")
    code, out = run(capsys, "solve", "--input", str(tmp_path / "p3.graph"))
    assert code == 0
    assert json.loads(out) == {"explored": 1, "problem": "scds", "size": 3, "witness": [0, 1, 2]}
    save_graph(cycle(4), tmp_path / "c4.graph")
    code, out = run(capsys, "solve", "--input", str(tmp_path / "c4.graph"))
    assert code == 0 and json.loads(out)["size"] == 3


def test_solve_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    assert run(capsys, "solve", "--input", str(bad))[0] == 2
    disc = tmp_path / "disc.graph"
    disc.write_text("4 2\n0 1\n2 3\n")
    assert run(capsys, "solve", "--problem", "cds", "--input", str(disc))[0] == 4
    assert run(capsys, "solve", "--problem", "scds", "--input", str(disc))[0] == 4
    save_graph(cycle(4), tmp_path / "c4.graph")
    assert main(["solve", "--input", str(tmp_path / "c4.graph"), "--budget", "2"]) == 3
    assert capsys.readouterr().err == "error: free-choice space 2**4 exceeds budget 2\n"
    assert run(capsys, "solve", "--input", str(tmp_path / "missing.graph"))[0] == 2


def test_verify(tmp_path, capsys):
    save_graph(cycle(4), tmp_path / "c4.graph")
    code, out = run(capsys, "verify", "--input", str(tmp_path / "c4.graph"), "--set", "0,1,2")
    assert code == 0
    assert json.loads(out) == {"defenders": {"3": "0"}, "problem": "scds", "set": [0, 1, 2]}
    code, out = run(capsys, "verify", "--input", str(tmp_path / "c4.graph"), "--set", "0,1")
    assert code == 1
    assert json.loads(out) == {"failing_vertex": 2, "problem": "scds", "reason": "undefended"}
    code, _ = run(capsys, "verify", "--input", str(tmp_path / "c4.graph"), "--set", "0,9")
    assert code == 2
    code, out = run(capsys, "verify", "--problem", "ds", "--input", str(tmp_path / "c4.graph"),
                    "--set", "0")
    assert code == 1 and json.loads(out)["reason"] == "undominated"
    code, out = run(capsys, "verify", "--problem", "cds", "--input", str(tmp_path / "c4.graph"),
                    "--set", "0,2")
    assert code == 1 and json.loads(out)["reason"] == "disconnected"


def test_verify_failure_pins(tmp_path, capsys):
    empty = tmp_path / "empty.graph"
    empty.write_text("0 0\n")
    code, out = run(capsys, "verify", "--input", str(empty), "--set", "")
    assert code == 1
    assert json.loads(out) == {"failing_vertex": -1, "problem": "scds", "reason": "unknown"}
    assert run(capsys, "verify", "--problem", "ds", "--input", str(empty), "--set", "")[0] == 0
    save_graph(path(5), tmp_path / "p5.graph")
    for problem in ("cds", "scds"):  # {0, 4} is undominating and disconnected
        code, out = run(capsys, "verify", "--problem", problem, "--input",
                        str(tmp_path / "p5.graph"), "--set", "0,4")
        assert code == 1
        assert json.loads(out) == {"failing_vertex": 2, "problem": problem, "reason": "undominated"}
    code, out = run(capsys, "verify", "--input", str(tmp_path / "p5.graph"), "--set", "1,2,3")
    assert code == 1
    assert json.loads(out) == {"failing_vertex": 0, "problem": "scds", "reason": "undefended"}


def _reject_instance(seed, core=240, outside=360):
    """A CDS core (Hamiltonian cycle plus chords) whose outside vertices each
    have three core neighbours, plus x on two core vertices with pendants
    a < b: a is the first undefended vertex."""
    rng = random.Random(seed)
    labels = list(range(core + outside))
    rng.shuffle(labels)
    core_v, out_v = labels[:core], labels[core:]
    edges = {(core_v[i], core_v[(i + 1) % core]) for i in range(core)}
    edges |= {tuple(rng.sample(core_v, 2)) for _ in range(core)}
    for u in out_v:
        edges |= {(u, v) for v in rng.sample(core_v, 3)}
    edges |= {tuple(rng.sample(out_v, 2)) for _ in range(outside // 2)}
    x = core + outside
    edges |= {(x, v) for v in rng.sample(core_v, 2)} | {(x, x + 1), (x, x + 2)}
    return Graph(x + 3, edges), sorted(core_v + [x]), x + 1


def test_verify_reject_explains_without_rescan(tmp_path, capsys, monkeypatch):
    import scds.certify
    from scds import approx_scds

    g, s, pendant = _reject_instance(seed=1)
    accepted = sorted(approx_scds(g).d_sc)
    save_graph(g, tmp_path / "reject.graph")
    builds = []
    real = scds.certify._swap_structure
    monkeypatch.setattr(scds.certify, "_swap_structure", lambda *a: builds.append(1) or real(*a))
    code, out = run(capsys, "verify", "--input", str(tmp_path / "reject.graph"),
                    "--set", ",".join(map(str, s)))
    assert code == 1
    assert json.loads(out) == {"failing_vertex": pendant, "problem": "scds", "reason": "undefended"}
    # one decision explains the rejection; deciding and then explaining builds it twice
    assert len(builds) == 1
    builds.clear()
    code, out = run(capsys, "verify", "--input", str(tmp_path / "reject.graph"),
                    "--set", ",".join(map(str, accepted)))
    assert code == 0 and json.loads(out)["set"] == accepted
    assert len(builds) == 1


PARSE_ERRORS = [
    # (parser, text, message)
    (parse_graph, "", "missing header line 'n m'"),
    (parse_graph, "# only a comment\n\n  # another\n", "missing header line 'n m'"),
    (parse_graph, "3\n", "line 1: header must be 'n m'"),
    (parse_graph, "# c\n3 1 0\n", "line 2: header must be 'n m'"),
    (parse_graph, "3 x\n", "line 1: header must be two integers"),
    (parse_graph, "-1 0\n", "line 1: negative counts in header"),
    (parse_graph, "3 -1\n", "line 1: negative counts in header"),
    (parse_graph, "3 2\n0 1\n", "expected 2 edge lines, found 1"),
    (parse_graph, "3 1\n0 1\n1 2\n", "expected 1 edge lines, found 2"),
    (parse_graph, "3 2\n0 1\n1 0\n", "duplicate edge"),
    (parse_graph, "3 1\n\n0 3\n", "line 3: endpoint out of range"),
    (parse_graph, "3 1\n-1 0\n", "line 2: endpoint out of range"),
    (parse_graph, "3 1\n1 1\n", "line 2: self-loop"),
    (parse_graph, "3 1\n0 a\n", "line 2: edge endpoints must be integers"),
    (parse_graph, "3 1\n0 1 2\n", "line 2: edge line must be 'u v'"),
    (parse_set_cover, "", "missing header line 'n m k'"),
    (parse_set_cover, "# only a comment\n", "missing header line 'n m k'"),
    (parse_set_cover, "2 1\n", "line 1: header must be 'n m k'"),
    (parse_set_cover, "2 1 k\n", "line 1: header must be three integers"),
    (parse_set_cover, "-2 0 1\n", "line 1: negative counts in header"),
    (parse_set_cover, "2 -1 1\n", "line 1: negative counts in header"),
    (parse_set_cover, "1 0 -5\n", "line 1: negative counts in header"),
    (parse_set_cover, "2 2 1\n1 0\n", "expected 2 subset lines, found 1"),
    (parse_set_cover, "2 0 1\n1 0\n", "expected 0 subset lines, found 1"),
    (parse_set_cover, "2 1 1\n2 0\n", "line 2: cardinality prefix mismatch"),
    (parse_set_cover, "2 1 1\n# c\n1 5\n", "line 3: element out of universe"),
    (parse_set_cover, "2 1 1\n1 x\n", "line 2: subset line must be integers"),
]


@pytest.mark.parametrize("parser, text, message", PARSE_ERRORS)
def test_parse_error_messages(tmp_path, capsys, parser, text, message):
    error = GraphFormatError if parser is parse_graph else SetCoverFormatError
    with pytest.raises(error) as info:
        parser(text)
    assert str(info.value) == message
    (tmp_path / "bad.txt").write_text(text)
    command = ["approx"] if parser is parse_graph else ["solve", "--problem", "setcover"]
    assert main(command + ["--input", str(tmp_path / "bad.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_approx_json_shape(tmp_path, capsys):
    save_graph(path(3), tmp_path / "p3.graph")
    code, out = run(capsys, "approx", "--input", str(tmp_path / "p3.graph"))
    assert code == 0
    assert json.loads(out) == {"bound": 3, "d": [0, 2], "d_c": [1], "d_sc": [0, 1, 2], "delta": 2}


def test_reduce_writes_files_and_roundtrips(tmp_path, capsys):
    from scds import gc_graph

    save_graph(Graph(2, [(0, 1)]), tmp_path / "k2.graph")
    code, out = run(capsys, "reduce", "gc", "--input", str(tmp_path / "k2.graph"),
                    "--out", str(tmp_path / "gc"))
    assert code == 0
    emitted = load_graph(tmp_path / "gc.graph")
    assert emitted == gc_graph(Graph(2, [(0, 1)])).graph  # index-equal round-trip
    sidecar = json.loads((tmp_path / "gc.json").read_text())
    assert sidecar["kind"] == "gc"
    assert sidecar["param"] == {"offset": 2}
    assert sidecar["forced"] == [0, 1, 2, 3, 4, 5]
    assert sidecar["labels"]["8"] == "c_1"


def test_reduce_setcover_and_witness_sidecar(tmp_path, capsys):
    (tmp_path / "sc.txt").write_text("2 3 1\n1 0\n1 1\n2 0 1\n")
    code, _ = run(capsys, "reduce", "setcover-dc", "--input", str(tmp_path / "sc.txt"),
                  "--out", str(tmp_path / "dc"))
    assert code == 0
    sidecar = json.loads((tmp_path / "dc.json").read_text())
    assert sidecar["witness"] == {"ordering": list(range(7))}
    save_graph(Graph(2, [(0, 1)]), tmp_path / "k2.graph")
    code, _ = run(capsys, "reduce", "star-convex", "--input", str(tmp_path / "k2.graph"),
                  "--out", str(tmp_path / "star"))
    assert code == 0
    sidecar = json.loads((tmp_path / "star.json").read_text())
    assert sidecar["witness"]["kind"] == "star"
    code, _ = run(capsys, "reduce", "chordal-bipartite", "--input", str(tmp_path / "k2.graph"),
                  "--out", str(tmp_path / "cb"))
    assert code == 0
    sidecar = json.loads((tmp_path / "cb.json").read_text())
    assert sidecar["param"]["affine"]["n_coefficient"] == 7
    assert sidecar["param"]["offset"] == 24


def test_reduce_precondition_exit(tmp_path, capsys):
    save_graph(Graph(3, [(0, 1), (1, 2), (0, 2)]), tmp_path / "k3.graph")
    code, _ = run(capsys, "reduce", "star-convex", "--input", str(tmp_path / "k3.graph"),
                  "--out", str(tmp_path / "x"))
    assert code == 4  # not bipartite
    code, _ = run(capsys, "reduce", "apx-deg4", "--input", str(tmp_path / "k3.graph"),
                  "--out", str(tmp_path / "x"))
    assert code == 0
    save_graph(complete_bipartite(1, 4), tmp_path / "s4.graph")
    code, _ = run(capsys, "reduce", "apx-deg4", "--input", str(tmp_path / "s4.graph"),
                  "--out", str(tmp_path / "x"))
    assert code == 4  # max degree too large


def test_gen_chain_deterministic(tmp_path, capsys):
    _, out1 = run(capsys, "gen", "chain", "--p", "3", "--q", "3", "--seed", "1")
    _, out2 = run(capsys, "gen", "chain", "--p", "3", "--q", "3", "--seed", "1")
    assert out1 == out2
    g = parse_graph(out1)
    assert g.n == 6


def test_gen_gc_from_k2(tmp_path, capsys):
    save_graph(Graph(2, [(0, 1)]), tmp_path / "k2.graph")
    code, out = run(capsys, "gen", "gc", "--input", str(tmp_path / "k2.graph"))
    assert code == 0
    assert parse_graph(out).n == 10
    out_path = tmp_path / "gc.graph"
    run(capsys, "gen", "gc", "--input", str(tmp_path / "k2.graph"), "--out", str(out_path))
    assert out_path.read_text() == out


def test_gen_random_connected(capsys):
    code, out = run(capsys, "gen", "random", "--n", "9", "--seed", "4")
    assert code == 0
    from scds import is_connected

    assert is_connected(parse_graph(out))


def test_check_commands(tmp_path, capsys):
    save_graph(path(3), tmp_path / "p3.graph")
    assert run(capsys, "check", "dpeo", "--input", str(tmp_path / "p3.graph"),
               "--order", "0,2,1")[0] == 0
    assert run(capsys, "check", "peo", "--input", str(tmp_path / "p3.graph"),
               "--order", "1,0,2")[0] == 1
    assert run(capsys, "check", "peo", "--input", str(tmp_path / "p3.graph"),
               "--order", "0,0,1")[0] == 2
    save_graph(cycle(6), tmp_path / "c6.graph")
    code, out = run(capsys, "check", "chordal-bipartite", "--input", str(tmp_path / "c6.graph"),
                    "--max-len", "6")
    assert code == 1 and json.loads(out)["cycle"] == [0, 1, 2, 3, 4, 5]
    assert run(capsys, "check", "chain", "--input", str(tmp_path / "c6.graph"))[0] == 1
    save_graph(complete_bipartite(2, 3), tmp_path / "k23.graph")
    code, out = run(capsys, "check", "chain", "--input", str(tmp_path / "k23.graph"))
    assert code == 0 and json.loads(out)["x_order"] == [0, 1]
    # tree witness from a file
    save_graph(Graph(4, [(0, 2)]), tmp_path / "tree.graph")
    save_graph(path(4), tmp_path / "p4.graph")
    assert run(capsys, "check", "tree-convex", "--input", str(tmp_path / "p4.graph"),
               "--tree", str(tmp_path / "tree.graph"), "--side", "left", "--kind", "star")[0] == 0


def test_check_chain_empty_graph(tmp_path, capsys):
    (tmp_path / "empty.graph").write_text("0 0\n")
    assert main(["check", "chain", "--input", str(tmp_path / "empty.graph")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the empty graph has no secure connected dominating set\n"


def test_check_tree_convex_tree_shorter_than_left_part(tmp_path, capsys):
    (tmp_path / "host.graph").write_text("2 1\n0 1\n")
    (tmp_path / "tree.graph").write_text("0 0\n")
    code = main(["check", "tree-convex", "--input", str(tmp_path / "host.graph"),
                 "--tree", str(tmp_path / "tree.graph")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: tree witness does not span the left part as a tree\n"


DEGENERATE_GRAPHS = {"0 0": "0 0\n", "1 0": "1 0\n", "2 1": "2 1\n0 1\n", "3 0": "3 0\n"}
DEGENERATE_COVERS = {"0 0 0": "0 0 0\n", "2 0 1": "2 0 1\n"}
GRAPH_REDUCTIONS = ("star-convex", "comb-convex", "chordal-bipartite", "inapprox-general",
                    "inapprox-bipartite", "apx-deg4", "gc")


def _degenerate_commands(tmp_path):
    out = str(tmp_path / "out")
    graphs = {}
    for header, text in DEGENERATE_GRAPHS.items():
        graphs[header] = tmp_path / (header.replace(" ", "_") + ".graph")
        graphs[header].write_text(text)
    for header, g in graphs.items():
        g = str(g)
        every = ",".join(map(str, range(int(header.split()[0]))))
        for problem in ("ds", "cds", "scds", "vc"):
            yield ["solve", "--problem", problem, "--input", g]
        for problem in ("ds", "cds", "scds"):
            for s in ("", every):
                yield ["verify", "--problem", problem, "--input", g, "--set", s]
        yield ["approx", "--input", g]
        for kind in GRAPH_REDUCTIONS:
            yield ["reduce", kind, "--input", g, "--out", out]
        yield ["gen", "gc", "--input", g, "--out", out + ".gen"]
        for checker in ("peo", "dpeo"):
            yield ["check", checker, "--input", g, "--order", every]
        for tree in graphs.values():
            for side in ("left", "right"):
                yield ["check", "tree-convex", "--input", g, "--tree", str(tree), "--side", side]
        yield ["check", "chordal-bipartite", "--input", g]
        yield ["check", "chain", "--input", g]
    for header, text in DEGENERATE_COVERS.items():
        sc = tmp_path / (header.replace(" ", "_") + ".txt")
        sc.write_text(text)
        yield ["solve", "--problem", "setcover", "--input", str(sc)]
        yield ["reduce", "setcover-dc", "--input", str(sc), "--out", out]
    for n in ("0", "1", "2", "3"):
        yield ["bench", "--count", "1", "--n", n]
        yield ["gen", "random", "--n", n]
    for p, q in (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")):
        yield ["gen", "chain", "--p", p, "--q", q]


def test_degenerate_inputs_exit_with_documented_codes(tmp_path, capsys):
    # every command on tiny, empty and edgeless inputs ends in a documented exit
    # code rather than a traceback
    for argv in _degenerate_commands(tmp_path):
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), argv


def test_bench_output_and_determinism(capsys):
    code, out1 = run(capsys, "bench", "--count", "4", "--n", "7", "--seed", "3")
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "seed,n,m,delta,gamma_sc,approx_size,bound"
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split(",")
        assert int(fields[1]) == 7
        assert int(fields[5]) <= 7
        assert fields[4] != ""  # n=7 is well inside the default budget
        assert int(fields[5]) <= int(fields[6]) * int(fields[4])
    _, out2 = run(capsys, "bench", "--count", "4", "--n", "7", "--seed", "3")
    assert out1 == out2
    _, out8 = run(capsys, "bench", "--count", "4", "--n", "7", "--seed", "3", "--jobs", "8")
    assert out1 == out8


def test_bench_blank_gamma_when_budget_exceeded(capsys):
    code, out = run(capsys, "bench", "--count", "2", "--n", "8", "--seed", "0",
                    "--budget", "4")
    assert code == 0
    for row in out.strip().split("\n")[1:]:
        assert row.split(",")[4] == ""


def test_module_entrypoint_subprocess(tmp_path):
    import scds

    # The child finds the package where this process did, installed or not.
    src = str(Path(scds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    save_graph(path(3), tmp_path / "p3.graph")
    proc = subprocess.run(
        [sys.executable, "-m", "scds.cli", "solve", "--input", str(tmp_path / "p3.graph")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 3
    proc = subprocess.run([sys.executable, "-m", "scds.cli", "nonsense"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
