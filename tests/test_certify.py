import random

import pytest

from bruteforce import defenders_naive, first_failure_naive, is_cds_naive, is_ds_naive, is_scds_naive
from helpers import all_graphs, complete, connected_graphs, cycle, path, star
from scds import Failure, SecurityCertificate, is_cds, is_dominating, is_scds, pendant_and_support, verdict
from scds.graph import Graph


def test_is_dominating_examples():
    p3 = path(3)
    assert is_dominating(p3, {1})
    assert not is_dominating(p3, {0})
    assert is_dominating(cycle(5), {0, 2})


def test_is_cds_examples():
    assert is_cds(cycle(4), {0, 1})
    assert not is_cds(cycle(4), {0, 2})
    assert is_cds(path(5), {1, 2, 3})


def test_empty_set_is_never_cds():
    assert not is_cds(Graph(0, []), frozenset())
    assert not is_cds(path(3), frozenset())


def test_is_scds_examples():
    cert = is_scds(cycle(4), {0, 1, 2})
    assert cert is not None and cert.defended == {3: 0}
    assert is_scds(cycle(4), {0, 1}) is None
    cert = is_scds(complete(3), {0})
    assert cert is not None and cert.defended == {1: 0, 2: 0}


def test_is_scds_whole_vertex_set():
    for g in (path(3), cycle(5), complete(4), star(4)):
        cert = is_scds(g, range(g.n))
        assert cert is not None and cert.defended == {}


def test_scds_implies_cds():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.5]
        g = Graph(n, edges)
        smask = rng.randrange(1 << n)
        s = {i for i in range(n) if smask >> i & 1}
        if is_scds(g, s) is not None:
            assert is_cds(g, s)


def test_certify_matches_bruteforce_exhaustively():
    for n in range(1, 5):
        for g in all_graphs(n):
            for smask in range(1 << n):
                s = frozenset(i for i in range(n) if smask >> i & 1)
                assert is_dominating(g, s) == is_ds_naive(g, s)
                assert is_cds(g, s) == is_cds_naive(g, s)
                cert = is_scds(g, s)
                assert (cert is not None) == is_scds_naive(g, s)


def test_certificate_replay_and_tiebreak():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.45]
        g = Graph(n, edges)
        smask = rng.randrange(1, 1 << n)
        s = frozenset(i for i in range(n) if smask >> i & 1)
        cert = is_scds(g, s)
        if cert is None:
            continue
        for u, v in cert.defended.items():
            assert is_cds(g, (s - {v}) | {u})
            assert v == min(defenders_naive(g, s, u))
        assert set(cert.defended) == set(range(n)) - s


def test_pendant_support_proposition_small():
    # for every connected graph with 3..5 vertices, every certified set
    # contains all pendants and supports, and no defender is one of them
    for n in range(3, 6):
        for g in connected_graphs(n):
            pendants, supports = pendant_and_support(g)
            blocked = pendants | supports
            for smask in range(1 << n):
                s = frozenset(i for i in range(n) if smask >> i & 1)
                if is_scds(g, s) is None:
                    continue
                assert blocked <= s
                for u in range(n):
                    if u not in s:
                        assert not defenders_naive(g, s, u) & blocked


def test_first_failure_examples():
    p5 = path(5)
    assert verdict(p5, {1, 2, 3}, "scds") == Failure(0, "undefended")
    assert verdict(p5, {1, 2, 3}, "cds") is None
    # undominated wins over disconnected
    assert verdict(p5, {0, 4}, "cds") == Failure(2, "undominated")
    assert verdict(p5, {0, 1, 3, 4}, "scds") == Failure(3, "disconnected")
    # a passing scds carries its certificate
    assert verdict(complete(3), {0}, "scds") == SecurityCertificate({1: 0, 2: 0})
    empty = Graph(0, [])
    assert verdict(empty, (), "ds") is None
    assert verdict(empty, (), "cds") == Failure(-1, "unknown")
    assert verdict(empty, (), "scds") == Failure(-1, "unknown")
    with pytest.raises(ValueError):
        verdict(p5, {1}, "vc")
    with pytest.raises(ValueError):
        verdict(p5, {7}, "ds")


def test_first_failure_matches_bruteforce_exhaustively():
    checks = {"ds": is_dominating, "cds": is_cds, "scds": lambda g, s: is_scds(g, s) is not None}
    undefended = 0
    for n in range(6):
        for g in all_graphs(n):
            for smask in range(1 << n):
                s = frozenset(i for i in range(n) if smask >> i & 1)
                for problem, passes in checks.items():
                    got = verdict(g, s, problem)
                    failed = isinstance(got, Failure)
                    assert failed != passes(g, s)
                    want = first_failure_naive(g, s, problem)
                    assert ((got.vertex, got.reason) if failed else None) == want
                    if not failed:  # a passing verdict carries the certificate for scds
                        assert got == (is_scds(g, s) if problem == "scds" else None)
                    undefended += want is not None and want[1] == "undefended"
    assert undefended > 1000  # the defender step is exercised, not just the cheap ones


def test_out_of_range_member_raises():
    with pytest.raises(ValueError):
        is_dominating(path(3), {5})
    with pytest.raises(ValueError):
        is_scds(path(3), {-1})
