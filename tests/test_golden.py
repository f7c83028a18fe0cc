import json

from golden import DIGEST_PATH, digests, records


def test_golden_corpus_matches_digest():
    expected = json.loads(DIGEST_PATH.read_text())
    seen = list(records())
    actual = digests(seen)
    assert sorted(actual) == sorted(expected)
    for family, want in expected.items():
        got = actual[family]
        if got == want:
            continue
        rows = [record for fam, record in seen if fam == family]
        for i, record in enumerate(rows):
            if got["each"][8 * i:8 * i + 8] != want["each"][8 * i:8 * i + 8]:
                raise AssertionError(f"{family}: command {i} differs from the digest; it now "
                                     f"records {record}")
        raise AssertionError(f"{family}: {got['commands']} commands, digest has {want['commands']}")
