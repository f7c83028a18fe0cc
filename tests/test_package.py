import scds


def test_public_names_resolve_once_and_star_import():
    assert len(scds.__all__) == len(set(scds.__all__))
    for name in scds.__all__:
        assert hasattr(scds, name), name
    namespace = {}
    exec("from scds import *", namespace)
    assert set(scds.__all__) <= namespace.keys()
