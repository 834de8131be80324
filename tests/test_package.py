import gcdp


def test_every_exported_name_resolves():
    assert len(set(gcdp.__all__)) == len(gcdp.__all__)
    for name in gcdp.__all__:
        assert getattr(gcdp, name) is not None, name


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from gcdp import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gcdp.__all__)
