import types

import weylpi


def test_all_names_resolve_and_are_unique():
    assert len(set(weylpi.__all__)) == len(weylpi.__all__)
    for name in weylpi.__all__:
        assert getattr(weylpi, name, None) is not None, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from weylpi import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(weylpi.__all__)
    # and __all__ lists every public name the package imports
    public = {
        name
        for name, value in vars(weylpi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(weylpi.__all__)
