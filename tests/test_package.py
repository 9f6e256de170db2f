import types

import loqc


def test_export_list_is_consistent():
    exported = loqc.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(loqc, name), name
    public = {name for name, value in vars(loqc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public | {"__version__"} == set(exported)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from loqc import *", namespace)
    assert set(loqc.__all__) <= namespace.keys()
