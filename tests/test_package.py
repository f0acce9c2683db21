"""The package's export list."""

import qlsat


def test_every_exported_name_resolves():
    missing = [name for name in qlsat.__all__ if not hasattr(qlsat, name)]
    assert missing == []
    assert len(set(qlsat.__all__)) == len(qlsat.__all__)


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from qlsat import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qlsat.__all__)
