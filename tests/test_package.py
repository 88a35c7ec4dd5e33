"""The package's public names."""

from types import ModuleType

import arboreal


def test_star_import_binds_no_module():
    assert arboreal.__all__
    modules = [name for name in arboreal.__all__ if isinstance(getattr(arboreal, name), ModuleType)]
    assert modules == []
