"""The public namespace of the package.

A stale entry in ``dfgof.__all__`` still imports cleanly and only breaks
``from dfgof import *``, so every entry is resolved here.
"""

import dfgof


def test_every_exported_name_resolves():
    missing = [name for name in dfgof.__all__ if not hasattr(dfgof, name)]
    assert not missing, f"dfgof.__all__ names missing attributes: {missing}"


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dfgof import *", namespace)
    assert set(dfgof.__all__) <= set(namespace)
    assert len(set(dfgof.__all__)) == len(dfgof.__all__)
