"""The package's public names: every name in __all__ resolves, so a star
import works."""

import dyadic_cascade


def test_every_exported_name_resolves():
    missing = [name for name in dyadic_cascade.__all__
               if not hasattr(dyadic_cascade, name)]
    assert missing == []
    assert len(set(dyadic_cascade.__all__)) == len(dyadic_cascade.__all__)


def test_star_import():
    namespace = {}
    exec("from dyadic_cascade import *", namespace)
    assert set(dyadic_cascade.__all__) <= namespace.keys()
