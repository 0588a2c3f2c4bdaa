"""The package's public namespace."""

import types

import prefixnormal


def test_star_exports_resolve_and_exclude_modules():
    for name in prefixnormal.__all__:
        value = getattr(prefixnormal, name)
        assert not isinstance(value, types.ModuleType), name
    assert {"FiniteWord", "max_word", "min_word", "build_index"} <= set(prefixnormal.__all__)
