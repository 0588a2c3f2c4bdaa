"""The package's public namespace and the README's library example."""

import re
import types
from pathlib import Path

import prefixnormal

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_exports_resolve_and_exclude_modules():
    for name in prefixnormal.__all__:
        value = getattr(prefixnormal, name)
        assert not isinstance(value, types.ModuleType), name
    assert {"FiniteWord", "max_word", "min_word", "build_index"} <= set(prefixnormal.__all__)


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
