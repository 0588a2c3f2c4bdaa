import sys
from pathlib import Path

import pytest

# make the sibling oracles module importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

from prefixnormal import word_core  # noqa: E402

#: The two backends of the scan, by name. Both read the span rows of the rarer letter: "lanes" in one Python
#: int per row, and "spans" in numpy, which computes the rows in blocks.
BACKENDS = {"lanes": word_core._lane_extremes, "spans": word_core._span_extremes}


def use_backend(patch: pytest.MonkeyPatch, name: str) -> None:
    """Send every scan to one backend, whatever the backend rule would pick."""
    patch.setattr(word_core, "_backend", lambda w, lengths: BACKENDS[name])


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch) -> str:
    """Every scan of the test on each backend in turn."""
    use_backend(monkeypatch, request.param)
    return request.param
