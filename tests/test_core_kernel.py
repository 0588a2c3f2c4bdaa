"""The cores backend of the window scan called directly, and the rule that
sends a word to it, tested by calling ``_backend`` directly, with numpy loaded."""

import sys

import pytest

from prefixnormal import FiniteWord, compute_profile
from prefixnormal.analysis import find_violation_1, is_c_balanced
from prefixnormal.word_core import _backend, _core_extremes

from conftest import BACKENDS
from test_backends import scan, short_words


class TestCoresAgainstOracles:
    def test_every_word_up_to_14_symbols(self):
        # with numpy loaded the rule sends every word up to 14 symbols to the
        # cores, which yield its brute-force profile over every length
        assert "numpy" in sys.modules and sys.modules["numpy"] is not None
        for text, maxs, mins, _ in short_words():
            w, lengths = FiniteWord(text), range(1, len(text) + 1)
            assert _backend(w, lengths) is _core_extremes, text
            assert scan(_core_extremes, w, lengths) == (maxs, mins), text


class TestCoreRule:
    @pytest.mark.parametrize("head", ["", "1"])
    @pytest.mark.parametrize("runs, chosen", [(79, "cores"), (80, "blocks")])
    def test_cores_take_words_up_to_the_factor(self, head, runs, chosen):
        # n = 400 and 16 n = 6,400 = (79 + 1)^2: 79 1s after a 0 take the cores,
        # 80 take the span blocks; a first run of 1s follows no 0 and does not count
        n = 400
        text = (head + "01" * runs).ljust(n, "0")
        assert _backend(FiniteWord(text), range(1, n + 1)) is BACKENDS[chosen]

    def test_a_sparse_word_runs_in_lanes_while_numpy_is_not_loaded(self, monkeypatch):
        w = FiniteWord(b"\1" + b"\0" * 63) * 32  # 2,048 symbols: 2,048 x 2,048 cells fit in the lanes
        profile = compute_profile(w)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert compute_profile(w) == profile and find_violation_1(w) is None and is_c_balanced(w, 1)
