"""One conformance suite for the two backends of the scan, which read the
same span rows of the rarer letter, in lanes of one Python int or in numpy's blocks.

The ``backend`` fixture sends every scan to the lanes and to numpy's span
blocks in turn by patching ``word_core._backend``, and every consumer of the
scan runs under it against the oracles: the profile, the first violation and
its dual, and the balance test. The spans are computed in the narrowest
unsigned type that holds the word's length, so this suite also runs with
numpy's overflow warnings as errors. The rule that picks a backend is tested
by calling ``_backend`` at its boundaries, in ``test_lane_kernel``.
"""

import functools
import itertools
import math
import operator
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prefixnormal import FiniteWord, complement, compute_profile, word_core
from prefixnormal.analysis import find_violation_0, find_violation_1, is_c_balanced

from oracles import brute_first_violation, brute_profile, int64_first_violation, int64_profile


def conforms(text: str, maxs: list, mins: list, violation: tuple | None, longest: int | None = None) -> None:
    """Check every consumer of the scan on ``text`` against its full profile
    and first violation: the profile up to ``longest``, the first violation
    and its dual, and the balance test at the widest spread, one less and one
    more."""
    w, longest = FiniteWord(text), longest or len(text)
    profile = compute_profile(w, longest)
    assert (list(profile.max_ones), list(profile.min_ones)) == (maxs[:longest], mins[:longest]), text
    for found in (find_violation_1(w), find_violation_0(complement(w))):
        assert (None if found is None else tuple(found)) == violation, text
    spread = max(map(operator.sub, maxs, mins))
    constants = range(max(spread - 1, 1), spread + 2)
    assert [is_c_balanced(w, c) for c in constants] == [c >= spread for c in constants], text


def scan(backend, w: FiniteWord, lengths: range, minima: bool = True) -> tuple[list, list | None]:
    """The max-1s and min-1s (None unless ``minima``) that ``backend``, called
    directly, yields for ``lengths``, checked to come in consecutive blocks
    of at most ``isqrt(_BLOCK_CELLS)`` lengths that cover them."""
    rows, maxs, mins = [], [], []
    for block, hi, lo in backend(w, lengths, minima):
        assert len(hi) == len(block) <= math.isqrt(word_core._BLOCK_CELLS) and (lo is None) == (not minima)
        rows += block
        maxs += hi
        mins += lo or []
    assert rows == list(lengths)
    return maxs, mins if minima else None


@functools.cache
def short_words() -> list:
    """Every word of 1 to 14 symbols, with its profile and first violation by brute force."""
    texts = ("".join(bits) for n in range(1, 15) for bits in itertools.product("01", repeat=n))
    return [(text, *brute_profile(text), brute_first_violation(text)) for text in texts]


@st.composite
def block_edge_words(draw) -> str:
    """Words of 1 to 300 symbols, from nearly all 0s to nearly all 1s."""
    n = draw(st.integers(1, 300))
    density = draw(st.sampled_from([0.02, 0.2, 0.5, 0.8, 0.98]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return "".join("1" if rng.random() < density else "0" for _ in range(n))


@st.composite
def planted_sparse_words(draw) -> str:
    """``1 0^(q-1)`` repeated, prefix normal and run-sparse, with one 0 in
    its second half turned into a 1; unless that symbol was a 1 already, the
    1 before it and the planted one make a violation of length at most q."""
    q = draw(st.integers(14, 80))
    n = draw(st.integers(2 * q, 3000))
    symbols = bytearray((b"1" + b"0" * (q - 1)) * (n // q + 1))[:n]
    symbols[draw(st.integers(n // 2, n - 1))] = ord("1")
    return symbols.decode()


@st.composite
def power_of_two_words(draw) -> str:
    """Words of 2^k - 1, 2^k and 2^k + 1 symbols, up to 2,049, with none or
    one of their rarer letter: a word of 1s or of 0s, whose rows hold only
    their sentinel spans, and 0 1^(n - 1) and 1^h 0 1^(n - 1 - h). The last
    is prefix normal, so its check scans up to n - 1 ones."""
    n = 2 ** draw(st.integers(1, 11)) + draw(st.integers(-1, 1))
    h = n // 2
    return draw(st.sampled_from(["1" * n, "0" * n, "0" + "1" * (n - 1), ("1" * h + "0" + "1" * (n - 1 - h))[:n]]))


@st.composite
def headed_words(draw) -> str:
    """Block edge words after a prefix of 1s, which moves the scan's first
    length past the first-run search."""
    text = draw(block_edge_words())
    return ("1" * draw(st.integers(1, 6)) + text)[: len(text)]


class TestConformance:
    def test_every_word_up_to_14_symbols(self, backend):
        for text, maxs, mins, violation in short_words():
            conforms(text, maxs, mins, violation)

    @given(
        text=st.one_of(block_edge_words(), headed_words(), planted_sparse_words(), power_of_two_words()), data=st.data()
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_words_match_the_int64_kernel(self, backend, text, data):
        longest = data.draw(st.integers(1, len(text)), label="longest")
        conforms(text, *int64_profile(text, len(text)), int64_first_violation(text), longest)
