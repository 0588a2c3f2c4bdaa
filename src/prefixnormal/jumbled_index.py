"""Indexed binary jumbled pattern matching.

The index stores, for every factor length, the minimum and maximum number of
1s over factors of that length. Because window weights change by at most one
per slide, the achievable weights form a full interval, so membership of a
Parikh vector reduces to two array lookups.
"""

from __future__ import annotations

import struct

from .errors import IndexFormatError, InvalidInputError
from .word_core import FiniteWord, PrefixProfile, _FrozenSlots, compute_profile

_MAGIC = b"PNJI"
_VERSION = 1
_HEADER = struct.Struct("<4sIQ")


class JumbledIndex(_FrozenSlots):
    """Constant-time Parikh-vector membership queries over one word's factors."""

    _fields = ("profile",)
    __slots__ = (*_fields, "_lo", "_hi")  # bounds on the 1s by factor length; length 0 has lo > hi

    def __init__(self, profile: PrefixProfile):
        super().__init__(profile)
        object.__setattr__(self, "_lo", (1, *profile.min_ones))
        object.__setattr__(self, "_hi", (0, *profile.max_ones))

    @property
    def word_length(self) -> int:
        return self.profile.length

    def query(self, zeros: int, ones: int) -> bool:
        """True when some factor has exactly ``zeros`` 0s and ``ones`` 1s.

        Lengths outside ``1..word_length`` (including the empty factor) are
        answered False rather than raised.
        """
        n = zeros + ones
        if n < 0:  # otherwise a negative count puts ones outside 0..n, so outside the bounds
            return False
        try:
            return self._lo[n] <= ones <= self._hi[n]
        except IndexError:  # longer than the word
            return False


def build_index(w: FiniteWord) -> JumbledIndex:
    """Index ``w`` for jumbled pattern matching; cost is quadratic in ``len(w)``."""
    if len(w) == 0:
        raise InvalidInputError("cannot index the empty word")
    return JumbledIndex(profile=compute_profile(w))


def serialize(index: JumbledIndex) -> bytes:
    """Little-endian layout: magic, version u32, length u64, then the min-1s
    and max-1s arrays as u64 values."""
    n = index.word_length
    body = struct.pack(f"<{n}Q", *index.profile.min_ones) + struct.pack(
        f"<{n}Q", *index.profile.max_ones
    )
    return _HEADER.pack(_MAGIC, _VERSION, n) + body


def deserialize(data: bytes) -> JumbledIndex:
    """Parse :func:`serialize` output, re-validating every stored invariant."""
    if len(data) < _HEADER.size:
        raise IndexFormatError("payload shorter than header")
    magic, version, n = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise IndexFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise IndexFormatError(f"unsupported version {version}")
    expected = _HEADER.size + 16 * n
    if len(data) != expected:
        raise IndexFormatError(f"payload of {len(data)} bytes, expected {expected}")
    mins = struct.unpack_from(f"<{n}Q", data, _HEADER.size)
    maxs = struct.unpack_from(f"<{n}Q", data, _HEADER.size + 8 * n)
    try:
        profile = PrefixProfile(length=n, max_ones=maxs, min_ones=mins)
    except (InvalidInputError, ValueError) as exc:
        raise IndexFormatError(f"stored arrays violate profile invariants: {exc}") from exc
    return JumbledIndex(profile=profile)
