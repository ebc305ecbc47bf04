"""JSON text of real numbers, as the file writers spell them.

The canonical text of a real x is repr(canonical_float(x)), the repr of its
9-significant-digit value: ``96.0``, ``-0.0``, ``0.100000001``, ``1e-05``,
``1234567940.0``. Non-finite values are spelled ``NaN``, ``Infinity`` and
``-Infinity``, as json.dumps spells them.

float_arrays spells float32 vectors of one length, many at once. An exact
integer kernel, _decimal_words, spells the numbers x with 1e-4 <= |x| < 1
at 9 significant digits, which are nearly all of an embedding's; every
other number (zero, integral values, |x| < 1e-4 or >= 1, non-finite
values) goes through a per-number %-format placeholder. The kernel finds
the decimal exponent of x by comparing its bits with those of five float32
thresholds, the least float32 at or above 1e-4, 1e-3, 1e-2, 0.1 and 1.
They are found by comparing float32 values with the doubles nearest those
powers, which is exact: no float32 lies within 1e-9 (relative) of 1e-4,
1e-3, 1e-2 or 0.1, and each double lies within 2^-53 (relative) of its power.
"""

from __future__ import annotations

import json
import math
from functools import cache

import numpy as np


def canonical_float(x) -> float:
    """Round to 9 significant digits — the canonical on-disk precision."""
    return float(format(float(x), ".9g"))


def float_text(x) -> str:
    """canonical_float(x) as JSON text, spelled as json.dumps spells it."""
    x = canonical_float(x)
    return repr(x) if math.isfinite(x) else json.dumps(x)


@cache  # built on first use: numpy work at import raises every job's peak RSS
def _digit_words():
    """The 4 ASCII digits of each of 0000..9999 as a little-endian uint32,
    then (at 10000 + g) the same words with their trailing zeros blank."""
    g = np.arange(10000, dtype=np.int32)
    chars = np.empty((2, 10000, 4), dtype=np.uint8)
    for i, power in enumerate((1000, 100, 10, 1)):
        chars[:, :, i] = g // power % 10 + 48
    blank = np.ones(10000, dtype=bool)
    for i in (3, 2, 1, 0):
        blank &= chars[1, :, i] == 48
        chars[1, blank, i] = 32
    return chars.view("<u4").reshape(20000)


# the bits of the least float32 at or above each power: the nearest float32,
# or the next one up where that lies below the double
_DECADES = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
_NEAREST = _DECADES.astype(np.float32)
_THRESHOLDS = (_NEAREST.view(np.int32) + (_NEAREST < _DECADES)).tolist()
# at E + 4 = 0..3, E the decimal exponent: 5^q with q = 8 - E, and 10^(4 + E),
# which sets the 9 digits in place among 12 fraction digits
_SCALE5 = np.array([5 ** (12 - k) for k in range(4)], dtype=np.int64)
_SCALE10 = np.array([10 ** k for k in range(4)], dtype=np.int64)
# a token's first word: [separator]["-" or " "]["0"]["."], separator left 0
_HEAD = int.from_bytes(b"\0 0.", "little")
_MINUS = _HEAD ^ int.from_bytes(b"\0-0.", "little")  # the bits " " -> "-" flips
# the most values one kernel pass spells: its int64 temporaries then stay
# within a 2 MB L2 cache (64 rows at 512-d)
_PASS_VALUES = 2 ** 15
# the 4 words of a fallback token: "%.9g", "%.1f" or "%s", separator left 0
_PLACEHOLDERS = np.frombuffer(
    b"".join(b"\0" + p.ljust(15) for p in (b"%.9g", b"%.1f", b"%s")),
    dtype="<u4").reshape(3, 4)


def _decimal_words(v):
    """(words, covered): each float32 of the vector v in 16 bytes, and which
    of them those bytes spell.

    A covered number is a finite x with 1e-4 <= |x| < 1 at 9 significant
    digits, which %.9g and repr both spell as an optional "-", "0." and the
    digits of the fraction, trailing zeros dropped. Its bytes are the
    separator slot (0), the sign or a blank, "0.", and the 12 fraction
    digits with the trailing zeros blank.

    Finite float32 values without their sign are ordered as their bit
    patterns, so |bits| is compared with _THRESHOLDS: x is covered from the
    first up to, but not including, the last, and E + 4, with E the
    decimal exponent of x, counts the middle three that |bits| reaches.
    The digits are exact in int64: with |x| = m 2^(e - 150), e the exponent
    field, they are D = round_half_even(m 5^q / 2^(150 - e - q)), q = 8 - E,
    a shift of 138 - e + (E + 4). D never rounds up to 10**9, which needs
    an x less than half a unit of the 9th digit below a power of ten:
    float32 values lie some 6e-8 x apart.
    """
    bits = v.view(np.int32)
    mag = bits & 0x7FFFFFFF
    low, e3, e2, e1, high = _THRESHOLDS  # 1e-4, 1e-3, 1e-2, 0.1 and 1
    covered = (mag >= low) & (mag < high)
    k = (mag >= e3).view(np.int8) + (mag >= e2) + (mag >= e1)  # E + 4
    e = np.clip(mag >> 23, 113, 126)  # the shift stays in range for the others
    m = ((mag & 0x7FFFFF) | 0x800000).astype(np.int64)
    n = m * _SCALE5[k]
    sh = 138 - e + k  # D = n / 2^sh, rounded half to even
    d = (n + np.left_shift(1, sh - 1) - 1 + ((n >> sh) & 1)) >> sh
    f = d * _SCALE10[k]  # the 12 fraction digits, in 3 groups
    hi = f // 100_000_000
    f -= hi * 100_000_000
    mid = f // 10_000
    lo = f - mid * 10_000
    words = np.empty((len(v), 4), dtype="<u4")
    words[:, 0] = _HEAD | ((bits >> 31) & _MINUS)
    digit_words = _digit_words()
    strip = lo == 0
    words[:, 1] = digit_words[hi + 10_000 * (strip & (mid == 0))]
    words[:, 2] = digit_words[mid + 10_000 * strip]
    words[:, 3] = digit_words[lo + 10_000]
    return words, covered


@np.errstate(invalid="ignore")  # a signalling NaN is still a NaN
def float_arrays(values) -> list:
    """JSON text of each of `values`, vectors of one length narrowed to
    float32, every number spelled as float_text spells it.

    _decimal_words spells the numbers it covers. Every other number keeps
    a placeholder that one %-format per vector fills: "%.9g" where that is
    already canonical, "%.1f" for integral values below 1e9 (repr adds
    ".0"), and "%s" with float_text for values from 1e9 to 1e16 (repr
    stays positional) and non-finite ones. A decimal of at most 9
    significant digits has the digits of the repr of the double nearest to
    it, because doubles lie far closer together than such decimals. The
    numbers are laid out 16 bytes each, each after its separator (a comma,
    or a newline before a vector's first), and one bytes.translate drops
    the blanks. At most _PASS_VALUES values (or one vector) go through
    each pass.
    """
    v = np.asarray(values, dtype=np.float32)
    if not v.size:  # no vector, or vectors of length 0
        return ["[]"] * len(v)
    _, size = v.shape
    rows = max(1, _PASS_VALUES // size)
    if len(v) > rows:
        return [text for start in range(0, len(v), rows)
                for text in float_arrays(v[start:start + rows])]
    v = v.reshape(-1)
    words, covered = _decimal_words(v)
    rest = np.flatnonzero(~covered)
    x = v[rest].astype(np.float64)
    mag = np.abs(x)
    kind = (((x == np.floor(x)) & (mag < 1e9))
            + 2 * (~np.isfinite(x) | (mag >= 1e9) & (mag < 1e16)))
    words[rest] = _PLACEHOLDERS[kind]
    separators = np.full(len(v), ord(","), dtype="<u4")
    separators[::size] = ord("\n")
    words[:, 0] |= separators
    text = words.tobytes().translate(None, b" ").decode("ascii")
    texts = ["[" + t + "]" for t in text.split("\n")[1:]]
    fill = x.tolist()
    for i in np.flatnonzero(kind == 2).tolist():
        fill[i] = float_text(fill[i])
    ends = np.cumsum(np.bincount(rest // size, minlength=len(texts)))
    start = 0
    for row, end in enumerate(ends.tolist()):
        if end > start:
            texts[row] %= tuple(fill[start:end])
            start = end
    return texts
