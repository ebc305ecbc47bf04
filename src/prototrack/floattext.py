"""JSON text of real numbers, as the file writers spell them.

The canonical text of a real x is repr(canonical_float(x)), the repr of its
9-significant-digit value: ``96.0``, ``-0.0``, ``0.100000001``, ``1e-05``,
``1234567940.0``. Non-finite values are spelled ``NaN``, ``Infinity`` and
``-Infinity``, as json.dumps spells them.

float_arrays spells whole float32 vectors and matrices at once. An exact
integer kernel, _decimal_words, spells the numbers x with 1e-4 <= |x| < 1
at 9 significant digits, which are nearly all of an embedding's; every
other number (zero, integral values, |x| < 1e-4 or >= 1 after rounding,
non-finite values) goes through a per-number %-format placeholder.
"""

from __future__ import annotations

import json
import math
from functools import cache, lru_cache

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


def _binade_tables():
    """Lookup tables for the 14 binades b = 0..13 of 2^-14 <= |x| < 1, each
    |x| = m 2^-s with 2^23 <= m < 2^24 and s = 37 - b.

    A binade holds at most one power of ten, and _FIRST[b] is the first m
    at or above it (2^24 where there is none). The decimal exponent E of x
    is the one of the binade's least number, plus 1 from m = _FIRST[b] on.
    At 2 b + (m >= _FIRST[b]), with q = 8 - E: 5^q and s - q, so that
    x 10^q = m 5^q / 2^(s - q), and 10^(4 + E), which sets the 9 digits in
    place among 12 fraction digits (0 where E is outside -4..-1).
    """
    first, scale5, shift, scale10 = [], [], [], []
    for b in range(14):
        s = 37 - b
        e = -1
        while 2 ** s > 2 ** 23 * 10 ** -e:  # 10^e > 2^(23 - s), the least |x|
            e -= 1
        first.append(min(-(-(2 ** s) // 10 ** (-e - 1)), 2 ** 24))  # ceil
        for e in (e, e + 1):
            scale5.append(5 ** (8 - e))
            shift.append(s - 8 + e)
            scale10.append(10 ** (4 + e) if -4 <= e <= -1 else 0)
    return tuple(np.array(t, dtype=np.int64) for t in (first, scale5, shift, scale10))


_FIRST, _SCALE5, _SHIFT, _SCALE10 = _binade_tables()
# a token's first word: [separator]["-" or " "]["0"]["."], separator left 0
_HEAD = int.from_bytes(b"\0 0.", "little")
_MINUS = _HEAD ^ int.from_bytes(b"\0-0.", "little")  # the bits " " -> "-" flips
# the 4 words of a fallback token: "%.9g", "%.1f" or "%s", separator left 0
_PLACEHOLDERS = np.frombuffer(
    b"".join(b"\0" + p.ljust(15) for p in (b"%.9g", b"%.1f", b"%s")),
    dtype="<u4").reshape(3, 4)


@lru_cache(maxsize=64)
def _separators(shape):
    """The byte before each number of one item of `shape`: a newline before
    the first, a comma inside the innermost arrays, and chr(c) where c
    arrays close and reopen."""
    close = np.zeros(math.prod(shape), dtype="<u4")
    for i in range(1, len(shape)):
        step = math.prod(shape[i:])
        close[step::step] += 1
    sep = np.where(close > 0, close, ord(",")).astype("<u4")
    sep[0] = ord("\n")
    return sep


def _decimal_words(v):
    """(words, covered): each float32 of the vector v in 16 bytes, and which
    of them those bytes spell.

    A covered number is a finite x with 1e-4 <= |x| < 1 at 9 significant
    digits, which %.9g and repr both spell as an optional "-", "0." and the
    digits of the fraction, trailing zeros dropped. Its bytes are the
    separator slot (0), the sign or a blank, "0.", and the 12 fraction
    digits with the trailing zeros blank. All in int64: with |x| = m 2^-s
    and E its decimal exponent, the 9 digits are D = round_half_even(m 5^q
    / 2^(s - q)), q = 8 - E, and _binade_tables gives E exactly. D never
    rounds up to 10**9, which needs an x less than half a unit of the 9th
    digit below a power of ten: float32 values lie some 6e-8 x apart.
    """
    bits = v.view(np.int32).astype(np.int64)
    b = ((bits >> 23) & 0xFF) - 113  # the binade, 0..13 for 2^-14 <= |x| < 1
    covered = (b >= 0) & (b <= 13)
    np.clip(b, 0, 13, out=b)  # the others, not covered, still index the tables
    m = (bits & 0x7FFFFF) | 0x800000
    i = 2 * b + (m >= _FIRST[b])
    n = m * _SCALE5[i]
    sh = _SHIFT[i]  # D = n / 2^sh, rounded half to even
    d = (n + np.left_shift(1, sh - 1) - 1 + ((n >> sh) & 1)) >> sh
    f = d * _SCALE10[i]  # the 12 fraction digits, in 3 groups
    covered &= f > 0
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
    """JSON text of each item of `values` (equal-shape vectors or matrices)
    narrowed to float32, every number spelled as float_text spells it.

    _decimal_words spells the numbers it covers. Every other number keeps
    a placeholder that one %-format per item fills: "%.9g" where that is
    already canonical, "%.1f" for integral values below 1e9 (repr adds
    ".0"), and "%s" with float_text for values from 1e9 to 1e16 (repr
    stays positional) and non-finite ones. A decimal of at most 9
    significant digits has the digits of the repr of the double nearest to
    it, because doubles lie far closer together than such decimals. The
    numbers are laid out 16 bytes each, each after its separator (a newline
    before an item's first), and one bytes.translate drops the blanks.
    """
    v = np.asarray(values, dtype=np.float32)
    shape, size = v.shape[1:], math.prod(v.shape[1:])
    if not v.size:  # no item, or items that hold no number
        return [_empty_array(shape) for _ in range(len(v))]
    v = v.reshape(-1)
    words, covered = _decimal_words(v)
    rest = np.flatnonzero(~covered)
    x = v[rest].astype(np.float64)
    mag = np.abs(x)
    kind = (((x == np.floor(x)) & (mag < 1e9))
            + 2 * (~np.isfinite(x) | (mag >= 1e9) & (mag < 1e16)))
    words[rest] = _PLACEHOLDERS[kind]
    words[:, 0] |= np.tile(_separators(shape), len(v) // size)
    text = words.tobytes().translate(None, b" ").decode("ascii")
    depth = len(shape)
    for c in range(1, depth):
        text = text.replace(chr(c), "]" * c + "," + "[" * c)
    opening, closing = "[" * depth, "]" * depth
    texts = [opening + t + closing for t in text.split("\n")[1:]]
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


def _empty_array(shape) -> str:
    """The JSON text of an array of `shape`, a shape with a 0 in it."""
    if not shape[0]:
        return "[]"
    return "[" + ",".join([_empty_array(shape[1:])] * shape[0]) + "]"
