"""Exact ``%.17g`` text of float64 blocks, with no Python call per value.

``encode_rows(block)`` returns the bytes of
``",".join("%.17g" % x for x in row) + "\\n"`` for each row of a 2-D float64
array: the text of CPython's correctly rounded dtoa, at a fraction of its
cost per value.

Digits.  Each |x| is scaled to y = |x| 10^(16-k), k = floor(log10 |x|), in
double-double arithmetic: 10^p is a pair hi + lo of doubles, built from
Python integers on first use, and x hi is formed exactly by Dekker's
product (numpy has no fma), with x split by masking its low 27 mantissa
bits.  The error of y is below 1e-14 of a unit, so rounding y to the
integer M gives the 17 significant digits; k moves by one where floor(y)
leaves [1e16, 1e17), and M = 1e17 carries into the exponent.  Python formats
the rest: fractions within ``TIE_BAND`` of one half (exact ties among them
round half to even), |x| outside [``LOWEST``, ``HIGHEST``] other than 0, and
non-finite values.

Text.  Each value fills a 32-byte slot of four little-endian words whose
bytes are text or NUL, in a bytearray whose ``translate`` then drops the
NULs in one pass.
Word 0 holds the sign, the ``0.000`` head of fixed notation below 1 and the
first digit.  Words 1 and 2 hold the other 16 digits, made by two
multiply-shift rounds in SWAR lanes; the trailing zeros of the fraction stay
NUL, and the ``.`` is spliced in by masks from tables indexed by the decimal
exponent.  Word 3 holds the digit pushed out by the ``.``, the ``e±dd[d]``
tail of exponent notation and the ``,`` or newline.  All word arithmetic
stays in unsigned dtypes with unsigned scalars, so numpy's older
value-based promotion cannot turn it into float64.
"""

from __future__ import annotations

from functools import cache

import numpy as np

FLOAT_FMT = "%.17g"
# Fraction of y within this of one half: formatted by Python.
TIE_BAND = 1e-7
# |x| outside this range: formatted by Python (it keeps the scaled products
# away from overflow and underflow).
LOWEST, HIGHEST = 1e-250, 1e250

_U, _U4 = np.uint64, np.uint32
_ALL = 2 ** 64 - 1
# Decimal exponents p = 16 - k of the power table and X of the text tables.
_P_MIN, _P_MAX = 16 - 252, 16 + 252
_X_MIN, _X_MAX = -260, 260


@cache
def _powers() -> np.ndarray:
    """Rows hi, hi's Dekker halves and lo, columns p = _P_MIN.._P_MAX:
    hi is 10^p rounded to a double and lo the remainder, rounded (Python's
    int-to-float conversion and int division round correctly)."""
    table = np.empty((4, _P_MAX - _P_MIN + 1))
    for i, p in enumerate(range(_P_MIN, _P_MAX + 1)):
        if p >= 0:
            hi = float(10 ** p)
            lo = float(10 ** p - int(hi))
        else:
            scale = 10 ** -p
            hi = 1 / scale
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        c = 134217729.0 * hi  # 2**27 + 1
        hh = c - (c - hi)
        table[:, i] = hi, hh, hi - hh, lo
    return table


def _word(text: str, at: int) -> int:
    """``text`` as the bytes of a little-endian word, from byte ``at``."""
    return int.from_bytes(text.encode("ascii"), "little") << 8 * at


@cache
def _text_tables() -> np.ndarray:
    """Per decimal exponent X = _X_MIN.._X_MAX (columns), the uint64 words
    that lay out a value (rows): HEAD, the ``0.000`` of fixed notation below
    1, in word 0; TAIL, the ``e±dd[d]`` of exponent notation, in word 3;
    DOT_A/DOT_B, the ``.`` in digit word 1/2; FRAC_A/FRAC_B, the bytes of
    digit word 1/2 after the ``.``.  Below 1, fixed notation has its ``.``
    in HEAD and a NUL hole before d1 instead."""
    rows = []
    for X in range(_X_MIN, _X_MAX + 1):
        head = tail = 0
        if 0 <= X <= 16:        # d0..dX . d(X+1)..d16
            dot = X
        elif -4 <= X < 0:       # 0.000 d0 d1..d16
            dot, head = 0, _word("0." + "0" * (-X - 1), 1)
        else:                   # d0 . d1..d16 e±dd[d]
            dot, tail = 0, _word("e%+03d" % X, 1)
        mark = "\0" if head else "."
        rows.append((
            head, tail,
            _word(mark, dot) if dot < 8 else 0,
            _word(mark, dot - 8) if 8 <= dot < 16 else 0,
            _ALL & ~((1 << 8 * min(dot, 8)) - 1),
            _ALL & ~((1 << 8 * max(dot - 8, 0)) - 1)))
    return np.array(rows, dtype=np.uint64).T.copy()


def _scaled_floor(ax: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) as uint64 and y - floor(y) for y = ax 10^p, i = p - _P_MIN,
    from the double-double yh + yl of the exact product."""
    hi, hh, hl, lo = (row.take(i) for row in _powers())
    xh = (ax.view(np.uint64) & _U(_ALL - (1 << 27) + 1)).view(np.float64)
    xl = ax - xh
    p = ax * hi
    s = xh * hh
    s -= p
    s += xh * hl
    s += xl * hh
    s += xl * hl
    s += ax * lo
    yh = p + s
    p -= yh
    s += p  # yl
    whole = np.floor(s)
    s -= whole
    y = yh.astype(np.uint64)
    y += whole.astype(np.int64).view(np.uint64)
    return y, s


def _digits16(rest: np.ndarray) -> np.ndarray:
    """The 16 decimal digits of each rest < 1e16 as byte values 0..9 in two
    little-endian words, most significant first: a (2, n) array."""
    n = rest.size
    half = rest // _U(10 ** 8)
    eight = np.empty((2, n), dtype="<u4")
    eight[0] = half
    half *= _U(10 ** 8)
    np.subtract(rest, half, out=eight[1], casting="unsafe")
    q = eight // _U4(10000)
    g = np.empty((2, n, 2), dtype="<u4")
    g[:, :, 0] = q
    q *= _U4(10000)
    np.subtract(eight, q, out=g[:, :, 1])
    q = g * _U4(5243)
    q >>= _U4(19)                       # 4-digit groups // 100
    g <<= _U4(16)
    g -= q * _U4(100 << 16)
    g |= q
    q = g * _U4(103)
    q >>= _U4(10)
    q &= _U4(0x000F000F)                # 2-digit lanes // 10
    g <<= _U4(8)
    g -= q * _U4(10 << 8)
    g |= q
    return g.view("<u8").reshape(2, n)


def _smear_down(w: np.ndarray) -> np.ndarray:
    """Byte i becomes the OR of bytes i..7."""
    w = w | (w >> _U(8))
    w |= w >> _U(16)
    w |= w >> _U(32)
    return w


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17-digit integer M in [1e16, 1e17) (0 for x = 0) and the decimal
    exponent X - _X_MIN of each |x|, and the indices of the values that
    Python formats instead."""
    ax = np.abs(x)
    # 0, |x| outside [LOWEST, HIGHEST] and non-finite x are scaled as 1.0
    outside = ax >= LOWEST
    outside &= ax <= HIGHEST
    outside = ~outside
    any_outside = outside.any()
    if any_outside:
        ax[outside] = 1.0
    i = np.floor(np.log10(ax)).astype(np.intp)
    np.subtract(16 - _P_MIN, i, out=i)
    y, frac = _scaled_floor(ax, i)
    # floor(log10 |x|) can be one off next to a power of ten
    fix = np.flatnonzero(y - _U(10 ** 16) >= _U(9 * 10 ** 16))
    if fix.size:
        i[fix] += np.where(y[fix] < _U(10 ** 16), 1, -1)
        y[fix], frac[fix] = _scaled_floor(ax[fix], i[fix])
    y += frac >= 0.5
    carry = y == _U(10 ** 17)
    y[carry] = _U(10 ** 16)
    frac -= 0.5
    fallback = np.abs(frac) < TIE_BAND
    if any_outside:
        zero = x == 0.0
        y[zero] = _U(0)
        fallback |= outside & ~zero
    np.subtract(16 - _P_MIN - _X_MIN, i, out=i)
    i += carry
    return y, i, np.flatnonzero(fallback)


def _layout(x: np.ndarray, M: np.ndarray, X: np.ndarray, words: np.ndarray) -> None:
    """Fills the (n, 4) ``words`` with the text of each value but the
    separator, from its sign, its digits M and its exponent X - _X_MIN.
    Each intermediate is deleted once used: together they set the peak
    memory of a block."""
    tables = _text_tables()
    d0 = M // _U(10 ** 16)
    ab = _digits16(M - d0 * _U(10 ** 16))
    d0 |= _U(0x30)
    d0 <<= _U(56)
    d0 |= tables[0].take(X)
    sign = x.view(np.uint64) >> _U(63)
    sign *= _U(ord("-"))
    np.bitwise_or(sign, d0, out=words[:, 0])
    del d0, sign
    # '0' goes to the digits up to the last nonzero one and to the integer
    # part; the trailing zeros of the fraction stay NUL
    fracs = tables[4:6].take(X, axis=1)
    kept = _smear_down(ab)
    kept += _U(0x7F7F7F7F7F7F7F7F)
    kept[0] |= (kept[1] & _U(0x80)) * _U(0x0101010101010101)
    kept |= ~fracs
    kept &= _U(0x8080808080808080)
    has_dot = kept & fracs
    has_dot = (has_dot[0] | has_dot[1]) != 0
    kept >>= _U(7)
    kept *= _U(0x30)
    ab |= kept
    del kept
    # the fraction moves up one byte, and the '.' fills the gap
    fracs &= ab
    ab ^= fracs
    ab[1] |= fracs[0] >> _U(56)
    np.right_shift(fracs[1], _U(56), out=words[:, 3])
    words[:, 3] |= tables[1].take(X)
    fracs <<= _U(8)
    ab |= fracs
    del fracs
    dots = tables[2:4].take(X, axis=1)
    dots *= has_dot
    ab |= dots
    words[:, 1:3] = ab.T


def encode_rows(block: np.ndarray) -> bytearray:
    """The ``%.17g`` CSV text of the rows of a 2-D float64 array."""
    x = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = x.shape
    n = x.size
    x = x.reshape(n)
    M, X, fallback = _decimal(x)
    text = bytearray(32 * n)
    words = np.frombuffer(text, dtype="<u8").reshape(n, 4)
    _layout(x, M, X, words)
    del M, X
    seps = np.full(cols, ord(","), dtype=np.uint64)
    seps[-1] = ord("\n")
    words.reshape(rows, cols, 4)[..., 3] |= seps << _U(48)
    slots = words.view(np.uint8)
    for j in fallback:
        s = FLOAT_FMT % x[j] + ("\n" if j % cols == cols - 1 else ",")
        slots[j] = 0
        slots[j, :len(s)] = np.frombuffer(s.encode("ascii"), dtype=np.uint8)
    return text.translate(None, b"\0")
