"""Exact ``b'%.17g' % v`` for an array of doubles, computed in numpy.

For a finite nonzero double v, ``'%.17g'`` prints the 17 digits of
D = round-half-even(|v| 10^(16-k)), where k is the decimal exponent that
puts D in [10^16, 10^17) (k rises by one when D rounds up to 10^17).
Here the product is formed as m = |v| 2^s_p (exact) times a double-double
t_hi + t_lo of 10^p 2^-s_p in [1, 2), p = 16 - k: m t_hi exactly by
Dekker's two-product, m t_lo rounded.  Its total error is below 2^-46 in
units of D.  A value the product cannot decide is formed by Python's own
``b'%.17g' %`` instead: zeros, non-finite values, a fraction within
``_MARGIN`` of one half (this includes every exact tie), or a product
within ``_MARGIN`` of 10^16 or 10^17 (this includes the exact powers of
ten).  The ASCII digits of D come from a unit table of ``uint32`` words,
each holding the four bytes of one of 0000-9999, and each string is
gathered from them, byte by byte, by a layout fixed by the sign, the
notation (fixed for -4 <= k < 17, else d.ddde+XX) and the last nonzero
digit, which ends the stripped mantissa.  The strings are ASCII ``bytes``,
ready to be written without encoding.  The tables are built on first use,
from exact integers.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: the exponents p = 16 - k that finite nonzero doubles need
_P_MIN, _P_MAX = -292, 340
#: distance, in units of D, inside which the product decides nothing;
#: 2^16 times its error bound
_MARGIN = 2.0**-30
#: values formatted per numpy pass; bounds the temporary arrays
_CHUNK = 2048
#: Veltkamp's splitter for 53-bit doubles, 2^27 + 1
_SPLIT = 134217729.0
#: the string width: "-1.2345678901234567e-308" has 24 bytes
_WIDTH = 24
#: each value's bytes, gathered in eight ``uint32`` units of four from the unit
#: table (rows 0-9999 are the digits of 0000-9999): "000" and the first
#: digit, the other 16 digits, "0.-e", the exponent sign over "0" and three
#: exponent digits, and four NULs that pad a string to ``_WIDTH``
_DIGIT, _ZERO, _POINT, _MINUS, _E, _EXP_SIGN, _NUL = 3, 20, 21, 22, 23, 24, 28
_CONSTANTS_ROW, _NUL_ROW = 10000, 10001
#: layout classes: k = -4..16 print in fixed notation, other exponents in
#: exponent notation with two or three exponent digits
_FIXED = range(-4, 17)
_CLASSES = len(_FIXED) + 2


def _split(x):
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


@cache
def _powers():
    """Rows (t_hi, its two Veltkamp halves, t_lo) and s_p, indexed by p - _P_MIN."""
    rows, shifts = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        # 10^p lies in [2^shift, 2^(shift+1)); 10^|p| is no power of two
        shift = (10**p).bit_length() - 1 if p >= 0 else -(10 ** -p).bit_length()
        # t = a / b exactly; int / int rounds correctly, so t_lo is the
        # rounded exact remainder
        a, b = (10**p, 2**shift) if p >= 0 else (2**-shift, 10**-p)
        high = a / b
        num, den = high.as_integer_ratio()
        rows.append((high, *_split(high), (a * den - num * b) / (b * den)))
        shifts.append(shift)
    rows, shifts = np.array(rows), np.array(shifts, dtype=np.int32)
    rows.setflags(write=False)
    shifts.setflags(write=False)
    return rows, shifts


def _product(a, k):
    """|v| 10^(16-k) for |v| = ``a`` as ph + r, ph = fl(m t_hi) and r the rest."""
    rows, shifts = _powers()
    p = 16 - k - _P_MIN
    high, high_hi, high_lo, low = np.take(rows, p, axis=0).T
    m = np.ldexp(a, np.take(shifts, p))
    ph = m * high
    m_hi, m_lo = _split(m)
    error = ((m_hi * high_hi - ph) + m_hi * high_lo + m_lo * high_hi) + m_lo * high_lo
    return ph, error + m * low


def _layout(negative, k, last, exponent_digits):
    """The character indices of one printed string, padded with NUL."""
    digits = [_DIGIT + i for i in range(17)]
    out = [_MINUS] if negative else []
    if k is None:
        out.append(digits[0])
        if last > 0:
            out += [_POINT, *digits[1 : last + 1]]
        out += [_E, _EXP_SIGN, *range(_NUL - exponent_digits, _NUL)]
    else:
        pad, whole = max(0, -k), max(k, 0) + 1
        digits = [_ZERO] * pad + digits
        end = pad + last + 1
        out += digits[:whole] + ([_POINT] + digits[whole:end] if end > whole else [])
    return out + [_NUL] * (_WIDTH - len(out))


@cache
def _tables():
    """The unit table, and the layouts indexed by (sign, class, last digit)."""
    text = "".join(f"{i:04d}" for i in range(10000)) + "0.-e" + "\0" * 4
    units = np.frombuffer(text.encode("ascii"), dtype=np.uint32)
    classes = [(k, 0) for k in _FIXED] + [(None, 2), (None, 3)]
    layouts = np.array(
        [
            _layout(negative, k, last, exponent_digits)
            for negative in (False, True)
            for k, exponent_digits in classes
            for last in range(17)
        ]
    )
    units.setflags(write=False)
    layouts.setflags(write=False)
    return units, layouts


def _digits(values):
    """D and k of each value, and whether the product decided them."""
    a = np.abs(values)
    decided = np.isfinite(a) & (a > 0)
    a = np.where(decided, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    ph, r = _product(a, k)
    # log10 may miss k by one next to a power of ten; the product tells
    step = ((ph - 1e17) + r >= 0).astype(np.int64) - ((ph - 1e16) + r < 0)
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        ph[moved], r[moved] = _product(a[moved], k[moved])
    # ph >= 2^53 is an even integer, so rint's ties-to-even on r is D's
    n = np.rint(r)
    decided &= np.abs(r - n) < 0.5 - _MARGIN
    decided &= (np.abs((ph - 1e16) + r) > _MARGIN) & (np.abs((ph - 1e17) + r) > _MARGIN)
    d = ph.astype(np.int64) + n.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    return d, k, decided


def _format_chunk(values):
    """``b'%.17g' %`` of each value of one chunk."""
    d, k, decided = _digits(values)
    units, layouts = _tables()
    unit = np.empty((values.size, 8), dtype=np.int64)
    unit[:, 0], rest = np.divmod(d, 10**16)
    high, low = np.divmod(rest, 10**8)
    unit[:, 1], unit[:, 2] = np.divmod(high, 10**4)
    unit[:, 3], unit[:, 4] = np.divmod(low, 10**4)
    unit[:, 5] = _CONSTANTS_ROW
    unit[:, 6] = np.abs(k)
    unit[:, 7] = _NUL_ROW
    chars = np.take(units, unit).view(np.uint8)
    chars[:, _EXP_SIGN] = np.where(k < 0, ord("-"), ord("+"))
    # D > 0, so it has a last nonzero digit
    last = 16 - np.argmax(chars[:, _DIGIT + 16 : _DIGIT - 1 : -1] != ord("0"), axis=1)
    fixed = (k >= _FIXED.start) & (k < _FIXED.stop)
    layout = np.where(fixed, k - _FIXED.start, len(_FIXED) + (np.abs(k) >= 100))
    code = (np.signbit(values) * _CLASSES + layout) * 17 + last
    index = np.take(layouts, code, axis=0)
    index += np.arange(0, chars.size, chars.shape[1])[:, None]
    # tolist() strips the NUL padding
    strings = np.take(chars, index).view(f"S{_WIDTH}").ravel().tolist()
    for i in np.flatnonzero(~decided).tolist():
        strings[i] = b"%.17g" % float(values[i])
    return strings


def format17(values) -> list:
    """``[b'%.17g' % v for v in values]`` for a 1-D float64 array, byte for byte."""
    values = np.asarray(values, dtype=np.float64)
    strings = []
    for start in range(0, values.size, _CHUNK):
        strings += _format_chunk(values[start : start + _CHUNK])
    return strings
