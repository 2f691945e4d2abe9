"""The bytes of ``repr(float(v))`` for every value of a float64 array, computed with numpy.

``repr`` writes the shortest decimal that reads back as the same double and,
among the shortest, the one closest to it (Gay's dtoa). Called once per value
it costs about a microsecond. ``repr_cells`` finds the same digits for a whole
array at once, in the "decide fast, or fall back to the exact routine" scheme
of Loitsch's Grisu3, with numpy float and integer arithmetic in place of
128-bit integers.

Fast path. A value x that is finite, normal, not a power of two and has a
binary exponent e within +-929 (so 2.2e-280 < |x| < 9.2e279) is decided here:

- K = floor(e log10 2) and j = 16 - K put P = |x| 10^j in [1e16, 2.1e17).
  P is a double-double: Dekker's exact product of |x| and the high part of
  10^j (by splitting, since numpy has no fma) plus |x| times the low part.
  ``_pow10`` builds the double-double of 10^j from Python integers,
  correctly rounded, once per exponent in use. c = rint(P) has 17 or 18
  digits, and f = P - c.
- x's rounding interval is P +- h, with h = spacing(x) 10^j / 2 between 1.1
  and 45 units of c's last digit, so 17 significant digits always lie
  inside it. Dropping m digits takes the multiple of 10^m nearest to P, and
  m grows while that multiple stays strictly inside the interval. The last
  one inside is the shortest decimal and, among the shortest, the closest:
  ``repr``'s digits.
- The error of P is below 5e-14 units of c's last digit (3.2e-15 was the
  largest seen on 20,000 random values): the product of the high parts is
  exact, and the low-part products, the low part of 10^j and the additions
  each add at most P 2^-106 or half an ulp of a number below 64. A value is
  undecided when one of its comparisons falls within 1e-9 h of an interval
  edge, or its last candidate within 1e-9 h of a rounding tie: a margin of
  more than 10^4 times that error. Exact edges and ties, which only exactly
  representable products (10^j with 0 <= j <= 22) reach, are undecided too.

Every other value (zeros, subnormals, powers of two, nan, infinities, the
extreme exponents) and every undecided one goes to the caller's own text
function, once per distinct bit pattern.

Layout. The text follows ``repr``'s rules: exponent form when the decimal
point position decpt (value = 0.d1d2... 10^decpt) is <= -4 or > 16, with 'e',
a sign and at least two exponent digits; fixed form otherwise, with '.0' on
integral values. Each value is one row of a (n, WIDTH) uint8 matrix of six
little-endian 8-byte words, NUL where a byte is unused (see ``_layout``);
dropping the NULs gives the text. The digits are made eight at a time inside
one 64-bit integer (SWAR), so no step loops over values or characters.
"""

import functools

import numpy as np

__all__ = ["WIDTH", "repr_cells"]

WIDTH = 48  # six 8-byte words per value, see _layout

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for doubles
_LOG10_2 = 78913  # (e * _LOG10_2) >> 18 == floor(e * log10(2)) for |e| <= 1100
_MAX_EXPONENT = 929  # 2**930 < 1e280 and 2**-929 > 1e-280: 10**j and the split stay finite
_MARGIN = 1e-9  # undecided within this share of the half interval of an edge or a tie
_POWERS = 10 ** np.arange(17, dtype=np.int64)  # 10**(17 - s) pads an s-digit number to 17
_U = np.uint64


# word tables of _layout, indexed by small integers: the first k digit bytes
# of the two digit words, a point after digit k - 1 (none for k = 0), and
# sign and lead
_KEEP = np.array([[(1 << 8 * min(max(k - 8 * w, 0), 8)) - 1 for k in range(18)] for w in (0, 1)], np.uint64)
_POINT = np.array([[0] + [ord(".") << 8 * k for k in range(8)] + [0] * 8,
                   [0] * 9 + [ord(".") << 8 * k for k in range(8)]], np.uint64)
_SIGN_LEAD = np.array([int.from_bytes((sign + "0.000"[:lead]).encode(), "little")
                       for lead in range(6) for sign in ("", "-")], np.uint64)


def _exponent_words(e):
    """Words of 'e', the sign and at least two digits of each exponent e, from the second byte on.

    The first byte is left for a 17th digit.
    """
    a = np.abs(e).astype(np.uint64)
    zero = _U(ord("0"))
    digits = np.where(a >= _U(100),
                      (a // _U(100) + zero) | (a // _U(10) % _U(10) + zero) << _U(8)
                      | (a % _U(10) + zero) << _U(16),
                      (a // _U(10) + zero) | (a % _U(10) + zero) << _U(8))
    sign = np.where(e < 0, _U(ord("-")), _U(ord("+")))
    return (_U(ord("e")) | sign << _U(8) | digits << _U(16)) << _U(8)


# exponent words indexed by the exponent + 399, and 0 (no suffix) at 0
_EXPONENT = np.concatenate([[_U(0)], _exponent_words(np.arange(-398, 399))])


@functools.lru_cache(maxsize=None)
def _pow10(j):
    """10**j as (hi, lo, hi's high half, hi's low half): hi + lo correctly rounded to 2**-106."""
    num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
    hi = num / den  # int true division rounds correctly
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    t = _SPLIT * hi
    high = t - (t - hi)
    return hi, lo, high, hi - high


def _nearest(c, f, power):
    """The multiple of power nearest to c + f, over power, and its distance."""
    q = c // power
    rem = c - q * power
    below = np.abs(rem + f)  # to q * power
    above = (power - rem) - f  # to (q + 1) * power, exact near power
    return q + (above < below), np.minimum(below, above)


def _scaled(x, j):
    """x 10**j as the nearest integer c and the rest f, and half the spacing of x times 10**j.

    Requires x 10**j in [1e16, 2.1e17), where c > 2**53 and |f| <= 0.5.
    """
    j0 = int(j.min())
    table = np.zeros((4, int(j.max()) - j0 + 1))
    used = np.flatnonzero(np.bincount(j - j0))
    table[:, used] = np.array([_pow10(int(i) + j0) for i in used]).T
    hi, lo, high, low = table.take(j - j0, axis=1)
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    p = x * hi  # an integer, as p >= 2**53
    err = ((xh * high - p) + xh * low + xl * high) + xl * low + x * lo
    r = np.rint(err)
    # spacing(x) is a power of two, so h is exact but for hi's rounding
    return p.astype(np.int64) + r.astype(np.int64), err - r, np.spacing(x) * hi * 0.5


def _shortest(x, exponent):
    """Digits, digit count, decimal point position and undecided mask of positive fast-path values.

    Returns (d, s, decpt, undecided): x's repr digits are the s-digit integer d and
    x = d * 10**(decpt - s).
    """
    j = 16 - ((exponent * _LOG10_2) >> 18)
    c, f, h = _scaled(x, j)
    tol = _MARGIN * h

    # c is always inside; one digit fewer on every value, then on those still inside
    d, dist = _nearest(c, f, 10)
    undecided = np.abs(dist - h) <= tol
    inside = dist < h
    # a tie between c's neighbours (m = 0) or between two multiples of ten (m = 1)
    tie = np.where(inside, np.abs(10.0 - 2.0 * dist), np.abs(1.0 - 2.0 * np.abs(f))) <= tol
    d = np.where(inside, d, c)
    m = inside.astype(np.int64)
    active = np.flatnonzero(inside)
    power = 10
    while active.size:  # c < 2.1e17, so power never passes 10**18
        power *= 10
        ha = h.take(active)
        cand, dist = _nearest(c.take(active), f.take(active), power)
        undecided[active[np.abs(dist - ha) <= _MARGIN * ha]] = True
        keep = np.flatnonzero(dist < ha)
        active = active.take(keep)
        d[active] = cand.take(keep)
        m[active] += 1
    undecided |= tie & (m < 2)
    places = 17 + (c >= 10**17)
    carry = m == places  # every digit dropped: d = 1 is 10**places
    return d, places - m + carry, places + carry - j, undecided


def _digit_words(d, s):
    """The 17 digits of each s-digit d, zeros after the s-th, as two ASCII words and a last digit.

    The words hold the first 16 digits, the first digit in the lowest byte; they
    are made eight at a time in 64-bit lanes (SWAR).
    """
    digits = (d * _POWERS.take(17 - s)).astype(np.uint64)
    top = digits // _U(10)
    last = digits - top * _U(10) + _U(48)
    high = top // _U(10**8)
    v = np.stack([high, top - high * _U(10**8)])
    q = v // _U(10000)
    v -= q * _U(10000)
    v <<= _U(32)
    v |= q  # 4-digit lanes
    q = (v * _U(10486)) >> _U(20)
    q &= _U(0x0000007F0000007F)  # lane // 100
    v -= q * _U(100)
    v <<= _U(16)
    v |= q  # 2-digit lanes
    q = (v * _U(103)) >> _U(10)
    q &= _U(0x000F000F000F000F)  # lane // 10
    v -= q * _U(10)
    v <<= _U(8)
    v |= q | _U(0x3030303030303030)  # digit bytes, in ASCII
    return v, last


def _layout(negative, d, s, decpt):
    """(n, WIDTH) NUL-padded text rows of the values -1**negative * d * 10**(decpt - s).

    A row is six 8-byte words: sign and lead; the digits before the point; the
    digits after it, with the point in the NUL byte before the first; the 17th
    digit and the exponent suffix.
    """
    words, last = _digit_words(d, s)
    exp_form = (decpt <= -4) | (decpt > 16)
    whole = ~exp_form & (decpt > 0)
    before = np.where(whole, decpt, exp_form.view(np.int8))  # digits before the point
    used = np.where(whole, np.maximum(s, decpt + 1), s)  # a whole value runs to its '.0'
    point = np.where(whole | (exp_form & (s > 1)), before, 0)
    lead = np.where(whole | exp_form, 0, 2 - decpt)  # '0.000' of a fixed value below 1
    keep = _KEEP.take(before, axis=1)
    out = np.empty((len(d), WIDTH // 8), "<u8")
    out[:, 0] = _SIGN_LEAD.take(negative.view(np.int8) + 2 * lead)
    out[:, 1:3] = (words & keep).T
    words &= ~keep & _KEEP.take(used, axis=1)
    words |= _POINT.take(point, axis=1)
    out[:, 3:5] = words.T
    out[:, 5] = np.where(used > 16, last, _U(0)) | _EXPONENT.take(np.where(exp_form, decpt + 398, 0))
    return out.view(np.uint8)


def repr_cells(values, text):
    """Each value's repr as a NUL-padded ASCII row of a (n, WIDTH) uint8 matrix, and the fallback count.

    ``values`` is flattened. ``text`` maps a list of floats to their texts; it
    writes every value outside the fast path and every undecided one, and is
    called once, on their distinct bit patterns. The count is the number of
    values it wrote.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not x.size:
        return np.empty((0, WIDTH), np.uint8), 0
    bits = x.view(np.int64)
    exponent = ((bits >> 52) & 0x7FF) - 1023
    fast = (np.abs(exponent) <= _MAX_EXPONENT) & ((bits & 0xFFFFFFFFFFFFF) != 0)
    # the other values run through as 1.5 and are overwritten
    d, s, decpt, undecided = _shortest(np.where(fast, np.abs(x), 1.5), np.where(fast, exponent, 0))
    out = _layout(bits < 0, d, s, decpt)
    rest = np.flatnonzero(undecided | ~fast)
    if rest.size:
        distinct, at = np.unique(bits[rest], return_inverse=True)
        cells = np.array(text(distinct.view(np.float64).tolist()), dtype=f"S{WIDTH}")
        out[rest] = cells.view(np.uint8).reshape(-1, WIDTH)[at.ravel()]
    return out, rest.size
