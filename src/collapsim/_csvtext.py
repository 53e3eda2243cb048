"""CSV text of equal-length columns from numpy byte matrices: csv.writer(lineterminator="\\n")'s bytes.

Each column becomes a (rows x width) uint8 matrix of cells padded with 0xFF, a byte no UTF-8 text holds.
A block lays the matrices side by side with a separator column after each and drops every 0xFF byte, so
a NUL inside a text cell is written, as csv.writer writes it; the text is decoded once.  Floats take
repr's shortest round-trip digits from Ryu's d2d (Adams, PLDI 2018) on uint64 arrays, its 125-bit table
entries held as 32-bit limbs and its digit-removal loop run only over the rows that still drop a digit,
laid out in repr's notation (positional for a leading-digit exponent in [-4, 16), d.ddde+XX otherwise;
0.0, -0.0, inf, -inf, nan).  Integers take their digits, bools a two-entry table, and any other column,
or one of fewer than ``_VECTOR_ROWS`` numbers, str of each value with csv.writer's quoting, each distinct
string encoded once.
"""

from __future__ import annotations

import numpy as np

_QUOTED_CHARS = frozenset(',"\n')  # csv.writer quotes a cell holding one of these
_VECTOR_ROWS = 128  # from this many numbers a column is formatted by the array paths (BENCH_29.json)
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_P10 = np.array([10**k for k in range(20)], dtype=_U)
_DIGIT = np.arange(48, 58, dtype=np.uint8)  # '0'..'9'; _DIG4: the four ASCII digits of 0..9999 as one uint32
_DIG4 = np.column_stack([np.tile(np.repeat(_DIGIT, 10**k), 10 ** (3 - k)) for k in (3, 2, 1, 0)]).view(np.uint32)


def _ryu_tables():
    """Per biased binary exponent: Ryu's table entry as four 32-bit limbs (low first), its shift j - 64,
    vr's decimal exponent, 5^q where the products can end in q zeros (else 0), and the mask of vr's low
    q bits for e2 < 0 (0 if q <= 1; all ones where e2 >= 0 or q >= 63)."""
    def pow5bits(e):
        return ((e * 1217359) >> 19) + 1  # the bit length of 5**e, 0 <= e <= 3528

    powers = [5**e for e in range(326)]
    inv = [(1 << (pow5bits(e) + 124)) // p + 1 for e, p in enumerate(powers[:291])]
    split = [(p << 125) >> p.bit_length() for p in powers]
    entries = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in inv + split), np.uint32).reshape(-1, 4)
    e2 = np.maximum(np.arange(2047), 1) - 1077
    pos, ae = e2 >= 0, np.abs(e2)
    q = np.where(pos, (ae * 78913 >> 18) - (ae > 3), (ae * 732923 >> 20) - (ae > 1))
    i = np.where(pos, 0, ae - q)
    limbs = [entries[np.where(pos, q, len(inv) + i), k].astype(_U) for k in range(4)]
    shift = np.where(pos, q - e2 + pow5bits(q) + 60, q - pow5bits(i) + 61).astype(_U)
    five = np.where(pos & (q <= 21), 5 ** np.minimum(q, 21), 0).astype(_U)
    low = np.where(q <= 1, 0, (1 << np.minimum(q, 62)) - 1).astype(_U)
    low[pos | (q >= 63)] = 2**64 - 1
    return limbs, shift, np.where(pos, q, q + e2), five, low


def _layouts():
    """Per (notation class, digit count) of a float cell: its constant bytes, digit mask and used bytes;
    then the exponents e-324 .. e+308.  Cell bytes: 0 sign, 1 the '0' of |x| < 1, digit i at 3 + i
    before the point and at 23 + i after it, 19 the point, 20-22 the zeros after the point of
    |x| < 0.1, 40-44 the exponent.  Classes 0 and 21 are scientific, 1-20 positional with leading-digit
    exponent -4..15."""
    cls, ndig = np.divmod(np.arange(22 * 17), 17)
    ndig, e, digit = ndig + 1, cls - 5, np.arange(17)
    sci = (cls == 0) | (cls == 21)
    small = ~sci & (e < 0)
    last = np.where(sci, 0, e)[:, None]  # the last digit before the point
    written = np.where(sci | small, ndig, np.maximum(ndig, e + 2))[:, None]  # a 0 follows a bare point
    const, mask = np.full((len(cls), 48), 255, np.uint8), np.zeros((len(cls), 48), np.uint8)
    mask[:, 3:20], mask[:, 23:40] = 255 * (digit <= last), 255 * ((digit > last) & (digit < written))
    const[mask == 255] = 0
    const[small, 1], const[~sci | (ndig > 1), 19] = 48, 46
    const[:, 20:23][np.arange(3) < np.where(small, -e - 1, 0)[:, None]] = 48
    used = const != 255
    used[sci, 40:45] = True
    e = np.arange(-324, 309)
    a = np.abs(e)  # at least two digits, the hundreds padding below 100
    exponent = [np.full(len(e), 101), np.where(e < 0, 45, 43), np.where(a >= 100, 48 + a // 100, 255)]
    return const, mask, used, np.column_stack([*exponent, 48 + a // 10 % 10, 48 + a % 10]).astype(np.uint8)


_LIMBS, _SHIFT, _E10, _FIVE, _LOWQ = _ryu_tables()
_CONST, _MASK, _USED, _EXPONENTS = _layouts()


def _chunks(x, count):
    """The last ``count`` four-digit chunks of uint64 ``x`` as ASCII, one uint32 each (n x count)."""
    out = np.empty((len(x), count), np.uint32)
    for k in range(count - 1, -1, -1):
        rest = x // _U(10000)
        out[:, k] = _DIG4.take((x - rest * _U(10000)).astype(np.intp))
        x = rest
    return out


def _shortest(bits):
    """Ryu's d2d: the shortest digits and decimal exponent of the finite positive doubles ``bits``."""
    ex = (bits >> _U(52)).astype(np.intp)
    mant = bits & _U((1 << 52) - 1)
    m2, accept = mant | ((ex != 0).astype(_U) << _U(52)), (mant & _U(1)) == 0
    mmshift = ((mant != 0) | (ex <= 1)).astype(_U)
    l0, l1, l2, l3 = (t.take(ex) for t in _LIMBS)
    m0, m1 = l0 | (l1 << _U(32)), l2 | (l3 << _U(32))  # the table entry's two 64-bit words
    # c = x m in three 64-bit words for x = 4 m2 - 2: vm, vr and vp add (1 - mmshift) m, 2 m and 4 m
    x = (m2 << _U(2)) - _U(2)
    x0, x1 = x & _M32, x >> _U(32)

    def high(lo, hi):  # the high word of x * (hi 2^32 + lo)
        a, b, c = x0 * lo, x0 * hi, x1 * lo
        mid = (a >> _U(32)) + (b & _M32) + (c & _M32)
        return x1 * hi + (b >> _U(32)) + (c >> _U(32)) + (mid >> _U(32))

    c0, cross = x * m0, x * m1
    c1 = high(l0, l1) + cross
    c2 = high(l2, l3) + (c1 < cross)
    sh = _SHIFT.take(ex)
    lift = _U(64) - sh

    def shifted(k0, k1):  # (c + k) >> j for k = k1 2^64 + k0
        s1 = c1 + k1
        s1c = s1 + (c0 + k0 < c0)
        return (s1c >> sh) | ((c2 + (s1 < c1) + (s1c < s1)) << lift)

    keep = _U(1) - mmshift
    vr = shifted(m0 << _U(1), (m1 << _U(1)) | (m0 >> _U(63)))
    vp = shifted(m0 << _U(2), (m1 << _U(2)) | (m0 >> _U(62)))
    vm = shifted(m0 * keep, m1 * keep)
    # the exact products' trailing zeros (Ryu's step 3)
    mv, lowq = m2 << _U(2), _LOWQ.take(ex)
    vrtz, tiny = (mv & lowq) == 0, lowq == 0
    vmtz = tiny & accept & (mmshift == 1)
    vp -= (tiny & ~accept).astype(_U)
    r = np.flatnonzero(_FIVE.take(ex))
    if r.size:
        p5, mvr = _FIVE.take(ex[r]), mv[r]
        five = mvr % _U(5) == 0
        vrtz[r] = five & (mvr % p5 == 0)
        vmtz[r] = ~five & accept[r] & ((mvr - _U(1) - mmshift[r]) % p5 == 0)
        vp[r] -= (~five & ~accept[r] & ((mvr + _U(2)) % p5 == 0)).astype(_U)
    # drop digits while vp and vm still differ above them, then (vmtz rows) while vm's last digit is 0
    removed, k = np.zeros(len(bits), np.intp), 1
    live = np.flatnonzero(vp // _U(10) > vm // _U(10))
    while live.size:
        removed[live], k = k, k + 1
        live = live[vp[live] // _P10[k] > vm[live] // _P10[k]]
    live = np.flatnonzero(vmtz)
    live = live[vm[live] % _P10.take(removed[live]) == 0]
    while live.size:
        live = live[vm[live] // _P10.take(removed[live]) % _U(10) == 0]
        removed[live] += 1
    scale = _P10.take(removed)
    out, low = vr // scale, vm // scale
    rest = vr - out * scale
    up = (out == low) | (rest * _U(2) >= scale)  # the last removed digit is 5 or more
    g = np.flatnonzero(vrtz | vmtz)  # Ryu's general case, where the exact products' trailing zeros count
    if g.size:
        prev = np.maximum(scale[g] // _U(10), _U(1))
        last = rest[g] // prev
        tie = vrtz[g] & (rest[g] % prev == 0) & (last == 5) & (out[g] % _U(2) == 0)  # rounds to even
        vmtz = vmtz[g] & (low[g] * scale[g] == vm[g])
        up[g] = ((out[g] == low[g]) & ~(accept[g] & vmtz)) | ((last >= 5) & ~tie)
    return out + up.astype(_U), _E10.take(ex) + removed


def _float_cells(values):
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U)
    sign, mag = bits >> _U(63), bits & _U((1 << 63) - 1)
    bad, zero = np.flatnonzero(mag >= _U(0x7FF << 52)), mag == 0  # inf and nan, and zeros
    digits, exp10 = _shortest(np.where(zero | (mag >= _U(0x7FF << 52)), _U(0x3FF << 52), mag))
    digits[zero], exp10[zero] = 0, 0
    ndig = np.maximum(np.searchsorted(_P10, digits, "right"), 1)
    e = exp10 + ndig - 1  # the leading digit's decimal exponent
    key = (np.clip(e, -5, 16) + 5) * 17 + ndig - 1
    key[bad] = 7 * 17 + 2  # three digits before the point, for inf and nan
    chars = np.zeros((len(bits), 12), np.uint32)
    chars[:, :5] = chars[:, 5:10] = _chunks(digits * _P10.take(17 - ndig), 5)  # "000" and 17 digits, twice
    cells = _CONST.take(key, axis=0) | (chars.view(np.uint8) & _MASK.take(key, axis=0))
    cells[:, 0] = np.where(sign, 45, 255)  # '-'
    sci = np.flatnonzero((e < -4) | (e >= 16))
    cells[sci, 40:45] = _EXPONENTS.take(e[sci] + 324, axis=0)
    nan = mag[bad] > _U(0x7FF << 52)
    cells[bad, 1:], cells[bad[nan], 0] = 255, 255
    cells[bad, 3:6] = np.where(nan[:, None], np.frombuffer(b"nan", np.uint8), np.frombuffer(b"inf", np.uint8))
    used = _USED[np.bincount(key, minlength=len(_USED)) > 0].any(axis=0)
    used[0] = sign.any()
    return cells[:, used]


def cells(values) -> np.ndarray:
    """One column's cells, padded with 0xFF: a 2-D uint8 array is taken as cells, floats and integers by
    their digits, bools by a two-entry table, anything else (and fewer than ``_VECTOR_ROWS`` numbers) by
    ``str``.  ``take(codes, axis=0)`` picks rows."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else "-"
    if kind != "-" and values.ndim == 2:
        return values
    if kind != "-" and len(values) < _VECTOR_ROWS:  # a short column pays less for str of each number
        values, kind = values.tolist(), "-"
    if kind == "b":
        return _BOOLS.take(values.astype(np.intp), axis=0)
    if kind == "f":
        return _float_cells(values)
    if kind in "iu":
        neg = values < 0
        mag = values.astype(np.int64).view(_U) if kind == "i" else values.astype(_U)
        mag = np.where(neg, _U(0) - mag, mag)
        width = 4 * -(-len(str(int(mag.max(initial=0)))) // 4)
        chars = _chunks(mag, width // 4).view(np.uint8)
        chars[np.arange(width) < width - np.maximum(np.searchsorted(_P10, mag, "right"), 1)[:, None]] = 255
        return np.column_stack([np.where(neg, 45, 255).astype(np.uint8), chars]) if neg.any() else chars
    index = {}
    codes = np.array([index.setdefault(s, len(index)) for s in map(str, values)], dtype=np.intp)
    encoded = [(s if _QUOTED_CHARS.isdisjoint(s) else '"' + s.replace('"', '""') + '"').encode() for s in index]
    width = max(map(len, encoded), default=1) or 1
    table = np.frombuffer(b"".join(s.ljust(width, b"\xff") for s in encoded), np.uint8).reshape(-1, width)
    return table.take(codes, axis=0)


_BOOLS = cells(["False", "True"])


def block_text(columns) -> str:
    """The CSV rows of equal-length ``columns`` (1-D arrays, lists, or cells), each ending in a newline."""
    parts = [cells(c) for c in columns]
    comma = np.full((len(parts[0]), 1), 44, np.uint8)
    pieces = [piece for part in parts for piece in (part, comma)]
    pieces[-1] = np.full((len(parts[0]), 1), 10, np.uint8)  # ',' after each cell, '\n' after the last
    matrix = np.concatenate(pieces, axis=1).ravel()
    return str(np.compress(matrix != 255, matrix).data, "utf-8")
