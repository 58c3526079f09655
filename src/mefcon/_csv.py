"""CSV artifacts whose text is byte for byte ``'%.17g' % v``.

``np.savetxt(fmt="%.17g")`` formats one Python float at a time, and on a
run's trajectory that costs more than the run.  Here numpy formats a chunk
of values at once:

* **Digits.**  For |v| in [1e-250, 1e250], N = round(|v| 10**(16 - E)) with
  E = floor(log10 |v|), so 10**16 <= N < 10**17.  The product is formed in
  double-double arithmetic (Dekker, "A floating-point technique for
  extending the available precision", Numer. Math. 1971): Veltkamp's split
  and Dekker's exact two-product with the double nearest 10**k, plus |v|
  times the double nearest the rest of 10**k.  Its error is below 1e-14,
  so N is correctly rounded (Gay, "Correctly rounded binary-decimal and
  decimal-binary conversions", 1990) wherever the product's fraction is
  not within 1e-6 of one half.  A log10 off by one moves E once; a
  rounding carry to 10**17 moves E up by one, as in ``%g``.
* **Text.**  Each value gets a slot of ``_WIDTH`` bytes holding its 17
  digits twice, one byte apart.  Masks picked by the layout (E for fixed
  notation, -4 <= E < 17; one layout for ``d.ddde+XX``) and by the count of
  significant digits take each digit from the copy that leaves room for
  the point, and drop trailing zeros and a bare point.  Tables add the
  sign, "0.000", the point, the exponent and the delimiter.  Unused bytes
  are NUL, and one boolean gather over the chunk drops every NUL.
* **Exactness by construction.**  Python's own ``'%.17g'`` formats what
  the arithmetic cannot settle: products within 1e-6 of a rounding tie,
  an E that does not settle, magnitudes outside [1e-250, 1e250]
  (subnormals, huge values), nan and +-inf.  +-0 are ``0`` and ``-0``.

Chunks of at most ``_CHUNK`` values are formatted straight from the column
arrays and written as they are done, so memory does not grow with the file.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

_CHUNK = 1 << 12  # values formatted at once: 128 KB slots, faster than 2**13-2**14
_LOW, _HIGH = 1e-250, 1e250  # magnitudes the double-double product covers
_KMIN, _KMAX = -240, 270  # powers 10**k kept; k = 16 - E for E up to 251 in size
_SPLIT = float(2 ** 27 + 1)  # Veltkamp's constant for binary64
_TIE = 1e-6  # closer than this to a rounding tie: Python formats the value

# A value's slot, in bytes.  The head copy of the digits starts at byte
# _DIGITS and the tail copy one byte later: digit j of a value whose point
# follows digit p is read from the head for j <= p and from the tail for
# j > p.  The sign and "0.000" sit right against the digits and the
# delimiter right after them, so the text of a fixed-notation value is one
# run of bytes, which the gather copies fastest.
_DIGITS = 7  # head 7..23, tail 8..24; _DIGITS + 1 starts a uint32 word
_EXP = 3  # the uint64 word of bytes 24..31: "e+XX" or "e-XXX" ends at byte 30
_DELIM = 31  # the delimiter after an exponent
_WIDTH = 32
_FIXED = range(-4, 17)  # E of fixed notation, layout E + 4; the last layout is exponential
_LAYOUTS = len(_FIXED) + 1
_EXP_MIN, _EXP_MAX = -260, 260  # exponents of the values formatted here


class _Tables:
    """Constant tables, built on the first write so that importing costs
    nothing.  Bytes are built as bytes and viewed as integers, so no table
    depends on the machine's byte order."""

    def __init__(self):
        # hi + lo is 10**k to about 2**-106 relative, both from exact integers
        hi, lo = [], []
        for k in range(_KMIN, _KMAX + 1):
            num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
            h = num / den  # integer true division rounds correctly
            p, q = h.as_integer_ratio()
            hi.append(h)
            lo.append((num * q - p * den) / (den * q))
        self.hi, self.lo = np.array(hi), np.array(lo)

        # the four ASCII digits of g < 10**4; and, for g as digits 4i + 1 ..
        # 4i + 4 of N, the digits of N up to g's last nonzero one (0 for g = 0)
        g = np.arange(10 ** 4, dtype=np.int16)
        quad = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
        self.quad = (quad + ord("0")).astype(np.uint8).view(np.uint32).ravel()
        last = np.zeros(g.size, np.int8)
        for i in range(4):
            last[quad[:, i] != 0] = i + 1
        self.upto = [np.where(last > 0, last + 4 * i + 1, 0).astype(np.int8)
                     for i in range(4)]

        # head and tail masks per (layout, significant digits s); constants
        # per (delimiter, sign, layout, s)
        head, tail = (np.zeros((_LAYOUTS, 18, _WIDTH), np.uint8) for _ in range(2))
        fill = np.zeros((2, 2, _LAYOUTS, 18, _WIDTH), np.uint8)
        for f in range(_LAYOUTS):
            E = f + _FIXED.start if f < len(_FIXED) else 0
            for s in range(18):
                prefix = "0." + "0" * (-E - 1) if E < 0 else ""
                if E < 0:  # "0.000" then the significant digits
                    head[f, s, _DIGITS:_DIGITS + s] = 0xFF
                    end = _DIGITS + s
                else:
                    head[f, s, _DIGITS:_DIGITS + E + 1] = 0xFF  # the integer part
                    end = _DIGITS + E + 1
                    if s > E + 1:  # a fraction: the point, then digits E + 1 .. s - 1
                        fill[:, :, f, s, end] = ord(".")
                        tail[f, s, end + 1:_DIGITS + s + 1] = 0xFF
                        end = _DIGITS + s + 1
                start = _DIGITS - len(prefix)
                fill[:, :, f, s, start:_DIGITS] = list(prefix.encode())
                fill[:, 1, f, s, start - 1] = ord("-")
                fill[0, :, f, s, end if f < len(_FIXED) else _DELIM] = ord(",")
                fill[1, :, f, s, end if f < len(_FIXED) else _DELIM] = ord("\n")
        self.head, self.tail, self.fill = (
            t.reshape(-1, _WIDTH).view(np.uint64) for t in (head, tail, fill))

        # bytes 24..31 of exponential slots: "e+XX" or "e-XXX" up to byte 30
        words = np.zeros((_EXP_MAX - _EXP_MIN + 1, 8), np.uint8)
        for i, E in enumerate(range(_EXP_MIN, _EXP_MAX + 1)):
            if E not in _FIXED:
                text = f"e{E:+03d}".encode()
                words[i, 7 - len(text):7] = list(text)
        self.exp = words.view(np.uint64).ravel()


@functools.lru_cache(maxsize=None)
def _tables() -> _Tables:
    return _Tables()


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp: a == high + low, each with at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(a: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - E) as an unevaluated sum ph + pl, error below 1e-14."""
    tables = _tables()
    k = 16 - E - _KMIN
    b = tables.hi.take(k)
    ph = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl  # Dekker: ph + pl == a * b
    pl += a * tables.lo.take(k)
    return ph, pl


def _outside(ph: np.ndarray, pl: np.ndarray) -> np.ndarray:
    """-1 where ph + pl < 10**16, +1 where it is at least 10**17, else 0."""
    below = (ph < 1e16) | ((ph == 1e16) & (pl < 0))
    above = (ph > 1e17) | ((ph == 1e17) & (pl >= 0))
    return above.astype(np.int64) - below


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, E, ok) for positive a in [_LOW, _HIGH]: a rounds to N 10**(E - 16)
    with 10**16 <= N < 10**17 wherever ok."""
    E = np.floor(np.log10(a)).astype(np.int64)
    ph, pl = _scaled(a, E)
    move = _outside(ph, pl)
    redo = np.flatnonzero(move)
    ok = np.ones(a.shape, bool)
    if redo.size:  # log10 was off by one next to a power of ten
        E[redo] += move[redo]
        ph[redo], pl[redo] = _scaled(a[redo], E[redo])
        ok[redo] = _outside(ph[redo], pl[redo]) == 0
    r = np.rint(pl)  # ph >= 10**16 > 2**53 is an integer
    ok &= np.abs(np.abs(pl - r) - 0.5) > _TIE
    N = ph.astype(np.int64) + r.astype(np.int64)
    carry = N == 10 ** 17
    N[carry] = 10 ** 16
    E[carry] += 1
    return N, E, ok


def _format(x: np.ndarray, ends_row: np.ndarray) -> bytes:
    """``'%.17g' % v`` for each value of x, each followed by "\\n" where
    ends_row, else by ","."""
    n = x.size
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _LOW) & (a <= _HIGH)  # False for nan
    N, E, ok = _decimal(np.where(fast, a, 1.0))
    ok &= fast
    N[~ok], E[~ok] = 0, 0
    ok |= zero  # N = 0 and E = 0 lay out as "0"

    # the digits: N = lead 10**16 + g1 g2 g3 g4 in groups of four
    tables = _tables()
    high, low = np.divmod(N, 10 ** 8)
    lead, high = np.divmod(high.astype(np.int32), 10 ** 8)
    low = low.astype(np.int32)
    g1, g3 = high // 10 ** 4, low // 10 ** 4
    groups = (g1, high - g1 * 10 ** 4, g3, low - g3 * 10 ** 4)
    digits = np.empty((n, _WIDTH), np.uint8)  # the head mask clears bytes 0..6, 24..31
    digits[:, _DIGITS] = lead + ord("0")
    quads = digits.view(np.uint32)
    significant = (lead != 0).astype(np.int8)  # digits up to the last nonzero one
    for i, g in enumerate(groups):
        quads[:, (_DIGITS + 1) // 4 + i] = tables.quad.take(g)
        np.maximum(significant, tables.upto[i].take(g), out=significant)

    fixed = (E >= _FIXED.start) & (E < _FIXED.stop)
    layout = np.where(fixed, E - _FIXED.start, _LAYOUTS - 1)
    code = layout * 18 + significant
    tail = tables.tail.take(code, axis=0)  # the tail copy, masked as it is made
    tail.view(np.uint8)[:, _DIGITS + 1:_DIGITS + 18] &= digits[:, _DIGITS:_DIGITS + 17]
    words = digits.view(np.uint64)
    words &= tables.head.take(code, axis=0)
    words |= tail
    code += (ends_row * 2 + np.signbit(x)) * (_LAYOUTS * 18)
    words |= tables.fill.take(code, axis=0)
    words[:, _EXP] |= tables.exp.take(E - _EXP_MIN)

    for i in np.flatnonzero(~ok):
        text = ("%.17g" % x[i] + ("\n" if ends_row[i] else ",")).encode()
        digits[i] = 0
        digits[i, :len(text)] = np.frombuffer(text, np.uint8)
    flat = digits.ravel()
    return flat[flat != 0].tobytes()


def write_csv(path: Path, columns: list[str], arrays: list[np.ndarray]) -> None:
    """Write a header line and the rows of ``np.column_stack(arrays)``, each
    value as ``'%.17g' % v``: the bytes of ``np.savetxt(path, data,
    delimiter=",", header=",".join(columns), comments="", fmt="%.17g")``."""
    width = sum(1 if a.ndim == 1 else a.shape[1] for a in arrays)
    rows = len(arrays[0])
    step = max(1, _CHUNK // width)
    ends_row = np.arange(step * width) % width == width - 1
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode("latin1"))
        for start in range(0, rows, step):
            block = np.column_stack([a[start:start + step] for a in arrays])
            values = block.astype(np.float64, copy=False).ravel()
            fh.write(_format(values, ends_row[:values.size]))
