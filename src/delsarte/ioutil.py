"""Small I/O helpers: CSV matrices, atomic JSON reports.

Matrices travel as plain CSV so that results can be diffed and inspected
without any tooling. Real matrices get one column per entry; complex
matrices get two (``re_j``, ``im_j``). The header row records column names,
and the loader uses it to decide which layout it is looking at. Each entry
is written as the bytes of its ``repr``, computed in numpy
(``_format_values``) for a block of rows at a time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile
from pathlib import Path

import numpy as np


def save_matrix_csv(path: str | Path, A: np.ndarray) -> None:
    """Write a 1-D or 2-D array as CSV with a header row.

    The table is formatted and written a block of rows at a time
    (:func:`_csv_blocks`), so the write holds one block's text, never the
    whole table's, and its temporaries do not grow with the row count.
    """
    A = np.atleast_2d(np.asarray(A))
    if A.ndim != 2:
        raise ValueError("save_matrix_csv expects a 1-D or 2-D array")
    path = Path(path)
    if np.iscomplexobj(A):
        header = ",".join(f"re_{j},im_{j}" for j in range(A.shape[1]))
    else:
        header = ",".join(f"c_{j}" for j in range(A.shape[1]))
    _atomic_write(path, itertools.chain([header.encode("ascii") + b"\n"], _csv_blocks(A)))


def _csv_blocks(A: np.ndarray):
    """The data lines of :func:`save_matrix_csv` in pieces, formatted
    (:func:`_format_rows`) from blocks of as many rows as hold about two
    ``_CHUNK``s of values, at least one row, so that a strictly triangular
    table, with half its values in zero runs, still formats about one whole
    chunk per block.  A complex entry is written as its real and imaginary
    parts side by side.  A table with no rows still gives its one empty
    line."""
    cplx = np.iscomplexobj(A)
    width = A.shape[1] * (2 if cplx else 1)
    step = max(1, 2 * _CHUNK // max(width, 1))
    for r0 in range(0, max(A.shape[0], 1), step):
        block = A[r0:r0 + step]
        if cplx:
            flat = np.empty((len(block), width), dtype=float)
            flat[:, 0::2] = block.real
            flat[:, 1::2] = block.imag
        else:
            flat = np.asarray(block, dtype=float)
        yield from _format_rows(flat)


def load_matrix_csv(path: str | Path) -> np.ndarray:
    """Inverse of :func:`save_matrix_csv`. Returns a 2-D array.

    The header decides the layout and the column count.  A file with no
    data rows, rows whose column count differs from the header's, or a
    ``re_`` header with an odd column count raises ``ValueError`` naming
    the file.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        rows = [line for line in fh if line.strip()]
    complex_layout = names[0].startswith("re_")
    if complex_layout and len(names) % 2:
        raise ValueError(f"{path}: complex header has an odd column count {len(names)}")
    if not rows:
        raise ValueError(f"{path}: no data rows under the header")
    body = np.loadtxt(rows, delimiter=",", ndmin=2)
    if body.shape[1] != len(names):
        raise ValueError(f"{path}: header names {len(names)} columns, "
                         f"the rows have {body.shape[1]}")
    if complex_layout:
        return body[:, 0::2] + 1j * body[:, 1::2]
    return body


# Shortest round-trip digits (Schubfach): Giulietti, "The Schubfach way to
# render doubles" (2020); Adams, "Ryu: fast float-to-string conversion"
# (PLDI 2018).  All arithmetic is on uint64 arrays, where numpy wraps
# silently; numpy scalars would warn on the same overflow.
_CHUNK = 1 << 13
_M32 = 0xFFFFFFFF
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
_E_MIN = -292   # g of 10**e for e in [_E_MIN, 326]

# A value's text is gathered from its 32-byte source row, four little-endian
# words: bytes 7..23 hold its digits scaled to 17 (so '0's pad them), 24..26
# the three digits of |exponent|, 27..30 ".e-+", 31 the separator; byte 0
# is '0' and byte 6 NUL.  A special value writes its literal over bytes 0..7.
_SPECIALS = (b"0.0", b"-0.0", b"nan", b"inf", b"-inf")
# the first key of each group of layouts, in ``_templates`` order
_POSITIONAL = len(_SPECIALS)
_EXPONENTIAL = _POSITIONAL + 2 * 20 * 17
_SLOT = 25      # the longest text, "-1.2345678901234567e-308", plus separator
_DIGITS = list(range(7, 24))
_ZERO, _NUL, _EXP, _DOT, _E, _MINUS, _PLUS, _SEP = 0, 6, 24, 27, 28, 29, 30, 31
_LITERALS = np.array([int.from_bytes(s, "little") for s in _SPECIALS], dtype=np.uint64)
_ASCII = 0x3030303030303030
_TAIL = int.from_bytes(b"000.e-+,", "little")


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """High and low words of g = floor(10**e * 2**-r) + 1 for each e, with
    r = floor(log2(10**e)) - 127, so that 2**127 < g < 2**128."""
    g = []
    for e in range(_E_MIN, 327):
        p = 10 ** abs(e)
        if e >= 0:
            r = p.bit_length() - 128
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            g.append((1 << (p.bit_length() + 127)) // p + 1)
    return (np.array([v >> 64 for v in g], dtype=np.uint64),
            np.array([v & (2 ** 64 - 1) for v in g], dtype=np.uint64))


@functools.cache
def _templates() -> tuple[np.ndarray, np.ndarray]:
    """Source-row indices of each layout's text and separator, NUL padded
    to ``_SLOT``, and the byte count of each.  The keys, as
    ``_source_rows`` computes them: the five specials; then positional,
    by sign, decpt in [-3, 16] and digit count; then exponent, by sign,
    exponent sign, three exponent digits or two, and digit count."""
    rows, lens = [], []

    def add(text):
        rows.append(text + [_SEP] + [_NUL] * (_SLOT - 1 - len(text)))
        lens.append(len(text) + 1)

    for lit in _SPECIALS:
        add(list(range(len(lit))))
    for neg in (0, 1):
        for p in range(-3, 17):
            for m in range(1, 18):
                d = _DIGITS[:m]
                if p <= 0:
                    body = [_ZERO, _DOT] + [_ZERO] * -p + d
                elif p < m:
                    body = d[:p] + [_DOT] + d[p:]
                else:
                    body = d + [_ZERO] * (p - m) + [_DOT, _ZERO]
                add([_MINUS] * neg + body)
    for neg in (0, 1):
        for eneg in (0, 1):
            for wide in (0, 1):
                for m in range(1, 18):
                    mant = _DIGITS[:1] + ([_DOT] + _DIGITS[1:m] if m > 1 else [])
                    add([_MINUS] * neg + mant + [_E, _MINUS if eneg else _PLUS]
                        + list(range(_EXP + 1 - wide, _EXP + 3)))
    return np.array(rows, dtype=np.intp), np.array(lens, dtype=np.int64)


def _mulhi(a0, a1, b0, b1):
    """High word of a * b, given the 32-bit halves of each."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits d and exponents k with d * 10**k the shortest decimal that
    reads back as x, the nearest one of them, ties to even d (what
    ``repr`` prints).  x is finite and positive; d may end in zeros.
    """
    bits = x.view(np.uint64)
    e = bits >> 52
    t = bits & ((1 << 52) - 1)
    c = t | (np.minimum(e, 1) << 52)
    q = np.maximum(e, 1).view(np.int64) - 1075
    closer = (t == 0) & (e > 1)     # the lower neighbour is half as far
    k = (q * 1262611 - closer * 524031) >> 22
    vb, lower, upper = _scaled_interval(c, closer, k, q + ((-k * 1741647) >> 19) + 1)
    sd = vb >> 2
    # one digit fewer when exactly one of its two candidates is inside
    sp = sd // 10
    up_in = lower <= 40 * sp
    wp_in = 40 * sp + 40 <= upper
    short = (sd >= 10) & (up_in != wp_in)
    u_in = lower <= 4 * sd
    w_in = 4 * sd + 4 <= upper
    mid = 4 * sd + 2
    one = u_in != w_in
    d = sd + ((one & w_in) | (~one & ((vb > mid) | ((vb == mid) & (sd & 1 == 1)))))
    d += short * (10 * (sp + wp_in) - d)
    return d, k


def _scaled_interval(c, closer, k, h):
    """x = c * 2**q and the bounds of its rounding interval, 4c and 4c +- 2
    (4c - 1 below a power of two) shifted left by h, times the 128-bit g of
    10**-k, each rounded to odd from the top of its 192-bit product.  The
    bounds' products are that of 4c << h plus or minus g << (h + 1)
    (g << h below a power of two)."""
    g_hi, g_lo = _pow10_table()
    hi, lo = g_hi.take(-k - _E_MIN), g_lo.take(-k - _E_MIN)
    s = (h + 1).view(np.uint64)
    cp = c << (s + 1)
    cp0, cp1 = cp & _M32, cp >> 32
    # g * cp in three words w0, w1, w2
    w0 = lo * cp
    x1 = _mulhi(lo & _M32, lo >> 32, cp0, cp1)
    w1 = hi * cp + x1
    w2 = _mulhi(hi & _M32, hi >> 32, cp0, cp1) + (w1 < x1)
    odd = c & 1
    # the upper bound: g * cp + (g << s)
    r = 64 - s
    u0, u1 = w0 + (lo << s), w1 + ((hi << s) | (lo >> r))
    u2 = w2 + (hi >> r) + (u1 < w1)
    u1c = u1 + (u0 < w0)
    u2 += u1c < u1
    # the lower bound: g * cp - (g << s), or - (g << (s - 1)) when closer
    s = s - closer
    r = 64 - s
    g0, g1 = lo << s, (hi << s) | (lo >> r)
    l1 = w1 - g1
    l2 = w2 - (hi >> r) - (w1 < g1)
    l1b = l1 - (w0 < g0)
    l2 -= l1b > l1
    return w2 | (w1 > 1), (l2 | (l1b > 1)) + odd, (u2 | (u1c > 1)) - odd


def _swar8(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each x < 10**8 as ASCII, most
    significant first in memory (little-endian uint64)."""
    y = (x * 109951163) >> 40   # x // 10**4
    r = y | ((x - y * 10000) << 32)
    q = ((r * 10486) >> 20) & 0x7F0000007F
    r = q | ((r - q * 100) << 16)
    q = ((r * 103) >> 10) & 0x000F000F000F000F
    return q | ((r - q * 10) << 8) | 0x3030303030303030


def _format_values(x: np.ndarray, newline: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``repr(v)`` followed by "\\n" where ``newline``, else
    ",", for each v of a 1-D float64 array, and each one's byte count.
    """
    finite = np.isfinite(x) & (x != 0)
    neg = np.signbit(x)
    d, k = _shortest(np.abs(x, where=finite, out=np.ones_like(x)))
    rows, key = _source_rows(d, k, neg, newline)
    if not finite.all():
        at = np.flatnonzero(~finite)
        v = x[at]
        kind = np.where(np.isnan(v), 2, np.where(v == 0, 0, 3) + neg[at])
        key[at] = kind
        rows[at, 0] = _LITERALS[kind]
    return _gather(rows, key), _templates()[1].take(key)


def _source_rows(d, k, neg, newline):
    """The source rows of values d * 10**k (sign ``neg``), four words each,
    and the key of each one's layout in CPython's 'r' format: positional
    when -4 < decpt <= 16 (".0" added to an integer), else ``d.ddde+XX``
    with at least two exponent digits."""
    n = np.searchsorted(_POW10, d, side="right")
    d = d * _POW10.take(17 - n)
    w = np.empty((4, d.size), dtype="<u8")
    top = d // 100000000
    lead = top // 100000000
    w[0] = (lead << 56) | 0x3000303030303030
    w[1] = top - lead * 100000000
    w[2] = d - top * 100000000
    w[1:3] = _swar8(w[1:3])
    # m significant digits: 17 less the zero high bytes of the digit values
    # of words 1 and 2, read off the float exponent of each
    z = (w[1:3] ^ _ASCII).astype(np.float64).view(np.uint64) >> 52
    tz = np.minimum((1086 - z) >> 3, 8)
    m = (17 - tz[1] - (tz[1] == 8) * tz[0]).view(np.int64)
    p = k + n
    ex = np.abs(p - 1).view(np.uint64)
    e100 = ex // 100
    w[3] = ((e100 | (ex // 10 - e100 * 10) << 8 | (ex % 10) << 16)
            + (_TAIL - newline * np.uint64(34 << 56)))
    exp_key = _EXPONENTIAL + (neg * 4 + (p < 1) * 2 + (ex > 99)) * 17 + m - 1
    pos_key = _POSITIONAL + (neg * 20 + p + 3) * 17 + m - 1
    key = exp_key + ((p > -4) & (p <= 16)) * (pos_key - exp_key)
    return np.ascontiguousarray(w.T), key


def _gather(rows, key):
    """Each row's bytes in the order of its layout's template, the NUL
    padding dropped."""
    index = _templates()[0].take(key, axis=0)
    index += np.arange(0, 32 * len(rows), 32)[:, None]
    text = rows.view(np.uint8).ravel().take(index)
    return text[text != 0]


def _format_rows(A: np.ndarray) -> list:
    """The rows of a real 2-D array as the bytes of the lines
    ``",".join(map(repr, row))``, in pieces.

    Full double precision: round-tripping a matrix through disk must not
    perturb downstream residual checks.  Each row's values from its first
    to its last that is not +0.0 (-0.0 and NaN included) are formatted by
    ``_format_values``, ``_CHUNK`` at a time; the +0.0 runs before and
    after are slices of one ``"0.0,...,0.0"`` line.
    """
    rows, cols = A.shape
    if not A.size:
        return [b"\n" * max(rows, 1)]
    zeros = b"0.0," * (cols - 1) + b"0.0\n"
    nz = (A != 0) | np.signbit(A)
    first = nz.argmax(axis=1)
    stop = (cols - nz[:, ::-1].argmax(axis=1)) * nz.any(axis=1)
    j = np.arange(cols)
    span = (j >= first[:, None]) & (j < stop[:, None])
    x = A[span]
    newline = np.broadcast_to(j == cols - 1, A.shape)[span]
    buf = np.empty(_SLOT * x.size, dtype=np.uint8)
    size, lens = 0, [np.zeros(1, dtype=np.int64)]
    for i in range(0, x.size, _CHUNK):
        text, n = _format_values(x[i:i + _CHUNK], newline[i:i + _CHUNK])
        buf[size:size + text.size] = text
        size += text.size
        lens.append(n)
    text = memoryview(buf[:size])
    # row i's formatted values are text[bounds[i]:bounds[i + 1]]
    ends = np.cumsum(np.concatenate(lens))
    bounds = ends[np.concatenate(([0], np.cumsum(stop - first)))].tolist()
    pieces, done = [], 0
    runs = np.flatnonzero((first > 0) | (stop < cols))
    for i, f, s in zip(runs.tolist(), first[runs].tolist(), stop[runs].tolist()):
        a, b = bounds[i], bounds[i + 1]
        pieces += [text[done:a], zeros[:4 * f], text[a:b], zeros[4 * s:]]
        done = b
    pieces.append(text[done:])
    return pieces


def _atomic_write(path: Path, pieces) -> None:
    """Write the bytes pieces via a temp file + rename so readers never see
    a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, [text.encode("utf-8")])


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def save_json(path: str | Path, obj) -> None:
    _atomic_write_text(Path(path), json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in sorted(obj.items()) if not k.endswith("_seconds")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def report_digest(report: dict) -> str:
    """SHA-256 of the canonical report text, ignoring timing fields.

    Wall-clock keys (anything ending in ``_seconds``) vary run to run and
    must not defeat reproducibility checks.
    """
    import hashlib

    text = canonical_json(_strip_timing(report))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
