"""The dataset writer's cells: columns of doubles to rows of ASCII text.

Every cell holds the bytes "%.17g" % x gives for a double x, from one numpy
kernel, `_format_cells`; integer columns are cast to float64, exact below
2^53, and print as integers. Where %g writes fixed notation (finite x,
1e-4 <= |x| < 1e17) it takes an exact route: Dekker's product gives
|x| 10^(16 - e) exactly, for e = floor(log10|x|), and rounding it half-even
to an integer gives the 17 significant digits CPython's correctly rounded
dtoa prints. The other cells (0, -0, nan, infinities, exponent notation,
and any cell whose log10 is off by one) go through one "%.17g" template.
A table's rows are its columns broadcast together in C order, so a value
repeated along an axis (a k or t of a grid; fisher's n, k, tau and t_imag)
is formatted once and gathered. Rows are built in blocks of FORMAT_BLOCK,
NUL-padded, and streamed to the output without NULs.

`cli.write_dataset` imports this module on its first table, so that a
command writing none (`topo`, `--help`, a refusal) never compiles it.
"""

from __future__ import annotations

import functools
import math

from ._lazy import np

# Bytes of one formatted cell: the longest "%.17g" string is 24 characters,
# "-1.2345678901234567e-308"; shorter ones are padded with NULs.
CELL = 24
# Cells the dataset writer formats at a time. It bounds the writer's
# temporaries, the largest of which hold 24 bytes a cell, below 128 KiB, so
# that glibc serves them from its heap rather than from fresh mmaps (the
# limit model.GRID_CHUNK keeps for the t-grid kernels); only the reused
# block of rows is larger.
FORMAT_BLOCK = 4096

def _split(a):
    # Veltkamp split: a = hi + lo exactly, each with at most 26 significant
    # bits, so products of halves are exact
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _words(rows) -> np.ndarray:
    # rows of 24 bytes as three little-endian 64-bit words each
    return np.frombuffer(bytes(b for row in rows for b in row),
                         "<u8").reshape(-1, 3)


@functools.cache
def _tables():
    """The writer's constant tables, built on the first formatted cell so
    that a run writing none never imports numpy.

    10^q for q = 0 .. 20, exact doubles (5^q < 2^53 for q <= 22), and its
    Veltkamp halves, split in Python floats. A fixed-notation cell shows
    s = "0000" d0 .. d16 (bytes 0 .. 20 of a 24-byte row) from s[min(ie, 4)]
    to s[end], with a point after s[ie], where ie = e + 4. Per ie: the bytes
    kept in place, those moved up one byte to make room for the point, and
    the point; per end: the bytes shown once moved. Last, eight ASCII zeros.
    """
    pow10 = [float(10 ** q) for q in range(21)]
    return (np.array(pow10), *np.array([_split(b) for b in pow10]).T,
            _words([[255 * (min(ie, 4) <= i <= ie) for i in range(24)]
                    for ie in range(21)]),
            _words([[255 * (i > ie) for i in range(24)] for ie in range(21)]),
            _words([[46 * (i == ie + 1) for i in range(24)]
                    for ie in range(21)]),
            _words([[255 * (i <= end) for i in range(24)]
                    for end in range(22)]),
            np.uint64(0x3030303030303030))


def _format_cells(x, out):
    """Write "%.17g" % x[i] into row i of out, an (n, CELL) uint8 array, as
    ASCII padded with NULs; x is any real array, cast exactly to float64.

    On the exact route (see the module docstring), p + err = |x| 10^q
    exactly with q = 16 - e, and p >= 10^16 > 2^53 is an even integer, so
    D = p + rint(err) is that product rounded half-even: the digits dtoa
    prints. A row stays on the route only where 10^16 <= D < 10^17, which
    refuses a log10 off by one next to a power of ten and a rounding that
    carries to 10^17.
    """
    x = np.asarray(x, dtype=float)
    for lo in range(0, x.size, FORMAT_BLOCK):
        hi = lo + FORMAT_BLOCK
        _format_block(x[lo:hi], out[lo:hi])


def _format_block(x, out):
    pow10, pow10_hi, pow10_lo, keep, move, point, upto, zeros = _tables()
    a = np.abs(x)
    with np.errstate(divide="ignore"):  # log10(0) = -inf
        e = np.log10(a)
    np.floor(e, out=e)
    exact = (e >= -4.0) & (e <= 16.0)  # false for 0, nan and +-inf
    # a dummy value on the other rows, overwritten below
    np.copyto(a, 1.0, where=~exact)
    np.copyto(e, 0.0, where=~exact)
    ie = e.astype(np.intp)
    q = 16 - ie
    ah, al = _split(a)
    p = a * pow10[q]
    err = ah * pow10_hi[q] - p
    err += ah * pow10_lo[q]
    err += al * pow10_hi[q]
    err += al * pow10_lo[q]
    d = p.astype(np.int64)
    d += np.rint(err, out=err).astype(np.int64)
    exact &= (d >= 10 ** 16) & (d < 10 ** 17)

    # the digits of D as bytes 4 .. 20 of a zeroed 24-byte row s: nine
    # divisions by 10 of each int32 half, the high half's last one giving
    # the zero of byte 3
    n = x.size
    s = np.zeros((n, 24), np.uint8)
    half = np.empty((2, n), np.int32)
    half[0] = high = d // 10 ** 9
    half[1] = d - high * 10 ** 9
    quot, rem = np.empty_like(half), np.empty_like(half)
    for j in range(9):
        np.floor_divide(half, 10, out=quot)
        np.multiply(quot, 10, out=rem)
        np.subtract(half, rem, out=rem)
        s[:, 11 - j] = rem[0]
        s[:, 20 - j] = rem[1]
        half, quot = quot, half
    words = s.view("<u8")
    # the last nonzero digit is the top nonzero byte of the 192-bit row:
    # digits are below 16, so the binary exponent of its value as a double
    # names that byte even after rounding
    w = words.astype(float)
    _, ex = np.frexp(w[:, 0] + 2.0 ** 64 * w[:, 1] + 2.0 ** 128 * w[:, 2])
    last = (ex - 1) >> 3
    ie += 4
    end = np.maximum(last, ie)
    end += end > ie  # the point, where a fraction digit is shown

    words |= zeros
    cell = np.take(keep, ie, axis=0)
    cell &= words
    words &= np.take(move, ie, axis=0)
    cell |= words << 8
    cell[:, 1] |= words[:, 0] >> 56
    cell[:, 2] |= words[:, 1] >> 56
    cell |= np.take(point, ie, axis=0)
    cell &= np.take(upto, end, axis=0)
    out[:, 0] = np.where(np.signbit(x), 45, 0)  # "-"
    out[:, 1:] = cell.astype("<u8", copy=False).view(np.uint8)[:, :23]
    other = np.flatnonzero(~exact)
    if other.size:
        # one "%.17g" template, left-justified to CELL; spaces become NULs
        text = (f"%-{CELL}.17g" * other.size) % tuple(x[other].tolist())
        out[other] = np.frombuffer(text.replace(" ", "\0").encode("ascii"),
                                   np.uint8).reshape(-1, CELL)


# Row open, cell separator, row close and row separator. JSON rows are lists
# of the same number strings the CSV holds.
LAYOUTS = {"csv": ("", ",", "\n", ""), "json": ('["', '","', '"]', ",")}


def table(fmt, header, columns):
    """Yield a table in `fmt`, "csv" or "json", as UTF-8 bytes: the header
    line or the JSON's `columns`, the rows of `columns` (see `_rows`), and
    the JSON's close."""
    if fmt == "csv":
        head, tail = ",".join(header) + "\n", ""
    else:
        import json
        head = ('{"columns":' + json.dumps(list(header), separators=(",", ":"))
                + ',"rows":[')
        tail = "]}\n"
    yield head.encode("utf-8")
    yield from _rows(LAYOUTS[fmt], columns)
    yield tail.encode("utf-8")


def _rows(layout, columns):
    """Yield the rows of `columns` broadcast together in C order, as ASCII
    bytes, FORMAT_BLOCK rows at a time.

    A column with one value per row is formatted a block at a time. A
    column that repeats along an axis of a (rows, cols) table, of shape
    (rows, 1) or (cols,), is formatted once, and row r gathers its cell
    r // cols or r % cols. Each block of rows is built in one reused,
    NUL-padded buffer, and its bytes other than NUL are yielded.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    n, cols = math.prod(shape), shape[-1]
    parts = []  # (values, None) or (cells, 0 for r // cols, 1 for r % cols)
    for c in columns:
        if c.shape == shape:
            parts.append((c.reshape(-1), None))
        else:
            cells = np.empty((c.size, CELL), np.uint8)
            _format_cells(c.reshape(-1), cells)
            parts.append((cells, 0 if c.ndim == 2 else 1))
    row_open, sep, row_close, between = layout
    template = np.frombuffer(
        (between + row_open + sep.join(["\0" * CELL] * len(parts))
         + row_close).encode("ascii"), np.uint8)
    first = len(between) + len(row_open)
    size = min(n, FORMAT_BLOCK)
    buf = bytearray(size * template.size)
    block = np.frombuffer(buf, np.uint8).reshape(size, template.size)
    block[:] = template
    for lo in range(0, n, FORMAT_BLOCK):
        hi = min(lo + FORMAT_BLOCK, n)
        block[hi - lo:] = 0  # past the last row: dropped with the NULs
        index = np.divmod(np.arange(lo, hi), cols)
        for j, (part, axis) in enumerate(parts):
            o = first + j * (CELL + len(sep))
            slot = block[:hi - lo, o:o + CELL]
            if axis is None:
                _format_cells(part[lo:hi], slot)
            else:
                slot[...] = np.take(part, index[axis], axis=0)
        text = buf.translate(None, b"\0")
        yield memoryview(text)[len(between):] if lo == 0 else text
