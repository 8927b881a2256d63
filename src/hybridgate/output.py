"""Deterministic table and report writers.

Numbers are formatted as scientific notation with 12 significant digits,
the bytes of ``"%.11e"``, and every table starts with one metadata comment
line (tool version, config hash, seed), so identical inputs produce
byte-identical files. Reports are strict JSON: a nan or inf in one is an
error, not a null.

Both writers rewrite an existing file in place: they open it without
truncating, write the new bytes over the old and then cut the file to their
length. Truncating a non-empty file first makes ext4 start writeback when it
is closed (its auto_da_alloc heuristic): rewriting a 5.6 KB table took 7 us
in place against 60 us with a truncate (ext4 mounted with discard, 2 shared
x86_64 vCPUs, median of 200).
Neither way is atomic: an interrupted write leaves the new head on the old
tail, where a truncating write would leave a short file.

A table is formatted and written in blocks of whole rows, so the writer's
temporaries do not grow with it; a value's bytes depend only on the value
and its column, so the blocks join into the bytes of the whole. A block's
numbers take one numpy pass, without a Python call per value. For 1e-11 <=
|x| < 1e12, k = 11 - floor(log10|x|) is in [0, 22], so 10**k is exact and
y = |x| * 10**k is the exact value Y rounded once.
Rounding is monotone, and 1e11 and every half-integer up to 1e12 - 0.5 are
doubles, so where 1e11 < y < 1e12 - 0.5 and y is not a half-integer, Y lies
strictly between the same half-integers as y. Then rint(y) is Y rounded to
an integer: the 12 digits ``"%.11e"`` prints (Gay's correctly rounded
conversion). Zero takes the same path. Every other value (y on a tie,
another magnitude, nan, inf, a log10 one decade off) goes through
``"%.11e"`` itself.
"""

import itertools
import json
import math
import os

import numpy as np

from . import __version__
from .errors import DomainError


# Values per block of rows: each of a block's temporaries (at most the 80 KB
# index array) stays under glibc's 128 KiB mmap threshold and reuses heap pages.
CSV_BLOCK = 1024


def format_float(value):
    return f"{value:.11e}"


# A field is ten two-byte cells, " -1.23456789012e-05," with spaces as pads:
# sign, "d.", five digit pairs, "de", exponent sign and tens, exponent units
# and separator. _CELLS holds every cell; _OFFSETS is where each of the ten
# cells' entries start in it. The exponent cells are indexed by
# j = 12 - exponent, where j = 24 is zero's "+00" and j = 0 a fallback; the
# last cell's "\n" entries follow its "," entries.
_EXPONENTS = [f"{12 - j:+03d}" if 0 < j < 24 else "+00" for j in range(25)]
_CELLS = np.frombuffer("".join(
    ["  ", " -"] + [f"{d}." for d in range(10)] + [f"{p:02d}" for p in range(100)]
    + [f"{d}e" for d in range(10)] + [s[:2] for s in _EXPONENTS]
    + [s[2] + sep for sep in ",\n" for s in _EXPONENTS]).encode("ascii"), dtype=np.uint16)
_OFFSETS = np.array([0, 2, 12, 12, 12, 12, 12, 112, 122, 147])[:, None]
_DIVISORS = np.array([1e11, 1e9, 1e7, 1e5, 1e3, 1e1, 1.0])[:, None]
_CARRY = np.array([100, 100, 100, 100, 100, 10])[:, None]
_SCALE = np.array([0.0] + [float(10 ** k) for k in range(23)] + [0.0])   # 10**(j - 1)


def _csv_body(values):
    """The CSV lines of a 2-d float array, each value the bytes of format_float."""
    x = values.reshape(-1)
    ax = np.fmin(np.abs(x), 2e12)   # nan and inf become 2e12, which falls back
    j = 12 - np.floor(np.log10(np.maximum(ax, 2e-12)))   # in [0, 24]
    y = ax * _SCALE[j.astype(np.intp)]
    m = np.rint(y)
    fast = ((y > 1e11) & (y < 1e12 - 0.5) & (np.abs(y - m) < 0.5)) | (x == 0)
    index = np.empty((10, x.size), np.intp)
    index[0] = np.signbit(x)
    # floor(m / 10**i) is exact for m < 1e13: m's leading 1, 3, 5, ..., 11 and 12 digits
    np.floor(m / _DIVISORS, out=index[1:8], casting="unsafe")
    index[2:8] -= _CARRY * index[1:7]   # d0, five digit pairs, d11
    index[8:] = j
    index += _OFFSETS
    index[9].reshape(values.shape)[:, -1] += len(_EXPONENTS)   # "\n" after the last column
    fields = np.empty((x.size, 10), np.uint16)
    np.take(_CELLS, index.T, out=fields, mode="clip")   # in range; "clip" writes out unbuffered
    fields = fields.view(np.uint8)
    if not fast.all():
        slow = np.flatnonzero(~fast)
        text = ("%19.11e" * slow.size) % tuple(x[slow].tolist())   # 19: "-1.00000000000e+308"
        fields[slow, :19] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 19)
    return fields.tobytes().translate(None, b" ")


def metadata_line(config_hash, seed):
    return f"# hybridgate {__version__} config=sha256:{config_hash} seed={seed}"


def write_csv(path, columns, rows, meta):
    """Write ``rows``, a 2-d float array or a sequence of rows with one value
    per column, each value as the bytes of format_float(v).

    Each block of rows takes one numpy pass for every value whose scaled
    mantissa y is certified (see the module docstring) and one ``"%.11e"``
    batch for the rest. Rows that do not fit the columns raise DomainError
    before the file is opened."""
    ncols = len(columns)
    try:
        values = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:   # ragged rows, or a value that is not a number
        raise DomainError(f"{os.path.basename(path)}: rows are not {ncols} columns of floats: "
                          f"{exc}") from exc
    if ncols == 0 or (values.size and values.shape[1:] != (ncols,)):
        raise DomainError(f"{os.path.basename(path)}: rows of shape {values.shape} do not fit "
                          f"{ncols} columns")
    values = values.reshape(-1, ncols)
    step = max(1, CSV_BLOCK // ncols)
    blocks = (_csv_body(values[i:i + step]) for i in range(0, len(values), step))
    _write_bytes(path, itertools.chain([f"{meta}\n{','.join(columns)}\n".encode("utf-8")], blocks))


def _first_non_finite(value, key=""):
    """``"key = value"`` of the first nan or inf in a JSON payload, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{key} = {value}"
    if isinstance(value, dict):
        children = ((f"{key}.{k}" if key else k, v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        children = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next(filter(None, (_first_non_finite(v, k) for k, v in children)), None)


def write_json(path, payload):
    """Write ``payload`` as strict JSON. Raises DomainError naming the file and
    the key of the first nan or inf, before anything is written."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"{os.path.basename(path)}: {_first_non_finite(payload)} "
                          f"is not finite") from exc
    _write_bytes(path, [(text + "\n").encode("utf-8")])


def _write_bytes(path, chunks):
    """Write the byte strings ``chunks`` in turn over ``path`` in place (see the
    module docstring); a new file gets the mode ``open(path, "wb")`` would give it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:   # os.write may write less than it is given
                view = view[os.write(fd, view):]
        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)
