"""Deterministic table and report writers.

Numbers are formatted as scientific notation with 12 significant digits and
every table starts with one metadata comment line (tool version, config
hash, seed, mode), so identical inputs produce byte-identical files.
"""

import json
import math
import os
from itertools import chain

from . import __version__


def format_float(value):
    return f"{value:.11e}"


def metadata_line(config_hash, seed, mode):
    return f"# hybridgate {__version__} config=sha256:{config_hash} seed={seed} mode={mode}"


def write_csv(path, columns, rows, meta):
    """Write rows of Python floats; ``"%.11e" % v`` gives the bytes of format_float(v)."""
    row = ",".join(["%.11e"] * len(columns)) + "\n"
    body = (row * len(rows)) % tuple(chain.from_iterable(rows))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{meta}\n{','.join(columns)}\n{body}")


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None  # strict JSON has no Infinity/NaN
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_jsonable(payload), indent=2) + "\n")


def ensure_out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
