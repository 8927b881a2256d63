"""Deterministic table and report writers.

Numbers are formatted as scientific notation with 12 significant digits and
every table starts with one metadata comment line (tool version, config
hash, seed), so identical inputs produce byte-identical files. Reports are
strict JSON: a nan or inf in one is an error, not a null.
"""

import json
import math
import os
from itertools import chain

from . import __version__
from .errors import DomainError


def format_float(value):
    return f"{value:.11e}"


def metadata_line(config_hash, seed):
    return f"# hybridgate {__version__} config=sha256:{config_hash} seed={seed}"


def write_csv(path, columns, rows, meta):
    """Write rows of Python floats; ``"%.11e" % v`` gives the bytes of format_float(v)."""
    row = ",".join(["%.11e"] * len(columns)) + "\n"
    body = (row * len(rows)) % tuple(chain.from_iterable(rows))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{meta}\n{','.join(columns)}\n{body}")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def ensure_out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
