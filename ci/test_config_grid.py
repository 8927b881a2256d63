"""The config-extremes grid: every numeric key of the bundled paper.cfg set to
0, -1, 1e-300, 1e300, 10^20 written out as an integer, and nan, one at a time,
through each subcommand of cli.main. An integer key reads 1e300 and nan as no
integer at all, and 10^20 as an integer far past any count, seed or quantum
number the tool accepts; a float key's record refuses nan as it refuses inf.

No exception may escape main and no warning may be raised. A run that exits 0
must write only finite numbers: no file it wrote and no stdout line may hold
nan, inf or null. Each check of a paper-repro run that exits 0 has a low bound,
a high bound or both, no key outside {name, kind, value, low, high, pass}, and
passes exactly when low <= value <= high. The grid's keys are exactly the
loader's numeric keys, so it runs every one of them at every value through
every subcommand.

Run it with ``PYTHONPATH=src python -m pytest -q ci/test_config_grid.py``; it
sits outside the Tier-1 testpaths because it takes longer than the suite's
targeted config-extremes cases.
"""

import json
import re
import warnings
from importlib import resources

import pytest

from hybridgate import cli, scenario

BUNDLED = resources.files("hybridgate").joinpath("data/paper.cfg").read_text()
SUBCOMMANDS = tuple(cli._HANDLERS)
VALUES = ("0", "-1", "1e-300", "1e300", "100000000000000000000", "nan")
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity|null)\b")
CHECK_KEYS = {"name", "kind", "value", "low", "high", "pass"}


def _numeric_keys(text):
    """(section, key) of every line whose value parses as a number."""
    keys, section = [], None
    for line in text.splitlines():
        header = re.fullmatch(r"\[(.+)\]", line)
        if header:
            section = header.group(1)
            continue
        match = re.fullmatch(r"(\w+) = (\S+)", line)
        if match:
            try:
                float(match.group(2))
            except ValueError:
                continue
            keys.append((section, match.group(1)))
    return keys


def _with_key(text, section, key, value):
    """``text`` with ``[section] key`` set to ``value`` (keys repeat across sections)."""
    head, header, body = text.partition(f"[{section}]\n")
    body, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", body, count=1)
    assert header and count == 1, (section, key)
    return head + header + body


KEYS = _numeric_keys(BUNDLED)


def test_the_grid_covers_every_numeric_key():
    # every float or int row of the loader's key table but [species <name>]'s,
    # which paper.cfg does not have, once each
    loader = {(section, key) for section, (record, rows) in scenario._KEYS.items()
              if section != "species"
              for field, key in rows if record._fields[field] in (float, int)}
    assert len(set(KEYS)) == len(KEYS) and set(KEYS) == loader
    assert len(SUBCOMMANDS) == 7


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("section, key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_extreme_value_exits_cleanly(tmp_path, capsys, subcommand, section, key, value):
    config = tmp_path / "scenario.cfg"
    config.write_text(_with_key(BUNDLED, section, key, value))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([subcommand, "--config", str(config), "--out", str(out)])
    captured = capsys.readouterr()
    assert not caught, [str(w.message) for w in caught]
    if code != 0:
        return
    for line in captured.out.splitlines():
        assert not NON_FINITE.search(line), line
    for path in out.iterdir():
        for line in path.read_text().splitlines():
            assert not NON_FINITE.search(line), (path.name, line)
    if subcommand == "paper-repro":
        for c in json.loads((out / "paper_repro.json").read_text())["checks"]:
            assert {"name", "kind", "value", "pass"} <= set(c) <= CHECK_KEYS, c
            assert "low" in c or "high" in c, c
            assert c["pass"] == (c.get("low", c["value"]) <= c["value"] <= c.get("high", c["value"])), c
