"""The README's library example runs as documented, its table of config keys
is the loader's, and its table of checks and its paper-repro lines are the
report's."""

import math
import re
from importlib import resources
from pathlib import Path

from hybridgate import cli
from hybridgate.repro import paper_repro
from hybridgate.scenario import _KEYS, load_scenario_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["failed"] == []
    assert abs(namespace["phi"] - math.pi) < 1e-12
    assert abs(namespace["phase"] - math.pi) < 1e-12


def _table(heading):
    """The rows of the first table under ``heading``, each a tuple of its stripped cells."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    lines = re.search(r"\n(\|.*?)\n\n", section, re.S).group(1).splitlines()
    return [tuple(cell.strip() for cell in line.strip("|").split("|")) for line in lines]


def test_config_key_table_is_the_loaders():
    table = _table("### Config keys")
    expected = [("section", "key", "default", "bound")]
    for name, (record, rows) in _KEYS.items():
        name = "species <Name>" if name == "species" else name
        for field, key in rows:
            default = repr(record._defaults[field]) if field in record._defaults else "required"
            bound = record._bounds.get(field)
            expected.append((f"`[{name}]`", f"`{key}`", default, f"`{bound}`" if bound else "none"))
    assert table[0] == expected[0] and set(table[1][0]) == {"-"}
    assert table[2:] == expected[1:]


def test_check_table_is_the_reports():
    text = resources.files("hybridgate").joinpath("data/paper.cfg").read_text()
    checks = paper_repro(load_scenario_text(text))["checks"]
    expected = [("check", "kind", "low", "high")] + [
        (f"`{c['name']}`", f"`{c['kind']}`",
         *(repr(c[side]) if side in c else "none" for side in ("low", "high"))) for c in checks]
    table = _table("### Paper-repro checks")
    assert table[0] == expected[0] and set(table[1][0]) == {"-"}
    assert table[2:] == expected[1:]


def test_paper_repro_lines_are_printed_as_shown(tmp_path, capsys):
    section = README.read_text(encoding="utf-8").split("### Paper-repro checks", 1)[1]
    shown = re.search(r"```text\n(.*?)```", section, re.S).group(1).splitlines()
    assert cli.main(["paper-repro", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert shown and set(shown) <= set(printed)
    assert printed[-1] == "paper-repro: 25/25 checks passed"
