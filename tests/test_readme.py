"""The README's library example runs as documented, and its table of config keys
is the loader's."""

import math
import re
from pathlib import Path

from hybridgate.scenario import _KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["failed"] == []
    assert abs(namespace["phi"] - math.pi) < 1e-12
    assert abs(namespace["phase"] - math.pi) < 1e-12


def test_config_key_table_is_the_loaders():
    section = README.read_text(encoding="utf-8").split("### Config keys", 1)[1]
    lines = re.search(r"\n(\|.*?)\n\n", section, re.S).group(1).splitlines()
    table = [tuple(cell.strip() for cell in line.strip("|").split("|")) for line in lines]
    expected = [("section", "key", "default", "bound")]
    for name, (record, rows) in _KEYS.items():
        name = "species <Name>" if name == "species" else name
        for field, key, bound in rows:
            default = repr(record._defaults[field]) if field in record._defaults else "required"
            expected.append((f"`[{name}]`", f"`{key}`", default, f"`{bound}`" if bound else "none"))
    assert table[0] == expected[0] and set(table[1][0]) == {"-"}
    assert table[2:] == expected[1:]
