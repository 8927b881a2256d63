"""The README's library example runs as documented."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["failed"] == []
    assert abs(namespace["phi"] - math.pi) < 1e-12
    assert abs(namespace["phase"] - math.pi) < 1e-12
