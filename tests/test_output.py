import json
import math

import pytest

from hybridgate.errors import DomainError
from hybridgate.output import write_csv, write_json

META = "# hybridgate test config=sha256:0 seed=0"
VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.2250738585072014e-308, -1.5, 3.0,
          -7.0, 1e22, 123456789012.0, 0.1, -2.0 / 3.0, math.pi, 6.835e9, -1.23456789012345e-7,
          math.inf, -math.inf, math.nan]


def _per_value_csv(columns, rows):
    """The writer's output as one f-string per value, joined line by line."""
    lines = [META, ",".join(columns)] + [",".join(f"{v:.11e}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("ncols", [1, 2, 3])
def test_bytes_match_per_value_formatting(tmp_path, ncols):
    columns = [f"c{i}" for i in range(ncols)]
    n = len(VALUES)
    rows = [[VALUES[(i + k) % n] for k in range(ncols)] for i in range(n)]   # each value in each column
    path = tmp_path / "t.csv"
    write_csv(str(path), columns, rows, META)
    assert path.read_bytes() == _per_value_csv(columns, rows).encode("utf-8")


def test_no_rows_writes_the_two_header_lines(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b"), [], META)
    assert path.read_bytes() == f"{META}\na,b\n".encode("utf-8")


def test_report_bytes_are_indented_json(tmp_path):
    report = {"a": 1.0, "n": 3, "ok": True, "checks": ({"name": "c", "value": -2.5e-300},),
              "labels": ["|1,1>"]}
    path = tmp_path / "r.json"
    write_json(str(path), report)
    assert path.read_bytes() == (json.dumps(report, indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize("report, named", [
    ({"a": 1.0, "checks": [{"name": "c", "value": math.nan}], "b": math.inf},
     "checks[0].value = nan"),
    ({"a": -math.inf}, "a = -inf"),
    ({"a": [1.0, [2.0, math.inf]]}, "a[1][1] = inf"),
])
def test_non_finite_report_value_is_named_and_not_written(tmp_path, report, named):
    with pytest.raises(DomainError) as err:
        write_json(str(tmp_path / "r.json"), report)
    assert str(err.value) == f"r.json: {named} is not finite"
    assert not (tmp_path / "r.json").exists()
