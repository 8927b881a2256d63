import json
import math
import os
import stat
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from hybridgate import cli, repro
from hybridgate.dynamics import LAMBDA_LABELS
from hybridgate.errors import DomainError
from hybridgate.output import CSV_BLOCK, write_csv, write_json
from hybridgate.scenario import load_scenario_text

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


def _special_values():
    """Values at every edge of the numpy formatting pass, both signs."""
    tiny = np.float64(5e-324)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ties = np.arange(10 ** 11, 10 ** 12, 300_000_007, dtype=float) + 0.5   # n + 0.5, exact
    ties = np.concatenate([ties * 10.0 ** e for e in range(4)])   # still exact
    round_up = np.array([float(f"9.9999999999995e{k}") for k in range(-320, 308)])
    edges = np.array([1e-11, 1e12, 1e11, 1e11 + 1, 1e12 - 1, 999999999999.5, 99999999999.5])
    near = np.concatenate([powers, ties, round_up, edges])
    down, up = np.nextafter(near, 0.0), np.nextafter(near, math.inf)
    values = np.concatenate([
        [0.0, math.inf, math.nan, tiny, 2.2250738585072014e-308, 1.7976931348623157e308],
        tiny * np.arange(1, 2000), near, down, up, np.nextafter(down, 0.0),
        np.nextafter(up, math.inf)])
    return np.concatenate([values, -values])


def test_bytes_match_per_value_formatting_on_a_million_values(tmp_path):
    rng = np.random.default_rng(20261019)

    def scaled(n, low, high):   # random mantissas and signs over 10**low .. 10**high
        return (rng.choice([-1.0, 1.0], n) * (1.0 + 9.0 * rng.random(n))
                * 10.0 ** rng.integers(low, high + 1, n))

    # the doubles nearest to decimal ties (d + 0.5) * 10**(e - 11): most scale onto a tie
    ties = np.array([float(f"{d}5e{e - 12}") for d, e in
                     zip(rng.integers(10 ** 11, 10 ** 12, 20_000).tolist(),
                         rng.integers(-11, 12, 20_000).tolist())])
    ties = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, math.inf)])
    bits = rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64).view(np.float64)   # nan and inf too
    values = np.concatenate([_special_values(), ties, -ties, scaled(800_000, -13, 13),
                             scaled(100_000, -320, 307), bits])
    values = values[: len(values) // 4 * 4].reshape(-1, 4)
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b", "c", "d"), values, META)
    lines = path.read_text().splitlines()[2:]
    expected = [",".join(f"{v:.11e}" for v in row) for row in values.tolist()]
    assert len(lines) == len(expected)
    wrong = [(got, want) for got, want in zip(lines, expected) if got != want]
    assert wrong == []


@pytest.mark.parametrize("nrows, ncols", [
    (2 * (CSV_BLOCK // 3) + 5, 3),   # two whole blocks of 341 rows and a part
    (CSV_BLOCK + 1, 1),
    (2, CSV_BLOCK + 3),              # rows wider than a block: one row a block
    (1, 2),
    (0, 2),
])
def test_bytes_match_per_value_formatting_across_blocks(tmp_path, nrows, ncols):
    rng = np.random.default_rng(nrows * 7 + ncols)
    values = rng.standard_normal((nrows, ncols)) * 10.0 ** rng.integers(-13, 14, (nrows, ncols))
    if nrows:
        values[-1, -1] = -123456789012.5   # a tie: the last block falls back for it
    columns = [f"c{i}" for i in range(ncols)]
    path = tmp_path / "t.csv"
    write_csv(str(path), columns, values, META)
    assert path.read_bytes() == _per_value_csv(columns, values.tolist()).encode("utf-8")


def test_traced_memory_does_not_grow_with_the_table(tmp_path):
    # Blocks of rows are formatted and written in turn. A table formatted whole
    # traces about 213 bytes a value: 4.3 MB at 2e4 values, 426 MB at 2e6.
    rng = np.random.default_rng(32)
    peaks = []
    for n in (20_000, 200_000, 2_000_000):
        values = (rng.standard_normal(n) * 10.0 ** rng.integers(-10, 12, n)).reshape(-1, 2)
        tracemalloc.start()
        try:
            write_csv(str(tmp_path / "t.csv"), ("a", "b"), values, META)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] < 1_000_000, n
    assert max(peaks) - min(peaks) < 64 * 1024, peaks


def test_a_table_whose_every_value_falls_back_is_exact(tmp_path):
    # out of the fast range, not finite, or an exact tie at the 12th digit
    rows = [[1e12, -1e-12, 5e-324], [1.5e300, -math.inf, math.nan],
            [123456789012.5, -999999999999.5, 2.5e-320]]
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b", "c"), rows, META)
    assert path.read_bytes() == _per_value_csv(("a", "b", "c"), rows).encode("utf-8")


def _bundled_tables():
    """Each CSV the table subcommands write on the bundled config, as the
    series of floats its columns hold, computed by the library."""
    text = resources.files("hybridgate").joinpath("data/paper.cfg").read_text()
    scn = load_scenario_text(text)
    levels = repro.levels_run(scn)
    tables = {f"levels_energy_f{s.f}_m{s.m}.csv": (levels.grid_g, e)
              for s, e in zip(levels.states, levels.energies_hz)}
    tables["levels_table.csv"] = (levels.grid_g, levels.transition_hz, levels.sensitivity_hz_per_g)
    raman = repro.raman_run(scn)
    pops = raman.trajectory.populations()
    tables["pulse_molecule_3level.csv"] = (raman.trajectory.times, pops[:, 2])
    tables["pulse_molecule_2level.csv"] = (raman.trajectory.times, raman.two_level_population)
    tables["pulse_excited_3level.csv"] = (raman.trajectory.times, pops[:, 1])
    tables["gate_phase_rad.csv"] = tuple(repro.gate_run(scn).phase_profile)
    values, curves = repro.sweep_curves(scn)
    for name, series in curves.items():
        tables[f"sweep_{name}.csv"] = (values, series)
    stirap = repro.stirap_run(scn)
    pops = stirap.trajectory.populations()
    for idx, name in enumerate(LAMBDA_LABELS):
        tables[f"stirap_{name}.csv"] = (stirap.trajectory.times, pops[:, idx])
    areas, runs = repro.stirap_area_sweep(scn)
    tables["stirap_efficiency.csv"] = (areas, [run.efficiency for run in runs])
    return tables


def test_bundled_tables_are_the_per_value_rendering_of_the_library_arrays(tmp_path, capsys):
    for cmd in ("levels", "pulse", "gate", "sweep", "stirap"):
        assert cli.main([cmd, "--out", str(tmp_path)]) == 0
    tables = _bundled_tables()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(tables)
    for name, series in tables.items():
        rows = np.column_stack(series).tolist()
        lines = (tmp_path / name).read_text().splitlines()[2:]
        assert lines == [",".join(f"{v:.11e}" for v in row) for row in rows], name


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


def test_a_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    path, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
    write_csv(str(path), ("a", "b"), np.arange(200.0).reshape(100, 2), META)
    write_csv(str(path), ("a", "b"), [[1.0, 2.0]], META)
    write_csv(str(fresh), ("a", "b"), [[1.0, 2.0]], META)
    assert path.read_bytes() == fresh.read_bytes()
    path, fresh = tmp_path / "r.json", tmp_path / "fresh.json"
    write_json(str(path), {"a": list(range(50)), "b": "x" * 100})
    write_json(str(path), {"a": 1})
    write_json(str(fresh), {"a": 1})
    assert path.read_bytes() == fresh.read_bytes()


def test_a_refused_table_or_report_leaves_the_old_file_untouched(tmp_path):
    ctx = cli.RunContext(out_dir=str(tmp_path), seed=0, config_hash="0")
    ctx.table("t.csv", ("x", "y"), [1.0, 2.0], [3.0, 4.0])
    before = (tmp_path / "t.csv").read_bytes()
    with pytest.raises(DomainError):
        ctx.table("t.csv", ("x", "y"), [1.0], [math.nan])
    assert (tmp_path / "t.csv").read_bytes() == before
    write_json(str(tmp_path / "r.json"), {"a": 1.0})
    before = (tmp_path / "r.json").read_bytes()
    with pytest.raises(DomainError):
        write_json(str(tmp_path / "r.json"), {"a": math.inf})
    assert (tmp_path / "r.json").read_bytes() == before


@pytest.mark.parametrize("rows, shape", [
    ([[1.0], [2.0]], "(2, 1)"),
    (np.zeros((2, 3)), "(2, 3)"),
    ([[1.0, 2.0], [3.0]], "inhomogeneous"),
    (np.arange(4.0), "(4,)"),
    ([[1.0, object()]], "'object'"),
])
def test_rows_that_do_not_fit_the_columns_are_refused_before_the_file_is_opened(
        tmp_path, rows, shape):
    write_csv(str(tmp_path / "t.csv"), ("a", "b"), [[1.0, 2.0]], META)
    before = (tmp_path / "t.csv").read_bytes()
    for name in ("t.csv", "new.csv"):
        with pytest.raises(DomainError, match=f"{name}: .*2 columns") as err:
            write_csv(str(tmp_path / name), ("a", "b"), rows, "# another header")
        assert shape in str(err.value)
    assert (tmp_path / "t.csv").read_bytes() == before
    assert not (tmp_path / "new.csv").exists()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_new_file_gets_the_mode_of_open_wb(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_csv(str(tmp_path / "t.csv"), ("a",), [[1.0]], META)
        write_json(str(tmp_path / "r.json"), {"a": 1.0})
        with open(tmp_path / "reference", "wb"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert mode == 0o666 & ~umask
    for name in ("t.csv", "r.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
