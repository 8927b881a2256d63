"""Every record class of the package behaves as a frozen value type: fixed fields,
validation on construction and on replace, arrays held read-only and tuples for
lists, an equality that never raises (arrays by ``np.array_equal``), hashing for
records without arrays (a record holding one is unhashable), and the
``Name(field=value!r, ...)`` repr."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import hybridgate
from hybridgate import budget, cli, dynamics, gate, hyperfine, repro, scenario
from hybridgate.errors import DomainError
from hybridgate.hyperfine import HyperfineState
from hybridgate.record import FrozenRecordError, Record, fields, replace

_TEXT = resources.files("hybridgate").joinpath("data/paper.cfg").read_text(encoding="utf-8")
_SCN = scenario.load_scenario_text(_TEXT)


def _examples():
    """One instance of every record class, each from the bundled scenario, its config or
    its runs."""
    raman, gate_run = repro.raman_run(_SCN), repro.gate_run(_SCN)
    budget_run = repro.budget_run(_SCN)
    st = _SCN.stirap
    pulse = dynamics.PulseEnvelope(st.peak_rad_s, st.separation_s, st.rms_width_s)
    records = [_SCN, *fields(_SCN).values(), _SCN.qubit.species, _SCN.qubit.upper,
               _SCN.qubit_channels("storage")[0], repro.levels_run(_SCN), raman, raman.reduction,
               raman.drive, raman.trajectory, repro.stirap_run(_SCN), pulse,
               gate_run, gate_run.induced, gate_run.schedule, gate_run.schedule.steps[0], budget_run, budget_run.report,
               budget.adiabaticity_check(1e-5, 1e6), cli.RunContext("out", 0, "0"),
               scenario._record(scenario.parse_config_text(_TEXT), "qubit")]
    return {type(record): record for record in records if isinstance(record, Record)}


EXAMPLES = _examples()

# A value out of range for one field of each class that validates its fields.
OUT_OF_RANGE = {
    budget.NoiseModel: ("sigma_b_gauss", 0.0),
    dynamics.TwoLevelParams: ("omega_r_rad_s", -1.0),
    dynamics.LambdaParams: ("gamma_e_rad_s", -1.0),
    dynamics.PulseEnvelope: ("rms_width_s", 0.0),
    gate.DipoleParams: ("separation_m", 0.0),
    gate.Step: ("duration_s", 0.0),
    gate.GateSchedule: ("steps", tuple(reversed(EXAMPLES[gate.GateSchedule].steps))),
    hyperfine.AtomSpecies: ("nuclear_spin", 0.7),
    hyperfine.HyperfineState: ("m", 5),
    hyperfine.HyperfineChannel: ("state_a", HyperfineState(3, 0)),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_examples_cover_every_record_class_of_the_package():
    package = {cls for cls in _subclasses(Record) if cls.__module__.startswith("hybridgate.")}
    assert set(EXAMPLES) == package
    assert len(package) == 31
    assert set(OUT_OF_RANGE) <= package


@pytest.mark.parametrize("cls", sorted(EXAMPLES, key=lambda c: (c.__module__, c.__qualname__)),
                         ids=lambda c: c.__qualname__)
def test_record_class(cls):
    record = EXAMPLES[cls]
    names = list(cls.__annotations__)
    values = [getattr(record, name) for name in names]
    assert list(fields(record)) == names
    assert list(fields(record).values()) == values

    # frozen: no field, and no other attribute, can be assigned or deleted
    for name in names:
        with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, values[0])
        with pytest.raises(FrozenRecordError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(FrozenRecordError):
        record.extra = 1
    assert issubclass(FrozenRecordError, AttributeError)

    # positional and keyword construction, and replace, give equal records
    same = cls(*values)
    assert same == record and not same != record
    assert cls(**dict(zip(names, values))) == record
    assert replace(record) == record
    assert (record == tuple(values)) is False
    assert record.__eq__(tuple(values)) is NotImplemented
    try:
        hash(tuple(values))
    except TypeError:   # an array field: unhashable, as a frozen dataclass is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(same) == hash(record)

    # repr in the dataclass format, field by field
    pairs = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__qualname__}({pairs})"

    # a missing (where the first field has no default), unknown, repeated or surplus argument
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    if names[0] not in defaults:
        with pytest.raises(TypeError, match=f"missing required argument.*'{names[0]}'"):
            cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match=f"takes {len(names)} arguments"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        replace(record, not_a_field=1)

    # defaults apply to the fields that have one, and only to them
    built = cls(*values[:len(names) - len(defaults)])
    assert {name: getattr(built, name) for name in defaults} == defaults

    # replace re-runs validation: an out-of-range value fails as in the constructor
    if cls in OUT_OF_RANGE:
        name, bad = OUT_OF_RANGE[cls]
        with pytest.raises(DomainError) as by_constructor:
            cls(**{**dict(zip(names, values)), name: bad})
        with pytest.raises(DomainError) as by_replace:
            replace(record, **{name: bad})
        assert str(by_replace.value) == str(by_constructor.value)
        assert getattr(record, name) is not bad


def test_replace_changes_only_the_given_fields():
    state = HyperfineState(2, 1)
    moved = replace(state, m=-1)
    assert (state.f, state.m, moved.f, moved.m) == (2, 1, 2, -1)


def test_hyperfine_state_is_a_dict_key():
    table = {state: state.label() for state in hyperfine.all_states(hyperfine.RB87)}
    assert table[HyperfineState(2, -1)] == "|2,-1>"
    assert len(table) == 8 and HyperfineState(1, 1) in table


def test_pulse_envelope_bounds_are_no_fields():
    center, width = 1e-4, 3e-5
    read = dynamics.PulseEnvelope(2e6, center, width)
    start = center - dynamics.GAUSSIAN_CUTOFF_SIGMAS * width
    assert read.start_s == start
    assert read.end_s == start + 2.0 * dynamics.GAUSSIAN_CUTOFF_SIGMAS * width
    fresh = dynamics.PulseEnvelope(2e6, center, width)
    assert read == fresh and hash(read) == hash(fresh)
    assert list(fields(read)) == ["peak_rad_s", "center_s", "rms_width_s"]
    assert repr(read) == repr(fresh) == "PulseEnvelope(peak_rad_s=2000000.0, center_s=0.0001, " \
                                        "rms_width_s=3e-05)"
    moved = replace(read, center_s=2e-4)
    assert moved.start_s == 2e-4 - dynamics.GAUSSIAN_CUTOFF_SIGMAS * width


def test_pulse_envelope_holds_only_its_fields_after_evaluation():
    envelope = dynamics.PulseEnvelope(2e6, 1e-4, 3e-5)
    envelope.value(np.linspace(0.0, 2e-4, 5))
    envelope.value(1e-4)
    assert list(vars(envelope)) == list(fields(envelope))


def test_a_record_class_needs_fields_in_default_order():
    with pytest.raises(TypeError, match="declares no fields"):
        type("Empty", (Record,), {})
    with pytest.raises(TypeError, match="without a default follows"):
        type("Unordered", (Record,), {"__annotations__": {"a": int, "b": int}, "a": 0})


def test_a_record_class_is_not_subclassed():
    with pytest.raises(TypeError, match="HyperfineState cannot be subclassed"):
        type("Sub", (HyperfineState,), {"__annotations__": {"extra": int}})


def test_importing_the_cli_imports_no_dataclasses():
    src = str(Path(hybridgate.__file__).resolve().parents[1])
    code = "import sys, hybridgate.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


SUBCOMMANDS = ("levels", "pulse", "stirap", "gate", "budget", "sweep", "paper-repro")


def _arrays(value):
    """Every array reachable from ``value`` through record fields and tuple items."""
    if isinstance(value, Record):
        for item in fields(value).values():
            yield from _arrays(item)
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, np.ndarray):
        yield value


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_array_a_subcommand_holds_refuses_a_write(command, tmp_path, monkeypatch):
    built, init = [], Record.__init__

    def init_and_keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Record, "__init__", init_and_keep)
    assert cli.main([command, "--out", str(tmp_path)]) == 0
    arrays = [array for record in built for array in _arrays(record)]
    # budget builds the gate schedule without its phase profile, and sweep's
    # records hold no array either
    assert bool(arrays) == (command not in ("budget", "sweep"))
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def _bumped(array):
    """A writable copy of ``array`` with its last element changed."""
    out = np.array(array)
    out.flat[-1] += 1.0
    return out


# Each stage run, and a change of one array reachable from its record.
STAGE_RUNS = {
    "levels": (repro.levels_run, lambda run: replace(run, energies_hz=_bumped(run.energies_hz))),
    "raman": (repro.raman_run,
              lambda run: replace(run, two_level_population=_bumped(run.two_level_population))),
    "stirap": (repro.stirap_run, lambda run: replace(run, trajectory=replace(
        run.trajectory, amplitudes=_bumped(run.trajectory.amplitudes)))),
    "gate": (repro.gate_run, lambda run: replace(
        run, phase_profile=(run.phase_profile[0], _bumped(run.phase_profile[1])))),
}


@pytest.mark.parametrize("stage", STAGE_RUNS)
def test_two_runs_of_a_stage_compare_equal_and_a_changed_array_unequal(stage):
    run_stage, change_one_array = STAGE_RUNS[stage]
    first, second = run_stage(_SCN), run_stage(_SCN)
    assert (first == second) is True and (first != second) is False
    changed = change_one_array(first)
    assert (changed == first) is False and (first == changed) is False
    assert (changed != second) is True


def test_a_record_holds_arrays_read_only_and_lists_as_tuples():
    t_grid = np.linspace(0.0, 1.0, 11)
    traj = dynamics.integrate_schrodinger(
        lambda t: np.zeros(np.shape(t) + (2, 2), dtype=complex), np.array([1.0, 0.0j]), t_grid)
    assert t_grid.flags.writeable and not traj.times.flags.writeable
    times = np.arange(3.0)
    held = dynamics.Trajectory(times, np.ones((3, 1)))
    assert held.times.base is times and not held.times.flags.writeable and times.flags.writeable
    assert dynamics.Trajectory(held.times, held.amplitudes).times is held.times   # as given
    run = replace(repro.gate_run(_SCN), phase_profile=[np.ones(2), [0.5]])
    assert run.phase_profile.__class__ is tuple and not run.phase_profile[0].flags.writeable
    assert run.phase_profile[1] == (0.5,)
    assert gate.GateSchedule(list(EXAMPLES[gate.GateSchedule].steps)) == EXAMPLES[gate.GateSchedule]


def test_equality_of_records_holding_arrays_never_raises():
    nan = dynamics.Trajectory(np.array([0.0, np.nan]), np.ones((2, 1)))
    assert nan == nan and nan == replace(nan)     # the same arrays
    assert nan != dynamics.Trajectory(np.array([0.0, np.nan]), np.ones((2, 1)))   # nan != nan
    longer = dynamics.Trajectory(np.arange(3.0), np.ones((3, 1)))
    assert longer != replace(longer, times=np.arange(2.0))     # shapes differ
    assert longer != replace(longer, times=0.0)                # an array against a float
    with pytest.raises(TypeError, match="unhashable"):
        hash(longer)
