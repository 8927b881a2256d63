"""Scenario configuration for the command-line front end.

Config files are plain text: ``[section]`` headers followed by
``key = value`` lines; full-line comments start with ``#`` or ``;``.
Keys carry their unit as a suffix (``sigma_B_G``, ``separation_r_m``).
Every parse or validation problem raises ConfigError naming the offending
``[section] key``; so do a key that no setting reads and a repeated key or
section. One table, ``_KEYS``, names each key's record field and bound; the
record class declares the field's kind (its annotation) and default.
"""

import math
import operator
from functools import partial

from .budget import MC_MAX_SAMPLES, MC_MIN_SAMPLES, NoiseModel
from .dynamics import LambdaParams
from .errors import ConfigError, DomainError
from .gate import DipoleParams
from .hyperfine import SPECIES_PRESETS, AtomSpecies, HyperfineChannel, HyperfineState, require_valid_state
from .record import Record, fields, replace

# Each sweep axis and the section that holds the config key of that name.
SWEEP_PARAMETERS = {"separation_r_m": "dipole", "b_G": "field", "sigma_B_G": "noise",
                    "omega_R_rad_s": "gate", "mu_permanent_D": "dipole"}


class FieldConfig(Record):
    b_gauss: float
    gradient_g_per_cm: float
    site_spacing_m: float
    resonance_width_g: float


class QubitConfig(Record):
    species: AtomSpecies
    upper: HyperfineState
    lower: HyperfineState


class EnablerConfig(Record):
    species: AtomSpecies
    storage: HyperfineState
    enabled: HyperfineState


class StirapConfig(Record):
    peak_rad_s: float
    rms_width_s: float
    separation_s: float
    delta_e_rad_s: float = 0.0
    delta_rad_s: float = 0.0


class GateConfig(Record):
    omega_r_rad_s: float
    enabler_rotation_s: float


class ReadoutConfig(Record):
    splitting_hz: float
    selectivity_factor: float = 1.0


class LevelsConfig(Record):
    b_min_gauss: float = 0.0
    b_max_gauss: float = 1000.0
    count: int = 101


class SweepConfig(Record):
    parameter: str
    minimum: float
    maximum: float
    count: int


class Scenario(Record):
    field: FieldConfig
    qubit: QubitConfig
    enabler: EnablerConfig
    raman: LambdaParams
    stirap: StirapConfig
    dipole: DipoleParams
    gate: GateConfig
    noise: NoiseModel
    readout: ReadoutConfig
    levels: LevelsConfig
    sweep: SweepConfig

    @property
    def mc_samples(self):   # read by the benchmark's tests; the count lives on the noise model
        return self.noise.mc_samples

    def qubit_channels(self, enabler_state):
        """The |0> and |1> channels with the enabler in its "storage" or "enabled" state."""
        enabler = getattr(self.enabler, enabler_state)
        return tuple(HyperfineChannel(self.qubit.species, state, self.enabler.species, enabler)
                     for state in (self.qubit.lower, self.qubit.upper))

    def raman_effective(self):
        """Raman drive with the Feshbach enhancement applied to the pump."""
        return replace(self.raman,
                       omega_p_rad_s=self.raman.omega_p_rad_s * self.dipole.fopa_enhancement)


def parse_config_text(text):
    """Parse ``[section]`` / ``key = value`` lines into nested dicts."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = " ".join(line[1:-1].split())
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"line {lineno}: repeated section", key=f"[{name}]")
            current = sections[name] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in current:
            raise ConfigError(f"line {lineno}: repeated key", key=f"[{name}] {key}")
        current[key] = value
    return sections


class _AtomKeys(Record):
    """The keys of [qubit] or [enabler]: the species name, then f and m of two states."""

    species: str
    f0: int
    m0: int
    f1: int
    m1: int


def _atom_rows(record):
    """The rows of ``record``'s section: species, then f and m of each state field."""
    _, *states = record._fields
    return (("species", "species", None),
            *((f"{q}{i}", f"{state}_{q}", None) for i, state in enumerate(states) for q in "fm"))


# One row per config key: (record field, key, bound), grouped by the section whose
# record they build ("species": each [species <name>]). The record class declares each
# field's kind, float, int or str, as its annotation, and its default, if the key has
# one. A number read must be finite and meet its bound, if it has one: "> x", ">= x", or
# for a count that sets the work of a run, ">= x, <= y".
_KEYS = {
    "species": (AtomSpecies, (
        ("nuclear_spin", "nuclear_spin", None),
        ("hyperfine_splitting_hz", "hyperfine_splitting_Hz", "> 0"),
        ("g_j", "g_J", None),
        ("g_i", "g_I", None))),
    "qubit": (_AtomKeys, _atom_rows(QubitConfig)),
    "enabler": (_AtomKeys, _atom_rows(EnablerConfig)),
    "field": (FieldConfig, (
        ("b_gauss", "b_G", ">= 0"),
        ("gradient_g_per_cm", "gradient_G_per_cm", "> 0"),
        ("site_spacing_m", "site_spacing_m", "> 0"),
        ("resonance_width_g", "resonance_width_G", ">= 0"))),
    "raman": (LambdaParams, (
        ("omega_p_rad_s", "omega_p_rad_s", ">= 0"),
        ("omega_s_rad_s", "omega_s_rad_s", ">= 0"),
        ("delta_e_rad_s", "delta_e_rad_s", None),
        ("delta_rad_s", "delta_rad_s", None),
        ("gamma_e_rad_s", "gamma_e_rad_s", ">= 0"))),
    "stirap": (StirapConfig, (
        ("peak_rad_s", "peak_rad_s", "> 0"),
        ("rms_width_s", "rms_width_s", "> 0"),
        ("separation_s", "separation_s", "> 0"),
        ("delta_e_rad_s", "delta_e_rad_s", None),
        ("delta_rad_s", "delta_rad_s", None))),
    "dipole": (DipoleParams, (
        ("mu_permanent_debye", "mu_permanent_D", "> 0"),
        ("rotational_const_hz", "rotational_const_Hz", "> 0"),
        ("e_dc_v_per_m", "e_dc_V_per_m", "> 0"),
        ("separation_m", "separation_r_m", "> 0"),
        ("fopa_enhancement", "fopa_enhancement", ">= 1"))),
    "gate": (GateConfig, (
        ("omega_r_rad_s", "omega_R_rad_s", "> 0"),
        ("enabler_rotation_s", "enabler_rotation_s", "> 0"))),
    "noise": (NoiseModel, (
        ("sigma_b_gauss", "sigma_B_G", "> 0"),
        ("gamma_inelastic_per_s", "gamma_inelastic_per_s", ">= 0"),
        ("trap_frequency_hz", "trap_frequency_Hz", "> 0"),
        ("seed", "seed", ">= 0"),
        ("mc_samples", "mc_samples", f">= {MC_MIN_SAMPLES}, <= {MC_MAX_SAMPLES}"))),
    "readout": (ReadoutConfig, (
        ("splitting_hz", "splitting_Hz", "> 0"),
        ("selectivity_factor", "selectivity_factor", "> 0"))),
    "levels": (LevelsConfig, (
        ("b_min_gauss", "b_min_G", ">= 0"),
        ("b_max_gauss", "b_max_G", ">= 0"),
        ("count", "count", ">= 1, <= 10000000"))),
    "sweep": (SweepConfig, (
        ("parameter", "parameter", None),
        ("minimum", "min", None),
        ("maximum", "max", None),
        ("count", "count", ">= 2, <= 1000000"))),
}

_SIDES = {">": operator.lt, ">=": operator.le, "<=": operator.ge}


def _bound_test(bound):
    """``bound`` as a test of the value: "> x" is x < value, and a value meets
    ">= x, <= y" when it meets both sides."""
    sides = [partial(_SIDES[op], float(limit)) for op, limit in map(str.split, bound.split(", "))]
    return lambda value: all(side(value) for side in sides)


# Each bound text as a test of the value, parsed once here.
_BOUNDS = {bound: _bound_test(bound) for _, rows in _KEYS.values() for *_, bound in rows if bound}


def _record(sections, section, **fixed):
    """Build ``section``'s record from its table rows, removing each key read so that
    unread keys are left over. An omitted key takes its field's default. A ``fixed``
    field replaces the value read."""
    record, rows = _KEYS[section.partition(" ")[0]]
    given = sections.get(section) or {}
    values = {}
    for field, key, bound in rows:
        if key not in given and field not in record._defaults:
            raise ConfigError("missing required key", key=f"[{section}] {key}")
        kind, value = record._fields[field], given.pop(key, record._defaults.get(field))
        if kind is not str and isinstance(value, str):
            try:
                value = kind(value)
            except ValueError:
                what = "a number" if kind is float else "an integer"
                raise ConfigError(f"not {what}: {value!r}", key=f"[{section}] {key}") from None
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"must be a finite number, got {value!r}",
                                  key=f"[{section}] {key}")
            if bound and not _BOUNDS[bound](value):
                raise ConfigError(f"must be {bound}, got {value!r}", key=f"[{section}] {key}")
        values[field] = value
    values.update(fixed)
    try:
        return record(**values)
    except DomainError as exc:
        raise ConfigError(str(exc), key=f"[{section}]") from exc


def _atom_config(sections, section, catalog, record):
    name, *numbers = fields(_record(sections, section)).values()
    if name not in catalog:
        raise ConfigError(f"unknown species {name!r}; define a [species {name}] section",
                          key=f"[{section}] species")
    species, states = catalog[name], []
    for prefix, f, m in zip(list(record._fields)[1:], numbers[::2], numbers[1::2]):
        try:
            states.append(HyperfineState(f, m))
            require_valid_state(species, states[-1])
        except DomainError as exc:
            raise ConfigError(str(exc), key=f"[{section}] {prefix}_f/{prefix}_m") from exc
    return record(species, *states)


def load_scenario_text(text):
    sections = parse_config_text(text)
    catalog = dict(SPECIES_PRESETS)
    for name in sections:
        if name.startswith("species "):
            label = name[len("species "):]
            catalog[label] = _record(sections, name, name=label)

    qubit = _atom_config(sections, "qubit", catalog, QubitConfig)
    enabler = _atom_config(sections, "enabler", catalog, EnablerConfig)
    records = {name: _record(sections, name) for name in ("field", "raman", "stirap", "dipole",
               "gate", "noise", "readout", "levels", "sweep")}
    levels, sweep = records["levels"], records["sweep"]
    if levels.count > 1 and not levels.b_max_gauss > levels.b_min_gauss:
        raise ConfigError("b_max_G must exceed b_min_G for a multi-point grid",
                          key="[levels] b_max_G")

    if sweep.parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {sweep.parameter!r}; "
                          f"choose one of {tuple(SWEEP_PARAMETERS)}", key="[sweep] parameter")
    if not sweep.maximum > sweep.minimum:
        raise ConfigError("max must exceed min", key="[sweep] max")
    section = SWEEP_PARAMETERS[sweep.parameter]
    bound = next(bound for _, key, bound in _KEYS[section][1] if key == sweep.parameter)
    if not _BOUNDS[bound](sweep.minimum):
        raise ConfigError(f"must be {bound}, the bound of [{section}] {sweep.parameter}, "
                          f"got {sweep.minimum!r}", key="[sweep] min")

    unknown = [f"[{name}] {key}" for name, keys in sections.items() for key in keys]
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")

    return Scenario(qubit=qubit, enabler=enabler, **records)
