"""Scenario configuration for the command-line front end.

Config files are plain text: ``[section]`` headers followed by
``key = value`` lines; full-line comments start with ``#`` or ``;``.
Keys carry their unit as a suffix (``sigma_B_G``, ``separation_r_m``).
Every parse or validation problem raises ConfigError naming the offending
``[section] key``; so do a key that no setting reads and a repeated key or
section. One table, ``_KEYS``, names each key's record field; the record class
declares the field's kind (its annotation), its default and its bound.
"""

from .budget import NoiseModel
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
    _bounds = {"b_gauss": ">= 0", "gradient_g_per_cm": "> 0", "site_spacing_m": "> 0",
               "resonance_width_g": ">= 0"}


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
    _bounds = {"peak_rad_s": "> 0", "rms_width_s": "> 0", "separation_s": "> 0",
               "delta_e_rad_s": None, "delta_rad_s": None}


class GateConfig(Record):
    omega_r_rad_s: float
    enabler_rotation_s: float
    _bounds = {"omega_r_rad_s": "> 0", "enabler_rotation_s": "> 0"}


class ReadoutConfig(Record):
    splitting_hz: float
    selectivity_factor: float = 1.0
    _bounds = {"splitting_hz": "> 0", "selectivity_factor": "> 0"}


class LevelsConfig(Record):
    b_min_gauss: float = 0.0
    b_max_gauss: float = 1000.0
    count: int = 101
    _bounds = {"b_min_gauss": ">= 0", "b_max_gauss": ">= 0", "count": ">= 1, <= 10000000"}

    def __post_init__(self):
        if self.count > 1 and not self.b_max_gauss > self.b_min_gauss:
            raise ConfigError("b_max_G must exceed b_min_G for a multi-point grid",
                              key="[levels] b_max_G")


class SweepConfig(Record):
    parameter: str
    minimum: float
    maximum: float
    count: int
    _bounds = {"minimum": None, "maximum": None, "count": ">= 2, <= 1000000"}

    def __post_init__(self):
        if not (section := SWEEP_PARAMETERS.get(self.parameter)):
            raise ConfigError(f"unknown sweep parameter {self.parameter!r}; "
                              f"choose one of {tuple(SWEEP_PARAMETERS)}", key="[sweep] parameter")
        if not self.maximum > self.minimum:
            raise ConfigError("max must exceed min", key="[sweep] max")
        record, rows = _KEYS[section]
        field = next(field for field, key in rows if key == self.parameter)
        if record.bound_problem(field, self.minimum):   # every swept key's bound is a lower one
            raise ConfigError(f"must be {record._bounds[field]}, the bound of [{section}] "
                              f"{self.parameter}, got {self.minimum!r}", key="[sweep] min")


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
    _bounds = dict.fromkeys(("f0", "m0", "f1", "m1"))


def _atom_rows(record):
    """The rows of ``record``'s section: species, then f and m of each state field."""
    _, *states = record._fields
    return (("species", "species"),
            *((f"{q}{i}", f"{state}_{q}") for i, state in enumerate(states) for q in "fm"))


# One row per config key: (record field, key), grouped by the section whose record
# they build ("species": each [species <name>]). The record class declares each
# field's kind, float, int or str, as its annotation, its default, if the key has one,
# and, for a float or int field, its bound in ``_bounds``: a number read must be
# finite and meet it.
_KEYS = {
    "species": (AtomSpecies, (
        ("nuclear_spin", "nuclear_spin"),
        ("hyperfine_splitting_hz", "hyperfine_splitting_Hz"),
        ("g_j", "g_J"),
        ("g_i", "g_I"))),
    "qubit": (_AtomKeys, _atom_rows(QubitConfig)),
    "enabler": (_AtomKeys, _atom_rows(EnablerConfig)),
    "field": (FieldConfig, (
        ("b_gauss", "b_G"),
        ("gradient_g_per_cm", "gradient_G_per_cm"),
        ("site_spacing_m", "site_spacing_m"),
        ("resonance_width_g", "resonance_width_G"))),
    "raman": (LambdaParams, (
        ("omega_p_rad_s", "omega_p_rad_s"),
        ("omega_s_rad_s", "omega_s_rad_s"),
        ("delta_e_rad_s", "delta_e_rad_s"),
        ("delta_rad_s", "delta_rad_s"),
        ("gamma_e_rad_s", "gamma_e_rad_s"))),
    "stirap": (StirapConfig, (
        ("peak_rad_s", "peak_rad_s"),
        ("rms_width_s", "rms_width_s"),
        ("separation_s", "separation_s"),
        ("delta_e_rad_s", "delta_e_rad_s"),
        ("delta_rad_s", "delta_rad_s"))),
    "dipole": (DipoleParams, (
        ("mu_permanent_debye", "mu_permanent_D"),
        ("rotational_const_hz", "rotational_const_Hz"),
        ("e_dc_v_per_m", "e_dc_V_per_m"),
        ("separation_m", "separation_r_m"),
        ("fopa_enhancement", "fopa_enhancement"))),
    "gate": (GateConfig, (
        ("omega_r_rad_s", "omega_R_rad_s"),
        ("enabler_rotation_s", "enabler_rotation_s"))),
    "noise": (NoiseModel, (
        ("sigma_b_gauss", "sigma_B_G"),
        ("gamma_inelastic_per_s", "gamma_inelastic_per_s"),
        ("trap_frequency_hz", "trap_frequency_Hz"),
        ("seed", "seed"),
        ("mc_samples", "mc_samples"))),
    "readout": (ReadoutConfig, (
        ("splitting_hz", "splitting_Hz"),
        ("selectivity_factor", "selectivity_factor"))),
    "levels": (LevelsConfig, (
        ("b_min_gauss", "b_min_G"),
        ("b_max_gauss", "b_max_G"),
        ("count", "count"))),
    "sweep": (SweepConfig, (
        ("parameter", "parameter"),
        ("minimum", "min"),
        ("maximum", "max"),
        ("count", "count"))),
}


def _record(sections, section, **fixed):
    """Build ``section``'s record from its table rows, removing each key read so that
    unread keys are left over. An omitted key takes its field's default. A ``fixed``
    field replaces the value read."""
    record, rows = _KEYS[section.partition(" ")[0]]
    given = sections.get(section) or {}
    values = {}
    for field, key in rows:
        if key not in given and field not in record._defaults:
            raise ConfigError("missing required key", key=f"[{section}] {key}")
        kind, value = record._fields[field], given.pop(key, record._defaults.get(field))
        if kind is not str and isinstance(value, str):
            try:
                value = kind(value)
            except ValueError:
                what = "a number" if kind is float else "an integer"
                raise ConfigError(f"not {what}: {value!r}", key=f"[{section}] {key}") from None
            if problem := record.bound_problem(field, value):
                raise ConfigError(problem, key=f"[{section}] {key}")
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
    unknown = [f"[{name}] {key}" for name, keys in sections.items() for key in keys]
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")

    return Scenario(qubit=qubit, enabler=enabler, **records)
