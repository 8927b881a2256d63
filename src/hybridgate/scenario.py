"""Scenario configuration for the command-line front end.

Config files are plain text: ``[section]`` headers followed by
``key = value`` lines; full-line comments start with ``#`` or ``;``.
Keys carry their unit as a suffix (``sigma_B_G``, ``separation_r_m``).
Every parse or validation problem raises ConfigError naming the offending
``[section] key``; so do a key that no setting reads and a repeated key or
section. One table, ``_KEYS``, declares each key's kind, default and bound.
"""

import math
import operator
from dataclasses import dataclass, replace
from functools import partial

from .budget import NoiseModel
from .dynamics import LambdaParams
from .errors import ConfigError, DomainError
from .gate import DipoleParams
from .hyperfine import SPECIES_PRESETS, AtomSpecies, HyperfineChannel, HyperfineState

_REQUIRED = object()

# Each sweep axis and the section that holds the config key of that name.
SWEEP_PARAMETERS = {"separation_r_m": "dipole", "b_G": "field", "sigma_B_G": "noise",
                    "omega_R_rad_s": "gate", "mu_permanent_D": "dipole"}


@dataclass(frozen=True)
class FieldConfig:
    b_gauss: float
    gradient_g_per_cm: float
    site_spacing_m: float
    resonance_width_g: float


@dataclass(frozen=True)
class QubitConfig:
    species: AtomSpecies
    upper: HyperfineState
    lower: HyperfineState


@dataclass(frozen=True)
class EnablerConfig:
    species: AtomSpecies
    storage: HyperfineState
    enabled: HyperfineState


@dataclass(frozen=True)
class StirapConfig:
    peak_rad_s: float
    rms_width_s: float
    separation_s: float
    delta_e_rad_s: float
    delta_rad_s: float


@dataclass(frozen=True)
class GateConfig:
    omega_r_rad_s: float
    enabler_rotation_s: float


@dataclass(frozen=True)
class ReadoutConfig:
    splitting_hz: float
    selectivity_factor: float


@dataclass(frozen=True)
class LevelsConfig:
    b_min_gauss: float
    b_max_gauss: float
    count: int


@dataclass(frozen=True)
class SweepConfig:
    parameter: str
    minimum: float
    maximum: float
    count: int


@dataclass(frozen=True)
class Scenario:
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
    mc_samples: int

    def qubit_channel_storage(self):
        """(qubit state, enabler storage) channels for |0> and |1>."""
        return (HyperfineChannel(self.qubit.species, self.qubit.lower,
                                 self.enabler.species, self.enabler.storage),
                HyperfineChannel(self.qubit.species, self.qubit.upper,
                                 self.enabler.species, self.enabler.storage))

    def qubit_channel_enabled(self):
        """(qubit state, enabler enabled) channels for |0'> and |1'>."""
        return (HyperfineChannel(self.qubit.species, self.qubit.lower,
                                 self.enabler.species, self.enabler.enabled),
                HyperfineChannel(self.qubit.species, self.qubit.upper,
                                 self.enabler.species, self.enabler.enabled))

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
            name = line[1:-1].strip()
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


def _noise(mc_samples, **noise):
    """The [noise] section holds the noise model and the Monte Carlo sample count."""
    return NoiseModel(**noise), mc_samples


def _atom_rows(*prefixes):
    """The species name, then f and m of each state."""
    return (("species", "species", str, _REQUIRED, None),
            *((f"{p}_{q}", f"{p}_{q}", int, _REQUIRED, None) for p in prefixes for q in "fm"))


# One row per config key: (record field, key, kind, default, bound), grouped by the
# section whose record they build (None: a dict; "species": each [species <name>]).
# A number read must be finite and meet its bound, "> x" or ">= x", if it has one.
_KEYS = {
    "species": (AtomSpecies, (
        ("nuclear_spin", "nuclear_spin", float, _REQUIRED, None),
        ("hyperfine_splitting_hz", "hyperfine_splitting_Hz", float, _REQUIRED, "> 0"),
        ("g_j", "g_J", float, _REQUIRED, None),
        ("g_i", "g_I", float, 0.0, None))),
    "qubit": (None, _atom_rows("upper", "lower")),
    "enabler": (None, _atom_rows("storage", "enabled")),
    "field": (FieldConfig, (
        ("b_gauss", "b_G", float, _REQUIRED, ">= 0"),
        ("gradient_g_per_cm", "gradient_G_per_cm", float, _REQUIRED, "> 0"),
        ("site_spacing_m", "site_spacing_m", float, _REQUIRED, "> 0"),
        ("resonance_width_g", "resonance_width_G", float, _REQUIRED, ">= 0"))),
    "raman": (LambdaParams, (
        ("omega_p_rad_s", "omega_p_rad_s", float, _REQUIRED, ">= 0"),
        ("omega_s_rad_s", "omega_s_rad_s", float, _REQUIRED, ">= 0"),
        ("delta_e_rad_s", "delta_e_rad_s", float, _REQUIRED, None),
        ("delta_rad_s", "delta_rad_s", float, 0.0, None),
        ("gamma_e_rad_s", "gamma_e_rad_s", float, 0.0, ">= 0"))),
    "stirap": (StirapConfig, (
        ("peak_rad_s", "peak_rad_s", float, _REQUIRED, "> 0"),
        ("rms_width_s", "rms_width_s", float, _REQUIRED, "> 0"),
        ("separation_s", "separation_s", float, _REQUIRED, "> 0"),
        ("delta_e_rad_s", "delta_e_rad_s", float, 0.0, None),
        ("delta_rad_s", "delta_rad_s", float, 0.0, None))),
    "dipole": (DipoleParams, (
        ("mu_permanent_debye", "mu_permanent_D", float, _REQUIRED, "> 0"),
        ("rotational_const_hz", "rotational_const_Hz", float, _REQUIRED, "> 0"),
        ("e_dc_v_per_m", "e_dc_V_per_m", float, _REQUIRED, "> 0"),
        ("separation_m", "separation_r_m", float, _REQUIRED, "> 0"),
        ("fopa_enhancement", "fopa_enhancement", float, 1.0, ">= 1"))),
    "gate": (GateConfig, (
        ("omega_r_rad_s", "omega_R_rad_s", float, _REQUIRED, "> 0"),
        ("enabler_rotation_s", "enabler_rotation_s", float, _REQUIRED, "> 0"))),
    "noise": (_noise, (
        ("sigma_b_gauss", "sigma_B_G", float, _REQUIRED, ">= 0"),
        ("gamma_inelastic_per_s", "gamma_inelastic_per_s", float, _REQUIRED, ">= 0"),
        ("trap_frequency_hz", "trap_frequency_Hz", float, _REQUIRED, "> 0"),
        ("seed", "seed", int, 0, ">= 0"),
        ("mc_samples", "mc_samples", int, 100000, ">= 1000"))),
    "readout": (ReadoutConfig, (
        ("splitting_hz", "splitting_Hz", float, _REQUIRED, "> 0"),
        ("selectivity_factor", "selectivity_factor", float, 1.0, "> 0"))),
    "levels": (LevelsConfig, (
        ("b_min_gauss", "b_min_G", float, 0.0, ">= 0"),
        ("b_max_gauss", "b_max_G", float, 1000.0, ">= 0"),
        ("count", "count", int, 101, ">= 1"))),
    "sweep": (SweepConfig, (
        ("parameter", "parameter", str, _REQUIRED, None),
        ("minimum", "min", float, _REQUIRED, None),
        ("maximum", "max", float, _REQUIRED, None),
        ("count", "count", int, _REQUIRED, ">= 2"))),
}

# Each bound text as a test of the value ("> x" is x < value), parsed once here.
_BOUNDS = {bound: partial({">": operator.lt, ">=": operator.le}[bound.split()[0]],
                          float(bound.split()[1]))
           for _, rows in _KEYS.values() for *_, bound in rows if bound}


def _record(sections, section, **fixed):
    """Build ``section``'s record from its table rows, removing each key read so that
    unread keys are left over. A ``fixed`` field that is not None replaces the value read."""
    record, rows = _KEYS[section.partition(" ")[0]]
    given = sections.get(section) or {}
    values = {}
    for field, key, kind, default, bound in rows:
        value = given.pop(key, default)
        if value is _REQUIRED:
            raise ConfigError("missing required key", key=f"[{section}] {key}")
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
    values.update({field: value for field, value in fixed.items() if value is not None})
    if record is None:
        return values
    try:
        return record(**values)
    except DomainError as exc:
        raise ConfigError(str(exc), key=f"[{section}]") from exc


def _atom_config(sections, section, catalog, record, state_prefixes):
    values = _record(sections, section)
    name = values["species"]
    if name not in catalog:
        raise ConfigError(f"unknown species {name!r}; define a [species {name}] section",
                          key=f"[{section}] species")
    species, states = catalog[name], []
    for prefix in state_prefixes:
        try:
            states.append(HyperfineState(values[f"{prefix}_f"], values[f"{prefix}_m"]))
            if states[-1].f not in (species.f_lower, species.f_upper):
                raise DomainError(f"f must be {species.f_lower} or {species.f_upper} "
                                  f"for {species.name}")
        except DomainError as exc:
            raise ConfigError(str(exc), key=f"[{section}] {prefix}_f/{prefix}_m") from exc
    return record(species, *states)


def load_scenario_text(text, seed_override=None):
    sections = parse_config_text(text)
    catalog = dict(SPECIES_PRESETS)
    for name in sections:
        if name.startswith("species "):
            label = name[len("species "):].strip()
            catalog[label] = _record(sections, name, name=label)

    qubit = _atom_config(sections, "qubit", catalog, QubitConfig, ("upper", "lower"))
    enabler = _atom_config(sections, "enabler", catalog, EnablerConfig, ("storage", "enabled"))
    records = {name: _record(sections, name) for name in
               ("field", "raman", "stirap", "dipole", "gate", "readout", "levels", "sweep")}
    noise, mc_samples = _record(sections, "noise", seed=seed_override)
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
    bound = next(row[4] for row in _KEYS[section][1] if row[1] == sweep.parameter)
    if not _BOUNDS[bound](sweep.minimum):
        raise ConfigError(f"must be {bound}, the bound of [{section}] {sweep.parameter}, "
                          f"got {sweep.minimum!r}", key="[sweep] min")

    unknown = [f"[{name}] {key}" for name, keys in sections.items() for key in keys]
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")

    return Scenario(qubit=qubit, enabler=enabler, noise=noise, mc_samples=mc_samples, **records)
