"""Scenario configuration for the command-line front end.

Config files are plain text: ``[section]`` headers followed by
``key = value`` lines; full-line comments start with ``#`` or ``;``.
Keys carry their unit as a suffix (``sigma_B_G``, ``separation_r_m``).
Every parse or validation problem raises ConfigError naming the offending
``[section] key``; so do a key that no setting reads and a repeated key or
section.
"""

import math
from dataclasses import dataclass

from .budget import NoiseModel
from .dynamics import LambdaParams
from .errors import ConfigError, DomainError
from .gate import DipoleParams
from .hyperfine import SPECIES_PRESETS, AtomSpecies, HyperfineChannel, HyperfineState

_REQUIRED = object()

SWEEP_PARAMETERS = ("separation_r_m", "b_G", "sigma_B_G", "omega_R_rad_s", "mu_permanent_D")


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
        return LambdaParams(
            omega_p_rad_s=self.raman.omega_p_rad_s * self.dipole.fopa_enhancement,
            omega_s_rad_s=self.raman.omega_s_rad_s,
            delta_e_rad_s=self.raman.delta_e_rad_s,
            delta_rad_s=self.raman.delta_rad_s,
            gamma_e_rad_s=self.raman.gamma_e_rad_s,
        )


def parse_config_text(text):
    """Parse ``[section]`` / ``key = value`` lines into nested dicts."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
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


def _raw(sections, section, key, default=_REQUIRED):
    """Remove and return one key's text, so that unread keys are left over."""
    sec = sections.get(section)
    if sec is None or key not in sec:
        if default is _REQUIRED:
            raise ConfigError("missing required key", key=f"[{section}] {key}")
        return default
    return sec.pop(key)


def _float(sections, section, key, default=_REQUIRED, minimum=None, positive=False):
    raw = _raw(sections, section, key, default)
    if not isinstance(raw, str):
        return raw
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"not a number: {raw!r}", key=f"[{section}] {key}") from None
    if not math.isfinite(value):
        raise ConfigError(f"must be a finite number, got {value!r}", key=f"[{section}] {key}")
    if positive and not value > 0:
        raise ConfigError(f"must be > 0, got {value!r}", key=f"[{section}] {key}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value!r}", key=f"[{section}] {key}")
    return value


def _int(sections, section, key, default=_REQUIRED, minimum=None):
    raw = _raw(sections, section, key, default)
    if not isinstance(raw, str):
        return raw
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"not an integer: {raw!r}", key=f"[{section}] {key}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value!r}", key=f"[{section}] {key}")
    return value


def _str(sections, section, key, default=_REQUIRED):
    return _raw(sections, section, key, default)


def _species_catalog(sections):
    catalog = dict(SPECIES_PRESETS)
    for name in sections:
        if not name.startswith("species "):
            continue
        label = name[len("species "):].strip()
        try:
            catalog[label] = AtomSpecies(
                name=label,
                nuclear_spin=_float(sections, name, "nuclear_spin"),
                hyperfine_splitting_hz=_float(sections, name, "hyperfine_splitting_Hz", positive=True),
                g_j=_float(sections, name, "g_J"),
                g_i=_float(sections, name, "g_I", default=0.0),
            )
        except DomainError as exc:
            raise ConfigError(str(exc), key=f"[{name}]") from exc
    return catalog


def _state(sections, section, prefix, species):
    f = _int(sections, section, f"{prefix}_f")
    m = _int(sections, section, f"{prefix}_m")
    try:
        state = HyperfineState(f, m)
        if state.f not in (species.f_lower, species.f_upper):
            raise DomainError(f"f must be {species.f_lower} or {species.f_upper} for {species.name}")
    except DomainError as exc:
        raise ConfigError(str(exc), key=f"[{section}] {prefix}_f/{prefix}_m") from exc
    return state


def _atom_config(sections, section, catalog, state_prefixes):
    name = _str(sections, section, "species")
    species = catalog.get(name)
    if species is None:
        raise ConfigError(f"unknown species {name!r}; define a [species {name}] section",
                          key=f"[{section}] species")
    states = [_state(sections, section, prefix, species) for prefix in state_prefixes]
    return species, states


def load_scenario_text(text, seed_override=None):
    sections = parse_config_text(text)
    catalog = _species_catalog(sections)

    qubit_species, (upper, lower) = _atom_config(sections, "qubit", catalog, ("upper", "lower"))
    enabler_species, (storage, enabled) = _atom_config(sections, "enabler", catalog,
                                                       ("storage", "enabled"))

    field = FieldConfig(
        b_gauss=_float(sections, "field", "b_G", minimum=0.0),
        gradient_g_per_cm=_float(sections, "field", "gradient_G_per_cm", positive=True),
        site_spacing_m=_float(sections, "field", "site_spacing_m", positive=True),
        resonance_width_g=_float(sections, "field", "resonance_width_G", minimum=0.0),
    )

    try:
        raman = LambdaParams(
            omega_p_rad_s=_float(sections, "raman", "omega_p_rad_s", minimum=0.0),
            omega_s_rad_s=_float(sections, "raman", "omega_s_rad_s", minimum=0.0),
            delta_e_rad_s=_float(sections, "raman", "delta_e_rad_s"),
            delta_rad_s=_float(sections, "raman", "delta_rad_s", default=0.0),
            gamma_e_rad_s=_float(sections, "raman", "gamma_e_rad_s", default=0.0),
        )
    except DomainError as exc:
        raise ConfigError(str(exc), key="[raman]") from exc

    stirap = StirapConfig(
        peak_rad_s=_float(sections, "stirap", "peak_rad_s", positive=True),
        rms_width_s=_float(sections, "stirap", "rms_width_s", positive=True),
        separation_s=_float(sections, "stirap", "separation_s", positive=True),
        delta_e_rad_s=_float(sections, "stirap", "delta_e_rad_s", default=0.0),
        delta_rad_s=_float(sections, "stirap", "delta_rad_s", default=0.0),
    )

    try:
        dipole = DipoleParams(
            mu_permanent_debye=_float(sections, "dipole", "mu_permanent_D", positive=True),
            rotational_const_hz=_float(sections, "dipole", "rotational_const_Hz", positive=True),
            e_dc_v_per_m=_float(sections, "dipole", "e_dc_V_per_m", positive=True),
            separation_m=_float(sections, "dipole", "separation_r_m", positive=True),
            fopa_enhancement=_float(sections, "dipole", "fopa_enhancement", default=1.0),
        )
    except DomainError as exc:
        raise ConfigError(str(exc), key="[dipole]") from exc

    gate = GateConfig(
        omega_r_rad_s=_float(sections, "gate", "omega_R_rad_s", positive=True),
        enabler_rotation_s=_float(sections, "gate", "enabler_rotation_s", positive=True),
    )

    seed = _int(sections, "noise", "seed", default=0, minimum=0)
    if seed_override is not None:
        seed = seed_override
    try:
        noise = NoiseModel(
            sigma_b_gauss=_float(sections, "noise", "sigma_B_G", minimum=0.0),
            gamma_inelastic_per_s=_float(sections, "noise", "gamma_inelastic_per_s", minimum=0.0),
            trap_frequency_hz=_float(sections, "noise", "trap_frequency_Hz", positive=True),
            seed=seed,
        )
    except DomainError as exc:
        raise ConfigError(str(exc), key="[noise]") from exc
    mc_samples = _int(sections, "noise", "mc_samples", default=100000, minimum=1000)

    readout = ReadoutConfig(
        splitting_hz=_float(sections, "readout", "splitting_Hz", positive=True),
        selectivity_factor=_float(sections, "readout", "selectivity_factor", default=1.0,
                                  positive=True),
    )

    levels = LevelsConfig(
        b_min_gauss=_float(sections, "levels", "b_min_G", default=0.0, minimum=0.0),
        b_max_gauss=_float(sections, "levels", "b_max_G", default=1000.0, minimum=0.0),
        count=_int(sections, "levels", "count", default=101, minimum=1),
    )
    if levels.count > 1 and not levels.b_max_gauss > levels.b_min_gauss:
        raise ConfigError("b_max_G must exceed b_min_G for a multi-point grid",
                          key="[levels] b_max_G")

    sweep = SweepConfig(
        parameter=_str(sections, "sweep", "parameter"),
        minimum=_float(sections, "sweep", "min"),
        maximum=_float(sections, "sweep", "max"),
        count=_int(sections, "sweep", "count", minimum=2),
    )
    if sweep.parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {sweep.parameter!r}; "
                          f"choose one of {SWEEP_PARAMETERS}", key="[sweep] parameter")
    if not sweep.maximum > sweep.minimum:
        raise ConfigError("max must exceed min", key="[sweep] max")
    if sweep.parameter == "b_G" and not sweep.minimum >= 0:
        raise ConfigError(f"min must be >= 0 for b_G, got {sweep.minimum!r}", key="[sweep] min")
    if sweep.parameter != "b_G" and not sweep.minimum > 0:
        raise ConfigError(f"min must be > 0 for {sweep.parameter}", key="[sweep] min")

    unknown = [f"[{name}] {key}" for name, keys in sections.items() for key in keys]
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")

    return Scenario(field=field,
                    qubit=QubitConfig(qubit_species, upper, lower),
                    enabler=EnablerConfig(enabler_species, storage, enabled),
                    raman=raman, stirap=stirap, dipole=dipole, gate=gate,
                    noise=noise, readout=readout, levels=levels, sweep=sweep,
                    mc_samples=mc_samples)
