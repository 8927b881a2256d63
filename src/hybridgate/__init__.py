"""Deterministic calculators and few-level simulators for an atom/molecule
hybrid quantum-computing platform: hyperfine level structure and addressing,
Raman/STIRAP conversion dynamics, the dipole-dipole phase gate, and the
decoherence budget."""

__version__ = "0.1.0"

from .budget import (
    AdiabaticityResult,
    BudgetReport,
    NoiseModel,
    adiabaticity_check,
    assemble_budget,
    dephasing_time,
    inelastic_loss_probability,
    operations_budget,
    ramsey_contrast_mc,
    selective_readout_min_duration,
)
from .constants import (
    BOHR_MAGNETON_HZ_PER_G,
    debye_to_si,
)
from .dynamics import (
    EffectiveTwoLevel,
    LambdaParams,
    PulseEnvelope,
    Trajectory,
    TwoLevelParams,
    effective_rabi,
    integrate_schrodinger,
    pi_pulse_duration,
    two_level_population,
)
from .errors import (
    ConfigError,
    DomainError,
    HybridGateError,
    NumericalFailure,
    StepSizeError,
)
from .gate import (
    DipoleParams,
    GateSchedule,
    accumulated_phase_profile,
    build_gate_schedule,
    dipole_dipole_rate,
    induced_dipole,
    interaction_time_for_pi,
    phase_gate_fidelity,
    total_phase_closed_form,
)
from .hyperfine import (
    LI7,
    RB87,
    AtomSpecies,
    HyperfineChannel,
    HyperfineState,
    breit_rabi_energy,
    field_sensitivity,
    open_decay_channels,
    resonance_site_count,
    site_frequency_resolution,
    transition_frequency,
)
