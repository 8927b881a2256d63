"""Dipole-dipole phase gate: interaction strength, accumulated phase,
schedule assembly and the resulting two-qubit unitary.

The canonical interaction quantity is the angular rate
omega_dd = mu_ind^2 / (4*pi*eps0 * r^3 * hbar) [rad/s]; the interaction
energy in joules never appears downstream of ``dipole_dipole_rate``.
Molecules are assumed aligned along the field (angular coefficient 1).
Built schedules always include both enabler rotations (enabler_rotation_s).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import FOUR_PI_EPSILON0, HBAR_J_S, PLANCK_J_S, debye_to_si
from .dynamics import TwoLevelParams, two_level_population
from .errors import DomainError, NumericalFailure

UNITARITY_TOL = 1e-10

# Linear response is quantitatively reliable only well below full polarization.
POLARIZATION_VALIDITY_LIMIT = 0.5


@dataclass(frozen=True)
class DipoleParams:
    """Molecular dipole configuration for the interacting pair."""

    mu_permanent_debye: float
    rotational_const_hz: float    # rotational energy expressed as linear frequency
    e_dc_v_per_m: float
    separation_m: float
    fopa_enhancement: float = 1.0  # scalar Feshbach enhancement applied to the pump Rabi rate

    def __post_init__(self):
        for name in ("mu_permanent_debye", "rotational_const_hz", "e_dc_v_per_m", "separation_m"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.fopa_enhancement < 1.0:
            raise DomainError(f"fopa_enhancement must be >= 1, got {self.fopa_enhancement!r}")


@dataclass(frozen=True)
class InducedDipole:
    """Linear-response induced dipole with its validity flag."""

    mu_induced_debye: float
    polarization_ratio: float
    linear_response_valid: bool


def induced_dipole(params):
    """Lab-frame dipole mu * (mu*E_dc / (3*h*B_rot)) induced by a dc field.

    Order-unity polarization ratios are outside linear response; the result
    is still returned, flagged with linear_response_valid=False.
    """
    mu_si = debye_to_si(params.mu_permanent_debye)
    ratio = mu_si * params.e_dc_v_per_m / (3.0 * PLANCK_J_S * params.rotational_const_hz)
    return InducedDipole(
        mu_induced_debye=params.mu_permanent_debye * ratio,
        polarization_ratio=ratio,
        linear_response_valid=ratio < POLARIZATION_VALIDITY_LIMIT,
    )


def dipole_dipole_rate(mu_induced_debye, separation_m):
    """Dipole-dipole interaction rate omega_dd = mu^2/(4 pi eps0 r^3 hbar) [rad/s]."""
    if not separation_m > 0:
        raise DomainError(f"separation must be > 0 m, got {separation_m!r}")
    mu_si = debye_to_si(mu_induced_debye)
    return mu_si * mu_si / (FOUR_PI_EPSILON0 * separation_m ** 3 * HBAR_J_S)


# --------------------------------------------------------------------------
# Gate schedule


@dataclass(frozen=True)
class EnablerRotation:
    duration_s: float
    kind: str = field(default="enabler_rotation", init=False)


@dataclass(frozen=True)
class RamanDown:
    """Atom-pair -> molecule transfer pulse."""
    pulse: TwoLevelParams
    duration_s: float
    kind: str = field(default="raman_down", init=False)


@dataclass(frozen=True)
class Wait:
    duration_s: float
    kind: str = field(default="wait", init=False)


@dataclass(frozen=True)
class RamanUp:
    """Molecule -> atom-pair return pulse."""
    pulse: TwoLevelParams
    duration_s: float
    kind: str = field(default="raman_up", init=False)


@dataclass(frozen=True)
class EnablerReturn:
    duration_s: float
    kind: str = field(default="enabler_return", init=False)


_KIND_ORDER = ("enabler_rotation", "raman_down", "wait", "raman_up", "enabler_return")
ENABLER_KINDS = ("enabler_rotation", "enabler_return")


@dataclass(frozen=True)
class GateSchedule:
    """Ordered protocol steps."""

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not step.duration_s > 0:
                raise DomainError(f"step durations must be > 0, got {step!r}")
        first = {}
        for i, step in enumerate(self.steps):
            first.setdefault(step.kind, i)
        down, wait, up = (first.get(k) for k in ("raman_down", "wait", "raman_up"))
        if down is not None and wait is not None and up is not None:
            if not down < wait < up:
                raise DomainError("schedule must order raman_down < wait < raman_up")


@dataclass(frozen=True)
class ScheduleDuration:
    """Total duration with the per-kind breakdown.

    gate_s excludes the enabler rotations, matching the convention that the
    two-qubit gate time counts only the conversion pulses and the wait.
    """

    total_s: float
    gate_s: float
    by_kind: dict


def schedule_total_duration(schedule):
    by_kind = {}
    for kind in _KIND_ORDER:
        dur = sum(s.duration_s for s in schedule.steps if s.kind == kind)
        if dur > 0:
            by_kind[kind] = dur
    total = sum(by_kind.values())
    gate = total - sum(by_kind.get(k, 0.0) for k in ENABLER_KINDS)
    return ScheduleDuration(total_s=total, gate_s=gate, by_kind=by_kind)


def interaction_time_for_pi(omega_dd_rad_s, omega_r_rad_s):
    """Field-off wait time so the protocol accumulates a total pi phase:
    (pi/omega_dd) * (1 - 3*omega_dd/(4*omega_r)).

    Requires 3*omega_dd/(4*omega_r) < 1; beyond that the two pulses alone
    would overshoot pi.
    """
    if not omega_dd_rad_s > 0:
        raise DomainError(f"omega_dd must be > 0, got {omega_dd_rad_s!r}")
    if not omega_r_rad_s > 0:
        raise DomainError(f"omega_r must be > 0, got {omega_r_rad_s!r}")
    pulse_fraction = 3.0 * omega_dd_rad_s / (4.0 * omega_r_rad_s)
    if pulse_fraction >= 1.0:
        raise DomainError(
            f"pi phase overshoots during the pulses alone: 3*omega_dd/(4*omega_r) = {pulse_fraction!r}")
    return (math.pi / omega_dd_rad_s) * (1.0 - pulse_fraction)


def build_gate_schedule(omega_dd_rad_s, omega_r_rad_s, enabler_rotation_s):
    """Standard phase-gate schedule: enabler rotation, resonant pi-pulse
    down-transfer, pi-accumulating wait, pi-pulse up-transfer, enabler return.

    The Raman steps are booked on compensated two-photon resonance (delta=0);
    the dipole-dipole shift of the doubly-molecular state enters the phase
    through omega_dd, not through these pulse parameters.
    """
    pulse = TwoLevelParams(omega_r_rad_s, 0.0)
    pi_time = math.pi / omega_r_rad_s
    wait = interaction_time_for_pi(omega_dd_rad_s, omega_r_rad_s)
    return GateSchedule((EnablerRotation(enabler_rotation_s), RamanDown(pulse, pi_time),
                         Wait(wait), RamanUp(pulse, pi_time), EnablerReturn(enabler_rotation_s)))


# --------------------------------------------------------------------------
# Phase accumulation

_SIMPSON_MAX_PANELS = 2 ** 22
PHASE_REL_TOL = 1e-8   # successive Simpson estimates must agree to this
PROFILE_POINTS_PER_STEP = 512  # trapezoid intervals per step of the phase profile


def _simpson(values, h):
    # composite Simpson; len(values) must be odd
    return (h / 3.0) * (values[0] + values[-1]
                        + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-2:2]))


def _refine_simpson(func, duration):
    panels = 16
    prev = None
    while panels <= _SIMPSON_MAX_PANELS:
        ts = np.linspace(0.0, duration, panels + 1)
        est = _simpson(func(ts), duration / panels)
        if prev is not None and abs(est - prev) <= PHASE_REL_TOL * abs(est) + 1e-300:
            return est
        prev = est
        panels *= 2
    raise NumericalFailure(f"phase quadrature did not converge to rel {PHASE_REL_TOL}")


def _step_population(step, hold):
    """Molecular population |c_g(t)|^2 during one step as a function of local
    time, plus the hold value after the step.

    Down pulses fill the molecular state from zero, up pulses drain the held
    population; field-off steps freeze it (the spectator molecules keep their
    end-of-pulse population while no fields act).
    """
    if step.kind == "raman_down":
        def pop(ts):
            return two_level_population(step.pulse, ts)
        return pop, float(two_level_population(step.pulse, step.duration_s))
    if step.kind == "raman_up":
        def pop(ts):
            return hold * (1.0 - two_level_population(step.pulse, ts))
        return pop, hold * float(1.0 - two_level_population(step.pulse, step.duration_s))
    def pop(ts):
        return np.full_like(np.asarray(ts, dtype=float), hold)
    return pop, hold


def accumulated_phase_numeric(omega_dd_rad_s, schedule):
    """Accumulated interaction phase [rad]: quadrature of
    omega_dd * |c_g(t)|^4 over the schedule.

    Raman steps follow the analytic two-level population, wait and enabler
    steps hold it at the preceding pulse-end value. Each pulse quadrature is
    refined until successive Simpson estimates agree to PHASE_REL_TOL.
    """
    phase = 0.0
    hold = 0.0
    for step in schedule.steps:
        pop, hold_after = _step_population(step, hold)
        if step.kind in ("raman_down", "raman_up"):
            integral = _refine_simpson(lambda ts: pop(ts) ** 2, step.duration_s)
        else:
            integral = hold * hold * step.duration_s
        phase += omega_dd_rad_s * integral
        hold = hold_after
    return phase


def accumulated_phase_profile(omega_dd_rad_s, schedule):
    """Cumulative phase curve (times, phi) across the schedule, for plot data.

    Fixed-resolution trapezoid accumulation; use accumulated_phase_numeric
    for the converged total.
    """
    times = [0.0]
    phis = [0.0]
    t_start = 0.0
    hold = 0.0
    for step in schedule.steps:
        pop, hold_after = _step_population(step, hold)
        ts = np.linspace(0.0, step.duration_s, PROFILE_POINTS_PER_STEP + 1)
        integrand = omega_dd_rad_s * np.asarray(pop(ts), dtype=float) ** 2
        increments = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(ts)
        cumulative = phis[-1] + np.cumsum(increments)
        times.extend((t_start + ts[1:]).tolist())
        phis.extend(cumulative.tolist())
        t_start += step.duration_s
        hold = hold_after
    return np.array(times), np.array(phis)


def total_phase_closed_form(omega_dd_rad_s, omega_r_rad_s, delta_rad_s, tau_int_s):
    """Closed-form total phase omega_dd * (3*pi/(4*sqrt(omega_r^2 + delta^2))
    + tau_int), which assumes unit transfer amplitude during the pulses."""
    w = math.hypot(omega_r_rad_s, delta_rad_s)
    if w == 0.0:
        raise DomainError("total phase undefined for omega_r = delta = 0")
    return omega_dd_rad_s * (3.0 * math.pi / (4.0 * w) + tau_int_s)


# --------------------------------------------------------------------------
# Two-qubit unitary


@dataclass(frozen=True)
class TwoQubitUnitary:
    """4x4 unitary on the enabled-qubit basis (|0'0'>, |0'1'>, |1'0'>, |1'1'>)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (4, 4):
            raise DomainError(f"unitary must be 4x4, got shape {m.shape}")
        deviation = np.max(np.abs(m.conj().T @ m - np.eye(4)))
        if deviation > UNITARITY_TOL:
            raise DomainError(f"matrix not unitary: max|U^H U - I| = {deviation:.3e}")


def build_phase_gate(phi_rad):
    """diag(e^{i phi}, 1, 1, 1): only the doubly-converted |0'0'> component
    acquires the interaction phase."""
    if not math.isfinite(phi_rad):
        raise DomainError(f"phase must be finite, got {phi_rad!r}")
    return TwoQubitUnitary(np.diag([np.exp(1j * phi_rad), 1.0, 1.0, 1.0]))


def gate_fidelity(u, v):
    """Global-phase-insensitive overlap |Tr(U^H V) / 4|^2 of two
    TwoQubitUnitary gates."""
    return float(np.abs(np.trace(u.matrix.conj().T @ v.matrix) / 4.0) ** 2)
