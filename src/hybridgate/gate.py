"""Dipole-dipole phase gate: interaction strength, accumulated phase,
schedule assembly and the fidelity of the resulting phase gate.

The canonical interaction quantity is the angular rate
omega_dd = mu_ind^2 / (4*pi*eps0 * r^3 * hbar) [rad/s]; the interaction
energy in joules never appears downstream of ``dipole_dipole_rate``.
Molecules are assumed aligned along the field (angular coefficient 1).
Built schedules always include both enabler rotations (enabler_rotation_s).
"""

import math

import numpy as np

from .constants import FOUR_PI_EPSILON0, HBAR_J_S, PLANCK_J_S, debye_to_si
from .dynamics import TwoLevelParams, two_level_population
from .errors import DomainError
from .record import Record

# Linear response is quantitatively reliable only well below full polarization.
POLARIZATION_VALIDITY_LIMIT = 0.5


class DipoleParams(Record):
    """Molecular dipole configuration for the interacting pair."""

    mu_permanent_debye: float
    rotational_const_hz: float    # rotational energy expressed as linear frequency
    e_dc_v_per_m: float
    separation_m: float
    fopa_enhancement: float = 1.0  # scalar Feshbach enhancement applied to the pump Rabi rate
    _bounds = {"mu_permanent_debye": "> 0", "rotational_const_hz": "> 0", "e_dc_v_per_m": "> 0",
               "separation_m": "> 0", "fopa_enhancement": ">= 1"}


class InducedDipole(Record):
    """Linear-response induced dipole with its validity flag."""

    mu_induced_debye: float
    polarization_ratio: float
    linear_response_valid: bool


def induced_dipole(params):
    """Lab-frame dipole mu * (mu*E_dc / (3*h*B_rot)) induced by a dc field.

    Order-unity polarization ratios are outside linear response; the result
    is still returned, flagged with linear_response_valid=False. Raises
    DomainError when the induced dipole is beyond float range.
    """
    mu_si = debye_to_si(params.mu_permanent_debye)
    try:
        ratio = mu_si * params.e_dc_v_per_m / (3.0 * PLANCK_J_S * params.rotational_const_hz)
    except ZeroDivisionError:   # 3*h*B_rot underflows to 0
        ratio = math.inf
    mu_induced = params.mu_permanent_debye * ratio
    if not math.isfinite(mu_induced):
        raise DomainError(f"induced dipole mu*(mu*E_dc/(3*h*B_rot)) overflows for {params!r}")
    return InducedDipole(
        mu_induced_debye=mu_induced,
        polarization_ratio=ratio,
        linear_response_valid=ratio < POLARIZATION_VALIDITY_LIMIT,
    )


def dipole_dipole_rate(mu_induced_debye, separation_m):
    """Dipole-dipole interaction rate omega_dd = mu^2/(4 pi eps0 r^3 hbar) [rad/s].

    Raises DomainError when the rate or r^3 is beyond float range."""
    if not separation_m > 0:
        raise DomainError(f"separation must be > 0 m, got {separation_m!r}")
    mu_si = debye_to_si(mu_induced_debye)
    try:
        rate = mu_si * mu_si / (FOUR_PI_EPSILON0 * separation_m ** 3 * HBAR_J_S)
    except ArithmeticError:   # r^3 overflows, or underflows to 0
        rate = math.nan
    if not math.isfinite(rate):
        raise DomainError(f"omega_dd is beyond float range for mu = {mu_induced_debye!r} D "
                          f"and r = {separation_m!r} m")
    return rate


# --------------------------------------------------------------------------
# Gate schedule


STEP_KINDS = ("enabler_rotation", "raman_down", "wait", "raman_up", "enabler_return")
RAMAN_KINDS = ("raman_down", "raman_up")   # atom pair -> molecule, and back
ENABLER_KINDS = ("enabler_rotation", "enabler_return")


class Step(Record):
    """One protocol step of a STEP_KINDS kind; Raman steps carry their pulse."""

    kind: str
    duration_s: float
    pulse: TwoLevelParams = None
    _bounds = {"duration_s": "> 0"}

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise DomainError(f"step kind must be one of {STEP_KINDS}, got {self.kind!r}")
        if (self.pulse is None) == (self.kind in RAMAN_KINDS):
            raise DomainError(f"Raman steps, and only they, carry a pulse; got a {self.kind} "
                              f"step with pulse={self.pulse!r}")


class GateSchedule(Record):
    """Ordered protocol steps, a tuple of Step, and their durations. gate_s counts
    only the conversion pulses and the wait, without the enabler rotations."""

    steps: tuple

    def __post_init__(self):
        kinds = [step.kind for step in self.steps]
        if {"raman_down", "wait", "raman_up"} <= set(kinds) and not (
                kinds.index("raman_down") < kinds.index("wait") < kinds.index("raman_up")):
            raise DomainError("schedule must order raman_down < wait < raman_up")

    @property
    def by_kind(self):
        """Summed duration of each step kind present, in STEP_KINDS order."""
        present = {s.kind for s in self.steps}
        return {kind: sum(s.duration_s for s in self.steps if s.kind == kind)
                for kind in STEP_KINDS if kind in present}

    @property
    def total_s(self):
        return sum(s.duration_s for s in self.steps)

    @property
    def gate_s(self):
        return sum(s.duration_s for s in self.steps if s.kind not in ENABLER_KINDS)


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
    return GateSchedule((Step("enabler_rotation", enabler_rotation_s),
                         Step("raman_down", pi_time, pulse), Step("wait", wait),
                         Step("raman_up", pi_time, pulse),
                         Step("enabler_return", enabler_rotation_s)))


# --------------------------------------------------------------------------
# Phase accumulation

PROFILE_POINTS_PER_STEP = 512  # grid intervals per step of the phase profile


def _step_phase_integral(step, hold, ts):
    """Exact integral of |c_g|^4 from 0 to each local time in ts, plus the
    hold value after the step.

    Down pulses fill the molecular state from zero, a*sin^2(W t/2) with
    a = omega^2/W^2; up pulses drain the held population,
    hold*(1 - a*sin^2(W t/2)); field-off steps freeze it (the spectator
    molecules keep their end-of-pulse population while no fields act). The
    antiderivatives int sin^2 = t/2 - sin(W t)/(2W) and
    int sin^4 = 3t/8 - sin(W t)/(2W) + sin(2W t)/(16W) are written with
    sin(kWt)/(kW) = t*sinc(kWt/pi), so they need no W = 0 case.

    The error contract is absolute: at most about 2e-16*T for a step of
    duration T, whatever the pulse area. Relative to a short down pulse's
    integral, which scales as (W T)^4, it grows up to about 30*eps/(W T)^4
    (measured 2.4e-11 at W T = 0.1, 1.1e-7 at W T = 0.01). The pi pulses
    that schedules are built from have W T >= pi and stay within 1e-15.
    """
    if step.kind not in RAMAN_KINDS:
        return hold * hold * ts, hold
    w = step.pulse.generalized_rabi_rad_s
    a = (step.pulse.omega_r_rad_s / w) ** 2 if w else 0.0  # W = 0 only when omega = 0
    sinc_1 = np.sinc(w * ts / math.pi)
    int_sin4 = 0.125 * ts * (3.0 - 4.0 * sinc_1 + np.sinc(2.0 * w * ts / math.pi))
    pop_end = float(two_level_population(step.pulse, step.duration_s))
    if step.kind == "raman_down":
        return a * a * int_sin4, pop_end
    int_sin2 = 0.5 * ts * (1.0 - sinc_1)
    return hold * hold * (ts - 2.0 * a * int_sin2 + a * a * int_sin4), hold * (1.0 - pop_end)


def accumulated_phase_profile(omega_dd_rad_s, schedule):
    """Accumulated interaction phase omega_dd * integral of |c_g(t)|^4 [rad] as the
    exact curve (times, phi) on PROFILE_POINTS_PER_STEP equal intervals per step;
    phi[-1] is the schedule's total phase. Raman steps follow the analytic
    two-level population, wait and enabler steps hold the preceding pulse-end one.
    """
    times = [np.zeros(1)]
    phis = [np.zeros(1)]
    t_start = 0.0
    hold = 0.0
    for step in schedule.steps:
        ts = np.linspace(0.0, step.duration_s, PROFILE_POINTS_PER_STEP + 1)[1:]
        integral, hold = _step_phase_integral(step, hold, ts)
        times.append(t_start + ts)
        phis.append(phis[-1][-1] + omega_dd_rad_s * integral)
        t_start += step.duration_s
    return np.concatenate(times), np.concatenate(phis)


def total_phase_closed_form(omega_dd_rad_s, omega_r_rad_s, delta_rad_s, tau_int_s):
    """Closed-form total phase omega_dd * (3*pi/(4*sqrt(omega_r^2 + delta^2))
    + tau_int), which assumes unit transfer amplitude during the pulses."""
    w = math.hypot(omega_r_rad_s, delta_rad_s)
    if w == 0.0:
        raise DomainError("total phase undefined for omega_r = delta = 0")
    return omega_dd_rad_s * (3.0 * math.pi / (4.0 * w) + tau_int_s)


# --------------------------------------------------------------------------
# Gate fidelity


def phase_gate_fidelity(phi_rad):
    """Fidelity of the phase gate U = diag(e^{i phi}, 1, 1, 1), in which only the
    doubly converted |0'0'> acquires the interaction phase, against the ideal
    V = diag(-1, 1, 1, 1): the global-phase-insensitive overlap
    |Tr(U^H V) / 4|^2 = |3 - e^{-i phi}|^2 / 16 = (5 - 3 cos phi) / 8,
    written as 1 - (3/4) sin^2((phi - pi)/2)."""
    if not math.isfinite(phi_rad):
        raise DomainError(f"phase must be finite, got {phi_rad!r}")
    return 1.0 - 0.75 * math.sin(0.5 * (phi_rad - math.pi)) ** 2
