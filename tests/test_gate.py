import json
import math
from importlib import resources

import numpy as np
import pytest

from hybridgate import cli
from hybridgate.constants import PLANCK_J_S, debye_to_si
from hybridgate.dynamics import TwoLevelParams, two_level_population
from hybridgate.errors import DomainError
from hybridgate.gate import (
    PROFILE_POINTS_PER_STEP,
    DipoleParams,
    STEP_KINDS,
    GateSchedule,
    Step,
    accumulated_phase_profile,
    build_gate_schedule,
    dipole_dipole_rate,
    induced_dipole,
    interaction_time_for_pi,
    phase_gate_fidelity,
    _step_phase_integral,
    total_phase_closed_form,
)
from hybridgate.repro import gate_run
from hybridgate.scenario import load_scenario_text

OMEGA_DD = dipole_dipole_rate(4.2, 500e-9)


def _dc_field_for_ratio(mu_debye, b_rot_hz, ratio):
    return ratio * 3.0 * PLANCK_J_S * b_rot_hz / debye_to_si(mu_debye)


class TestInducedDipole:
    def test_unit_polarization_gives_permanent_moment(self):
        e_dc = _dc_field_for_ratio(4.2, 6.6e9, 1.0)
        result = induced_dipole(DipoleParams(4.2, 6.6e9, e_dc, 500e-9))
        assert result.mu_induced_debye == pytest.approx(4.2, rel=1e-12)
        assert result.polarization_ratio == pytest.approx(1.0, rel=1e-12)
        assert not result.linear_response_valid

    def test_half_polarization_flags_warning(self):
        # nudge just past the boundary so the flag is deterministic
        e_dc = _dc_field_for_ratio(4.2, 6.6e9, 0.5 * (1.0 + 1e-12))
        result = induced_dipole(DipoleParams(4.2, 6.6e9, e_dc, 500e-9))
        assert result.mu_induced_debye == pytest.approx(2.1, rel=1e-9)
        assert not result.linear_response_valid

    def test_small_polarization_is_valid(self):
        e_dc = _dc_field_for_ratio(4.2, 6.6e9, 0.1)
        result = induced_dipole(DipoleParams(4.2, 6.6e9, e_dc, 500e-9))
        assert result.mu_induced_debye == pytest.approx(0.42, rel=1e-9)
        assert result.linear_response_valid

    def test_validation(self):
        with pytest.raises(DomainError):
            DipoleParams(0.0, 6.6e9, 1e5, 500e-9)
        with pytest.raises(DomainError):
            DipoleParams(4.2, 6.6e9, 1e5, 500e-9, fopa_enhancement=0.5)

    def test_vanishing_rotational_constant_is_a_domain_error(self):
        # 3*h*B_rot underflows to 0 at B_rot = 1e-300 Hz
        with pytest.raises(DomainError, match="induced dipole"):
            induced_dipole(DipoleParams(4.2, 1e-300, 9.3647e5, 500e-9))


class TestDipoleDipoleRate:
    def test_paper_value(self):
        # Hand evaluation: mu = 4.2 D = 1.4009688e-29 C*m;
        # mu^2/(4 pi eps0 r^3) = 1.41120e-29 J at r = 500 nm;
        # dividing by hbar gives 1.33817e5 rad/s.
        assert OMEGA_DD == pytest.approx(1.3381726806228934e5, rel=1e-9)
        assert 1.2e5 <= OMEGA_DD <= 1.5e5

    def test_quadratic_in_dipole(self):
        assert dipole_dipole_rate(8.4, 500e-9) == pytest.approx(4.0 * OMEGA_DD, rel=1e-12)

    def test_inverse_cube_in_separation(self):
        assert dipole_dipole_rate(4.2, 1000e-9) == pytest.approx(OMEGA_DD / 8.0, rel=1e-12)

    def test_zero_separation_rejected(self):
        with pytest.raises(DomainError):
            dipole_dipole_rate(4.2, 0.0)

    @pytest.mark.parametrize("mu, r", [(4.2, 1e300), (4.2, 1e-300), (1e200, 500e-9)],
                             ids=["r^3 overflows", "r^3 underflows", "mu^2 overflows"])
    def test_rate_beyond_float_range_is_a_domain_error(self, mu, r):
        with pytest.raises(DomainError, match="omega_dd"):
            dipole_dipole_rate(mu, r)


class TestInteractionTime:
    def test_derived_values(self):
        assert interaction_time_for_pi(1.34e5, 1e6) == pytest.approx(2.108852680525387e-5,
                                                                     rel=1e-12)
        assert interaction_time_for_pi(1e5, 1e6) == pytest.approx(2.9059732045705586e-5,
                                                                  rel=1e-12)

    def test_strong_drive_limit(self):
        assert interaction_time_for_pi(1e5, 1e12) == pytest.approx(math.pi / 1e5, rel=1e-6)

    def test_overshoot_rejected(self):
        with pytest.raises(DomainError):
            interaction_time_for_pi(1e6, 1e5)


class TestAccumulatedPhase:
    def test_single_resonant_pulse_matches_analytic(self):
        # integral of sin^4 over a pi pulse is 3*pi/(8*omega)
        pulse = TwoLevelParams(1e6, 0.0)
        schedule = GateSchedule((Step("raman_down", math.pi / 1e6, pulse),))
        phi = accumulated_phase_profile(1.34e5, schedule)[1][-1]
        expected = 1.34e5 * 3.0 * math.pi / (8.0 * 1e6)
        assert expected == pytest.approx(0.15786503084288708, rel=1e-12)
        assert abs(phi - expected) / expected < 1e-13

    def test_single_detuned_pulse_matches_analytic(self):
        # with detuning the transfer amplitude drops to A = omega^2/W^2 and
        # the pulse integral becomes A^2 * 3*pi/(8*W)
        pulse = TwoLevelParams(1e6, 2e5)
        w = pulse.generalized_rabi_rad_s
        amp = (1e6 / w) ** 2
        schedule = GateSchedule((Step("raman_down", math.pi / w, pulse),))
        phi = accumulated_phase_profile(1.34e5, schedule)[1][-1]
        expected = 1.34e5 * amp ** 2 * 3.0 * math.pi / (8.0 * w)
        assert abs(phi - expected) / expected < 1e-13

    def test_wait_holds_population(self):
        pulse = TwoLevelParams(1e6, 0.0)
        tau = 7e-6
        with_wait = GateSchedule((Step("raman_down", math.pi / 1e6, pulse), Step("wait", tau)))
        without = GateSchedule((Step("raman_down", math.pi / 1e6, pulse),))
        delta = (accumulated_phase_profile(1.34e5, with_wait)[1][-1]
                 - accumulated_phase_profile(1.34e5, without)[1][-1])
        assert delta == pytest.approx(1.34e5 * tau, rel=1e-9)

    def test_wait_alone_contributes_nothing(self):
        schedule = GateSchedule((Step("wait", 1e-5),))
        assert accumulated_phase_profile(1.34e5, schedule)[1][-1] == 0.0

    def test_up_pulse_drains_population(self):
        pulse = TwoLevelParams(1e6, 0.0)
        schedule = GateSchedule((Step("raman_down", math.pi / 1e6, pulse),
                                 Step("wait", 1e-6),
                                 Step("raman_up", math.pi / 1e6, pulse)))
        phi = accumulated_phase_profile(1.34e5, schedule)[1][-1]
        expected = 1.34e5 * (2.0 * 3.0 * math.pi / (8.0 * 1e6) + 1e-6)
        assert phi == pytest.approx(expected, rel=1e-6)

    def test_full_schedule_reaches_pi(self):
        schedule = build_gate_schedule(OMEGA_DD, 1e6, 30e-6)
        phi = accumulated_phase_profile(OMEGA_DD, schedule)[1][-1]
        assert abs(phi - math.pi) < 1e-4

    def test_profile_is_monotone_and_consistent(self):
        gr = gate_run(load_scenario_text(
            resources.files("hybridgate").joinpath("data/paper.cfg").read_text()))
        times, phis = accumulated_phase_profile(gr.omega_dd_rad_s, gr.schedule)
        assert np.all(np.diff(phis) >= -1e-15)
        assert np.all(np.diff(times) > 0)
        # the sum of the exact step integrals at each step's end, in step order
        phi, hold = 0.0, 0.0
        for step in gr.schedule.steps:
            integral, hold = _step_phase_integral(step, hold, np.array([step.duration_s]))
            phi = float(phi + gr.omega_dd_rad_s * integral[0])
        assert phis[-1] == phi
        assert gr.phase_rad == phi
        assert np.array_equal(gr.phase_profile[0], times)
        assert np.array_equal(gr.phase_profile[1], phis)


def _fine_simpson_profile(func, duration):
    """Composite Simpson of func on 2^16 panels, cumulated at the ends of the
    PROFILE_POINTS_PER_STEP profile intervals (128 panels each)."""
    panels = 2 ** 16
    ts = np.linspace(0.0, duration, panels + 1)
    values = func(ts)
    h = duration / panels
    pairs = (values[:-2:2] + 4.0 * values[1::2] + values[2::2]) * (h / 3.0)
    per_interval = pairs.reshape(PROFILE_POINTS_PER_STEP, -1).sum(axis=1)
    return np.cumsum(per_interval)


class TestExactPhaseIntegral:
    """The exact |c_g|^4 antiderivatives against an independent quadrature."""

    HOLD = 0.8

    @pytest.mark.parametrize("kind", ["raman_down", "raman_up"])
    @pytest.mark.parametrize("detuned", [False, True])
    @pytest.mark.parametrize("wt", [1e-3, 0.1, 1.0, math.pi, 10 * math.pi])
    def test_matches_fine_simpson(self, kind, detuned, wt):
        w = 1e6
        pulse = TwoLevelParams(0.8 * w, 0.6 * w) if detuned else TwoLevelParams(w, 0.0)
        duration = wt / pulse.generalized_rabi_rad_s
        step = Step(kind, duration, pulse)

        def pop_squared(ts):
            pop = two_level_population(pulse, ts)
            return (pop if kind == "raman_down" else self.HOLD * (1.0 - pop)) ** 2

        reference = OMEGA_DD * _fine_simpson_profile(pop_squared, duration)
        grid = np.linspace(0.0, duration, PROFILE_POINTS_PER_STEP + 1)[1:]
        on_grid = OMEGA_DD * _step_phase_integral(step, self.HOLD, grid)[0]
        at_end = OMEGA_DD * _step_phase_integral(step, self.HOLD, np.array([duration]))[0]
        assert at_end[0] == on_grid[-1]
        bound = 1e-12 * OMEGA_DD * duration
        assert np.max(np.abs(on_grid - reference)) <= bound
        if wt >= 1.0:
            assert abs(at_end[0] - reference[-1]) <= 1e-12 * reference[-1]

    @pytest.mark.parametrize("pulse", [TwoLevelParams(0.0, 0.0), TwoLevelParams(0.0, 2e5)])
    def test_idle_pulse(self, pulse):
        duration = 3e-6
        ts = np.linspace(0.0, duration, PROFILE_POINTS_PER_STEP + 1)
        with np.errstate(all="raise"):
            down, hold_down = _step_phase_integral(Step("raman_down", duration, pulse), 0.0, ts)
            up, hold_up = _step_phase_integral(Step("raman_up", duration, pulse), self.HOLD, ts)
            phi = accumulated_phase_profile(
                OMEGA_DD, GateSchedule((Step("raman_down", duration, pulse),)))[1][-1]
        assert np.all(down == 0.0) and hold_down == 0.0 and phi == 0.0
        assert np.array_equal(up, self.HOLD * self.HOLD * ts)
        assert hold_up == self.HOLD


class TestClosedForm:
    def test_reduces_without_wait(self):
        assert total_phase_closed_form(1.34e5, 1e6, 0.0, 0.0) == pytest.approx(
            3.0 * math.pi * 1.34e5 / (4.0 * 1e6), rel=1e-12)

    def test_inverts_to_pi_at_generalized_rabi(self):
        # solving the wait time at the generalized Rabi frequency makes the
        # closed form hit pi identically
        w = math.hypot(1e6, 1.34e5)
        tau = interaction_time_for_pi(1.34e5, w)
        phi = total_phase_closed_form(1.34e5, 1e6, 1.34e5, tau)
        assert abs(phi - math.pi) < 1e-12

    def test_matches_quadrature_for_small_detuning(self):
        # resonant-pulse schedule vs closed form carrying the dd shift delta
        for delta_frac in (0.05, 0.134, 0.2):
            delta = delta_frac * 1e6
            schedule = build_gate_schedule(OMEGA_DD, 1e6, 30e-6)
            phi_num = accumulated_phase_profile(OMEGA_DD, schedule)[1][-1]
            tau = interaction_time_for_pi(OMEGA_DD, 1e6)
            phi_cf = total_phase_closed_form(OMEGA_DD, 1e6, delta, tau)
            rel = abs(phi_cf - phi_num) / abs(phi_num)
            assert rel <= delta_frac ** 2 + 1e-6
        assert rel <= 0.01  # the delta = 0.2*omega_r case stays inside 1%

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            total_phase_closed_form(1e5, 0.0, 0.0, 1e-5)


class TestSchedule:
    def test_durations_and_breakdown(self):
        durations = build_gate_schedule(OMEGA_DD, 1e6, 30e-6)
        assert durations.gate_s == pytest.approx(2.7403726660431922e-5, rel=1e-9)
        assert 15e-6 <= durations.gate_s <= 35e-6
        assert durations.total_s == pytest.approx(durations.gate_s + 60e-6, rel=1e-12)
        assert durations.by_kind["wait"] == pytest.approx(2.1120541353252334e-5, rel=1e-9)

    @pytest.mark.parametrize("rotation_s", [1e-5, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e10, 1e11])
    def test_gate_time_is_the_direct_sum_beside_any_rotation(self, rotation_s):
        # the conversion pulses and the wait are summed on their own: a total
        # less the rotations would lose them to rounding beside long rotations
        schedule = build_gate_schedule(1.4e5, 1e6, rotation_s)
        down, wait, up = (step.duration_s for step in schedule.steps[1:4])
        assert schedule.gate_s == down + wait + up
        assert schedule.total_s == rotation_s + down + wait + up + rotation_s

    def test_budget_runs_with_1e11_s_rotations(self, tmp_path):
        text = resources.files("hybridgate").joinpath("data/paper.cfg").read_text()
        long_text = text.replace("enabler_rotation_s = 3e-5", "enabler_rotation_s = 1e11")
        assert long_text != text
        config = tmp_path / "long.cfg"
        config.write_text(long_text)
        assert cli.main(["budget", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "budget_report.json").read_text())
        assert report["gate_time_s"] == gate_run(load_scenario_text(text)).schedule.gate_s

    def test_empty_schedule(self):
        durations = GateSchedule(())
        assert durations.total_s == 0.0
        assert durations.gate_s == 0.0

    def test_concatenation_additivity(self):
        pulse = TwoLevelParams(1e6, 0.0)
        a = (Step("raman_down", 1e-6, pulse), Step("wait", 2e-6))
        b = (Step("raman_up", 3e-6, pulse),)
        total_ab = GateSchedule(a + b).total_s
        total_sep = GateSchedule(a).total_s + GateSchedule(b).total_s
        assert total_ab == pytest.approx(total_sep, rel=1e-12)

    def test_ordering_enforced(self):
        pulse = TwoLevelParams(1e6, 0.0)
        with pytest.raises(DomainError):
            GateSchedule((Step("raman_up", 1e-6, pulse), Step("wait", 1e-6),
                          Step("raman_down", 1e-6, pulse)))

    def test_positive_durations_enforced(self):
        with pytest.raises(DomainError):
            GateSchedule((Step("wait", 0.0),))

    def test_built_schedule_follows_the_kinds_order(self):
        schedule = build_gate_schedule(OMEGA_DD, 1e6, 30e-6)
        assert tuple(step.kind for step in schedule.steps) == STEP_KINDS
        assert [step.pulse is not None for step in schedule.steps] == [
            False, True, False, True, False]


class TestStep:
    PULSE = TwoLevelParams(1e6, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="kind"):
            Step("rotation", 1e-6)

    @pytest.mark.parametrize("duration", [0.0, -1e-6, math.inf, math.nan])
    def test_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(DomainError, match="duration"):
            Step("wait", duration)

    @pytest.mark.parametrize("kind", ["raman_down", "raman_up"])
    def test_raman_step_needs_a_pulse(self, kind):
        # without the guard the schedule phase fails later with AttributeError
        with pytest.raises(DomainError, match="pulse"):
            Step(kind, 1e-6)

    @pytest.mark.parametrize("kind", ["enabler_rotation", "wait", "enabler_return"])
    def test_other_steps_carry_no_pulse(self, kind):
        with pytest.raises(DomainError, match="pulse"):
            Step(kind, 1e-6, self.PULSE)


def _trace_overlap_fidelity(phi):
    """|Tr(U^H V) / 4|^2 of U = diag(e^{i phi}, 1, 1, 1) and V = diag(-1, 1, 1, 1)."""
    u = np.diag([np.exp(1j * phi), 1.0, 1.0, 1.0])
    v = np.diag([-1.0, 1.0, 1.0, 1.0])
    return abs(np.trace(u.conj().T @ v) / 4.0) ** 2


class TestPhaseGateFidelity:
    @pytest.mark.parametrize("phi", np.linspace(-10.0, 10.0, 41).tolist() + [math.pi, 2.9, 5.1])
    def test_matches_the_trace_overlap(self, phi):
        assert abs(phase_gate_fidelity(phi) - _trace_overlap_fidelity(phi)) <= 1e-15

    def test_ideal_and_identity(self):
        assert phase_gate_fidelity(math.pi) == 1.0
        assert phase_gate_fidelity(0.0) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.4, math.pi, 5.1])
    def test_two_pi_periodic(self, phi):
        assert phase_gate_fidelity(phi + 2.0 * math.pi) == pytest.approx(
            phase_gate_fidelity(phi), abs=1e-15)

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, phi):
        with pytest.raises(DomainError, match="finite"):
            phase_gate_fidelity(phi)
