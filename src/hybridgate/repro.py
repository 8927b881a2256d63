"""The paper-reproduction report and the stages it shares with the subcommands.

``paper_repro(scenario)`` computes every headline quantity of the
protocol from the same stage functions the ``pulse``, ``stirap``, ``gate``
and ``budget`` subcommands use, then checks each against the paper's figure.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

# Called through their modules, not imported by name, so that wrapping a
# module attribute (as a span tracer does) also covers the calls made here.
from . import budget, dynamics, gate, hyperfine
from .errors import ConfigError

FD_STEP_G = 0.01
FD_CHECK_FIELDS_G = (1.0, 10.0, 100.0, 649.0, 1000.0, 2000.0)
LOSS_BENCHMARK_S = 20e-6       # fixed gate-duration benchmark for the loss figure
STIRAP_SWEEP_FACTORS = np.geomspace(0.01, 1.0, 8)   # ends at exactly 1.0, the full drive


def _stirap_args(scn, peak_factor=1.0, reversed_order=False):
    """(pump, stokes, delta_e, delta) of the configured STIRAP transfer."""
    peak = scn.stirap.peak_rad_s * peak_factor
    sigma = scn.stirap.rms_width_s
    margin = dynamics.GAUSSIAN_CUTOFF_SIGMAS * sigma
    stokes_center, pump_center = margin, margin + scn.stirap.separation_s
    if reversed_order:
        stokes_center, pump_center = pump_center, stokes_center
    return (dynamics.PulseEnvelope(peak, pump_center, sigma),
            dynamics.PulseEnvelope(peak, stokes_center, sigma),
            scn.stirap.delta_e_rad_s, scn.stirap.delta_rad_s)


def _fd_sensitivity_max_rel_err(scn):
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    b = np.array(FD_CHECK_FIELDS_G)
    analytic = hyperfine.field_sensitivity(sp, up, lo, b)
    fd = (hyperfine.transition_frequency(sp, up, lo, b + FD_STEP_G)
          - hyperfine.transition_frequency(sp, up, lo, b - FD_STEP_G)) / (2.0 * FD_STEP_G)
    return float(np.max(np.abs(fd - analytic) / np.abs(analytic)))


@dataclass(frozen=True)
class LevelsRun:
    """On the [levels] field grid, each sublevel's energy keyed by HyperfineState in
    all_states order, the qubit transition and its sensitivity; the transition at b_G."""

    grid_g: np.ndarray
    energies_hz: dict
    transition_hz: np.ndarray
    sensitivity_hz_per_g: np.ndarray
    transition_at_b_hz: float


def levels_run(scn):
    grid = np.linspace(scn.levels.b_min_gauss, scn.levels.b_max_gauss, scn.levels.count)
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    energies = {state: hyperfine.breit_rabi_energy(sp, state, grid)
                for state in hyperfine.all_states(sp)}
    return LevelsRun(grid, energies, hyperfine.transition_frequency(sp, up, lo, grid),
                     hyperfine.field_sensitivity(sp, up, lo, grid),
                     hyperfine.transition_frequency(sp, up, lo, scn.field.b_gauss))


@dataclass(frozen=True)
class RamanRun:
    """Raman pi pulse: Lambda drive, two-level reduction and drive, pi duration, trajectory,
    two-level molecule population on its times and the 3-level population's largest deviation."""

    params: dynamics.LambdaParams
    reduction: dynamics.EffectiveTwoLevel
    drive: dynamics.TwoLevelParams
    duration_s: float
    trajectory: dynamics.Trajectory
    two_level_population: np.ndarray
    max_deviation: float


def raman_run(scn):
    params = scn.raman_effective()
    reduction = dynamics.effective_rabi(params)
    drive = dynamics.TwoLevelParams(abs(reduction.omega_r_rad_s), params.delta_rad_s)
    duration = dynamics.pi_pulse_duration(drive)
    traj = dynamics.raman_trajectory(params, duration)
    p2 = dynamics.two_level_population(drive, traj.times)
    return RamanRun(params, reduction, drive, duration, traj, p2,
                    float(np.max(np.abs(traj.populations()[:, 2] - p2))))


@dataclass(frozen=True)
class StirapRun:
    """STIRAP trajectory and efficiency, the efficiency in reversed order and,
    when asked for, the efficiency at each pulse area of the sweep."""

    trajectory: dynamics.Trajectory
    efficiency: float
    reversed_efficiency: float
    sweep_areas: tuple = ()          # omega0 * rms width
    sweep_efficiencies: tuple = ()


def stirap_run(scn, area_sweep=False):
    traj = dynamics.stirap_trajectory(*_stirap_args(scn))
    efficiency = float(traj.final_populations()[2])
    reversed_efficiency = dynamics.simulate_stirap(*_stirap_args(scn, reversed_order=True))
    if not area_sweep:
        return StirapRun(traj, efficiency, reversed_efficiency)
    # the sweep ends at the full drive, whose transfer is integrated above
    sweep = [dynamics.simulate_stirap(*_stirap_args(scn, peak_factor=float(factor)))
             for factor in STIRAP_SWEEP_FACTORS[:-1]] + [efficiency]
    areas = STIRAP_SWEEP_FACTORS * scn.stirap.peak_rad_s * scn.stirap.rms_width_s
    return StirapRun(traj, efficiency, reversed_efficiency, tuple(areas), tuple(sweep))


@dataclass(frozen=True)
class GateRun:
    """Induced dipole, omega_dd, schedule and its durations, pi-phase wait, phase profile
    (times, phi), its last point and closed form, and fidelity against the ideal gate."""

    induced: gate.InducedDipole
    omega_dd_rad_s: float
    schedule: gate.GateSchedule
    durations: gate.ScheduleDuration
    interaction_time_s: float
    phase_profile: tuple
    phase_rad: float
    closed_form_phase_rad: float
    fidelity: float


def gate_run(scn):
    ind = gate.induced_dipole(scn.dipole)
    omega_dd = gate.dipole_dipole_rate(ind.mu_induced_debye, scn.dipole.separation_m)
    omega_r = scn.gate.omega_r_rad_s
    schedule = gate.build_gate_schedule(omega_dd, omega_r, scn.gate.enabler_rotation_s)
    profile = gate.accumulated_phase_profile(omega_dd, schedule)
    phi = float(profile[1][-1])
    tau = gate.interaction_time_for_pi(omega_dd, omega_r)
    phi_closed = gate.total_phase_closed_form(omega_dd, omega_r, omega_dd, tau)
    return GateRun(ind, omega_dd, schedule, gate.schedule_total_duration(schedule), tau,
                   profile, phi, phi_closed, gate.phase_gate_fidelity(phi))


@dataclass(frozen=True)
class BudgetRun:
    """Qubit field sensitivity, budget report and the Monte Carlo Ramsey
    contrast at T_phi."""

    sensitivity_hz_per_g: float
    report: budget.BudgetReport
    contrast: float


def budget_run(scn, schedule):
    sens = hyperfine.field_sensitivity(scn.qubit.species, scn.qubit.upper, scn.qubit.lower,
                                       scn.field.b_gauss)
    report = budget.assemble_budget(scn.noise, sens, schedule, scn.readout.splitting_hz,
                                    selectivity_factor=scn.readout.selectivity_factor)
    contrast = budget.ramsey_contrast_mc(sens, scn.noise.sigma_b_gauss, report.dephasing_time_s,
                                         scn.mc_samples, scn.noise.seed)
    return BudgetRun(sens, report, contrast)


def sweep_curves(scn, values):
    """Quantities computed along the ``[sweep] parameter`` axis at ``values``,
    one dict entry per curve."""
    param = scn.sweep.parameter
    ind = gate.induced_dipole(scn.dipole)
    if param == "separation_r_m":
        return {"omega_dd_rad_s":
                [gate.dipole_dipole_rate(ind.mu_induced_debye, r) for r in values]}
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    if param == "b_G":
        b = np.array(values)
        return {"transition_hz": hyperfine.transition_frequency(sp, up, lo, b),
                "sensitivity_hz_per_g": hyperfine.field_sensitivity(sp, up, lo, b)}
    if param == "sigma_B_G":
        sens = hyperfine.field_sensitivity(sp, up, lo, scn.field.b_gauss)
        return {"dephasing_time_s": [budget.dephasing_time(sens, s) for s in values]}
    if param == "omega_R_rad_s":
        omega_dd = gate.dipole_dipole_rate(ind.mu_induced_debye, scn.dipole.separation_m)
        return {"pi_pulse_duration_s": [dynamics.pi_pulse_duration(dynamics.TwoLevelParams(w, 0.0))
                                        for w in values],
                "interaction_time_s": [gate.interaction_time_for_pi(omega_dd, w) for w in values]}
    if param == "mu_permanent_D":
        return {"omega_dd_rad_s": [gate.dipole_dipole_rate(
            gate.induced_dipole(replace(scn.dipole, mu_permanent_debye=mu)).mu_induced_debye,
            scn.dipole.separation_m) for mu in values]}
    raise ConfigError(f"unknown sweep parameter {param!r}", key="[sweep] parameter")


def _check(name, value, expected, tolerance, ok=None):
    """Passes when |value - expected| <= tolerance, or on ``ok`` if given."""
    value = float(value)
    if ok is None:
        ok = abs(value - expected) <= tolerance
    return {"name": name, "value": value, "expected": expected,
            "tolerance": tolerance, "pass": bool(ok)}


def _window_check(name, value, low, high):
    return _check(name, value, 0.5 * (low + high), 0.5 * (high - low))


def paper_repro(scn):
    """Every headline quantity in report order, then ``checks``; the MC seed is
    ``scn.noise.seed``."""
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    b = scn.field.b_gauss
    spacing_cm = scn.field.site_spacing_m * 100.0
    omega_r = scn.gate.omega_r_rad_s

    gr = gate_run(scn)
    omega_dd = gr.omega_dd_rad_s
    br = budget_run(scn, gr.schedule)
    single = gate.GateSchedule((gate.Step("raman_down", math.pi / omega_r,
                                          dynamics.TwoLevelParams(omega_r, 0.0)),))
    phi_single = float(gate.accumulated_phase_profile(omega_dd, single)[1][-1])

    # Far-detuned reduction quality at the configured ratio, and again with
    # delta_e scaled x10 at fixed omega_R.
    raman = raman_run(scn)
    p2 = float(raman.two_level_population[-1])
    scaled = replace(raman.params, omega_p_rad_s=raman.params.omega_p_rad_s * math.sqrt(10.0),
                     omega_s_rad_s=raman.params.omega_s_rad_s * math.sqrt(10.0),
                     delta_e_rad_s=raman.params.delta_e_rad_s * 10.0)
    elim_diff = abs(float(raman.trajectory.final_populations()[2]) - p2)
    elim_diff_scaled = abs(float(dynamics.raman_trajectory(
        scaled, raman.duration_s).final_populations()[2]) - p2)

    stirap = stirap_run(scn)

    channels = (scn.qubit_channel_storage()[1], *scn.qubit_channel_enabled())
    open_storage_1, open_enabled_0, open_enabled_1 = [
        hyperfine.open_decay_channels(channel, b) for channel in channels]

    r = {
        "transition_hz": hyperfine.transition_frequency(sp, up, lo, b),
        "sensitivity_hz_per_g": br.sensitivity_hz_per_g,
        "sensitivity_fd_max_rel_err": _fd_sensitivity_max_rel_err(scn),
        "site_resolution_hz": hyperfine.site_frequency_resolution(
            br.sensitivity_hz_per_g, scn.field.gradient_g_per_cm, spacing_cm),
        "resonance_site_count": hyperfine.resonance_site_count(
            scn.field.resonance_width_g, scn.field.gradient_g_per_cm, spacing_cm),
        "induced_dipole_D": gr.induced.mu_induced_debye,
        "polarization_ratio": gr.induced.polarization_ratio,
        "linear_response_valid": gr.induced.linear_response_valid,
        "omega_dd_rad_s": omega_dd,
        "pi_pulse_duration_s": dynamics.pi_pulse_duration(dynamics.TwoLevelParams(omega_r, 0.0)),
        "interaction_time_s": gr.interaction_time_s,
        "gate_time_s": gr.durations.gate_s,
        "protocol_time_s": gr.durations.total_s,
        "single_pulse_phase_rad": phi_single,
        "accumulated_phase_rad": gr.phase_rad,
        "closed_form_phase_rad": gr.closed_form_phase_rad,
        "phase_gate_fidelity": gr.fidelity,
        "adiabatic_elimination_final_diff": elim_diff,
        "adiabatic_elimination_improvement": elim_diff / max(elim_diff_scaled, 1e-300),
        "stirap_efficiency": stirap.efficiency,
        "stirap_efficiency_reversed": stirap.reversed_efficiency,
        "stirap_norm_drift": stirap.trajectory.norm_drift,
        "dephasing_time_s": br.report.dephasing_time_s,
        "ramsey_contrast_at_t_phi": br.contrast,
        "inelastic_loss_20us": budget.inelastic_loss_probability(
            scn.noise.gamma_inelastic_per_s, LOSS_BENCHMARK_S),
        "inelastic_loss_gate": br.report.loss_probability,
        "operations_count": br.report.operations_count,
        "open_channels_storage_1": len(open_storage_1),
        "open_channels_enabled_0": len(open_enabled_0),
        "open_channels_enabled_1": [c.label() for c in open_enabled_1],
    }

    phi_single_expected = omega_dd * 3.0 * math.pi / (8.0 * omega_r)
    named_decay = any(c.state_a == lo and c.state_b == scn.enabler.storage
                      for c in open_enabled_1)
    r["checks"] = [
        _check("transition_649G_hz", r["transition_hz"], 8.3e9, 0.01 * 8.3e9),
        _check("field_sensitivity_hz_per_g", r["sensitivity_hz_per_g"], 2.38e6, 0.03 * 2.38e6),
        _check("sensitivity_fd_max_rel_err", r["sensitivity_fd_max_rel_err"], 0.0, 1e-6),
        _window_check("site_resolution_hz", r["site_resolution_hz"], 1.0e5, 1.3e5),
        _check("resonance_site_count", r["resonance_site_count"], 100.0, 0.0),
        _window_check("omega_dd_rad_s", r["omega_dd_rad_s"], 1.2e5, 1.5e5),
        _check("pi_pulse_duration_s", r["pi_pulse_duration_s"], 3.14e-6, 0.1 * 3.14e-6),
        _check("single_pulse_phase_rel_err",
               abs(r["single_pulse_phase_rad"] - phi_single_expected) / phi_single_expected,
               0.0, 1e-6),
        _check("schedule_phase_rad", r["accumulated_phase_rad"], math.pi, 1e-4),
        _check("closed_form_vs_exact_rel_err",
               abs(r["closed_form_phase_rad"] - r["accumulated_phase_rad"])
               / abs(r["accumulated_phase_rad"]), 0.0, 0.01),
        _window_check("gate_time_s", r["gate_time_s"], 15e-6, 35e-6),
        # The ~14 us wait figure quoted for these parameters is inconsistent
        # with the wait-time formula itself (21-31 us over the plausible
        # omega_dd range); this check PASSES when the mismatch is present.
        _check("tau_int_differs_from_quoted_14us", r["interaction_time_s"], 14e-6, 0.25 * 14e-6,
               abs(r["interaction_time_s"] - 14e-6) > 0.25 * 14e-6),
        _check("phase_gate_fidelity", r["phase_gate_fidelity"], 1.0, 1e-6,
               r["phase_gate_fidelity"] >= 1.0 - 1e-6),
        _check("adiabatic_elimination_final_diff", r["adiabatic_elimination_final_diff"],
               0.0, 0.01),
        _check("adiabatic_elimination_improvement", r["adiabatic_elimination_improvement"],
               5.0, 0.0, r["adiabatic_elimination_improvement"] >= 5.0),
        _check("stirap_efficiency", r["stirap_efficiency"], 1.0, 0.01,
               r["stirap_efficiency"] > 0.99),
        _check("stirap_order_advantage", r["stirap_efficiency"] - r["stirap_efficiency_reversed"],
               0.0, 0.0, r["stirap_efficiency"] > r["stirap_efficiency_reversed"]),
        _check("stirap_norm_drift", r["stirap_norm_drift"], 0.0, 1e-9,
               r["stirap_norm_drift"] < 1e-9),
        _window_check("dephasing_time_s", r["dephasing_time_s"], 180e-6, 250e-6),
        _check("ramsey_contrast_at_t_phi", r["ramsey_contrast_at_t_phi"], math.exp(-0.5), 0.01),
        _check("inelastic_loss_20us", r["inelastic_loss_20us"], 0.8647, 1e-4),
        _check("operations_count", r["operations_count"], 10.0, 2.0),
        _check("channel_storage_1_stable", r["open_channels_storage_1"], 0.0, 0.0),
        _check("channel_enabled_0_stable", r["open_channels_enabled_0"], 0.0, 0.0),
        _check("channel_enabled_1_decays_to_swapped_pair", named_decay, 1.0, 0.0),
    ]
    return r
