"""The paper-reproduction report and the stages it shares with the subcommands.

``paper_repro(scenario, mode)`` computes every headline quantity of the
protocol from the same stage functions the ``pulse``, ``stirap``, ``gate``
and ``budget`` subcommands use, then checks each against the paper's figure.
"""

import math
from dataclasses import replace

# Called through their modules, not imported by name, so that wrapping a
# module attribute (as a span tracer does) also covers the calls made here.
from . import budget, dynamics, gate, hyperfine
from .errors import DomainError

FD_STEP_G = 0.01
FD_CHECK_FIELDS_G = (1.0, 10.0, 100.0, 649.0, 1000.0, 2000.0)
LOSS_BENCHMARK_S = 20e-6       # fixed gate-duration benchmark for the loss figure


def _qubit_sensitivity(scn, mode):
    return hyperfine.field_sensitivity(scn.qubit.species, scn.qubit.upper, scn.qubit.lower,
                                       scn.field.b_gauss, mode=mode)


def _gate_schedule(scn):
    ind = gate.induced_dipole(scn.dipole)
    omega_dd = gate.dipole_dipole_rate(ind.mu_induced_debye, scn.dipole.separation_m)
    schedule = gate.build_gate_schedule(omega_dd, scn.gate.omega_r_rad_s,
                                        scn.gate.enabler_rotation_s)
    return ind, omega_dd, schedule


def _stirap_args(scn, peak_factor=1.0, reversed_order=False):
    """(pump, stokes, delta_e, delta) of the configured STIRAP transfer."""
    peak = scn.stirap.peak_rad_s * peak_factor
    sigma = scn.stirap.rms_width_s
    margin = 4.0 * sigma
    stokes_center, pump_center = margin, margin + scn.stirap.separation_s
    if reversed_order:
        stokes_center, pump_center = pump_center, stokes_center
    return (dynamics.PulseEnvelope(peak, pump_center, sigma),
            dynamics.PulseEnvelope(peak, stokes_center, sigma),
            scn.stirap.delta_e_rad_s, scn.stirap.delta_rad_s)


def _fd_sensitivity_max_rel_err(scn, mode):
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    worst = 0.0
    for b in FD_CHECK_FIELDS_G:
        analytic = hyperfine.field_sensitivity(sp, up, lo, b, mode=mode)
        upper = hyperfine.transition_frequency(sp, up, lo, b + FD_STEP_G, mode=mode)
        lower = hyperfine.transition_frequency(sp, up, lo, b - FD_STEP_G, mode=mode)
        fd = (upper - lower) / (2.0 * FD_STEP_G)
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    return worst


def _raman_run(scn, n_points):
    """Raman pi pulse: drive, two-level reduction, pi duration and trajectory."""
    params = scn.raman_effective()
    reduction = dynamics.effective_rabi(params)
    drive = dynamics.TwoLevelParams(abs(reduction.omega_r_rad_s), params.delta_rad_s)
    duration = dynamics.pi_pulse_duration(drive)
    traj = dynamics.raman_trajectory(params, duration, n_points)
    return params, reduction, drive, duration, traj


def _stirap_run(scn):
    """STIRAP trajectory and efficiency, and the efficiency in reversed order."""
    traj = dynamics.stirap_trajectory(*_stirap_args(scn))
    reversed_efficiency = dynamics.simulate_stirap(*_stirap_args(scn, reversed_order=True))
    return traj, float(traj.final_populations()[2]), reversed_efficiency


def _gate_run(scn):
    """Gate schedule, durations, wait time, phase, closed form and fidelity."""
    ind, omega_dd, schedule = _gate_schedule(scn)
    omega_r = scn.gate.omega_r_rad_s
    phi = gate.accumulated_phase_numeric(omega_dd, schedule)
    tau = gate.interaction_time_for_pi(omega_dd, omega_r)
    phi_closed = gate.total_phase_closed_form(omega_dd, omega_r, omega_dd, tau)
    fidelity = gate.gate_fidelity(gate.build_phase_gate(phi), gate.build_phase_gate(math.pi))
    durations = gate.schedule_total_duration(schedule)
    return ind, omega_dd, schedule, durations, tau, phi, phi_closed, fidelity


def _budget_run(scn, mode, schedule):
    """Sensitivity, budget report and MC contrast at T_phi (1 if T_phi is unbounded)."""
    sens = _qubit_sensitivity(scn, mode)
    report = budget.assemble_budget(scn.noise, sens, schedule, scn.readout.splitting_hz,
                                    selectivity_factor=scn.readout.selectivity_factor)
    contrast = 1.0
    if math.isfinite(report.dephasing_time_s):
        contrast = budget.ramsey_contrast_mc(sens, scn.noise.sigma_b_gauss,
                                             report.dephasing_time_s, scn.mc_samples,
                                             scn.noise.seed)
    return sens, report, contrast


def _check(name, value, expected, tolerance, ok=None):
    """Passes when |value - expected| <= tolerance, or on ``ok`` if given."""
    value = float(value)
    if ok is None:
        ok = abs(value - expected) <= tolerance
    return {"name": name, "value": value, "expected": expected,
            "tolerance": tolerance, "pass": bool(ok)}


def _window_check(name, value, low, high):
    return _check(name, value, 0.5 * (low + high), 0.5 * (high - low))


def paper_repro(scn, mode):
    """Every headline quantity in report order, then ``checks``; the MC seed is
    ``scn.noise.seed`` and ``mode`` the level-energy variant."""
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    b = scn.field.b_gauss
    spacing_cm = scn.field.site_spacing_m * 100.0
    omega_r = scn.gate.omega_r_rad_s

    ind, omega_dd, schedule, durations, tau_int, phi_total, phi_closed, fidelity = _gate_run(scn)
    sens, costs, contrast = _budget_run(scn, mode, schedule)
    if costs.operations_count is None:
        raise DomainError("operations count needs a finite dephasing time (sigma_B_G > 0)")
    single = gate.GateSchedule((gate.RamanDown(dynamics.TwoLevelParams(omega_r, 0.0),
                                               math.pi / omega_r),))

    # Far-detuned reduction quality at the configured ratio, and again with
    # delta_e scaled x10 at fixed omega_R.
    params, _, drive, dur, raman = _raman_run(scn, 241)
    p2 = float(dynamics.two_level_population(drive, dur))
    scaled = replace(params, omega_p_rad_s=params.omega_p_rad_s * math.sqrt(10.0),
                     omega_s_rad_s=params.omega_s_rad_s * math.sqrt(10.0),
                     delta_e_rad_s=params.delta_e_rad_s * 10.0)
    elim_diff = abs(float(raman.final_populations()[2]) - p2)
    elim_diff_scaled = abs(float(dynamics.raman_trajectory(scaled, dur).final_populations()[2])
                           - p2)

    stirap, stirap_eff, stirap_rev = _stirap_run(scn)

    channels = (scn.qubit_channel_storage()[1], *scn.qubit_channel_enabled())
    open_storage_1, open_enabled_0, open_enabled_1 = [
        hyperfine.open_decay_channels(channel, b, mode=mode) for channel in channels]

    r = {
        "transition_hz": hyperfine.transition_frequency(sp, up, lo, b, mode=mode),
        "sensitivity_hz_per_g": sens,
        "sensitivity_fd_max_rel_err": _fd_sensitivity_max_rel_err(scn, mode),
        "site_resolution_hz": hyperfine.site_frequency_resolution(
            sens, scn.field.gradient_g_per_cm, spacing_cm),
        "resonance_site_count": hyperfine.resonance_site_count(
            scn.field.resonance_width_g, scn.field.gradient_g_per_cm, spacing_cm),
        "induced_dipole_D": ind.mu_induced_debye,
        "polarization_ratio": ind.polarization_ratio,
        "linear_response_valid": ind.linear_response_valid,
        "omega_dd_rad_s": omega_dd,
        "pi_pulse_duration_s": dynamics.pi_pulse_duration(dynamics.TwoLevelParams(omega_r, 0.0)),
        "interaction_time_s": tau_int,
        "gate_time_s": durations.gate_s,
        "protocol_time_s": durations.total_s,
        "single_pulse_phase_rad": gate.accumulated_phase_numeric(omega_dd, single),
        "accumulated_phase_rad": phi_total,
        "closed_form_phase_rad": phi_closed,
        "phase_gate_fidelity": fidelity,
        "adiabatic_elimination_final_diff": elim_diff,
        "adiabatic_elimination_improvement": elim_diff / max(elim_diff_scaled, 1e-300),
        "stirap_efficiency": stirap_eff,
        "stirap_efficiency_reversed": stirap_rev,
        "stirap_norm_drift": stirap.norm_drift,
        "dephasing_time_s": costs.dephasing_time_s,
        "ramsey_contrast_at_t_phi": contrast,
        "inelastic_loss_20us": budget.inelastic_loss_probability(
            scn.noise.gamma_inelastic_per_s, LOSS_BENCHMARK_S),
        "inelastic_loss_gate": costs.loss_probability,
        "operations_count": costs.operations_count,
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
