"""The paper-reproduction report and the stages it shares with the subcommands.

``paper_repro(scenario)`` computes every headline quantity from the stage
functions the ``pulse``, ``stirap``, ``gate`` and ``budget`` subcommands use,
then checks them: one row per check, with its kind and the window it must meet.
"""

import math

import numpy as np

# Called through their modules, not imported by name, so that wrapping a
# module attribute (as a span tracer does) also covers the calls made here.
from . import budget, dynamics, gate, hyperfine
from .errors import ConfigError, DomainError
from .record import Record, replace

FD_STEP_G = 0.01
FD_CHECK_FIELDS_G = (1.0, 10.0, 100.0, 649.0, 1000.0, 2000.0)
LOSS_BENCHMARK_S = 20e-6       # fixed gate-duration benchmark for the loss figure
STIRAP_SWEEP_FACTORS = np.geomspace(0.01, 1.0, 8)   # ends at exactly 1.0, the full drive


def _fd_sensitivity_max_rel_err(scn):
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    b = np.array(FD_CHECK_FIELDS_G)
    analytic = hyperfine.field_sensitivity(sp, up, lo, b)
    fd = (hyperfine.transition_frequency(sp, up, lo, b + FD_STEP_G)
          - hyperfine.transition_frequency(sp, up, lo, b - FD_STEP_G)) / (2.0 * FD_STEP_G)
    return float(np.max(np.abs(fd - analytic) / np.abs(analytic)))


class LevelsRun(Record):
    """On the [levels] field grid, the sublevels in all_states order and one row of
    energies_hz per sublevel, the qubit transition and its sensitivity; the transition at b_G."""

    grid_g: np.ndarray
    states: tuple
    energies_hz: np.ndarray   # shape (len(states), len(grid_g))
    transition_hz: np.ndarray
    sensitivity_hz_per_g: np.ndarray
    transition_at_b_hz: float


def levels_run(scn):
    grid = np.linspace(scn.levels.b_min_gauss, scn.levels.b_max_gauss, scn.levels.count)
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    states = hyperfine.all_states(sp)
    energies = np.empty((len(states), len(grid)))   # filled a row at a time, not copied whole
    for row, state in zip(energies, states):
        row[:] = hyperfine.breit_rabi_energy(sp, state, grid)
    return LevelsRun(grid, states, energies, hyperfine.transition_frequency(sp, up, lo, grid),
                     hyperfine.field_sensitivity(sp, up, lo, grid),
                     hyperfine.transition_frequency(sp, up, lo, scn.field.b_gauss))


class RamanRun(Record):
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


class StirapRun(Record):
    """STIRAP trajectory from the atoms, its efficiency and the efficiency in reversed order."""

    trajectory: dynamics.Trajectory
    efficiency: float
    reversed_efficiency: float


def stirap_run(scn):
    """One integration of the configured pulses, from the atoms and from the
    molecule: the atoms row is the trajectory, and its final molecule
    population the efficiency.

    The reversed (intuitive) order comes from the molecule row by time
    reversal (Vitanov, Rangelov, Shore & Bergmann, Rev. Mod. Phys. 89,
    015006 (2017)): if H is real symmetric and H_rev(t) = H(t0 + t1 - t),
    then U_rev = U^T, so the reversed-order transfer from the atoms to the
    molecule is the transfer from the molecule back to the atoms under the
    configured pulses, whose Stokes-first order is intuitive for the
    molecule too. Both conditions hold here:
      - H is real symmetric: gamma_e = 0, with real couplings and detunings;
      - each reversed pulse is its forward one mirrored about the window's
        midpoint: both pulses share the peak and the rms width, and the
        window [t0, t1] runs from the Stokes start to the pump end.
    The two routes differ by the integrator's error alone, which a
    two-photon detuning makes first order at the pulse cut-offs.
    """
    st = scn.stirap
    margin = dynamics.GAUSSIAN_CUTOFF_SIGMAS * st.rms_width_s
    # the Stokes pulse first (the counterintuitive order), its window from 0
    pump = dynamics.PulseEnvelope(st.peak_rad_s, margin + st.separation_s, st.rms_width_s)
    stokes = dynamics.PulseEnvelope(st.peak_rad_s, margin, st.rms_width_s)
    atoms_and_molecule = np.eye(3)[[0, 2]]
    both = dynamics.stirap_trajectory(pump, stokes, st.delta_e_rad_s, st.delta_rad_s,
                                      psi0=atoms_and_molecule)
    traj = dynamics.Trajectory(both.times, both.amplitudes[0])
    efficiency = float(traj.final_populations()[2])
    reversed_efficiency = float(both.final_populations()[1, 0])
    return StirapRun(traj, efficiency, reversed_efficiency)


def stirap_area_sweep(scn):
    """(areas, runs): the pulse areas omega0 * rms width of STIRAP_SWEEP_FACTORS
    times the configured peak, and the StirapRun of each, stirap_run with
    [stirap] peak_rad_s scaled by its factor. The last factor is exactly 1.0,
    so the last run is stirap_run(scn); it runs first, so that a failure
    names the configured drive's numbers."""
    st = scn.stirap
    full = stirap_run(scn)
    weaker = [stirap_run(replace(scn, stirap=replace(st, peak_rad_s=st.peak_rad_s * float(factor))))
              for factor in STIRAP_SWEEP_FACTORS[:-1]]
    return STIRAP_SWEEP_FACTORS * st.peak_rad_s * st.rms_width_s, [*weaker, full]


class GateRun(Record):
    """Induced dipole, omega_dd, schedule, pi-phase wait, phase profile
    (times, phi), its last point and closed form, and fidelity against the ideal gate."""

    induced: gate.InducedDipole
    omega_dd_rad_s: float
    schedule: gate.GateSchedule
    interaction_time_s: float
    phase_profile: tuple
    phase_rad: float
    closed_form_phase_rad: float
    fidelity: float


def gate_schedule(scn):
    """(induced dipole, omega_dd, schedule): the stage gate_run and the budget share."""
    ind = gate.induced_dipole(scn.dipole)
    omega_dd = gate.dipole_dipole_rate(ind.mu_induced_debye, scn.dipole.separation_m)
    return ind, omega_dd, gate.build_gate_schedule(omega_dd, scn.gate.omega_r_rad_s,
                                                   scn.gate.enabler_rotation_s)


def gate_run(scn):
    ind, omega_dd, schedule = gate_schedule(scn)
    profile = gate.accumulated_phase_profile(omega_dd, schedule)
    phi = float(profile[1][-1])
    tau = schedule.by_kind["wait"]   # set by gate.interaction_time_for_pi
    phi_closed = gate.total_phase_closed_form(omega_dd, scn.gate.omega_r_rad_s, omega_dd, tau)
    return GateRun(ind, omega_dd, schedule, tau, profile, phi, phi_closed,
                   gate.phase_gate_fidelity(phi))


class BudgetRun(Record):
    """Qubit field sensitivity, budget report and the Monte Carlo Ramsey
    contrast at T_phi."""

    sensitivity_hz_per_g: float
    report: budget.BudgetReport
    contrast: float


def _qubit_sensitivity(scn):
    """Field sensitivity [Hz/G] of the [qubit] pair at b_G, with its sign: a
    pair whose frequency falls as the field rises has a negative one, and
    dephases and is addressed by its magnitude. Raises DomainError for an
    inverted pair, whose upper level is not above its lower one at b_G."""
    sp, up, lo, b = scn.qubit.species, scn.qubit.upper, scn.qubit.lower, scn.field.b_gauss
    transition = hyperfine.transition_frequency(sp, up, lo, b)
    if not transition > 0:
        raise DomainError(f"[qubit] upper {up.label()} is not above lower {lo.label()} at "
                          f"b_G = {b!r} G: the transition frequency is {transition!r} Hz")
    return hyperfine.field_sensitivity(sp, up, lo, b)


def budget_run(scn):
    schedule = gate_schedule(scn)[2]
    sens = _qubit_sensitivity(scn)
    report = budget.assemble_budget(scn.noise, abs(sens), schedule, scn.readout.splitting_hz,
                                    selectivity_factor=scn.readout.selectivity_factor)
    contrast = budget.ramsey_contrast_mc(sens, scn.noise.sigma_b_gauss, report.dephasing_time_s,
                                         scn.noise.mc_samples, scn.noise.seed)
    return BudgetRun(sens, report, contrast)


def sweep_curves(scn):
    """(values, curves): the ``[sweep]`` grid of count Python floats from min to
    max, and the quantities computed along the ``parameter`` axis at those
    values, one dict entry per curve. Only the axes that read the configured
    induced dipole compute it, so it cannot fail a b_G or sigma_B_G sweep."""
    sw = scn.sweep
    values = np.linspace(sw.minimum, sw.maximum, sw.count).tolist()
    param = sw.parameter
    if param == "separation_r_m":
        mu_induced = gate.induced_dipole(scn.dipole).mu_induced_debye
        return values, {"omega_dd_rad_s":
                        [gate.dipole_dipole_rate(mu_induced, r) for r in values]}
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    if param == "b_G":
        b = np.array(values)
        return values, {"transition_hz": hyperfine.transition_frequency(sp, up, lo, b),
                        "sensitivity_hz_per_g": hyperfine.field_sensitivity(sp, up, lo, b)}
    if param == "sigma_B_G":
        sens = abs(_qubit_sensitivity(scn))
        return values, {"dephasing_time_s": [budget.dephasing_time(sens, s) for s in values]}
    if param == "omega_R_rad_s":
        omega_dd = gate.dipole_dipole_rate(gate.induced_dipole(scn.dipole).mu_induced_debye,
                                           scn.dipole.separation_m)
        return values, {
            "pi_pulse_duration_s": [dynamics.pi_pulse_duration(dynamics.TwoLevelParams(w, 0.0))
                                    for w in values],
            "interaction_time_s": [gate.interaction_time_for_pi(omega_dd, w) for w in values]}
    if param == "mu_permanent_D":
        return values, {"omega_dd_rad_s": [gate.dipole_dipole_rate(
            gate.induced_dipole(replace(scn.dipole, mu_permanent_debye=mu)).mu_induced_debye,
            scn.dipole.separation_m) for mu in values]}
    raise ConfigError(f"unknown sweep parameter {param!r}", key="[sweep] parameter")


# A check's kind: a figure of the paper, two of the model's own routes that
# agree, a bound on the integrator, or a paper figure that the model contradicts.
CHECK_KINDS = CLAIM, CROSS, CONTRACT, DISCREPANCY = (
    "paper_claim", "model_cross_check", "numerical_contract", "paper_discrepancy")


def _check(name, kind, value, low=None, high=None):
    """One entry of ``checks``: passes exactly when low <= value <= high over its bounds."""
    value = float(value)
    bounds = {side: float(b) for side, b in (("low", low), ("high", high)) if b is not None}
    ok = (low is None or low <= value) and (high is None or value <= high)
    return {"name": name, "kind": kind, "value": value, **bounds, "pass": ok}


def paper_repro(scn):
    """Every headline quantity in report order, then ``checks``; the MC seed is
    ``scn.noise.seed``."""
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    b = scn.field.b_gauss
    spacing_cm = scn.field.site_spacing_m * 100.0
    omega_r = scn.gate.omega_r_rad_s

    gr = gate_run(scn)
    omega_dd = gr.omega_dd_rad_s
    br = budget_run(scn)
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

    channels = (scn.qubit_channels("storage")[1], *scn.qubit_channels("enabled"))
    open_storage_1, open_enabled_0, open_enabled_1 = [
        hyperfine.open_decay_channels(channel, b) for channel in channels]

    r = {
        "transition_hz": hyperfine.transition_frequency(sp, up, lo, b),
        "sensitivity_hz_per_g": br.sensitivity_hz_per_g,
        "sensitivity_fd_max_rel_err": _fd_sensitivity_max_rel_err(scn),
        "site_resolution_hz": hyperfine.site_frequency_resolution(
            abs(br.sensitivity_hz_per_g), scn.field.gradient_g_per_cm, spacing_cm),
        "resonance_site_count": hyperfine.resonance_site_count(
            scn.field.resonance_width_g, scn.field.gradient_g_per_cm, spacing_cm),
        "induced_dipole_D": gr.induced.mu_induced_debye,
        "polarization_ratio": gr.induced.polarization_ratio,
        "linear_response_valid": gr.induced.linear_response_valid,
        "omega_dd_rad_s": omega_dd,
        "pi_pulse_duration_s": dynamics.pi_pulse_duration(dynamics.TwoLevelParams(omega_r, 0.0)),
        "interaction_time_s": gr.interaction_time_s,
        "gate_time_s": gr.schedule.gate_s,
        "protocol_time_s": gr.schedule.total_s,
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

    phi_analytic = omega_dd * 3.0 * math.pi / (8.0 * omega_r)
    named_decay = any(c.state_a == lo and c.state_b == scn.enabler.storage
                      for c in open_enabled_1)
    r["checks"] = [
        _check("transition_649G_hz", CLAIM, r["transition_hz"], 0.99 * 8.3e9, 1.01 * 8.3e9),
        _check("field_sensitivity_hz_per_g", CLAIM, r["sensitivity_hz_per_g"], 2.3086e6, 2.4514e6),
        _check("sensitivity_fd_max_rel_err", CROSS, r["sensitivity_fd_max_rel_err"], high=1e-6),
        _check("site_resolution_hz", CLAIM, r["site_resolution_hz"], 1.0e5, 1.3e5),
        _check("resonance_site_count", CLAIM, r["resonance_site_count"], 100, 100),
        _check("omega_dd_rad_s", CLAIM, r["omega_dd_rad_s"], 1.2e5, 1.5e5),
        _check("pi_pulse_duration_s", CLAIM, r["pi_pulse_duration_s"], 2.826e-6, 3.454e-6),
        _check("single_pulse_phase_rel_err", CROSS,
               abs(r["single_pulse_phase_rad"] - phi_analytic) / phi_analytic, high=1e-6),
        _check("schedule_phase_rad", CLAIM, r["accumulated_phase_rad"],
               math.pi - 1e-4, math.pi + 1e-4),
        _check("closed_form_vs_exact_rel_err", CROSS,
               abs(r["closed_form_phase_rad"] - r["accumulated_phase_rad"])
               / abs(r["accumulated_phase_rad"]), high=0.01),
        _check("gate_time_s", CLAIM, r["gate_time_s"], 15e-6, 35e-6),
        _check("tau_int_differs_from_quoted_14us", DISCREPANCY,
               abs(r["interaction_time_s"] - 14e-6) / 14e-6, low=0.25),
        _check("phase_gate_fidelity", CROSS, r["phase_gate_fidelity"], low=1.0 - 1e-6),
        _check("adiabatic_elimination_final_diff", CROSS,
               r["adiabatic_elimination_final_diff"], high=0.01),
        _check("adiabatic_elimination_improvement", CROSS,
               r["adiabatic_elimination_improvement"], low=5.0),
        _check("stirap_efficiency", CLAIM, r["stirap_efficiency"], low=0.99),
        _check("stirap_order_advantage", CLAIM,   # value > 0: low is the least positive float
               r["stirap_efficiency"] - r["stirap_efficiency_reversed"], low=math.ulp(0.0)),
        _check("stirap_norm_drift", CONTRACT, r["stirap_norm_drift"], high=1e-9),
        _check("dephasing_time_s", CLAIM, r["dephasing_time_s"], 180e-6, 250e-6),
        _check("ramsey_contrast_at_t_phi", CROSS, r["ramsey_contrast_at_t_phi"],
               math.exp(-0.5) - 0.01, math.exp(-0.5) + 0.01),
        _check("inelastic_loss_20us", CLAIM, r["inelastic_loss_20us"], 0.8646, 0.8648),
        _check("operations_count", CLAIM, r["operations_count"], 8, 12),
        _check("channel_storage_1_stable", CLAIM, r["open_channels_storage_1"], 0, 0),
        _check("channel_enabled_0_stable", CLAIM, r["open_channels_enabled_0"], 0, 0),
        _check("channel_enabled_1_decays_to_swapped_pair", CLAIM, named_decay, 1, 1),
    ]
    return r
