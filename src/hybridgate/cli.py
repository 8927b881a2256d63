"""Scenario-driven command-line front end.

    hybridgate <subcommand> --config <path> [--out <dir>] [--seed <u64>]
               [--mode paper|standard]

Subcommands: levels, pulse, stirap, gate, budget, sweep, paper-repro.
Output tables are CSV with a metadata comment line; identical config and
seed produce byte-identical files. Exit codes: 0 success, 1 configuration
error, 2 numerical failure.
"""

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import __version__
from .budget import (assemble_budget, dephasing_time, inelastic_loss_probability,
                     ramsey_contrast_mc)
from .dynamics import (LAMBDA_LABELS, PulseEnvelope, TwoLevelParams, effective_rabi,
                       pi_pulse_duration, raman_trajectory, simulate_stirap,
                       stirap_trajectory, two_level_population)
from .errors import ConfigError, DomainError, NumericalFailure
from .gate import (GateSchedule, RamanDown, accumulated_phase_numeric,
                   accumulated_phase_profile, build_gate_schedule, build_phase_gate,
                   dipole_dipole_rate, gate_fidelity, induced_dipole,
                   interaction_time_for_pi, schedule_total_duration,
                   total_phase_closed_form)
from .hyperfine import (all_states, breit_rabi_energy, field_sensitivity, open_decay_channels,
                        resonance_site_count, site_frequency_resolution, transition_frequency)
from .output import ensure_out_dir, format_float, metadata_line, write_csv, write_json
from .scenario import load_scenario_text

SUBCOMMANDS = ("levels", "pulse", "stirap", "gate", "budget", "sweep", "paper-repro")

FD_STEP_G = 0.01
FD_CHECK_FIELDS_G = (1.0, 10.0, 100.0, 649.0, 1000.0, 2000.0)
LOSS_BENCHMARK_S = 20e-6       # fixed gate-duration benchmark for the loss figure
STIRAP_SWEEP_FACTORS = np.geomspace(0.01, 1.0, 8)


@dataclass(frozen=True)
class RunContext:
    out_dir: str
    seed: int
    mode: str
    config_hash: str

    @property
    def meta(self):
        return metadata_line(self.config_hash, self.seed, self.mode)

    @property
    def header(self):   # leading keys of every JSON report
        return {"tool_version": __version__, "config_sha256": self.config_hash,
                "seed": self.seed, "mode": self.mode}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; bad usage is a
    # configuration problem here, so convert to ConfigError (exit 1).
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--config", default=None,
                        help="scenario config file (default: bundled paper.cfg)")
    common.add_argument("--out", default=None,
                        help="output directory (default: $HYBRIDGATE_OUT or ./out)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the Monte Carlo seed from the config")
    common.add_argument("--mode", choices=("paper", "standard"), default="paper",
                        help="level-energy formula variant")
    parser = _Parser(prog="hybridgate", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hybridgate {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name in SUBCOMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _read_config_bytes(path):
    if path is None:
        return resources.files("hybridgate").joinpath("data/paper.cfg").read_bytes()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", key=str(path)) from exc


def _qubit_sensitivity(scn, mode):
    return field_sensitivity(scn.qubit.species, scn.qubit.upper, scn.qubit.lower,
                             scn.field.b_gauss, mode=mode)


def _gate_schedule(scn):
    ind = induced_dipole(scn.dipole)
    omega_dd = dipole_dipole_rate(ind.mu_induced_debye, scn.dipole.separation_m)
    schedule = build_gate_schedule(omega_dd, scn.gate.omega_r_rad_s,
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
    return (PulseEnvelope(peak, pump_center, sigma), PulseEnvelope(peak, stokes_center, sigma),
            scn.stirap.delta_e_rad_s, scn.stirap.delta_rad_s)


def _fd_sensitivity_max_rel_err(scn, mode):
    worst = 0.0
    for b in FD_CHECK_FIELDS_G:
        analytic = field_sensitivity(scn.qubit.species, scn.qubit.upper, scn.qubit.lower,
                                     b, mode=mode)
        up = transition_frequency(scn.qubit.species, scn.qubit.upper, scn.qubit.lower,
                                  b + FD_STEP_G, mode=mode)
        down = transition_frequency(scn.qubit.species, scn.qubit.upper, scn.qubit.lower,
                                    b - FD_STEP_G, mode=mode)
        fd = (up - down) / (2.0 * FD_STEP_G)
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    return worst


def _raman_run(scn, n_points):
    """Raman pi pulse: drive, two-level reduction, pi duration and trajectory."""
    params = scn.raman_effective()
    reduction = effective_rabi(params)
    drive = TwoLevelParams(abs(reduction.omega_r_rad_s), params.delta_rad_s)
    duration = pi_pulse_duration(drive)
    return params, reduction, drive, duration, raman_trajectory(params, duration, n_points)


def _stirap_run(scn):
    """STIRAP trajectory and efficiency, and the efficiency in reversed order."""
    traj = stirap_trajectory(*_stirap_args(scn))
    reversed_efficiency = simulate_stirap(*_stirap_args(scn, reversed_order=True))
    return traj, float(traj.final_populations()[2]), reversed_efficiency


def _gate_run(scn):
    """Gate schedule, durations, wait time, phase, closed form and fidelity."""
    ind, omega_dd, schedule = _gate_schedule(scn)
    omega_r = scn.gate.omega_r_rad_s
    phi = accumulated_phase_numeric(omega_dd, schedule)
    tau = interaction_time_for_pi(omega_dd, omega_r)
    phi_closed = total_phase_closed_form(omega_dd, omega_r, omega_dd, tau)
    fidelity = gate_fidelity(build_phase_gate(phi), build_phase_gate(math.pi))
    durations = schedule_total_duration(schedule)
    return ind, omega_dd, schedule, durations, tau, phi, phi_closed, fidelity


def _budget_run(scn, ctx, schedule):
    """Sensitivity, budget report and MC contrast at T_phi (1 if T_phi is unbounded)."""
    sens = _qubit_sensitivity(scn, ctx.mode)
    report = assemble_budget(scn.noise, sens, schedule, scn.readout.splitting_hz,
                             selectivity_factor=scn.readout.selectivity_factor)
    contrast = 1.0
    if math.isfinite(report.dephasing_time_s):
        contrast = ramsey_contrast_mc(sens, scn.noise.sigma_b_gauss,
                                      report.dephasing_time_s, scn.mc_samples, ctx.seed)
    return sens, report, contrast


# --------------------------------------------------------------------------
# Subcommands


def _cmd_levels(scn, ctx):
    cfg = scn.levels
    grid = np.linspace(cfg.b_min_gauss, cfg.b_max_gauss, cfg.count)
    species = scn.qubit.species
    for state in all_states(species):
        rows = [(float(b), breit_rabi_energy(species, state, float(b), mode=ctx.mode))
                for b in grid]
        write_csv(os.path.join(ctx.out_dir, f"levels_energy_f{state.f}_m{state.m}.csv"),
                  ("b_g", "energy_hz"), rows, ctx.meta)
    rows = []
    for b in grid:
        b = float(b)
        rows.append((b,
                     transition_frequency(species, scn.qubit.upper, scn.qubit.lower, b,
                                          mode=ctx.mode),
                     field_sensitivity(species, scn.qubit.upper, scn.qubit.lower, b,
                                       mode=ctx.mode)))
    write_csv(os.path.join(ctx.out_dir, "levels_table.csv"),
              ("b_g", "transition_hz", "sensitivity_hz_per_g"), rows, ctx.meta)
    t_ref = transition_frequency(species, scn.qubit.upper, scn.qubit.lower,
                                 scn.field.b_gauss, mode=ctx.mode)
    print(f"levels: {len(grid)} field points; transition at {scn.field.b_gauss} G "
          f"= {format_float(t_ref)} Hz")
    return 0


def _cmd_pulse(scn, ctx):
    _, reduction, drive, duration, traj = _raman_run(scn, 501)
    pops = traj.populations()
    p2 = two_level_population(drive, traj.times)
    write_csv(os.path.join(ctx.out_dir, "pulse_molecule_3level.csv"),
              ("t_s", "p_molecule"), list(zip(traj.times.tolist(), pops[:, 2].tolist())),
              ctx.meta)
    write_csv(os.path.join(ctx.out_dir, "pulse_molecule_2level.csv"),
              ("t_s", "p_molecule"), list(zip(traj.times.tolist(), p2.tolist())), ctx.meta)
    write_csv(os.path.join(ctx.out_dir, "pulse_excited_3level.csv"),
              ("t_s", "p_excited"), list(zip(traj.times.tolist(), pops[:, 1].tolist())),
              ctx.meta)
    max_dev = float(np.max(np.abs(pops[:, 2] - p2)))
    print(f"pulse: omega_R = {format_float(reduction.omega_r_rad_s)} rad/s, "
          f"pi duration = {format_float(duration)} s")
    print(f"pulse: final P_molecule 3-level = {format_float(float(pops[-1, 2]))}, "
          f"2-level = {format_float(float(p2[-1]))}, max deviation = {format_float(max_dev)}")
    return 0


def _cmd_stirap(scn, ctx):
    traj, efficiency, eff_reversed = _stirap_run(scn)
    pops = traj.populations()
    for idx, name in enumerate(LAMBDA_LABELS):
        write_csv(os.path.join(ctx.out_dir, f"stirap_{name}.csv"),
                  ("t_s", f"p_{name}"),
                  list(zip(traj.times.tolist(), pops[:, idx].tolist())), ctx.meta)
    rows = []
    for factor in STIRAP_SWEEP_FACTORS:
        eff = simulate_stirap(*_stirap_args(scn, peak_factor=float(factor)))
        rows.append((float(factor) * scn.stirap.peak_rad_s * scn.stirap.rms_width_s, eff))
    write_csv(os.path.join(ctx.out_dir, "stirap_efficiency.csv"),
              ("omega0_rms_area", "efficiency"), rows, ctx.meta)
    print(f"stirap: efficiency = {format_float(efficiency)} (reversed order "
          f"{format_float(eff_reversed)}), norm drift = {format_float(traj.norm_drift)}")
    return 0


def _cmd_gate(scn, ctx):
    ind, omega_dd, schedule, durations, _, phi, phi_closed, fidelity = _gate_run(scn)
    times, phis = accumulated_phase_profile(omega_dd, schedule)
    write_csv(os.path.join(ctx.out_dir, "gate_phase_rad.csv"), ("t_s", "phi_rad"),
              list(zip(times.tolist(), phis.tolist())), ctx.meta)
    flag = "" if ind.linear_response_valid else " (beyond linear response)"
    print(f"gate: induced dipole = {format_float(ind.mu_induced_debye)} D{flag}, "
          f"omega_dd = {format_float(omega_dd)} rad/s")
    for kind, dur in durations.by_kind.items():
        print(f"gate:   {kind:<16s} {format_float(dur)} s")
    print(f"gate: gate time = {format_float(durations.gate_s)} s "
          f"(total with rotations {format_float(durations.total_s)} s)")
    print(f"gate: accumulated phase = {format_float(phi)} rad "
          f"(closed form {format_float(phi_closed)}), fidelity vs ideal = {format_float(fidelity)}")
    return 0


def _cmd_budget(scn, ctx):
    _, _, schedule = _gate_schedule(scn)
    sens, report, contrast = _budget_run(scn, ctx, schedule)
    payload = {
        **ctx.header,
        "sensitivity_hz_per_g": sens,
        "dephasing_time_s": report.dephasing_time_s,
        "gate_time_s": report.gate_time_s,
        "operations_count": report.operations_count,
        "loss_probability": report.loss_probability,
        "adiabaticity_ok": report.adiabaticity_ok,
        "readout_min_duration_s": report.readout_min_duration_s,
        "ramsey_contrast_at_t_phi": contrast,
    }
    write_json(os.path.join(ctx.out_dir, "budget_report.json"), payload)
    ops = "unbounded" if report.operations_count is None else report.operations_count
    print(f"budget: T_phi = {format_float(report.dephasing_time_s)} s, "
          f"gate time = {format_float(report.gate_time_s)} s, operations = {ops}")
    print(f"budget: loss probability = {format_float(report.loss_probability)}, "
          f"adiabaticity {'pass' if report.adiabaticity_ok else 'FAIL'}, "
          f"readout >= {format_float(report.readout_min_duration_s)} s")
    return 0


def _sweep_curves(scn, ctx, values):
    """Quantities computed along the sweep axis, one dict entry per curve."""
    param = scn.sweep.parameter
    ind = induced_dipole(scn.dipole)
    if param == "separation_r_m":
        return {"omega_dd_rad_s":
                [dipole_dipole_rate(ind.mu_induced_debye, r) for r in values]}
    if param == "b_G":
        sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
        return {
            "transition_hz": [transition_frequency(sp, up, lo, b, mode=ctx.mode)
                              for b in values],
            "sensitivity_hz_per_g": [field_sensitivity(sp, up, lo, b, mode=ctx.mode)
                                     for b in values],
        }
    if param == "sigma_B_G":
        sens = _qubit_sensitivity(scn, ctx.mode)
        return {"dephasing_time_s": [dephasing_time(sens, s) for s in values]}
    if param == "omega_R_rad_s":
        omega_dd = dipole_dipole_rate(ind.mu_induced_debye, scn.dipole.separation_m)
        return {
            "pi_pulse_duration_s": [pi_pulse_duration(TwoLevelParams(w, 0.0)) for w in values],
            "interaction_time_s": [interaction_time_for_pi(omega_dd, w) for w in values],
        }
    if param == "mu_permanent_D":
        ratio_per_debye = ind.polarization_ratio / scn.dipole.mu_permanent_debye
        return {"omega_dd_rad_s":
                [dipole_dipole_rate(mu * (ratio_per_debye * mu), scn.dipole.separation_m)
                 for mu in values]}
    raise ConfigError(f"unknown sweep parameter {param!r}", key="[sweep] parameter")


def _cmd_sweep(scn, ctx):
    values = np.linspace(scn.sweep.minimum, scn.sweep.maximum, scn.sweep.count)
    curves = _sweep_curves(scn, ctx, [float(v) for v in values])
    for name, series in curves.items():
        write_csv(os.path.join(ctx.out_dir, f"sweep_{name}.csv"),
                  (scn.sweep.parameter.lower(), name),
                  list(zip((float(v) for v in values), series)), ctx.meta)
    print(f"sweep: {scn.sweep.parameter} over [{scn.sweep.minimum}, {scn.sweep.maximum}] "
          f"({scn.sweep.count} points) -> {len(curves)} curve file(s)")
    return 0


def _check(name, value, expected, tolerance, ok=None):
    """Passes when |value - expected| <= tolerance, or on ``ok`` if given."""
    value = float(value)
    if ok is None:
        ok = abs(value - expected) <= tolerance
    return {"name": name, "value": value, "expected": expected,
            "tolerance": tolerance, "pass": bool(ok)}


def _window_check(name, value, low, high):
    return _check(name, value, 0.5 * (low + high), 0.5 * (high - low))


def _cmd_paper_repro(scn, ctx):
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    b = scn.field.b_gauss
    spacing_cm = scn.field.site_spacing_m * 100.0
    omega_r = scn.gate.omega_r_rad_s

    ind, omega_dd, schedule, durations, tau_int, phi_total, phi_closed, fidelity = _gate_run(scn)
    sens, budget, contrast = _budget_run(scn, ctx, schedule)
    if budget.operations_count is None:
        raise DomainError("operations count needs a finite dephasing time (sigma_B_G > 0)")
    single = GateSchedule((RamanDown(TwoLevelParams(omega_r, 0.0), math.pi / omega_r),))

    # Far-detuned reduction quality at the configured ratio, and again with
    # delta_e scaled x10 at fixed omega_R.
    params, _, drive, dur, raman = _raman_run(scn, 241)
    p2 = float(two_level_population(drive, dur))
    scaled = replace(params, omega_p_rad_s=params.omega_p_rad_s * math.sqrt(10.0),
                     omega_s_rad_s=params.omega_s_rad_s * math.sqrt(10.0),
                     delta_e_rad_s=params.delta_e_rad_s * 10.0)
    elim_diff = abs(float(raman.final_populations()[2]) - p2)
    elim_diff_scaled = abs(float(raman_trajectory(scaled, dur).final_populations()[2]) - p2)

    stirap, stirap_eff, stirap_rev = _stirap_run(scn)

    channels = (scn.qubit_channel_storage()[1], *scn.qubit_channel_enabled())
    open_storage_1, open_enabled_0, open_enabled_1 = [
        open_decay_channels(channel, b, mode=ctx.mode) for channel in channels]

    r = {
        **ctx.header,
        "transition_hz": transition_frequency(sp, up, lo, b, mode=ctx.mode),
        "sensitivity_hz_per_g": sens,
        "sensitivity_fd_max_rel_err": _fd_sensitivity_max_rel_err(scn, ctx.mode),
        "site_resolution_hz": site_frequency_resolution(sens, scn.field.gradient_g_per_cm,
                                                        spacing_cm),
        "resonance_site_count": resonance_site_count(scn.field.resonance_width_g,
                                                     scn.field.gradient_g_per_cm, spacing_cm),
        "induced_dipole_D": ind.mu_induced_debye,
        "polarization_ratio": ind.polarization_ratio,
        "linear_response_valid": ind.linear_response_valid,
        "omega_dd_rad_s": omega_dd,
        "pi_pulse_duration_s": pi_pulse_duration(TwoLevelParams(omega_r, 0.0)),
        "interaction_time_s": tau_int,
        "gate_time_s": durations.gate_s,
        "protocol_time_s": durations.total_s,
        "single_pulse_phase_rad": accumulated_phase_numeric(omega_dd, single),
        "accumulated_phase_rad": phi_total,
        "closed_form_phase_rad": phi_closed,
        "phase_gate_fidelity": fidelity,
        "adiabatic_elimination_final_diff": elim_diff,
        "adiabatic_elimination_improvement": elim_diff / max(elim_diff_scaled, 1e-300),
        "stirap_efficiency": stirap_eff,
        "stirap_efficiency_reversed": stirap_rev,
        "stirap_norm_drift": stirap.norm_drift,
        "dephasing_time_s": budget.dephasing_time_s,
        "ramsey_contrast_at_t_phi": contrast,
        "inelastic_loss_20us": inelastic_loss_probability(scn.noise.gamma_inelastic_per_s,
                                                          LOSS_BENCHMARK_S),
        "inelastic_loss_gate": budget.loss_probability,
        "operations_count": budget.operations_count,
        "open_channels_storage_1": len(open_storage_1),
        "open_channels_enabled_0": len(open_enabled_0),
        "open_channels_enabled_1": [c.label() for c in open_enabled_1],
    }

    phi_single_expected = omega_dd * 3.0 * math.pi / (8.0 * omega_r)
    named_decay = any(c.state_a == lo and c.state_b == scn.enabler.storage
                      for c in open_enabled_1)
    checks = r["checks"] = [
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
        _check("closed_form_vs_quadrature_rel_err",
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
    write_json(os.path.join(ctx.out_dir, "paper_repro.json"), r)
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']}: value={format_float(check['value'])} "
              f"expected={format_float(float(check['expected']))} "
              f"tolerance={format_float(float(check['tolerance']))}")
    failed = sum(1 for c in checks if not c["pass"])
    print(f"paper-repro: {len(checks) - failed}/{len(checks)} checks passed")
    return 0


_HANDLERS = {
    "levels": _cmd_levels,
    "pulse": _cmd_pulse,
    "stirap": _cmd_stirap,
    "gate": _cmd_gate,
    "budget": _cmd_budget,
    "sweep": _cmd_sweep,
    "paper-repro": _cmd_paper_repro,
}


def run(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        raise ConfigError(f"a subcommand is required: one of {', '.join(SUBCOMMANDS)}")
    config_bytes = _read_config_bytes(args.config)
    config_hash = hashlib.sha256(config_bytes).hexdigest()
    try:
        text = config_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}", key=str(args.config)) from exc
    scenario = load_scenario_text(text, seed_override=args.seed)
    out_dir = args.out or os.environ.get("HYBRIDGATE_OUT") or "out"
    try:
        ensure_out_dir(out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}", key="--out") from exc
    ctx = RunContext(out_dir=out_dir, seed=scenario.noise.seed, mode=args.mode,
                     config_hash=config_hash)
    return _HANDLERS[args.subcommand](scenario, ctx)


def main(argv=None):
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"hybridgate: configuration error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"hybridgate: invalid value: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"hybridgate: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
