"""Scenario-driven command-line front end.

    hybridgate <subcommand> --config <path> [--out <dir>] [--seed <u64>]
               [--mode paper|standard]

Subcommands: levels, pulse, stirap, gate, budget, sweep, paper-repro.
Output tables are CSV with a metadata comment line; identical config and
seed produce byte-identical files. Exit codes: 0 success, 1 configuration
error, 2 numerical failure.
"""

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import __version__
from .budget import dephasing_time
from .dynamics import (LAMBDA_LABELS, TwoLevelParams, pi_pulse_duration, simulate_stirap,
                       two_level_population)
from .errors import ConfigError, DomainError, NumericalFailure
from .gate import (accumulated_phase_profile, dipole_dipole_rate, induced_dipole,
                   interaction_time_for_pi)
from .hyperfine import all_states, breit_rabi_energy, field_sensitivity, transition_frequency
from .output import ensure_out_dir, format_float, metadata_line, write_csv, write_json
from .repro import (_budget_run, _gate_run, _gate_schedule, _qubit_sensitivity, _raman_run,
                    _stirap_args, _stirap_run, paper_repro)
from .scenario import load_scenario_text

SUBCOMMANDS = ("levels", "pulse", "stirap", "gate", "budget", "sweep", "paper-repro")

STIRAP_SWEEP_FACTORS = np.geomspace(0.01, 1.0, 8)   # ends at exactly 1.0, the full drive


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

    def table(self, name, columns, *series):
        """Write a CSV table of float columns, one per series, to the output directory."""
        rows = np.column_stack(series).tolist()   # Python floats format faster than numpy's
        write_csv(os.path.join(self.out_dir, name), columns, rows, self.meta)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; bad usage is a
    # configuration problem here, so convert to ConfigError (exit 1).
    def error(self, message):
        raise ConfigError(message)


@functools.cache   # built on the first run, not at import; parse_args keeps no state
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


# --------------------------------------------------------------------------
# Subcommands


def _cmd_levels(scn, ctx):
    cfg = scn.levels
    grid = np.linspace(cfg.b_min_gauss, cfg.b_max_gauss, cfg.count)
    sp, up, lo = scn.qubit.species, scn.qubit.upper, scn.qubit.lower
    for state in all_states(sp):
        ctx.table(f"levels_energy_f{state.f}_m{state.m}.csv", ("b_g", "energy_hz"), grid,
                  breit_rabi_energy(sp, state, grid, mode=ctx.mode))
    ctx.table("levels_table.csv", ("b_g", "transition_hz", "sensitivity_hz_per_g"), grid,
              transition_frequency(sp, up, lo, grid, mode=ctx.mode),
              field_sensitivity(sp, up, lo, grid, mode=ctx.mode))
    t_ref = transition_frequency(sp, up, lo, scn.field.b_gauss, mode=ctx.mode)
    print(f"levels: {len(grid)} field points; transition at {scn.field.b_gauss} G "
          f"= {format_float(t_ref)} Hz")
    return 0


def _cmd_pulse(scn, ctx):
    _, reduction, drive, duration, traj = _raman_run(scn, 501)
    pops = traj.populations()
    p2 = two_level_population(drive, traj.times)
    ctx.table("pulse_molecule_3level.csv", ("t_s", "p_molecule"), traj.times, pops[:, 2])
    ctx.table("pulse_molecule_2level.csv", ("t_s", "p_molecule"), traj.times, p2)
    ctx.table("pulse_excited_3level.csv", ("t_s", "p_excited"), traj.times, pops[:, 1])
    max_dev = np.max(np.abs(pops[:, 2] - p2))
    print(f"pulse: omega_R = {format_float(reduction.omega_r_rad_s)} rad/s, "
          f"pi duration = {format_float(duration)} s")
    print(f"pulse: final P_molecule 3-level = {format_float(pops[-1, 2])}, "
          f"2-level = {format_float(p2[-1])}, max deviation = {format_float(max_dev)}")
    return 0


def _cmd_stirap(scn, ctx):
    traj, efficiency, eff_reversed = _stirap_run(scn)
    pops = traj.populations()
    for idx, name in enumerate(LAMBDA_LABELS):
        ctx.table(f"stirap_{name}.csv", ("t_s", f"p_{name}"), traj.times, pops[:, idx])
    areas = STIRAP_SWEEP_FACTORS * scn.stirap.peak_rad_s * scn.stirap.rms_width_s
    # the sweep ends at the full drive, whose transfer _stirap_run already integrated
    ctx.table("stirap_efficiency.csv", ("omega0_rms_area", "efficiency"), areas,
              [simulate_stirap(*_stirap_args(scn, peak_factor=float(factor)))
               for factor in STIRAP_SWEEP_FACTORS[:-1]] + [efficiency])
    print(f"stirap: efficiency = {format_float(efficiency)} (reversed order "
          f"{format_float(eff_reversed)}), norm drift = {format_float(traj.norm_drift)}")
    return 0


def _cmd_gate(scn, ctx):
    ind, omega_dd, schedule, durations, _, phi, phi_closed, fidelity = _gate_run(scn)
    ctx.table("gate_phase_rad.csv", ("t_s", "phi_rad"),
              *accumulated_phase_profile(omega_dd, schedule))
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
    sens, report, contrast = _budget_run(scn, ctx.mode, schedule)
    write_json(os.path.join(ctx.out_dir, "budget_report.json"),
               {**ctx.header, "sensitivity_hz_per_g": sens, **asdict(report),
                "ramsey_contrast_at_t_phi": contrast})
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
        sp, up, lo, b = scn.qubit.species, scn.qubit.upper, scn.qubit.lower, np.array(values)
        return {"transition_hz": transition_frequency(sp, up, lo, b, mode=ctx.mode),
                "sensitivity_hz_per_g": field_sensitivity(sp, up, lo, b, mode=ctx.mode)}
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
    values = np.linspace(scn.sweep.minimum, scn.sweep.maximum, scn.sweep.count).tolist()
    curves = _sweep_curves(scn, ctx, values)
    for name, series in curves.items():
        ctx.table(f"sweep_{name}.csv", (scn.sweep.parameter.lower(), name), values, series)
    print(f"sweep: {scn.sweep.parameter} over [{scn.sweep.minimum}, {scn.sweep.maximum}] "
          f"({scn.sweep.count} points) -> {len(curves)} curve file(s)")
    return 0


def _cmd_paper_repro(scn, ctx):
    report = paper_repro(scn, ctx.mode)
    write_json(os.path.join(ctx.out_dir, "paper_repro.json"), {**ctx.header, **report})
    checks = report["checks"]
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
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        raise ConfigError(f"must fit in 64 bits, got {args.seed}", key="--seed")
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
