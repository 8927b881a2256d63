"""Scenario-driven command-line front end.

    hybridgate <subcommand> [--config <path>] [--out <dir>] [--seed <u64>]

Subcommands: levels, pulse, stirap, gate, budget, sweep, paper-repro. Options
may come before or after the subcommand. Output tables are CSV with a metadata
comment line; identical config and seed produce byte-identical files. Exit
codes: 0 success (-h and --version return it too), 1 configuration error (an
empty --out or an output file that cannot be written is one) or invalid value
(a nan or inf in an output table or report is one; that file is not written),
2 numerical failure.
"""

import argparse
import functools
import hashlib
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .dynamics import LAMBDA_LABELS
from .errors import ConfigError, DomainError, NumericalFailure
from .output import format_float, metadata_line, write_csv, write_json
from .record import Record, fields, replace
from .repro import (budget_run, gate_run, levels_run, paper_repro, raman_run, stirap_area_sweep,
                    stirap_run, sweep_curves)
from .scenario import load_scenario_text


class RunContext(Record):
    out_dir: str
    seed: int
    config_hash: str

    def table(self, name, columns, *series):
        """Write a CSV table of float columns, one per series, to the output directory.

        Raises DomainError naming the file, column and row (1 is the first after the
        header) of the first nan or inf, before anything is written."""
        data = np.column_stack(series)
        if not np.isfinite(data).all():
            row, col = np.argwhere(~np.isfinite(data))[0]
            raise DomainError(f"{name}: {columns[col]} = {float(data[row, col])} in row {row + 1} "
                              f"is not finite")
        self._write(write_csv, name, columns, data, metadata_line(self.config_hash, self.seed))

    def report(self, name, payload):
        """Write a JSON report to the output directory, led by the tool version,
        config hash and seed."""
        self._write(write_json, name, {"tool_version": __version__,
                                       "config_sha256": self.config_hash, "seed": self.seed,
                                       **payload})

    def _write(self, writer, name, *args):
        try:
            writer(os.path.join(self.out_dir, name), *args)
        except OSError as exc:   # its message names the file
            raise ConfigError(f"cannot write output file: {exc}", key="--out") from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; bad usage is a
    # configuration problem here, so convert to ConfigError (exit 1).
    def error(self, message):
        raise ConfigError(message)


@functools.cache   # built on the first run, not at import; parse_args keeps no state
def _build_parser():
    parser = _Parser(prog="hybridgate", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hybridgate {__version__}")
    parser.add_argument("subcommand", choices=_HANDLERS)   # defined below; read at the first run
    parser.add_argument("--config", help="scenario config file (default: bundled paper.cfg)")
    parser.add_argument("--out", help="output directory (default: $HYBRIDGATE_OUT or ./out)")
    parser.add_argument("--seed", type=int, help="override the Monte Carlo seed from the config")
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
    levels = levels_run(scn)
    grid = levels.grid_g
    for state, energy in zip(levels.states, levels.energies_hz):
        ctx.table(f"levels_energy_f{state.f}_m{state.m}.csv", ("b_g", "energy_hz"), grid, energy)
    ctx.table("levels_table.csv", ("b_g", "transition_hz", "sensitivity_hz_per_g"), grid,
              levels.transition_hz, levels.sensitivity_hz_per_g)
    print(f"levels: {len(grid)} field points; transition at {scn.field.b_gauss} G "
          f"= {format_float(levels.transition_at_b_hz)} Hz")
    return 0


def _cmd_pulse(scn, ctx):
    raman = raman_run(scn)
    traj = raman.trajectory
    pops = traj.populations()
    p2 = raman.two_level_population
    ctx.table("pulse_molecule_3level.csv", ("t_s", "p_molecule"), traj.times, pops[:, 2])
    ctx.table("pulse_molecule_2level.csv", ("t_s", "p_molecule"), traj.times, p2)
    ctx.table("pulse_excited_3level.csv", ("t_s", "p_excited"), traj.times, pops[:, 1])
    print(f"pulse: omega_R = {format_float(raman.reduction.omega_r_rad_s)} rad/s, "
          f"pi duration = {format_float(raman.duration_s)} s")
    print(f"pulse: final P_molecule 3-level = {format_float(pops[-1, 2])}, "
          f"2-level = {format_float(p2[-1])}, max deviation = {format_float(raman.max_deviation)}")
    return 0


def _cmd_stirap(scn, ctx):
    stirap = stirap_run(scn)
    traj = stirap.trajectory
    pops = traj.populations()
    for idx, name in enumerate(LAMBDA_LABELS):
        ctx.table(f"stirap_{name}.csv", ("t_s", f"p_{name}"), traj.times, pops[:, idx])
    ctx.table("stirap_efficiency.csv", ("omega0_rms_area", "efficiency"),
              *stirap_area_sweep(scn, stirap.efficiency))
    print(f"stirap: efficiency = {format_float(stirap.efficiency)} (reversed order "
          f"{format_float(stirap.reversed_efficiency)}), "
          f"norm drift = {format_float(traj.norm_drift)}")
    return 0


def _cmd_gate(scn, ctx):
    gate = gate_run(scn)
    ctx.table("gate_phase_rad.csv", ("t_s", "phi_rad"), *gate.phase_profile)
    flag = "" if gate.induced.linear_response_valid else " (beyond linear response)"
    print(f"gate: induced dipole = {format_float(gate.induced.mu_induced_debye)} D{flag}, "
          f"omega_dd = {format_float(gate.omega_dd_rad_s)} rad/s")
    for kind, dur in gate.schedule.by_kind.items():
        print(f"gate:   {kind:<16s} {format_float(dur)} s")
    print(f"gate: gate time = {format_float(gate.schedule.gate_s)} s "
          f"(total with rotations {format_float(gate.schedule.total_s)} s)")
    print(f"gate: accumulated phase = {format_float(gate.phase_rad)} rad (closed form "
          f"{format_float(gate.closed_form_phase_rad)}), "
          f"fidelity vs ideal = {format_float(gate.fidelity)}")
    return 0


def _cmd_budget(scn, ctx):
    budget = budget_run(scn)
    report = budget.report
    ctx.report("budget_report.json", {"sensitivity_hz_per_g": budget.sensitivity_hz_per_g,
                                      **fields(report),
                                      "ramsey_contrast_at_t_phi": budget.contrast})
    print(f"budget: T_phi = {format_float(report.dephasing_time_s)} s, "
          f"gate time = {format_float(report.gate_time_s)} s, "
          f"operations = {report.operations_count}")
    print(f"budget: loss probability = {format_float(report.loss_probability)}, "
          f"adiabaticity {'pass' if report.adiabaticity_ok else 'FAIL'}, "
          f"readout >= {format_float(report.readout_min_duration_s)} s")
    return 0


def _cmd_sweep(scn, ctx):
    values, curves = sweep_curves(scn)
    for name, series in curves.items():
        ctx.table(f"sweep_{name}.csv", (scn.sweep.parameter.lower(), name), values, series)
    print(f"sweep: {scn.sweep.parameter} over [{scn.sweep.minimum}, {scn.sweep.maximum}] "
          f"({scn.sweep.count} points) -> {len(curves)} curve file(s)")
    return 0


def _cmd_paper_repro(scn, ctx):
    report = paper_repro(scn)
    ctx.report("paper_repro.json", report)
    for check in report["checks"]:
        bounds = "".join(f" {s}={format_float(check[s])}" for s in ("low", "high") if s in check)
        print(f"{'PASS' if check['pass'] else 'FAIL'} {check['name']} ({check['kind']}): "
              f"value={format_float(check['value'])}{bounds}")
    passed = sum(c["pass"] for c in report["checks"])
    print(f"paper-repro: {passed}/{len(report['checks'])} checks passed")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse, after printing -h or --version
        return exc.code
    config_bytes = _read_config_bytes(args.config)
    config_hash = hashlib.sha256(config_bytes).hexdigest()
    try:
        text = config_bytes.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}", key=str(args.config)) from exc
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        raise ConfigError(f"must fit in 64 bits, got {args.seed}", key="--seed")
    scenario = load_scenario_text(text)
    if args.seed is not None:
        scenario = replace(scenario, noise=replace(scenario.noise, seed=args.seed))
    # an empty --out is refused by makedirs below; an empty HYBRIDGATE_OUT counts as unset
    out_dir = args.out if args.out is not None else os.environ.get("HYBRIDGATE_OUT") or "out"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}", key="--out") from exc
    ctx = RunContext(out_dir=out_dir, seed=scenario.noise.seed, config_hash=config_hash)
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
