"""Seeded workloads for the hybridgate benchmark: pool generators, unit
checks and the key quantities compared against stored reference values.

A pool is the list of units one seed draws. A unit is one scenario config
plus the subcommands run on it, in order, through ``hybridgate.cli.main``.
Sizes that drive cost come in antithetic pairs ``(x, lo + hi - x)``, so
every seed's pool has nearly the same total and median cost while every
input still changes with the seed. Only the standard library is used here;
the program itself sees nothing but the generated config files.
"""

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE_CONFIG = os.path.join(ROOT, "src", "hybridgate", "data", "paper.cfg")
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

WORKLOADS = ("paper_repro", "design_scan", "noise_mc")
# Calibration kernel (see calibration.py) whose work matches each workload's.
CALIBRATION_KERNEL = {"paper_repro": "interpreted", "design_scan": "interpreted",
                      "noise_mc": "vectorised"}
REFERENCE_SEED = 0

# Key quantities must match the stored reference to this relative tolerance:
# loose enough for a rewrite whose arithmetic differs at the 1e-13 level
# (outputs carry 12 significant digits), tight enough to catch a wrong answer.
REFERENCE_REL_TOL = 1e-9

CONTRAST_AT_T_PHI = math.exp(-0.5)
# Per-sample variance of cos(phi), phi ~ N(0, 1): the Ramsey phase spread at
# t = T_phi. It sets the standard error of the Monte Carlo contrast.
COS_VARIANCE_AT_T_PHI = 0.5 * (1.0 + math.exp(-2.0)) - math.exp(-1.0)
CONTRAST_MAX_SE = 5.0
PULSE_MAX_DEVIATION = 0.01
# The gate profile is a 512-point trapezoid per step. Its integrands,
# sin^4 and cos^4 of (omega t / 2) over a pi pulse, have vanishing odd
# derivatives at both ends, so the trapezoid error is far below this; the
# observed deviation from pi is the 1e-8 Simpson tolerance of the wait time.
GATE_PROFILE_TOL_RAD = 1e-6

SWEEP_RANGES = {
    # parameter: (draw of min, draw of max given min)
    "separation_r_m": (lambda r: r.uniform(2e-7, 4e-7), lambda r, lo: lo * r.uniform(2.0, 4.0)),
    "b_G": (lambda r: r.uniform(0.0, 500.0), lambda r, lo: lo + r.uniform(200.0, 1500.0)),
    "sigma_B_G": (lambda r: r.uniform(1e-5, 1e-4), lambda r, lo: lo * r.uniform(5.0, 20.0)),
    "omega_R_rad_s": (lambda r: r.uniform(5e5, 1e6), lambda r, lo: lo * r.uniform(2.0, 5.0)),
    "mu_permanent_D": (lambda r: r.uniform(1.0, 3.0), lambda r, lo: lo + r.uniform(1.0, 4.0)),
}


@dataclass(frozen=True)
class Unit:
    """One unit of work: a config and the subcommands run on it."""

    config: str
    subcommands: tuple
    mc_samples: int


def render_config(overrides, base_path=BASE_CONFIG):
    """The bundled scenario with ``{(section, key): value}`` replaced."""
    with open(base_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pending = dict(overrides)
    section = None
    out = []
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
        elif "=" in stripped and not stripped.startswith(("#", ";")):
            key = stripped.partition("=")[0].strip()
            if (section, key) in pending:
                line = f"{key} = {pending.pop((section, key))}"
        out.append(line)
    if pending:
        raise KeyError(f"keys not in the bundled scenario: {sorted(pending)}")
    return "\n".join(out) + "\n"


def _pairs(rng, n, lo, hi):
    """n values in [lo, hi] as antithetic pairs, so their mean is (lo+hi)/2."""
    values = []
    for _ in range(n // 2):
        x = rng.uniform(lo, hi)
        values += [x, lo + hi - x]
    return values


def _mc_seed(rng):
    return rng.getrandbits(63)


def paper_repro_pool(seed, size=2):
    """``paper-repro`` on the bundled scenario with the STIRAP time scale
    jittered within +-10% and the MC seed drawn.

    The width (and the separation, kept at 1.5 widths) scales by s and the
    peak rate by 1/s, so the pulse area, and with it the dimensionless
    dynamics and the RK4 step count, stay those of the bundled scenario.
    Jittering the area itself breaks the paper's ``stirap_order_advantage``
    claim: the intuitive-order transfer oscillates with the area and
    reaches 0.9994 at 0.961 of it, above the counterintuitive 0.9992.
    """
    rng = random.Random(f"paper_repro:{seed}")
    units = []
    for scale in _pairs(rng, size, 0.9, 1.1):
        rms = 3e-5 * scale
        config = render_config({
            ("stirap", "peak_rad_s"): 1e6 / scale,
            ("stirap", "rms_width_s"): rms,
            ("stirap", "separation_s"): 1.5 * rms,
            ("noise", "seed"): _mc_seed(rng),
        })
        units.append(Unit(config, ("paper-repro",), 100000))
    rng.shuffle(units)
    return units


def design_scan_pool(seed, size=30):
    """One scenario per unit through levels, pulse, gate, budget and sweep,
    with the field, geometry, drives, noise, sweep axis and grid sizes drawn.

    The Raman one-photon detuning is drawn 2-4x the bundled 2e8 rad/s, with
    both couplings scaled to keep the effective Rabi rate at 1e6 rad/s. At the
    bundled ratio delta_e/omega = 10 the 3-level trajectory deviates from
    the 2-level formula by up to 0.0125 mid-pulse, the expected first-order
    error of adiabatic elimination, which the 0.01 bound does not allow.
    """
    rng = random.Random(f"design_scan:{seed}")
    params = [p for p in SWEEP_RANGES for _ in range(size // len(SWEEP_RANGES))]
    level_counts = _pairs(rng, len(params), 41, 161)
    sweep_counts = _pairs(rng, len(params), 16, 112)
    units = []
    for param, n_levels, n_sweep in zip(params, level_counts, sweep_counts):
        draw_min, draw_max = SWEEP_RANGES[param]
        lo = draw_min(rng)
        detuning = rng.uniform(2.0, 4.0)
        config = render_config({
            ("raman", "omega_p_rad_s"): 2e7 * math.sqrt(detuning),
            ("raman", "omega_s_rad_s"): 2e7 * math.sqrt(detuning),
            ("raman", "delta_e_rad_s"): 2e8 * detuning,
            ("field", "b_G"): rng.uniform(300.0, 1000.0),
            ("dipole", "separation_r_m"): rng.uniform(4e-7, 7e-7),
            ("gate", "omega_R_rad_s"): rng.uniform(5e5, 2e6),
            ("noise", "sigma_B_G"): 10.0 ** rng.uniform(-4.0, -3.0),
            ("noise", "seed"): _mc_seed(rng),
            ("levels", "count"): round(n_levels),
            ("sweep", "parameter"): param,
            ("sweep", "min"): lo,
            ("sweep", "max"): draw_max(rng, lo),
            ("sweep", "count"): round(n_sweep),
        })
        units.append(Unit(config, ("levels", "pulse", "gate", "budget", "sweep"), 100000))
    rng.shuffle(units)
    return units


def noise_mc_pool(seed, size=8):
    """``budget`` with one to three million Monte Carlo samples."""
    rng = random.Random(f"noise_mc:{seed}")
    units = []
    for samples in _pairs(rng, size, 1.0e6, 3.0e6):
        samples = round(samples)
        config = render_config({
            ("noise", "sigma_B_G"): 10.0 ** rng.uniform(-4.0, -3.0),
            ("noise", "seed"): _mc_seed(rng),
            ("noise", "mc_samples"): samples,
        })
        units.append(Unit(config, ("budget",), samples))
    rng.shuffle(units)
    return units


POOLS = {"paper_repro": paper_repro_pool, "design_scan": design_scan_pool,
         "noise_mc": noise_mc_pool}


def generate(workload, seed):
    return POOLS[workload](seed)


# --------------------------------------------------------------------------
# Reading outputs


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    """Data rows of a hybridgate CSV (metadata line and header skipped)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[2:]]


def output_hashes(out_dir):
    """SHA-256 of every file the program wrote, by file name."""
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _contrast_problem(contrast, samples):
    se = math.sqrt(COS_VARIANCE_AT_T_PHI / samples)
    if abs(contrast - CONTRAST_AT_T_PHI) > CONTRAST_MAX_SE * se:
        return (f"ramsey contrast {contrast!r} is more than {CONTRAST_MAX_SE} standard "
                f"errors ({se:.3g}) from exp(-1/2)")
    return None


def check_unit(workload, unit, out_dir, exit_codes):
    """Problems with one unit's outputs; an empty list means it passed.

    The exit code alone is not trusted: paper-repro exits 0 even when some
    of its checks fail.
    """
    problems = [f"{sub} exited {rc}" for sub, rc in zip(unit.subcommands, exit_codes) if rc != 0]
    if problems:
        return problems
    try:
        if workload == "paper_repro":
            report = _read_json(os.path.join(out_dir, "paper_repro.json"))
            problems += [f"check {c['name']} failed" for c in report["checks"] if not c["pass"]]
        elif workload == "design_scan":
            p3 = _read_csv(os.path.join(out_dir, "pulse_molecule_3level.csv"))
            p2 = _read_csv(os.path.join(out_dir, "pulse_molecule_2level.csv"))
            deviation = max(abs(a[1] - b[1]) for a, b in zip(p3, p2))
            if len(p3) != len(p2) or deviation > PULSE_MAX_DEVIATION:
                problems.append(f"pulse 3-level vs 2-level deviation {deviation!r}")
            phi = _read_csv(os.path.join(out_dir, "gate_phase_rad.csv"))[-1][1]
            if abs(phi - math.pi) > GATE_PROFILE_TOL_RAD:
                problems.append(f"gate profile ends at {phi!r} rad, not pi")
            report = _read_json(os.path.join(out_dir, "budget_report.json"))
            problems.append(_contrast_problem(report["ramsey_contrast_at_t_phi"], unit.mc_samples))
        else:
            report = _read_json(os.path.join(out_dir, "budget_report.json"))
            problems.append(_contrast_problem(report["ramsey_contrast_at_t_phi"], unit.mc_samples))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return [p for p in problems if p]


# --------------------------------------------------------------------------
# Reference values


PAPER_REPRO_KEYS = ("transition_hz", "sensitivity_hz_per_g", "omega_dd_rad_s", "gate_time_s",
                    "accumulated_phase_rad", "phase_gate_fidelity", "stirap_efficiency",
                    "dephasing_time_s", "ramsey_contrast_at_t_phi", "operations_count")
BUDGET_KEYS = ("sensitivity_hz_per_g", "dephasing_time_s", "gate_time_s", "loss_probability",
               "ramsey_contrast_at_t_phi")


def key_quantities(workload, out_dir):
    """The numbers of one unit that are compared with the stored reference."""
    if workload == "paper_repro":
        report = _read_json(os.path.join(out_dir, "paper_repro.json"))
        return {k: report[k] for k in PAPER_REPRO_KEYS}
    report = _read_json(os.path.join(out_dir, "budget_report.json"))
    keys = {k: report[k] for k in BUDGET_KEYS}
    if workload == "design_scan":
        keys["pulse_final_p_molecule"] = _read_csv(
            os.path.join(out_dir, "pulse_molecule_3level.csv"))[-1][1]
        keys["gate_final_phase_rad"] = _read_csv(os.path.join(out_dir, "gate_phase_rad.csv"))[-1][1]
        table = _read_csv(os.path.join(out_dir, "levels_table.csv"))[-1]
        keys["levels_last_transition_hz"] = table[1]
        keys["levels_last_sensitivity_hz_per_g"] = table[2]
        for name in sorted(os.listdir(out_dir)):
            if name.startswith("sweep_"):
                keys[f"{name[:-4]}_last"] = _read_csv(os.path.join(out_dir, name))[-1][1]
    return keys


def load_reference(workload):
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def reference_problems(actual, expected, rel_tol=REFERENCE_REL_TOL):
    """Mismatches between measured and stored key quantities."""
    problems = []
    for key in sorted(set(actual) | set(expected)):
        a, e = actual.get(key), expected.get(key)
        if a is None or e is None:
            problems.append(f"reference key {key} missing")
        elif abs(a - e) > rel_tol * abs(e):
            problems.append(f"reference {key} = {a!r}, stored {e!r} (rel tol {rel_tol})")
    return problems
