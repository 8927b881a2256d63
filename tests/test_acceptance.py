"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none are configurable.
"""

import json
import math
from importlib import resources

import numpy as np

from hybridgate import cli
from hybridgate.budget import (dephasing_time, inelastic_loss_probability,
                               operations_budget, ramsey_contrast_mc)
from hybridgate.dynamics import (LambdaParams, PulseEnvelope, TwoLevelParams,
                                 effective_rabi, pi_pulse_duration, raman_trajectory,
                                 simulate_stirap, stirap_trajectory,
                                 two_level_population)
from hybridgate.gate import (GateSchedule, Step, accumulated_phase_numeric,
                             build_gate_schedule, build_phase_gate, dipole_dipole_rate,
                             gate_fidelity, interaction_time_for_pi,
                             schedule_total_duration, total_phase_closed_form)
from hybridgate.hyperfine import (RB87, HyperfineState, field_sensitivity,
                                  open_decay_channels, resonance_site_count,
                                  site_frequency_resolution, transition_frequency)
from hybridgate.scenario import load_scenario_text

UP = HyperfineState(2, 2)
DOWN = HyperfineState(1, 1)
OMEGA_R = 1e6                               # conversion-pulse Rabi rate [rad/s]
OMEGA_DD = dipole_dipole_rate(4.2, 500e-9)  # 4.2 D molecules 500 nm apart
ENABLER_ROTATION_S = 30e-6                  # one-qubit rotation time [s]


def _report(number, name, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_qubit_transition_at_resonance_field():
    value = transition_frequency(RB87, UP, DOWN, 649.0)
    ok = abs(value - 8.3e9) <= 0.01 * 8.3e9
    _report(1, "transition at 649 G within 1% of 8.3 GHz", ok,
            f"value={value:.6e} Hz (expected 8.28 GHz)")


def test_criterion_02_field_sensitivity():
    value = field_sensitivity(RB87, UP, DOWN, 649.0)
    ok_value = abs(value - 2.38e6) <= 0.03 * 2.38e6
    h = 0.01
    worst = 0.0
    for b in (1.0, 10.0, 100.0, 649.0, 1000.0, 2000.0):
        analytic = field_sensitivity(RB87, UP, DOWN, b)
        fd = (transition_frequency(RB87, UP, DOWN, b + h)
              - transition_frequency(RB87, UP, DOWN, b - h)) / (2.0 * h)
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    ok = ok_value and worst <= 1e-6
    _report(2, "sensitivity within 3% of 2.38 MHz/G, FD agreement 1e-6", ok,
            f"value={value:.6e} Hz/G, max FD rel err={worst:.2e}")


def test_criterion_03_single_site_addressing():
    sens = field_sensitivity(RB87, UP, DOWN, 649.0)
    resolution = site_frequency_resolution(sens, 1000.0, 5e-5)
    sites = resonance_site_count(5.0, 1000.0, 5e-5)
    ok = (1.0e5 <= resolution <= 1.3e5) and sites == 100
    _report(3, "site resolution in [100, 130] kHz and 100 resonant sites", ok,
            f"resolution={resolution:.6e} Hz, sites={sites}")


def test_criterion_04_dipole_dipole_rate():
    # Independent hand calculation recorded here:
    #   mu   = 4.2 D * 3.33564e-30 C*m/D          = 1.4009688e-29 C*m
    #   mu^2 = 1.9627136e-58 C^2 m^2
    #   E    = mu^2 / (4 pi eps0 * (5e-7 m)^3)    = 1.4111992e-29 J
    #   E/hbar = 1.4111992e-29 / 1.054571817e-34  = 1.3381727e5 rad/s
    ok = (1.2e5 <= OMEGA_DD <= 1.5e5) and abs(OMEGA_DD - 1.3381727e5) / 1.3381727e5 < 1e-6
    _report(4, "omega_dd in [1.2e5, 1.5e5] rad/s and equals hand value", ok,
            f"value={OMEGA_DD:.6e} rad/s")


def test_criterion_05_pi_pulse_duration():
    value = pi_pulse_duration(TwoLevelParams(OMEGA_R, 0.0))
    ok = abs(value - 3.14e-6) <= 0.1 * 3.14e-6
    _report(5, "pi pulse duration 3.14 us within 10%", ok, f"value={value:.6e} s")


def test_criterion_06_phase_consistency():
    single = GateSchedule((Step("raman_down", math.pi / OMEGA_R,
                                TwoLevelParams(OMEGA_R, 0.0)),))
    phi_single = accumulated_phase_numeric(OMEGA_DD, single)
    expected_single = OMEGA_DD * 3.0 * math.pi / (8.0 * OMEGA_R)
    rel_single = abs(phi_single - expected_single) / expected_single

    schedule = build_gate_schedule(OMEGA_DD, OMEGA_R, ENABLER_ROTATION_S)
    phi_total = accumulated_phase_numeric(OMEGA_DD, schedule)
    err_pi = abs(phi_total - math.pi)

    tau = interaction_time_for_pi(OMEGA_DD, OMEGA_R)
    phi_closed = total_phase_closed_form(OMEGA_DD, OMEGA_R, OMEGA_DD, tau)
    rel_closed = abs(phi_closed - phi_total) / abs(phi_total)

    ok = rel_single <= 1e-6 and err_pi <= 1e-4 and rel_closed <= 0.01
    _report(6, "exact phase vs 3pi/8, pi accumulation, closed form within 1%", ok,
            f"single rel={rel_single:.2e}, |phi-pi|={err_pi:.2e}, closed rel={rel_closed:.2e}")


def test_criterion_07_gate_time_and_recorded_inconsistency():
    schedule = build_gate_schedule(OMEGA_DD, OMEGA_R, ENABLER_ROTATION_S)
    gate_time = schedule_total_duration(schedule).gate_s
    tau = interaction_time_for_pi(OMEGA_DD, OMEGA_R)
    # The ~14 us wait figure quoted for these parameters is inconsistent
    # with the wait-time formula (21-31 us); assert the mismatch is present
    # rather than matching it.
    mismatch_present = abs(tau - 14e-6) > 0.25 * 14e-6
    ok = (15e-6 <= gate_time <= 35e-6) and mismatch_present
    _report(7, "gate time in [15, 35] us; 14 us wait inconsistency recorded", ok,
            f"gate={gate_time:.6e} s, tau_int={tau:.6e} s")


def test_criterion_08_noiseless_protocol_fidelity():
    schedule = build_gate_schedule(OMEGA_DD, OMEGA_R, ENABLER_ROTATION_S)
    phi = accumulated_phase_numeric(OMEGA_DD, schedule)
    fid = gate_fidelity(build_phase_gate(phi),
                        build_phase_gate(math.pi))  # ideal diag(-1, 1, 1, 1)
    ok = fid >= 1.0 - 1e-6
    _report(8, "phase-gate fidelity >= 1 - 1e-6", ok, f"fidelity={fid:.12f}")


def test_criterion_09_adiabatic_elimination():
    base = LambdaParams(2e7, 2e7, 2e8)       # delta_e = 10 * max coupling
    drive = TwoLevelParams(effective_rabi(base).omega_r_rad_s, 0.0)
    duration = pi_pulse_duration(drive)
    p2 = float(two_level_population(drive, duration))
    diff = abs(raman_trajectory(base, duration).final_populations()[2] - p2)
    scaled = LambdaParams(2e7 * math.sqrt(10.0), 2e7 * math.sqrt(10.0), 2e9)
    diff_scaled = abs(raman_trajectory(scaled, duration).final_populations()[2] - p2)
    improvement = diff / max(diff_scaled, 1e-300)
    ok = diff <= 0.01 and improvement >= 5.0
    _report(9, "3-level vs 2-level transfer within 1%, improves x5 at 10x detuning", ok,
            f"diff={diff:.2e}, improvement={improvement:.1f}x")


def test_criterion_10_stirap():
    sigma, separation, peak = 30e-6, 45e-6, 1e6  # peak * sigma = 30
    margin = 4.0 * sigma
    pump = PulseEnvelope(peak, margin + separation, sigma)
    stokes = PulseEnvelope(peak, margin, sigma)
    traj = stirap_trajectory(pump, stokes, 0.0, 0.0)
    efficiency = float(traj.final_populations()[2])
    drift = traj.norm_drift
    pump_r = PulseEnvelope(peak, margin, sigma)
    stokes_r = PulseEnvelope(peak, margin + separation, sigma)
    reversed_eff = simulate_stirap(pump_r, stokes_r, 0.0, 0.0)
    ok = efficiency > 0.99 and reversed_eff < efficiency and drift < 1e-9
    _report(10, "STIRAP > 0.99, reversed order worse, unitarity drift < 1e-9", ok,
            f"eff={efficiency:.6f}, reversed={reversed_eff:.6f}, drift={drift:.2e}")


def test_criterion_11_decoherence_budget():
    sens = field_sensitivity(RB87, UP, DOWN, 649.0)
    t_phi = dephasing_time(sens, 3e-4)
    contrast = ramsey_contrast_mc(sens, 3e-4, t_phi, 100000, seed=20260808)
    loss = inelastic_loss_probability(1e5, 20e-6)
    gate_time = schedule_total_duration(build_gate_schedule(OMEGA_DD, OMEGA_R, ENABLER_ROTATION_S)).gate_s
    ops = operations_budget(t_phi, gate_time)
    ok = (180e-6 <= t_phi <= 250e-6
          and abs(contrast - 0.6065) <= 0.01
          and abs(loss - 0.8647) <= 1e-4
          and 8 <= ops <= 12)
    _report(11, "T_phi in [180, 250] us, contrast 0.6065(10), loss 0.8647(1), n = 10(2)",
            ok, f"T_phi={t_phi:.6e} s, contrast={contrast:.4f}, loss={loss:.6f}, n={ops}")


def test_criterion_12_channel_stability():
    scn = load_scenario_text(resources.files("hybridgate").joinpath("data/paper.cfg").read_text())
    _, storage_1 = scn.qubit_channel_storage()
    enabled_0, enabled_1 = scn.qubit_channel_enabled()
    stable_storage = open_decay_channels(storage_1, 649.0)
    stable_enabled = open_decay_channels(enabled_0, 649.0)
    unstable = open_decay_channels(enabled_1, 649.0)
    named = any(c.state_a == DOWN and c.state_b == HyperfineState(2, 2) for c in unstable)
    ok = stable_storage == [] and stable_enabled == [] and len(unstable) > 0 and named
    _report(12, "channel classifications (stable, stable, decays to swapped pair)", ok,
            f"open counts: {len(stable_storage)}, {len(stable_enabled)}, {len(unstable)}; "
            f"named product found: {named}")


def test_criterion_13_deterministic_repro(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(resources.files("hybridgate").joinpath("data/paper.cfg").read_text())
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli.main(["paper-repro", "--config", str(cfg), "--out", str(out1),
                      "--seed", "424242"])
    code2 = cli.main(["paper-repro", "--config", str(cfg), "--out", str(out2),
                      "--seed", "424242"])
    bytes1 = (out1 / "paper_repro.json").read_bytes()
    bytes2 = (out2 / "paper_repro.json").read_bytes()
    identical = bytes1 == bytes2
    report = json.loads(bytes1)
    all_pass = all(c["pass"] for c in report["checks"])
    ok = code1 == 0 and code2 == 0 and identical and all_pass
    _report(13, "paper-repro byte-identical across runs with same seed", ok,
            f"identical={identical}, checks passed={all_pass} "
            f"({len(report['checks'])} checks)")
