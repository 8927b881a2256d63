import hashlib
import json
import math
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from hybridgate import __version__, cli, dynamics, gate, repro
from hybridgate.budget import BudgetReport
from hybridgate.constants import BOHR_MAGNETON_HZ_PER_G
from hybridgate.errors import DomainError, NumericalFailure
from hybridgate.gate import interaction_time_for_pi
from hybridgate.hyperfine import all_states, field_sensitivity
from hybridgate.record import replace
from hybridgate.scenario import load_scenario_text


def _bundled_text():
    return resources.files("hybridgate").joinpath("data/paper.cfg").read_text()


def _write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _failed_checks_with_derived_verdicts(checks):
    """The names of the failed checks, after asserting that every check is
    {name, kind, value, pass} plus low, high or both, and that its verdict is
    low <= value <= high over the bounds it has."""
    for c in checks:
        bounds = set(c) - {"name", "kind", "value", "pass"}
        assert bounds and bounds <= {"low", "high"} and c["kind"] in repro.CHECK_KINDS, c
        assert c["pass"] == (c.get("low", c["value"]) <= c["value"] <= c.get("high", c["value"])), c
    return [c["name"] for c in checks if not c["pass"]]


def _sweep_text(parameter, minimum, maximum):
    """The bundled config with its [sweep] axis and range replaced."""
    text = _bundled_text()
    for key, value in (("parameter", parameter), ("min", minimum), ("max", maximum)):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    return text


def _with_key(text, section, key, value):
    """``text`` with ``[section] key`` set to ``value`` (keys repeat across sections)."""
    head, header, body = text.partition(f"[{section}]\n")
    body, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", body, count=1)
    assert header and count == 1, (section, key)
    return head + header + body


# Config values at the edge of float range, and counts past their work bound, each
# with the subcommand it breaks. Each is refused: exit 1 with one line on stderr.
CONFIG_EXTREMES = [
    ("pulse", "raman", "omega_p_rad_s", "1e300"),
    ("pulse", "raman", "omega_p_rad_s", "1e-300"),
    ("paper-repro", "raman", "omega_p_rad_s", "1e-300"),
    ("pulse", "dipole", "fopa_enhancement", "1e300"),
    ("gate", "dipole", "separation_r_m", "1e300"),
    ("gate", "dipole", "separation_r_m", "1e-300"),
    ("gate", "dipole", "rotational_const_Hz", "1e-300"),
    ("stirap", "stirap", "peak_rad_s", "1e300"),
    ("stirap", "stirap", "delta_e_rad_s", "1e300"),
    ("stirap", "stirap", "rms_width_s", "1e300"),
    ("stirap", "stirap", "rms_width_s", "1e-300"),
    ("paper-repro", "stirap", "rms_width_s", "1e-300"),
    ("levels", "levels", "b_max_G", "1e300"),
    ("levels", "field", "b_G", "1e300"),
    ("sweep", "dipole", "e_dc_V_per_m", "1e300"),
    ("sweep", "sweep", "min", "0.0"),   # sigma_B_G from 0: below the key's > 0 bound
    # each past its upper bound: its first array would take 728 TiB or more
    ("budget", "noise", "mc_samples", "100000000000000000000"),
    ("levels", "levels", "count", "100000000000000"),
    ("sweep", "sweep", "count", "100000000000000"),
]


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith(f"# hybridgate {__version__} config=sha256:")
    header = lines[1].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[2:]]
    return header, np.array(rows)


class TestLevels:
    def test_zero_field_splitting_column(self, tmp_path):
        text = _bundled_text().replace("b_min_G = 0.0", "b_min_G = 0.0") \
                              .replace("b_max_G = 1000.0", "b_max_G = 0.0") \
                              .replace("count = 101", "count = 1")
        cfg = _write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["levels", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out / "levels_table.csv")
        assert header == ["b_g", "transition_hz", "sensitivity_hz_per_g"]
        assert rows[0][0] == 0.0
        assert rows[0][1] == 6.835e9

    def test_state_map_files(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out = tmp_path / "out"
        assert cli.main(["levels", "--config", cfg, "--out", str(out)]) == 0
        for f, m in ((1, -1), (1, 0), (1, 1), (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)):
            header, rows = _read_csv(out / f"levels_energy_f{f}_m{m}.csv")
            assert header == ["b_g", "energy_hz"]
            assert len(rows) == 101

    def test_nuclear_spin_other_than_three_halves(self, tmp_path):
        # An Rb85 qubit (I = 5/2): with m in place of 4m/(2I+1) the |3,-3>
        # radicand 1 - 3x + x^2 is negative for 0.38 < x < 2.62, inside the
        # bundled 0-1000 G grid.
        splitting = 3.0357324390e9
        text = (f"[species Rb85]\nnuclear_spin = 2.5\nhyperfine_splitting_Hz = {splitting!r}\n"
                "g_J = 2.00233\n\n" + _bundled_text().replace(
                    "species = Rb87\nupper_f = 2\nupper_m = 2\nlower_f = 1\nlower_m = 1",
                    "species = Rb85\nupper_f = 3\nupper_m = 3\nlower_f = 2\nlower_m = 2"))
        cfg = _write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["levels", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _read_csv(out / "levels_energy_f3_m-3.csv")
        # |3,-3> = |m_J = -1/2, m_I = -5/2> is an eigenstate of
        # A I.J + g_J mu_B B J_z with energy A*I/2 - g_J mu_B B/2, A = dE/3;
        # for I = 5/2 the -1/12 offset is the centroid's -1/(2(2I+1)).
        b = rows[:, 0]
        exact = splitting * 5.0 / 12.0 - 2.00233 * BOHR_MAGNETON_HZ_PER_G * b / 2.0
        assert b[-1] == 1000.0
        assert np.allclose(rows[:, 1], exact, rtol=1e-10, atol=0.0)


class TestSweep:
    def test_separation_sweep_obeys_inverse_cube(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out / "sweep_omega_dd_rad_s.csv")
        assert header == ["separation_r_m", "omega_dd_rad_s"]
        assert len(rows) == 64
        product = rows[:, 1] * rows[:, 0] ** 3
        assert np.max(np.abs(product / product[0] - 1.0)) < 1e-9

    def test_field_sweep_emits_two_curves(self, tmp_path):
        text = _bundled_text().replace("parameter = separation_r_m", "parameter = b_G") \
                              .replace("min = 3e-7", "min = 0.0") \
                              .replace("max = 1e-06", "max = 1000.0") \
                              .replace("max = 1e-6", "max = 1000.0")
        cfg = _write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, trans = _read_csv(out / "sweep_transition_hz.csv")
        _, sens = _read_csv(out / "sweep_sensitivity_hz_per_g.csv")
        assert trans[0][1] == 6.835e9
        assert sens.shape == (64, 2)

    @pytest.mark.parametrize("parameter, minimum, maximum", [("b_G", 0.0, 1000.0),
                                                             ("sigma_B_G", 1e-5, 1e-3)])
    def test_qubit_axes_do_not_read_the_dipole(self, tmp_path, parameter, minimum, maximum):
        # an induced dipole that overflows is an error of the stages that use it
        text = _sweep_text(parameter, minimum, maximum)
        tables = []
        for name, config in (("bundled", text),
                             ("overflowing", _with_key(text, "dipole", "rotational_const_Hz",
                                                       "1e-300"))):
            out = tmp_path / name
            assert cli.main(["sweep", "--config", _write_config(tmp_path, config, f"{name}.cfg"),
                             "--out", str(out)]) == 0
            tables.append({p.name: p.read_text().splitlines()[1:] for p in out.iterdir()})
        assert len(tables[0]) == {"b_G": 2, "sigma_B_G": 1}[parameter]
        assert tables[0] == tables[1]

    def test_noise_sweep_keeps_t_phi_times_sigma(self):
        scn = load_scenario_text(_sweep_text("sigma_B_G", 1e-5, 1e-3))
        values, curves = repro.sweep_curves(scn)
        t_phi = np.array(curves["dephasing_time_s"])
        sens = field_sensitivity(scn.qubit.species, scn.qubit.upper, scn.qubit.lower,
                                 scn.field.b_gauss)
        np.testing.assert_allclose(t_phi * values, 1.0 / (2.0 * math.pi * sens), rtol=1e-12)

    def test_rabi_sweep_gives_pi_pulse_and_wait(self):
        scn = load_scenario_text(_sweep_text("omega_R_rad_s", 5e5, 5e6))
        values, curves = repro.sweep_curves(scn)
        omega_dd = repro.gate_run(scn).omega_dd_rad_s
        np.testing.assert_allclose(curves["pi_pulse_duration_s"], np.pi / np.array(values),
                                   rtol=1e-15)
        assert curves["interaction_time_s"] == [interaction_time_for_pi(omega_dd, w)
                                                for w in values]

    def test_dipole_sweep_scales_as_mu_to_the_fourth(self):
        # 26 points from 1 to 6 D step by 0.2 D: the configured 4.2 D is point 16
        scn = load_scenario_text(_with_key(_sweep_text("mu_permanent_D", 1.0, 6.0),
                                           "sweep", "count", 26))
        mu = scn.dipole.mu_permanent_debye
        values, curves = repro.sweep_curves(scn)
        assert values[16] == mu
        omega = np.array(curves["omega_dd_rad_s"])
        np.testing.assert_allclose(omega / np.array(values) ** 4, omega[16] / mu ** 4, rtol=1e-12)
        assert omega[16] == pytest.approx(repro.gate_run(scn).omega_dd_rad_s, rel=1e-12)

    @pytest.mark.parametrize("parameter, minimum, maximum, curves", [
        ("sigma_B_G", 1e-5, 1e-3, ["dephasing_time_s"]),
        ("omega_R_rad_s", 5e5, 5e6, ["pi_pulse_duration_s", "interaction_time_s"]),
        ("mu_permanent_D", 1.0, 6.0, ["omega_dd_rad_s"]),
    ])
    def test_other_axes_write_their_curves(self, tmp_path, parameter, minimum, maximum, curves):
        cfg = _write_config(tmp_path, _sweep_text(parameter, minimum, maximum))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(f"sweep_{c}.csv" for c in curves)
        for curve in curves:
            header, rows = _read_csv(out / f"sweep_{curve}.csv")
            assert header == [parameter.lower(), curve] and rows.shape == (64, 2)
            assert np.all(np.isfinite(rows)) and rows[-1][0] == maximum


class TestPaperRepro:
    def test_all_checks_pass(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out = tmp_path / "out"
        assert cli.main(["paper-repro", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "paper_repro.json").read_text())
        assert report["tool_version"] == __version__
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names))
        assert _failed_checks_with_derived_verdicts(report["checks"]) == []
        assert report["transition_hz"] == pytest.approx(8.2784e9, rel=1e-4)
        assert report["open_channels_enabled_1"] == ["|1,1>Rb87+|2,2>Li7"]

    @pytest.mark.parametrize("low, high, value, ok", [
        (0.0, 1.0, 0.0, True), (0.0, 1.0, 1.0, True), (0.0, 1.0, -0.5, False),
        (0.0, 1.0, 1.5, False), (0.0, 1.0, math.nan, False), (None, 1.0, -1e300, True),
        (None, 1.0, 1.5, False), (None, 1.0, math.nan, False), (0.0, None, 1e300, True),
        (0.0, None, -0.5, False), (0.0, None, math.nan, False)])
    def test_a_check_passes_exactly_inside_its_window(self, low, high, value, ok):
        check = repro._check("c", repro.CLAIM, value, low, high)
        assert check["pass"] is ok
        assert list(check) == ["name", "kind", "value",
                               *(side for side, b in (("low", low), ("high", high)) if b is not None),
                               "pass"]

    def test_each_check_line_prints_its_kind_and_the_bounds_it_has(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["paper-repro", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        checks = json.loads((out / "paper_repro.json").read_text())["checks"]
        assert len(lines) == len(checks) + 1
        for line, c in zip(lines, checks):
            bounds = "".join(rf" {side}=\S+" for side in ("low", "high") if side in c)
            assert re.fullmatch(rf"PASS {c['name']} \({c['kind']}\): value=\S+{bounds}", line)

    def test_off_resonance_field_fails_only_the_transition_check(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text().replace("b_G = 649.0", "b_G = 600.0"))
        out = tmp_path / "out"
        cli.main(["paper-repro", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "paper_repro.json").read_text())
        assert _failed_checks_with_derived_verdicts(report["checks"]) == ["transition_649G_hz"]

    @pytest.mark.parametrize("subcommand", ["paper-repro", "budget"])
    def test_zero_field_noise_is_a_configuration_error(self, tmp_path, capsys, subcommand):
        # T_phi and the operations count are unbounded at sigma_B = 0.
        cfg = _write_config(tmp_path,
                            _bundled_text().replace("sigma_B_G = 3e-4", "sigma_B_G = 0.0"))
        assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "hybridgate: configuration error: [noise] sigma_B_G: must be > 0, got 0.0\n")
        assert not (tmp_path / "o").exists()

    def test_vanishing_gradient_is_an_invalid_value(self, tmp_path, capsys):
        # The site count width/(gradient*spacing) leaves float range.
        cfg = _write_config(tmp_path, _bundled_text().replace("gradient_G_per_cm = 1000.0",
                                                              "gradient_G_per_cm = 1e-320"))
        assert cli.main(["paper-repro", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "invalid value" in err
        assert "Traceback" not in err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["paper-repro", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["paper-repro", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "paper_repro.json").read_bytes() == (out2 / "paper_repro.json").read_bytes()

    def test_all_subcommand_outputs_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            for sub in ("levels", "pulse", "stirap", "gate", "budget", "sweep", "paper-repro"):
                assert cli.main([sub, "--config", cfg, "--out", str(out)]) == 0
        names1 = sorted(p.name for p in out1.iterdir())
        assert names1 == sorted(p.name for p in out2.iterdir())
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_library_report_matches_cli_json(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out = tmp_path / "out"
        assert cli.main(["paper-repro", "--config", cfg, "--out", str(out)]) == 0
        written = json.loads((out / "paper_repro.json").read_text())
        header = ("tool_version", "config_sha256", "seed")
        assert list(written)[:3] == list(header)
        report = repro.paper_repro(load_scenario_text(_bundled_text()))
        assert {k: v for k, v in written.items() if k not in header} == report

    def test_stirap_efficiencies_pinned(self):
        # The RK4 arithmetic is fixed: a change to how its products are laid
        # out may move these only by rounding, far inside any physical tolerance.
        stirap = repro.stirap_run(load_scenario_text(_bundled_text()))
        assert stirap.efficiency == pytest.approx(0.9999807821803351, rel=1e-12)
        assert stirap.reversed_efficiency == pytest.approx(0.5894534225363848, rel=1e-12)

    def test_reversed_efficiency_matches_the_direct_reversed_run(self):
        # stirap_run reads the reversed order from its molecule row by time
        # reversal; integrating the swapped pulses from the atoms agrees
        scn = load_scenario_text(_bundled_text())
        st = scn.stirap
        margin = dynamics.GAUSSIAN_CUTOFF_SIGMAS * st.rms_width_s
        pump = dynamics.PulseEnvelope(st.peak_rad_s, margin, st.rms_width_s)   # pump first
        stokes = dynamics.PulseEnvelope(st.peak_rad_s, margin + st.separation_s, st.rms_width_s)
        direct = dynamics.stirap_trajectory(pump, stokes, st.delta_e_rad_s,
                                            st.delta_rad_s).final_populations()[2]
        assert repro.stirap_run(scn).reversed_efficiency == pytest.approx(direct, abs=1e-12)

    def test_seed_override_changes_contrast(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["paper-repro", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
        assert cli.main(["paper-repro", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
        r1 = json.loads((out1 / "paper_repro.json").read_text())
        r2 = json.loads((out2 / "paper_repro.json").read_text())
        assert r1["seed"] == 1 and r2["seed"] == 2
        assert r1["ramsey_contrast_at_t_phi"] != r2["ramsey_contrast_at_t_phi"]
        assert r1["transition_hz"] == r2["transition_hz"]


class TestStageRecords:
    SCN = load_scenario_text(_bundled_text())

    def test_levels_transition_at_b_matches_report(self):
        levels = repro.levels_run(self.SCN)
        assert levels.transition_at_b_hz == repro.paper_repro(self.SCN)["transition_hz"]

    def test_levels_energies_keyed_in_state_order(self):
        levels = repro.levels_run(self.SCN)
        assert levels.states == tuple(all_states(self.SCN.qubit.species))
        assert levels.energies_hz.shape == (len(levels.states), len(levels.grid_g))

    def test_raman_two_level_population_ends_on_the_pulse(self):
        raman = repro.raman_run(self.SCN)
        assert raman.two_level_population.shape == raman.trajectory.times.shape
        assert raman.two_level_population[-1] == dynamics.two_level_population(
            raman.drive, raman.duration_s)
        assert raman.max_deviation == np.max(np.abs(
            raman.trajectory.populations()[:, 2] - raman.two_level_population))

    def test_stage_trajectories_cannot_be_edited(self):
        for traj in (repro.raman_run(self.SCN).trajectory, repro.stirap_run(self.SCN).trajectory):
            with pytest.raises(ValueError):
                traj.times[0] = 5.0
            with pytest.raises(ValueError):
                traj.amplitudes[0, 0] = 5.0

    @pytest.mark.parametrize("detuned", [False, True], ids=["bundled", "detuned"])
    def test_area_sweep_runs_stirap_on_each_scaled_drive(self, detuned):
        # each run is stirap_run on the config with its peak scaled, bit for bit;
        # the last factor is 1.0, so the last run is the configured drive's
        scn = self.SCN
        if detuned:
            scn = replace(scn, stirap=replace(scn.stirap, delta_e_rad_s=2e6, delta_rad_s=3e4))
        areas, runs = repro.stirap_area_sweep(scn)
        factors = repro.STIRAP_SWEEP_FACTORS
        peak = scn.stirap.peak_rad_s
        assert np.array_equal(areas, factors * peak * scn.stirap.rms_width_s)
        assert len(runs) == len(factors) and runs[-1] == repro.stirap_run(scn)
        for factor, run in zip(factors, runs):
            scaled = replace(scn, stirap=replace(scn.stirap, peak_rad_s=peak * float(factor)))
            assert run == repro.stirap_run(scaled)

    def test_gate_phase_is_the_last_profile_point(self):
        gr = repro.gate_run(self.SCN)
        assert gr.phase_rad == gr.phase_profile[1][-1]
        assert gr.phase_profile[0][-1] == pytest.approx(gr.schedule.total_s, rel=1e-15)


class TestOtherSubcommands:
    def test_pulse_files(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out = tmp_path / "out"
        assert cli.main(["pulse", "--config", cfg, "--out", str(out)]) == 0
        _, three = _read_csv(out / "pulse_molecule_3level.csv")
        _, two = _read_csv(out / "pulse_molecule_2level.csv")
        assert three[-1][1] == pytest.approx(1.0, abs=1e-3)
        assert two[-1][1] == pytest.approx(1.0, abs=1e-9)

    def test_gate_phase_profile(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out = tmp_path / "out"
        assert cli.main(["gate", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _read_csv(out / "gate_phase_rad.csv")
        assert rows[-1][1] == pytest.approx(np.pi, abs=1e-11)
        assert np.all(np.diff(rows[:, 1]) >= -1e-15)

    def test_budget_report(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out = tmp_path / "out"
        assert cli.main(["budget", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "budget_report.json").read_text())
        assert list(report) == ["tool_version", "config_sha256", "seed",
                                "sensitivity_hz_per_g", *BudgetReport._fields,
                                "ramsey_contrast_at_t_phi"]
        assert 180e-6 <= report["dephasing_time_s"] <= 250e-6
        assert report["adiabaticity_ok"] is True
        assert 8 <= report["operations_count"] <= 12
        # strict JSON: no null, and no NaN or Infinity, which json.loads reads as floats
        for key, value in report.items():
            assert isinstance(value, (str, int, float, bool)), (key, value)
            assert not isinstance(value, float) or math.isfinite(value), (key, value)

    def test_budget_builds_the_schedule_without_the_phase_profile(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("budget computed the gate's phase profile")

        scn = load_scenario_text(_bundled_text())
        assert repro.gate_schedule(scn)[2] == repro.gate_run(scn).schedule
        monkeypatch.setattr(gate, "accumulated_phase_profile", refuse)
        assert cli.main(["budget", "--out", str(tmp_path)]) == 0

    def test_stirap_files(self, tmp_path):
        cfg = _write_config(tmp_path, _bundled_text())
        out = tmp_path / "out"
        assert cli.main(["stirap", "--config", cfg, "--out", str(out)]) == 0
        _, eff = _read_csv(out / "stirap_efficiency.csv")
        assert eff[-1][1] > 0.99      # full drive, adiabatic
        assert eff[0][1] < 0.9        # weakest drive, diabatic
        _, mol = _read_csv(out / "stirap_molecule.csv")
        assert mol[-1][1] > 0.99

    @staticmethod
    def _count_integrations(monkeypatch):
        calls = []
        integrate = dynamics.integrate_schrodinger

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_schrodinger", counted)
        return calls

    def test_stirap_integrates_each_transfer_once(self, tmp_path, monkeypatch):
        # 9 transfers in 8 integrations: the full drive from the atoms and
        # from the molecule in one run, whose molecule row gives the reversed
        # order by time reversal, and the seven weaker drives of the area
        # sweep; the sweep's last row is the full-drive run
        calls = self._count_integrations(monkeypatch)
        cfg = _write_config(tmp_path, _bundled_text())
        out = tmp_path / "out"
        assert cli.main(["stirap", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 8
        _read_csv(out / "stirap_efficiency.csv")
        assert (out / "stirap_efficiency.csv").read_text().splitlines()[1:] == [
            "omega0_rms_area,efficiency",
            "3.00000000000e-01,4.08744473791e-04",
            "5.79209318665e-01,5.39683160802e-03",
            "1.11827811609e+00,6.21534037285e-02",
            "2.15905701900e+00,4.45873777263e-01",
            "4.16848648312e+00,9.74645372670e-01",
            "8.04808738584e+00,9.92163212266e-01",
            "1.55384240377e+01,9.99063234657e-01",
            "3.00000000000e+01,9.99980782180e-01",
        ]

    def test_paper_repro_integrates_once(self, tmp_path, monkeypatch):
        # both STIRAP orders come from one run
        calls = self._count_integrations(monkeypatch)
        cfg = _write_config(tmp_path, _bundled_text())
        assert cli.main(["paper-repro", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestExitCodes:
    @pytest.mark.parametrize("subcommand, section, key, value", CONFIG_EXTREMES)
    def test_config_extremes_exit_cleanly(self, tmp_path, capsys, subcommand, section, key, value):
        # No exception or warning escapes main: it exits 1, prints one line and
        # writes nothing.
        text = (_sweep_text("sigma_B_G", value, 1e-3) if (section, key) == ("sweep", "min")
                else _with_key(_bundled_text(), section, key, value))
        out = tmp_path / "o"
        code = cli.main([subcommand, "--config", _write_config(tmp_path, text), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("hybridgate: ") and err.count("\n") == 1, err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("subcommand", ["gate", "budget", "paper-repro", "sweep"])
    @pytest.mark.parametrize("key, value", [("mu_permanent_D", "1e-300"),
                                            ("e_dc_V_per_m", "1e-300"),
                                            ("rotational_const_Hz", "1e300"),
                                            ("separation_r_m", "1e102")])
    def test_an_omega_dd_that_underflows_names_the_dipole_keys(self, tmp_path, capsys,
                                                               subcommand, key, value):
        # the induced dipole or its square underflows to 0 for a positive input;
        # at 1e102 m omega_dd is subnormal, and pi/omega_dd, the wait, is inf. sweep
        # runs on the omega_R_rad_s axis, whose interaction times divide by omega_dd
        text = (_sweep_text("omega_R_rad_s", 5e5, 5e6) if subcommand == "sweep"
                else _bundled_text())
        cfg = _write_config(tmp_path, _with_key(text, "dipole", key, value))
        assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[dipole]" in err, err
        assert f"{key} = {float(value)!r}" in err and "omega_dd must be > 0" not in err
        assert all(f"{k} = " in err for k in ("mu_permanent_D", "rotational_const_Hz",
                                              "e_dc_V_per_m", "separation_r_m")), err

    def test_sweep_writes_the_zeros_of_an_underflowing_omega_dd(self, tmp_path):
        cfg = _write_config(tmp_path, _with_key(_bundled_text(), "dipole", "mu_permanent_D",
                                                "1e-300"))
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out / "sweep_omega_dd_rad_s.csv")
        assert header == ["separation_r_m", "omega_dd_rad_s"] and len(rows) == 64
        assert not rows[:, 1].any()

    def test_non_finite_table_value_is_named_and_not_written(self, tmp_path):
        ctx = cli.RunContext(out_dir=str(tmp_path), seed=0, config_hash="0")
        with pytest.raises(DomainError) as err:
            ctx.table("t.csv", ("x", "y"), [1.0, 2.0, 3.0], [0.5, math.inf, math.nan])
        assert str(err.value) == "t.csv: y = inf in row 2 is not finite"
        assert not (tmp_path / "t.csv").exists()

    def test_missing_key_exits_1(self, tmp_path, capsys):
        text = _bundled_text().replace("sigma_B_G = 3e-4", "")
        cfg = _write_config(tmp_path, text)
        assert cli.main(["budget", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "sigma_B_G" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section,line", [
        ("noise", "gamma_inelastic_per_s = 1e5"),
        ("noise", "sigma_B_G = 3e-4"),
        ("readout", "splitting_Hz = 1e3"),
    ])
    def test_non_finite_number_names_the_key(self, tmp_path, capsys, section, line, value):
        key = line.split(" = ")[0]
        text = _bundled_text().replace(line, f"{key} = {value}")
        cfg = _write_config(tmp_path, text)
        assert cli.main(["budget", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.endswith(
            f"[{section}] {key}: must be a finite number, got {value}\n")
        assert not (tmp_path / "o" / "budget_report.json").exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed_names_the_option(self, tmp_path, capsys, seed):
        cfg = _write_config(tmp_path, _bundled_text())
        assert cli.main(["gate", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert f"--seed: must be >= 0, < 18446744073709551616, got {seed}" in err
        assert "[noise]" not in err

    def test_seed_option_does_not_hide_an_out_of_range_config_seed(self, tmp_path, capsys):
        text = _bundled_text().replace("seed = 20260808", "seed = 18446744073709551616")
        cfg = _write_config(tmp_path, text)
        assert cli.main(["budget", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--seed", "5"]) == 1
        assert "[noise]" in capsys.readouterr().err

    def test_inverted_qubit_names_the_sensitivity_as_a_number(self, tmp_path, capsys):
        text = _bundled_text().replace("upper_f = 2\nupper_m = 2\nlower_f = 1\nlower_m = 1",
                                       "upper_f = 1\nupper_m = 1\nlower_f = 2\nlower_m = 2")
        cfg = _write_config(tmp_path, text)
        assert cli.main(["budget", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.endswith(
            "invalid value: [qubit] upper |1,1> is not above lower |2,2> at b_G = 649.0 G: "
            "the transition frequency is -8278403636.018616 Hz\n")

    def test_a_pair_whose_frequency_falls_with_field_runs(self, tmp_path, capsys):
        # |2,-1> -> |1,0> lies 3.5 G below its zero-slope field: the slope is
        # negative, and T_phi and the site resolution come from its magnitude
        text = _with_key(_with_key(_bundled_text(), "qubit", "upper_m", "-1"),
                         "qubit", "lower_m", "0")
        cfg = _write_config(tmp_path, text)
        assert cli.main(["budget", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        report = json.loads((tmp_path / "b" / "budget_report.json").read_text())
        assert report["sensitivity_hz_per_g"] == pytest.approx(-5016.975184085779, rel=1e-9)
        assert report["dephasing_time_s"] == pytest.approx(0.1058, rel=1e-3)
        assert cli.main(["paper-repro", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        written = json.loads((tmp_path / "r" / "paper_repro.json").read_text())
        assert written["site_resolution_hz"] == pytest.approx(250.8, rel=1e-3)
        failed = _failed_checks_with_derived_verdicts(written["checks"])
        for name in ("field_sensitivity_hz_per_g", "site_resolution_hz", "dephasing_time_s",
                     "operations_count"):
            assert name in failed
        assert "ramsey_contrast_at_t_phi" not in failed
        capsys.readouterr()

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_no_subcommand_exits_1(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["levels", "extra"],
                                      ["budget", "--seed", "x"]])
    def test_usage_error_is_one_configuration_error_line(self, tmp_path, capsys, argv):
        # argparse's wording differs across Python versions; only the frame is pinned
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hybridgate: configuration error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("env_out", [None, "envout"])
    def test_empty_out_is_refused(self, tmp_path, capsys, monkeypatch, env_out):
        # an explicit --out "" is not the default: it neither writes into ./out
        # nor falls back to $HYBRIDGATE_OUT
        monkeypatch.chdir(tmp_path)
        if env_out is None:
            monkeypatch.delenv("HYBRIDGATE_OUT", raising=False)
        else:
            monkeypatch.setenv("HYBRIDGATE_OUT", env_out)
        assert cli.main(["levels", "--out", ""]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hybridgate: configuration error: --out: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--version"], ["-h"], ["levels", "-h"]])
    def test_help_and_version_return_0(self, capsys, argv):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        if argv == ["--version"]:
            assert out == f"hybridgate {__version__}\n"
        else:
            assert out.startswith("usage: hybridgate")

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert cli.main(["levels", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "o")]) == 1
        capsys.readouterr()

    @staticmethod
    def _run_module(*args):
        return subprocess.run([sys.executable, "-m", "hybridgate", *args],
                              capture_output=True, text=True)

    def test_non_utf8_config_exits_1(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(_bundled_text().replace("# Baseline", "# Caf\xe9").encode("latin-1"))
        proc = self._run_module("levels", "--config", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr and str(path) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_config_with_a_byte_order_mark_reads_as_without_it(self, tmp_path, capsys):
        # one leading mark is dropped; the config hash stays that of the file
        raw = b"\xef\xbb\xbf" + _bundled_text().encode("utf-8")
        path = tmp_path / "bom.cfg"
        path.write_bytes(raw)
        assert cli.main(["paper-repro", "--out", str(tmp_path / "plain")]) == 0
        plain = capsys.readouterr()
        assert cli.main(["paper-repro", "--config", str(path), "--out", str(tmp_path / "bom")]) == 0
        assert capsys.readouterr() == plain
        reports = [json.loads((tmp_path / name / "paper_repro.json").read_text())
                   for name in ("plain", "bom")]
        assert reports[1].pop("config_sha256") == hashlib.sha256(raw).hexdigest()
        assert reports[0].pop("config_sha256") != hashlib.sha256(raw).hexdigest()
        assert reports[0] == reports[1]
        path.write_bytes(b"\xef\xbb\xbf" + raw)   # a second mark is config text
        assert cli.main(["levels", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "configuration error: line 1" in capsys.readouterr().err

    def test_uncreatable_out_dir_exits_1(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        proc = self._run_module("levels", "--out", str(blocker / "sub"))
        assert proc.returncode == 1
        assert "configuration error: --out" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unwritable_output_file_exits_1_naming_it(self, tmp_path, capsys):
        # a directory where the report goes: not writable even by root
        (tmp_path / "o" / "budget_report.json").mkdir(parents=True)
        assert cli.main(["budget", "--out", str(tmp_path / "o")]) == 1
        path = tmp_path / "o" / "budget_report.json"
        assert capsys.readouterr().err == (
            f"hybridgate: configuration error: --out: cannot write output file: "
            f"[Errno 21] Is a directory: '{path}'\n")

    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def boom(scn, ctx):
            raise NumericalFailure("norm drift 1e-3 exceeds 1e-07 on a unitary run")
        monkeypatch.setitem(cli._HANDLERS, "gate", boom)
        cfg = _write_config(tmp_path, _bundled_text())
        assert cli.main(["gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestEnvironment:
    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYBRIDGATE_OUT", str(tmp_path / "envout"))
        cfg = _write_config(tmp_path, _bundled_text())
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "sweep_omega_dd_rad_s.csv").exists()

    def test_empty_env_out_counts_as_unset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HYBRIDGATE_OUT", "")
        assert cli.main(["sweep"]) == 0
        assert (tmp_path / "out" / "sweep_omega_dd_rad_s.csv").exists()

    def test_options_before_the_subcommand_match_options_after_it(self, tmp_path, capsys):
        first, last = tmp_path / "first", tmp_path / "last"
        assert cli.main(["--out", str(first), "--seed", "7", "budget"]) == 0
        first_out = capsys.readouterr().out
        assert cli.main(["budget", "--out", str(last), "--seed", "7"]) == 0
        assert capsys.readouterr().out == first_out
        assert ((first / "budget_report.json").read_bytes()
                == (last / "budget_report.json").read_bytes())
        assert json.loads((first / "budget_report.json").read_text())["seed"] == 7

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "hybridgate", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_reused_parser_matches_fresh_processes(self, tmp_path, capsys):
        # Two calls in one process, differing in --seed and --out, must write
        # what two fresh interpreters write.
        cfg = _write_config(tmp_path, _bundled_text())
        calls = (["budget", "--config", cfg, "--seed", "5"],
                 ["levels", "--config", cfg])
        for i, argv in enumerate(calls):
            assert cli.main(argv + ["--out", str(tmp_path / f"same{i}")]) == 0
        in_process = capsys.readouterr().out
        assert cli._build_parser.cache_info().currsize == 1
        fresh = ""
        for i, argv in enumerate(calls):
            proc = subprocess.run([sys.executable, "-m", "hybridgate", *argv,
                                   "--out", str(tmp_path / f"fresh{i}")],
                                  capture_output=True, text=True, check=True)
            fresh += proc.stdout
        assert in_process == fresh
        for i in range(len(calls)):
            names = sorted(p.name for p in (tmp_path / f"fresh{i}").iterdir())
            assert names == sorted(p.name for p in (tmp_path / f"same{i}").iterdir())
            for name in names:
                assert ((tmp_path / f"same{i}" / name).read_bytes()
                        == (tmp_path / f"fresh{i}" / name).read_bytes()), name

    def test_default_config_is_bundled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYBRIDGATE_OUT", str(tmp_path / "o"))
        assert cli.main(["levels"]) == 0
