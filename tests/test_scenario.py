import re
from importlib import resources

import pytest

from hybridgate.errors import ConfigError
from hybridgate.hyperfine import AtomSpecies
from hybridgate.repro import paper_repro
from hybridgate.scenario import _KEYS, load_scenario_text, parse_config_text


def _bundled_text():
    return resources.files("hybridgate").joinpath("data/paper.cfg").read_text()


def _with_replacement(old, new):
    text = _bundled_text()
    assert old in text, old
    return text.replace(old, new)


def _with_key(text, section, key, value):
    """``text`` with ``[section] key`` set to ``value`` (keys repeat across sections)."""
    head, header, body = text.partition(f"[{section}]\n")
    body, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", body, count=1)
    assert header and count == 1, (section, key)
    return head + header + body


# One rejected value for each bounded key, written out here rather than read from
# the loader's table; a ">=" bound also gives the limit, which must load.
BOUNDED_KEYS = [
    ("field", "b_G", "-1.0", "0.0"),
    ("field", "gradient_G_per_cm", "0.0", None),
    ("field", "site_spacing_m", "0.0", None),
    ("field", "resonance_width_G", "-1.0", "0.0"),
    ("raman", "omega_p_rad_s", "-1.0", "0.0"),
    ("raman", "omega_s_rad_s", "-1.0", "0.0"),
    ("raman", "gamma_e_rad_s", "-1.0", "0.0"),
    ("stirap", "peak_rad_s", "0.0", None),
    ("stirap", "rms_width_s", "0.0", None),
    ("stirap", "separation_s", "-1e-5", None),
    ("dipole", "mu_permanent_D", "0.0", None),
    ("dipole", "rotational_const_Hz", "0.0", None),
    ("dipole", "e_dc_V_per_m", "-1.0", None),
    ("dipole", "separation_r_m", "0.0", None),
    ("dipole", "fopa_enhancement", "0.5", "1.0"),
    ("gate", "omega_R_rad_s", "0.0", None),
    ("gate", "enabler_rotation_s", "0.0", None),
    ("noise", "sigma_B_G", "0.0", None),
    ("noise", "gamma_inelastic_per_s", "-1.0", "0.0"),
    ("noise", "trap_frequency_Hz", "0.0", None),
    ("noise", "seed", "-1", "0"),
    ("noise", "seed", "18446744073709551616", "18446744073709551615"),
    ("noise", "mc_samples", "999", "1000"),
    ("readout", "splitting_Hz", "0.0", None),
    ("readout", "selectivity_factor", "0.0", None),
    ("levels", "b_min_G", "-1.0", "0.0"),
    ("levels", "b_max_G", "-1.0", "0.0"),
    ("levels", "count", "0", "1"),
    ("sweep", "count", "1", "2"),
]


class TestParser:
    def test_sections_and_comments(self):
        text = "# comment\n[alpha]\nkey = 1.5\n; another comment\n[beta]\nname = value\n"
        parsed = parse_config_text(text)
        assert parsed == {"alpha": {"key": "1.5"}, "beta": {"name": "value"}}

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("key = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("[s]\njust words\n")

    def test_repeated_key_or_section(self):
        repeated_key = _with_replacement("b_G = 649.0", "b_G = 649.0\nb_G = 600.0")
        with pytest.raises(ConfigError, match=r"\[field\] b_G: line \d+: repeated key"):
            load_scenario_text(repeated_key)
        with pytest.raises(ConfigError, match=r"\[field\]: line \d+: repeated section"):
            load_scenario_text(_bundled_text() + "[field]\nb_G = 500.0\n")

    @pytest.mark.parametrize("spelling", ["species  Rb85", "species\tRb85"])
    def test_a_section_spelled_twice_is_repeated(self, spelling):
        # a header's whitespace is normalised, so the later section cannot win
        keys = "nuclear_spin = 2.5\nhyperfine_splitting_Hz = 3.0357e9\ng_J = 2.00233\n"
        text = f"[species Rb85]\n{keys}[{spelling}]\n{keys}" + _bundled_text()
        with pytest.raises(ConfigError, match=r"\[species Rb85\]: line 5: repeated section"):
            load_scenario_text(text)


class TestBundledScenario:
    def test_round_trip(self):
        scn = load_scenario_text(_bundled_text())
        assert scn.field.b_gauss == 649.0
        assert scn.qubit.species.name == "Rb87"
        assert scn.qubit.upper.f == 2 and scn.qubit.upper.m == 2
        assert scn.enabler.enabled.f == 1
        assert scn.dipole.mu_permanent_debye == 4.2
        assert scn.gate.omega_r_rad_s == 1e6
        assert scn.noise.sigma_b_gauss == 3e-4
        assert scn.noise.seed == 20260808
        assert scn.noise.mc_samples == 100000
        assert scn.sweep.parameter == "separation_r_m"

    def test_channels(self):
        scn = load_scenario_text(_bundled_text())
        zero, one = scn.qubit_channels("enabled")
        assert zero.label() == "|1,1>Rb87+|1,1>Li7"
        assert one.label() == "|2,2>Rb87+|1,1>Li7"

    def test_omitted_keys_take_their_defaults(self):
        text, count = re.subn(r"(?m)^(delta_rad_s = 0\.0|gamma_e_rad_s = 0\.0|delta_e_rad_s = 0\.0"
                              r"|fopa_enhancement = 1\.0|mc_samples = 100000"
                              r"|selectivity_factor = 1\.0|b_min_G = 0\.0|b_max_G = 1000\.0"
                              r"|count = 101)\n", "", _bundled_text())
        assert count == 10
        bundled = load_scenario_text(_bundled_text())
        omitted = load_scenario_text(text)
        assert omitted == bundled
        assert paper_repro(omitted) == paper_repro(bundled)

    def test_the_key_table_and_the_records_agree(self):
        for section, (record, rows) in _KEYS.items():
            read = [field for field, _ in rows]
            assert set(read) <= set(record._fields), section
            # one row per field; a [species <name>] section fixes the name instead
            fixed = {"name"} if record is AtomSpecies else set()
            assert sorted(read) == sorted(set(record._fields) - fixed), section
            # a string annotation would reach the key's conversion as text
            for field in read:
                assert record._fields[field] in (float, int, str), (section, field)

    def test_each_numeric_key_takes_its_bound_from_its_record(self):
        # a float or int key's bound, None included, is declared once, on its
        # record; a str key has none
        for section, (record, rows) in _KEYS.items():
            for field, key in rows:
                numeric = record._fields[field] in (float, int)
                assert (field in record._bounds) == numeric, (section, key)

    def test_fopa_scales_pump(self):
        scn = load_scenario_text(_with_replacement("fopa_enhancement = 1.0",
                                                   "fopa_enhancement = 3.0"))
        assert scn.raman_effective().omega_p_rad_s == 3.0 * scn.raman.omega_p_rad_s


class TestValidation:
    def test_missing_key_names_it(self):
        text = _with_replacement("sigma_B_G = 3e-4", "")
        with pytest.raises(ConfigError, match=r"\[noise\] sigma_B_G"):
            load_scenario_text(text)

    def test_bad_number_names_key(self):
        text = _with_replacement("b_G = 649.0", "b_G = strong")
        with pytest.raises(ConfigError, match=r"\[field\] b_G"):
            load_scenario_text(text)

    def test_unknown_species(self):
        text = _with_replacement("species = Rb87", "species = Xx99")
        with pytest.raises(ConfigError, match=r"\[qubit\] species"):
            load_scenario_text(text)

    def test_custom_species_section(self):
        text = (_with_replacement("species = Li7", "species = Na23")
                + "\n[species Na23]\nnuclear_spin = 1.5\n"
                  "hyperfine_splitting_Hz = 1.7716261e9\ng_J = 2.00230\n")
        scn = load_scenario_text(text)
        assert scn.enabler.species.name == "Na23"
        assert scn.enabler.species.hyperfine_splitting_hz == 1.7716261e9

    def test_invalid_state_names_keys(self):
        text = _with_replacement("upper_f = 2", "upper_f = 5")
        with pytest.raises(ConfigError, match=r"\[qubit\] upper_f"):
            load_scenario_text(text)

    def test_sweep_count_minimum(self):
        text = _with_replacement("count = 64", "count = 1")
        with pytest.raises(ConfigError, match=r"\[sweep\] count"):
            load_scenario_text(text)

    def test_unknown_sweep_parameter(self):
        text = _with_replacement("parameter = separation_r_m", "parameter = bogus_axis")
        with pytest.raises(ConfigError, match=r"\[sweep\] parameter"):
            load_scenario_text(text)

    def test_negative_field_sweep_minimum(self):
        text = (_with_replacement("parameter = separation_r_m", "parameter = b_G")
                .replace("min = 3e-7", "min = -100.0"))
        with pytest.raises(ConfigError, match=r"\[sweep\] min"):
            load_scenario_text(text)

    @pytest.mark.parametrize("section, key, rejected, limit", BOUNDED_KEYS)
    def test_each_bound_names_its_key(self, section, key, rejected, limit):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: must be >"):
            load_scenario_text(_with_key(_bundled_text(), section, key, rejected))
        if limit is not None:
            text = _with_key(_bundled_text(), section, key, limit)
            if key == "b_max_G":   # a one-point grid may end at its start
                text = _with_key(text, "levels", "count", "1")
            load_scenario_text(text)

    def test_custom_species_splitting_bound(self):
        text = (_with_replacement("species = Li7", "species = Bad1")
                + "\n[species Bad1]\nnuclear_spin = 1.5\n"
                  "hyperfine_splitting_Hz = 0.0\ng_J = 2.0\n")
        with pytest.raises(ConfigError, match=r"^\[species Bad1\] hyperfine_splitting_Hz: must be > 0"):
            load_scenario_text(text)

    @pytest.mark.parametrize("parameter, rejected, limit", [
        ("separation_r_m", "0.0", None),
        ("b_G", "-100.0", "0.0"),
        ("sigma_B_G", "0.0", None),
        ("omega_R_rad_s", "0.0", None),
        ("mu_permanent_D", "0.0", None),
    ])
    def test_sweep_minimum_meets_the_swept_keys_bound(self, parameter, rejected, limit):
        text = _with_key(_with_key(_bundled_text(), "sweep", "parameter", parameter),
                         "sweep", "max", "1e3")
        with pytest.raises(ConfigError, match=r"^\[sweep\] min: must be >"):
            load_scenario_text(_with_key(text, "sweep", "min", rejected))
        if limit is not None:
            assert load_scenario_text(_with_key(text, "sweep", "min", limit)).sweep.minimum == 0.0

    def test_negative_physical_value(self):
        text = _with_replacement("trap_frequency_Hz = 1e5", "trap_frequency_Hz = -1e5")
        with pytest.raises(ConfigError, match=r"\[noise\] trap_frequency_Hz"):
            load_scenario_text(text)

    def test_invalid_custom_species(self):
        text = (_with_replacement("species = Li7", "species = Bad1")
                + "\n[species Bad1]\nnuclear_spin = 0.0\n"
                  "hyperfine_splitting_Hz = 1e9\ng_J = 2.0\n")
        with pytest.raises(ConfigError, match=r"\[species Bad1\]"):
            load_scenario_text(text)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"\[noise\]"):
            load_scenario_text(_with_replacement("seed = 20260808", "seed = -5"))

    def test_unknown_keys_are_listed(self):
        text = (_with_replacement("mc_samples = 100000", "mc_sample = 5000")
                .replace("selectivity_factor = 1.0", "selectivity = 50.0")
                + "[nosuchsection]\nkey = 1\n")
        with pytest.raises(ConfigError) as info:
            load_scenario_text(text)
        message = str(info.value)
        for key in ("[noise] mc_sample", "[readout] selectivity", "[nosuchsection] key"):
            assert key in message
