import math
from importlib import resources

import numpy as np
import pytest

from hybridgate.errors import DomainError
from hybridgate.hyperfine import (
    LI7,
    RB87,
    AtomSpecies,
    HyperfineChannel,
    HyperfineState,
    all_states,
    breit_rabi_energy,
    field_sensitivity,
    open_decay_channels,
    resonance_site_count,
    site_frequency_resolution,
    transition_frequency,
    zeeman_parameter,
)
from hybridgate.scenario import load_scenario_text

UP = HyperfineState(2, 2)
DOWN = HyperfineState(1, 1)

# The bundled scenario's channels: Rb carries the qubit, Li enables the gate
# when moved from |2,2> (storage) to |1,1> (enabled).
_BUNDLED = load_scenario_text(resources.files("hybridgate").joinpath("data/paper.cfg").read_text())
STORAGE_0, STORAGE_1 = _BUNDLED.qubit_channel_storage()
ENABLED_0, ENABLED_1 = _BUNDLED.qubit_channel_enabled()


# --- independent oracle: plain re-derivation of the level formula, used to
# --- cross-check enumeration results below.
def _energy_oracle(species, f, m, b):
    x = species.g_j * 1.399624604e6 * b / species.hyperfine_splitting_hz
    sign = 1.0 if f == int(round(species.nuclear_spin + 0.5)) else -1.0
    return species.hyperfine_splitting_hz * (-1.0 / 12.0 + sign * 0.5 * math.sqrt(1.0 + m * x + x * x))


class TestSpecies:
    def test_presets(self):
        assert RB87.hyperfine_splitting_hz == 6.835e9
        assert RB87.nuclear_spin == 1.5
        assert RB87.g_j == 2.00233
        assert LI7.hyperfine_splitting_hz == 803.5e6
        assert RB87.f_lower == 1 and RB87.f_upper == 2

    def test_validation(self):
        with pytest.raises(DomainError):
            AtomSpecies("bad", 0.0, 1e9, 2.0)
        with pytest.raises(DomainError):
            AtomSpecies("bad", 1.3, 1e9, 2.0)  # not half-integer
        with pytest.raises(DomainError):
            AtomSpecies("bad", 1.5, 0.0, 2.0)
        with pytest.raises(DomainError):
            HyperfineState(1, 2)

    def test_channel_presets(self):
        assert STORAGE_0.m_tot == 3
        assert STORAGE_1.m_tot == 4
        assert ENABLED_0.m_tot == 2
        assert ENABLED_1.m_tot == 3
        assert STORAGE_1.label() == "|2,2>Rb87+|2,2>Li7"


class TestBreitRabiEnergy:
    def test_zero_field_upper(self):
        # x = 0: -1/12 + 1/2 of the splitting
        e = breit_rabi_energy(RB87, UP, 0.0)
        assert e == pytest.approx((0.5 - 1.0 / 12.0) * 6.835e9, rel=1e-12)
        assert e == pytest.approx(2.84792e9, rel=1e-5)

    def test_zero_field_lower(self):
        e = breit_rabi_energy(RB87, DOWN, 0.0)
        assert e == pytest.approx(-(0.5 + 1.0 / 12.0) * 6.835e9, rel=1e-12)
        assert e == pytest.approx(-3.98708e9, rel=1e-5)

    def test_at_resonance_field(self):
        assert zeeman_parameter(RB87, 649.0) == pytest.approx(0.266105, rel=1e-5)
        # frozen direct evaluation
        assert breit_rabi_energy(RB87, UP, 649.0) == pytest.approx(3.757331269831382e9, rel=1e-9)

    def test_standard_mode_offset(self):
        # Standard offset for I=3/2 is -1/8; the difference is a constant
        # (1/12 - 1/8) * splitting at g_i = 0.
        paper = breit_rabi_energy(RB87, UP, 649.0, mode="paper")
        std = breit_rabi_energy(RB87, UP, 649.0, mode="standard")
        assert std - paper == pytest.approx((1.0 / 12.0 - 1.0 / 8.0) * 6.835e9, rel=1e-12)

    def test_standard_mode_nuclear_term(self):
        species = AtomSpecies("Rb87n", 1.5, 6.835e9, 2.00233, g_i=-0.000995)
        base = AtomSpecies("Rb87z", 1.5, 6.835e9, 2.00233)
        diff = (breit_rabi_energy(species, UP, 100.0, mode="standard")
                - breit_rabi_energy(base, UP, 100.0, mode="standard"))
        assert diff == pytest.approx(-0.000995 * 1.399624604e6 * 2 * 100.0, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            breit_rabi_energy(RB87, HyperfineState(3, 0), 0.0)
        with pytest.raises(DomainError):
            breit_rabi_energy(RB87, UP, -1.0)
        with pytest.raises(DomainError):
            breit_rabi_energy(RB87, UP, 649.0, mode="bogus")

    def test_negative_radicand_is_hard_error(self):
        # f = 3, m = -3 of an I = 5/2 species: 1 - 3x + x^2 < 0 near x = 1.5
        species = AtomSpecies("I52", 2.5, 1.0e9, 2.0)
        b = 1.5 * 1.0e9 / (2.0 * 1.399624604e6)
        with pytest.raises(DomainError):
            breit_rabi_energy(species, HyperfineState(3, -3), b)


class TestTransitionFrequency:
    def test_paper_field(self):
        t = transition_frequency(RB87, UP, DOWN, 649.0)
        assert t == pytest.approx(8.278403636018616e9, rel=1e-9)  # frozen
        assert abs(t - 8.3e9) / 8.3e9 < 0.01

    def test_zero_field_equals_splitting_exactly(self):
        assert transition_frequency(RB87, UP, DOWN, 0.0) == 6.835e9

    def test_zero_field_splitting_exact_for_all_shared_m(self):
        for m in (-1, 0, 1):
            diff = transition_frequency(RB87, HyperfineState(2, m), HyperfineState(1, m), 0.0)
            assert diff == 6.835e9

    def test_zeeman_degenerate_at_zero_field(self):
        assert transition_frequency(RB87, UP, HyperfineState(2, 1), 0.0) == 0.0

    def test_antisymmetry(self):
        for b in (0.0, 10.0, 649.0, 1500.0):
            assert transition_frequency(RB87, UP, DOWN, b) == pytest.approx(
                -transition_frequency(RB87, DOWN, UP, b), rel=1e-15)

    def test_mode_independent_without_nuclear_term(self):
        t_paper = transition_frequency(RB87, UP, DOWN, 649.0, mode="paper")
        t_std = transition_frequency(RB87, UP, DOWN, 649.0, mode="standard")
        assert t_paper == pytest.approx(t_std, rel=1e-12)


class TestFieldSensitivity:
    def test_paper_field(self):
        s = field_sensitivity(RB87, UP, DOWN, 649.0)
        assert s == pytest.approx(2.3296942049243324e6, rel=1e-9)  # frozen
        assert abs(s - 2.38e6) / 2.38e6 < 0.03

    def test_zero_field(self):
        # slope 3/4 of g_J mu_B at x = 0 for this pair
        s = field_sensitivity(RB87, UP, DOWN, 0.0)
        assert s == pytest.approx(0.75 * 2.00233 * 1.399624604e6, rel=1e-12)
        assert s == pytest.approx(2.102e6, rel=1e-3)

    def test_strong_field_asymptote(self):
        # Paschen-Back limit: slope -> g_J mu_B
        s = field_sensitivity(RB87, UP, DOWN, 2e5)
        assert s == pytest.approx(2.00233 * 1.399624604e6, rel=1e-4)

    def test_matches_finite_difference(self):
        h = 0.01
        for b in (1.0, 10.0, 100.0, 649.0, 1000.0, 2000.0):
            analytic = field_sensitivity(RB87, UP, DOWN, b)
            fd = (transition_frequency(RB87, UP, DOWN, b + h)
                  - transition_frequency(RB87, UP, DOWN, b - h)) / (2.0 * h)
            assert abs(fd - analytic) / abs(analytic) < 1e-6

    def test_kink_point_is_hard_error(self):
        # g_J mu_B B / dE_hf exactly 1 for this constructed species
        species = AtomSpecies("kink", 1.5, 2.0 * 1.399624604e6, 2.0)
        assert zeeman_parameter(species, 1.0) == 1.0
        with pytest.raises(DomainError):
            field_sensitivity(species, HyperfineState(2, -2), HyperfineState(1, -1), 1.0)


class TestFieldArrays:
    """A field array gives, element by element, the bits of the scalar calls."""

    FIELDS = np.concatenate([np.linspace(0.0, 2500.0, 41), [649.0, 1e-3, 2e5]])
    RB87_NUCLEAR = AtomSpecies("Rb87n", 1.5, 6.835e9, 2.00233, g_i=-0.000995)
    # f = 3, m = -3 of an I = 5/2 species: 1 - 3x + x^2 < 0 for x in (0.38, 2.62)
    I52 = AtomSpecies("I52", 2.5, 1.0e9, 2.0)

    @pytest.mark.parametrize("mode", ["paper", "standard"])
    @pytest.mark.parametrize("species", [RB87, LI7, RB87_NUCLEAR], ids=lambda sp: sp.name)
    def test_arrays_equal_scalar_calls(self, species, mode):
        b = self.FIELDS
        assert type(breit_rabi_energy(species, UP, 649.0, mode=mode)) is float
        assert type(field_sensitivity(species, UP, DOWN, 649.0, mode=mode)) is float
        for state in all_states(species):
            energies = breit_rabi_energy(species, state, b, mode=mode)
            assert np.array_equal(energies, [breit_rabi_energy(species, state, float(v), mode=mode)
                                             for v in b])
        for upper, lower in ((UP, DOWN), (HyperfineState(2, -1), HyperfineState(1, 0))):
            assert np.array_equal(
                transition_frequency(species, upper, lower, b, mode=mode),
                [transition_frequency(species, upper, lower, float(v), mode=mode) for v in b])
            assert np.array_equal(
                field_sensitivity(species, upper, lower, b, mode=mode),
                [field_sensitivity(species, upper, lower, float(v), mode=mode) for v in b])

    @pytest.mark.parametrize("call", [
        lambda b: zeeman_parameter(RB87, b),
        lambda b: breit_rabi_energy(RB87, UP, b),
        lambda b: transition_frequency(RB87, UP, DOWN, b, mode="standard"),
        lambda b: field_sensitivity(RB87, UP, DOWN, b),
    ])
    def test_negative_field_anywhere_names_the_first(self, call):
        with pytest.raises(DomainError) as err:
            call(np.array([649.0, 0.0, -2.5, 10.0, -7.0]))
        assert str(err.value) == "magnetic field must be >= 0 G, got -2.5"
        with pytest.raises(DomainError, match="got -7.0$"):
            call(np.array([649.0, -7.0]))

    def test_negative_radicand_anywhere_names_the_first_field(self):
        x_per_g = 2.0 * 1.399624604e6 / 1.0e9
        fields = np.array([0.0, 0.2, 1.2, 1.5, 0.3, 3.0]) / x_per_g
        state = HyperfineState(3, -3)
        with pytest.raises(DomainError) as err:
            breit_rabi_energy(self.I52, state, fields)
        message = str(err.value)
        assert message.startswith("negative Breit-Rabi radicand -")
        assert message.endswith(f"for |3,-3> at {fields[2]} G")
        with pytest.raises(DomainError, match=rf"for \|3,-3> at {fields[2]} G$"):
            field_sensitivity(self.I52, HyperfineState(2, -2), state, fields)
        with pytest.raises(DomainError, match=rf"at {fields[2]} G$"):
            transition_frequency(self.I52, HyperfineState(2, -2), state, fields)

    def test_kink_point_anywhere_names_the_field(self):
        species = AtomSpecies("kink", 1.5, 2.0 * 1.399624604e6, 2.0)
        with pytest.raises(DomainError, match=r"radicand zero for \|2,-2> at 1.0 G$"):
            field_sensitivity(species, HyperfineState(2, -2), HyperfineState(1, -1),
                              np.array([0.5, 1.0, 2.0]))


class TestAddressing:
    def test_site_resolution_paper_numbers(self):
        res = site_frequency_resolution(2.33e6, 1000.0, 5e-5)
        assert res == pytest.approx(1.165e5, rel=1e-9)
        assert 1.0e5 <= res <= 1.3e5

    def test_site_resolution_trivial(self):
        assert site_frequency_resolution(2.38e6, 0.0, 5e-5) == 0.0
        assert site_frequency_resolution(2.38e6, 2000.0, 5e-5) == pytest.approx(2.38e5, rel=1e-12)
        with pytest.raises(DomainError):
            site_frequency_resolution(-1.0, 1000.0, 5e-5)

    def test_site_count(self):
        assert resonance_site_count(5.0, 1000.0, 5e-5) == 100
        assert resonance_site_count(0.0, 1000.0, 5e-5) == 0
        assert resonance_site_count(2.0, 2000.0, 5e-5) == 20
        with pytest.raises(DomainError):
            resonance_site_count(5.0, 0.0, 5e-5)
        with pytest.raises(DomainError):
            resonance_site_count(5.0, 1000.0, 0.0)


class TestOpenDecayChannels:
    def test_enabled_1_decays_to_swapped_pair(self):
        open_list = open_decay_channels(ENABLED_1, 649.0)
        labels = [c.label() for c in open_list]
        assert "|1,1>Rb87+|2,2>Li7" in labels
        # energy bookkeeping: Rb release exceeds the Li promotion cost
        rb_release = transition_frequency(RB87, UP, DOWN, 649.0)
        li_cost = transition_frequency(LI7, UP, DOWN, 649.0)
        assert rb_release == pytest.approx(8.28e9, rel=1e-3)
        assert li_cost == pytest.approx(2.47e9, rel=2e-3)
        assert rb_release > li_cost

    def test_storage_and_enabled_0_are_stable(self):
        assert open_decay_channels(STORAGE_1, 649.0) == []
        assert open_decay_channels(ENABLED_0, 649.0) == []
        assert open_decay_channels(STORAGE_0, 649.0) == []

    def test_exhaustive_enumeration_oracle(self):
        # Independently enumerate every same-m_tot lower-energy channel for
        # every possible input channel and compare.
        b = 649.0
        states_rb = [(s.f, s.m) for s in all_states(RB87)]
        states_li = [(s.f, s.m) for s in all_states(LI7)]
        for fa, ma in states_rb:
            for fb, mb in states_li:
                chan = HyperfineChannel(RB87, HyperfineState(fa, ma),
                                        LI7, HyperfineState(fb, mb))
                e_in = _energy_oracle(RB87, fa, ma, b) + _energy_oracle(LI7, fb, mb, b)
                expected = set()
                for f1, m1 in states_rb:
                    for f2, m2 in states_li:
                        if (f1, m1, f2, m2) == (fa, ma, fb, mb) or m1 + m2 != ma + mb:
                            continue
                        e = _energy_oracle(RB87, f1, m1, b) + _energy_oracle(LI7, f2, m2, b)
                        if e < e_in:
                            expected.add((f1, m1, f2, m2))
                got = {(c.state_a.f, c.state_a.m, c.state_b.f, c.state_b.m)
                       for c in open_decay_channels(chan, b)}
                assert got == expected, chan.label()

    def test_result_properties(self):
        for chan in (STORAGE_0, STORAGE_1, ENABLED_0, ENABLED_1):
            for result in open_decay_channels(chan, 649.0):
                assert result.m_tot == chan.m_tot
                assert result != chan

    def test_zero_field_classification(self):
        # the swap channel is open at any field: the Rb relaxation always
        # releases more than the Li promotion costs
        labels = [c.label() for c in open_decay_channels(ENABLED_1, 0.0)]
        assert "|1,1>Rb87+|2,2>Li7" in labels
        assert open_decay_channels(STORAGE_1, 0.0) == []
