import math
from importlib import resources

import numpy as np
import pytest

from hybridgate.constants import BOHR_MAGNETON_HZ_PER_G
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
)
from hybridgate.scenario import load_scenario_text

UP = HyperfineState(2, 2)
DOWN = HyperfineState(1, 1)

# The bundled scenario's channels: Rb carries the qubit, Li enables the gate
# when moved from |2,2> (storage) to |1,1> (enabled).
_BUNDLED = load_scenario_text(resources.files("hybridgate").joinpath("data/paper.cfg").read_text())
STORAGE_0, STORAGE_1 = _BUNDLED.qubit_channels("storage")
ENABLED_0, ENABLED_1 = _BUNDLED.qubit_channels("enabled")


# --- independent oracle: exact diagonalisation of the ground-state Hamiltonian
# --- A I.J + mu_B B (g_J J_z + g_I I_z), J = 1/2, A = dE_hf / (I + 1/2).
def _spin_operators(s):
    """J_z and J_+ of spin s in the basis m = s, s-1, ..., -s."""
    m = s - np.arange(int(round(2 * s + 1)))
    return np.diag(m), np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1)


def _exact_levels(species, b):
    """{(f, m): energy [Hz]} at field b [G]. Each m = m_I + m_J block is
    diagonalised on its own; its higher eigenvalue is f = I + 1/2."""
    i, splitting = species.nuclear_spin, species.hyperfine_splitting_hz
    iz, ip = _spin_operators(i)
    jz, jp = _spin_operators(0.5)
    h = (splitting / (i + 0.5) * (np.kron(iz, jz) + 0.5 * (np.kron(ip, jp.T) + np.kron(ip.T, jp)))
         + BOHR_MAGNETON_HZ_PER_G * b * (species.g_j * np.kron(np.eye(len(iz)), jz)
                                         + species.g_i * np.kron(iz, np.eye(2))))
    m_total = np.add.outer(np.diag(iz), np.diag(jz)).ravel()
    levels = {}
    for m in range(-species.f_upper, species.f_upper + 1):
        block = np.flatnonzero(m_total == m)
        energies = np.linalg.eigvalsh(h[np.ix_(block, block)])
        for f, e in zip((species.f_lower, species.f_upper)[-len(block):], energies):
            levels[(f, m)] = e
    return levels


def _exact_slope(species, state, b, h=1e-3):
    """Central finite difference of the exact level [Hz/G]."""
    key = (state.f, state.m)
    return (_exact_levels(species, b + h)[key] - _exact_levels(species, b - h)[key]) / (2 * h)


# x = 1 at 1 G: the stretched state |2,-2> has a zero radicand there.
KINK = AtomSpecies("kink", 1.5, 2.0 * BOHR_MAGNETON_HZ_PER_G, 2.0)
I52 = AtomSpecies("I52", 2.5, 1.0e9, 2.0)
RB85 = AtomSpecies("Rb85", 2.5, 3.0357324390e9, 2.00233)


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
        # x = 0: the centroid offset -1/(2(2I+1)) = -1/8 plus 1/2 of the splitting
        e = breit_rabi_energy(RB87, UP, 0.0)
        assert e == pytest.approx((0.5 - 1.0 / 8.0) * 6.835e9, rel=1e-12)
        assert e == pytest.approx(2.563125e9, rel=1e-12)

    def test_zero_field_lower(self):
        e = breit_rabi_energy(RB87, DOWN, 0.0)
        assert e == pytest.approx(-(0.5 + 1.0 / 8.0) * 6.835e9, rel=1e-12)
        assert e == pytest.approx(-4.271875e9, rel=1e-12)

    def test_at_resonance_field(self):
        # |2,2> lies at (-1/8 + (1 + x)/2) of the splitting
        e = breit_rabi_energy(RB87, UP, 649.0)
        x = 2.0 * (e / 6.835e9 + 1.0 / 8.0) - 1.0
        assert x == pytest.approx(0.266105, rel=1e-5)
        assert abs(e - _exact_levels(RB87, 649.0)[(2, 2)]) <= 1e-12 * 6.835e9
        assert e == pytest.approx(3.4725396031647153e9, rel=1e-9)  # frozen

    def test_nuclear_term(self):
        # |2,2> = |m_J = 1/2, m_I = 3/2>: g_I moves it by g_I mu_B B I, the
        # nuclear term g_I mu_B m B less the g_I share of x.
        species = AtomSpecies("Rb87n", 1.5, 6.835e9, 2.00233, g_i=-0.000995)
        base = AtomSpecies("Rb87z", 1.5, 6.835e9, 2.00233)
        e = breit_rabi_energy(species, UP, 100.0)
        diff = e - breit_rabi_energy(base, UP, 100.0)
        assert diff == pytest.approx(-0.000995 * BOHR_MAGNETON_HZ_PER_G * 1.5 * 100.0, rel=1e-6)
        assert abs(e - _exact_levels(species, 100.0)[(2, 2)]) <= 1e-12 * 6.835e9

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            breit_rabi_energy(RB87, HyperfineState(3, 0), 0.0)
        with pytest.raises(DomainError):
            breit_rabi_energy(RB87, UP, -1.0)

    def test_negative_radicand_is_hard_error(self):
        # |3,-3> of an I = 5/2 species at x = 1.5, where the radicand with m
        # in place of 4m/(2I+1), 1 - 3x + x^2, is negative: the stretched
        # level is the line (1 - x)/2 above the I = 5/2 offset -1/(2(2I+1)) = -1/12.
        b = 1.5 * 1.0e9 / (2.0 * BOHR_MAGNETON_HZ_PER_G)
        e = breit_rabi_energy(I52, HyperfineState(3, -3), b)
        assert e == pytest.approx(1.0e9 * (-1.0 / 12.0 - 0.25), rel=1e-12)
        assert abs(e - _exact_levels(I52, b)[(3, -3)]) <= 1e-12 * 1.0e9


class TestExactLevels:
    """Every sublevel against the exact diagonalisation, past x = 1."""

    @pytest.mark.parametrize("g_i", [0.0, -0.000995])
    @pytest.mark.parametrize("spin,splitting", [(1.5, 803.5e6), (1.5, 6.835e9),
                                                (2.5, 3.0357324390e9), (3.5, 9.192631770e9)])
    def test_every_sublevel(self, spin, splitting, g_i):
        species = AtomSpecies("test", spin, splitting, 2.00233, g_i=g_i)
        b_x1 = splitting / ((species.g_j - g_i) * BOHR_MAGNETON_HZ_PER_G)
        fields = np.concatenate([np.linspace(0.0, 1e4, 81), b_x1 * np.array([1 - 1e-9, 1, 1 + 1e-9])])
        for b in fields:
            exact = _exact_levels(species, b)
            for state in all_states(species):
                e = breit_rabi_energy(species, state, b)
                assert abs(e - exact[(state.f, state.m)]) <= 1e-12 * splitting, (state.label(), b)

    @pytest.mark.parametrize("b", [0.0, 649.0, 5000.0])
    @pytest.mark.parametrize("g_i", [0.0, -0.000995])
    @pytest.mark.parametrize("spin,splitting", [(1.5, 6.835e9), (2.5, 3.0357324390e9),
                                                (3.5, 9.192631770e9)])
    def test_sublevels_sum_to_zero(self, spin, splitting, g_i, b):
        # A I.J + mu_B B (g_J J_z + g_I I_z) is traceless: the levels are
        # relative to the centroid at every field.
        species = AtomSpecies("test", spin, splitting, 2.00233, g_i=g_i)
        total = sum(breit_rabi_energy(species, state, b) for state in all_states(species))
        assert abs(total) <= 1e-12 * splitting

    def test_beyond_float_range_names_the_field(self):
        # x^2 overflows at 1e300 G; the largest field is named before numpy warns.
        for call in (lambda b: breit_rabi_energy(RB87, UP, b),
                     lambda b: field_sensitivity(RB87, HyperfineState(2, -2), DOWN, b)):
            with pytest.raises(DomainError, match=r"^magnetic field 1e\+300 G is beyond"):
                call(1e300)
            with pytest.raises(DomainError, match=r"^magnetic field 1e\+300 G is beyond"):
                call(np.array([649.0, 1e300, 1e10]))
            with pytest.raises(DomainError, match=r"^magnetic field nan G is beyond"):
                call(np.array([649.0, math.nan]))

    @pytest.mark.parametrize("state", [UP, HyperfineState(2, -2), HyperfineState(1, 0)],
                             ids=lambda s: s.label())
    def test_last_field_in_float_range_gives_finite_levels(self, state):
        # Just inside the check, every element of a 0..b array is finite and numpy
        # does not warn (warnings are errors in this suite).
        x_limit = math.sqrt(np.finfo(float).max) / 2.0
        b = x_limit * RB87.hyperfine_splitting_hz / (RB87.g_j * BOHR_MAGNETON_HZ_PER_G)
        fields = np.linspace(0.0, b, 7)
        assert np.isfinite(breit_rabi_energy(RB87, state, fields)).all()
        assert np.isfinite(field_sensitivity(RB87, state, DOWN, fields)).all()


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
        # x = 1 at 1 G, where the |2,-2> radicand (1 - x)^2 vanishes: the
        # level is linear through it, so its slope is -g_J mu_B / 2, and
        # |1,-1> adds g_J mu_B / 4.
        upper, lower = HyperfineState(2, -2), HyperfineState(1, -1)
        s = field_sensitivity(KINK, upper, lower, 1.0)
        assert s == pytest.approx(-0.5 * BOHR_MAGNETON_HZ_PER_G, rel=1e-12)
        exact = _exact_slope(KINK, upper, 1.0) - _exact_slope(KINK, lower, 1.0)
        assert s == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("species", [KINK, RB85, LI7], ids=lambda sp: sp.name)
    def test_matches_exact_finite_difference_through_x_1(self, species):
        species = AtomSpecies(species.name, species.nuclear_spin, species.hyperfine_splitting_hz,
                              species.g_j, g_i=-0.000995)
        b_x1 = species.hyperfine_splitting_hz / ((species.g_j - species.g_i) * BOHR_MAGNETON_HZ_PER_G)
        fu, fl = species.f_upper, species.f_lower
        scale = species.g_j * BOHR_MAGNETON_HZ_PER_G
        for upper, lower in ((HyperfineState(fu, -fu), HyperfineState(fl, -fl)),
                             (HyperfineState(fu, fu), HyperfineState(fl, fl)),
                             (HyperfineState(fu, -fu), HyperfineState(fu, 1 - fu))):
            for b in b_x1 * np.array([0.5, 0.99, 1.0, 1.01, 2.0]):
                h = 1e-3 * b_x1
                analytic = field_sensitivity(species, upper, lower, b)
                fd = _exact_slope(species, upper, b, h) - _exact_slope(species, lower, b, h)
                assert abs(analytic - fd) <= 1e-6 * scale, (upper.label(), lower.label(), b)


class TestFieldArrays:
    """A field array gives, element by element, the bits of the scalar calls."""

    # x = 1 falls at 287 G for Li7, 1083 G for Rb85 and 2439 G for Rb87
    FIELDS = np.concatenate([np.linspace(0.0, 2500.0, 41), [649.0, 1e-3, 5e3, 1e4, 2e5]])
    RB87_NUCLEAR = AtomSpecies("Rb87n", 1.5, 6.835e9, 2.00233, g_i=-0.000995)

    @pytest.mark.parametrize("species", [RB87, LI7, RB87_NUCLEAR, RB85], ids=lambda sp: sp.name)
    def test_arrays_equal_scalar_calls(self, species):
        b = self.FIELDS
        fu, fl = species.f_upper, species.f_lower
        pairs = ((HyperfineState(fu, fu), HyperfineState(fl, fl)),
                 (HyperfineState(fu, -1), HyperfineState(fl, 0)),
                 (HyperfineState(fu, -fu), HyperfineState(fl, -fl)))
        for upper, lower in pairs:
            assert type(breit_rabi_energy(species, upper, 649.0)) is float
            assert type(field_sensitivity(species, upper, lower, 649.0)) is float
        for state in all_states(species):
            energies = breit_rabi_energy(species, state, b)
            assert np.array_equal(energies, [breit_rabi_energy(species, state, float(v))
                                             for v in b])
        for upper, lower in pairs:
            assert np.array_equal(
                transition_frequency(species, upper, lower, b),
                [transition_frequency(species, upper, lower, float(v)) for v in b])
            assert np.array_equal(
                field_sensitivity(species, upper, lower, b),
                [field_sensitivity(species, upper, lower, float(v)) for v in b])

    def test_an_empty_field_array_gives_empty_arrays(self):
        # |2,-2> is stretched (its radicand is (1 - x)^2); |2,2> and |1,1> are not
        empty = np.array([])
        stretched, lower = HyperfineState(2, -2), HyperfineState(1, -1)
        results = [breit_rabi_energy(RB87, stretched, empty), breit_rabi_energy(RB87, UP, empty),
                   transition_frequency(RB87, stretched, lower, empty),
                   transition_frequency(RB87, UP, DOWN, empty),
                   field_sensitivity(RB87, stretched, lower, empty),
                   field_sensitivity(RB87, UP, DOWN, empty)]
        for result in results:
            assert isinstance(result, np.ndarray) and result.dtype == float
            assert result.shape == (0,)

    @pytest.mark.parametrize("call", [
        lambda b: breit_rabi_energy(RB87, HyperfineState(2, -2), b),
        lambda b: breit_rabi_energy(RB87, UP, b),
        lambda b: transition_frequency(RB87, UP, DOWN, b),
        lambda b: field_sensitivity(RB87, UP, DOWN, b),
    ])
    def test_negative_field_anywhere_names_the_first(self, call):
        with pytest.raises(DomainError) as err:
            call(np.array([649.0, 0.0, -2.5, 10.0, -7.0]))
        assert str(err.value) == "magnetic field must be >= 0 G, got -2.5"
        with pytest.raises(DomainError, match="got -7.0$"):
            call(np.array([649.0, -7.0]))

    def test_negative_radicand_anywhere_names_the_first_field(self):
        # x = 1.2 and 1.5 make the |3,-3> radicand with m in place of
        # 4m/(2I+1) negative; every element is the exact level.
        x_per_g = 2.0 * BOHR_MAGNETON_HZ_PER_G / 1.0e9
        fields = np.array([0.0, 0.2, 1.2, 1.5, 0.3, 3.0]) / x_per_g
        upper, state = HyperfineState(2, -2), HyperfineState(3, -3)
        exact = [_exact_levels(I52, b) for b in fields]
        energies = breit_rabi_energy(I52, state, fields)
        assert np.all(np.abs(energies - [e[(3, -3)] for e in exact]) <= 1e-12 * 1.0e9)
        transitions = transition_frequency(I52, upper, state, fields)
        assert np.all(np.abs(transitions - [e[(2, -2)] - e[(3, -3)] for e in exact]) <= 1e-12 * 1.0e9)
        sensitivity = field_sensitivity(I52, upper, state, fields)
        exact_slopes = [_exact_slope(I52, upper, b, h=1e-2) - _exact_slope(I52, state, b, h=1e-2)
                        for b in fields]
        assert np.all(np.abs(sensitivity - exact_slopes) <= 1e-6 * 2.0 * BOHR_MAGNETON_HZ_PER_G)

    def test_kink_point_anywhere_names_the_field(self):
        # 1 G is x = 1, the zero of the |2,-2> radicand, inside an array.
        upper, lower = HyperfineState(2, -2), HyperfineState(1, -1)
        fields = np.array([0.5, 1.0, 2.0])
        sensitivity = field_sensitivity(KINK, upper, lower, fields)
        exact = [_exact_slope(KINK, upper, b) - _exact_slope(KINK, lower, b) for b in fields]
        assert sensitivity == pytest.approx(exact, rel=1e-6)
        assert sensitivity[1] == field_sensitivity(KINK, upper, lower, 1.0)


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

    @pytest.mark.parametrize("args", [(math.nan, 1000.0, 5e-5), (math.inf, 1000.0, 5e-5),
                                      (2.33e6, math.nan, 5e-5), (2.33e6, math.inf, 5e-5),
                                      (2.33e6, 1000.0, math.inf)])
    def test_site_resolution_rejects_non_finite(self, args):
        # nan and inf used to come back as the resolution
        with pytest.raises(DomainError, match="finite"):
            site_frequency_resolution(*args)

    @pytest.mark.parametrize("args", [(math.nan, 1000.0, 5e-5), (math.inf, 1000.0, 5e-5),
                                      (5.0, math.nan, 5e-5), (5.0, math.inf, 5e-5),
                                      (5.0, 1000.0, math.nan), (5.0, 1000.0, math.inf)])
    def test_site_count_rejects_non_finite(self, args):
        # math.floor used to raise a bare ValueError (nan) or OverflowError (inf)
        with pytest.raises(DomainError, match="finite"):
            resonance_site_count(*args)

    @pytest.mark.parametrize("args", [(5.0, 1e-300, 1e-30),     # product underflows to 0
                                      (5.0, 1e-160, 1e-160),    # quotient overflows
                                      (1e300, 1e-10, 1e-10)])
    def test_site_count_rejects_a_count_out_of_float_range(self, args):
        # used to raise a bare ZeroDivisionError or OverflowError
        with pytest.raises(DomainError, match="float range"):
            resonance_site_count(*args)

    def test_site_resolution_rejects_an_overflowing_product(self):
        # used to come back as inf
        with pytest.raises(DomainError, match="resolution must be finite"):
            site_frequency_resolution(1e200, 1e200, 1.0)


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
        # every possible input channel and compare. Li7 is at x = 2.26 here:
        # with m in place of 4m/(2I+1) its |2,-2> is 1.015 GHz off and 18 of
        # these 64 inputs get the wrong verdict.
        b = 649.0
        exact_rb, exact_li = _exact_levels(RB87, b), _exact_levels(LI7, b)
        states_rb = [(s.f, s.m) for s in all_states(RB87)]
        states_li = [(s.f, s.m) for s in all_states(LI7)]
        for fa, ma in states_rb:
            for fb, mb in states_li:
                chan = HyperfineChannel(RB87, HyperfineState(fa, ma),
                                        LI7, HyperfineState(fb, mb))
                e_in = exact_rb[(fa, ma)] + exact_li[(fb, mb)]
                expected = set()
                for f1, m1 in states_rb:
                    for f2, m2 in states_li:
                        if (f1, m1, f2, m2) == (fa, ma, fb, mb) or m1 + m2 != ma + mb:
                            continue
                        e = exact_rb[(f1, m1)] + exact_li[(f2, m2)]
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

    @pytest.mark.parametrize("b", [0.0, 649.0, 1000.0])
    def test_bundled_channels_at_paper_repro_fields(self, b):
        # the storage and enabled qubit channels that paper_repro classifies
        got = [[c.label() for c in open_decay_channels(chan, b)]
               for chan in (STORAGE_0, STORAGE_1, ENABLED_0, ENABLED_1)]
        assert got == [[], [], [], ["|1,1>Rb87+|2,2>Li7"]]

    @pytest.mark.parametrize("b", [0.0, 649.0, 1000.0])
    def test_order_is_energy_then_state_a(self, b):
        for sa in all_states(RB87):
            for sb in all_states(LI7):
                found = open_decay_channels(HyperfineChannel(RB87, sa, LI7, sb), b)
                keys = [(c.internal_energy_hz(b), c.state_a.f, c.state_a.m) for c in found]
                assert keys == sorted(keys)
