"""Hyperfine level structure of ground-state alkali atoms in a magnetic field.

Level energies are the Breit-Rabi eigenvalues for J = 1/2 (Breit & Rabi,
Phys. Rev. 38, 2082 (1931)),

    E(f = I +/- 1/2, m) = dE_hf * (-1/(2(2I+1)) +/- (1/2) sqrt(1 + 4m/(2I+1) * x + x^2))
                          + g_I * mu_B * m * B,    x = (g_J - g_I) * mu_B * B / dE_hf,

the exact eigenvalues of A I.J + mu_B B (g_J J_z + g_I I_z). That Hamiltonian
is traceless, so the sublevel energies sum to 0 at every field.

The radicand's discriminant (4m/(2I+1))^2 - 4 is <= 0, so it is never
negative. Its one zero is the stretched state m = -(I+1/2) at x = 1: its
radicand is (1 - x)^2, so its level is the line (1 - x)/2 through x = 1.
Energies are linear frequencies in Hz, relative to the hyperfine centroid;
fields are in Gauss.
"""

import math

import numpy as np

from .constants import BOHR_MAGNETON_HZ_PER_G
from .errors import DomainError
from .record import Record


class AtomSpecies(Record):
    """Ground-state alkali atom: nuclear spin, splitting and g-factors.

    hyperfine_splitting_hz is the zero-field f = I-1/2 <-> I+1/2 interval
    (linear Hz). g_i uses the convention H_nuclear = g_i * mu_B * B * I_z and
    enters both as the nuclear term and in x.
    """

    name: str
    nuclear_spin: float
    hyperfine_splitting_hz: float
    g_j: float
    g_i: float = 0.0

    def __post_init__(self):
        two_i = 2.0 * self.nuclear_spin
        if not 0 < self.nuclear_spin < math.inf or abs(two_i - round(two_i)) > 1e-12:
            raise DomainError(f"nuclear spin must be a positive half-integer, got {self.nuclear_spin!r}")
        if not self.hyperfine_splitting_hz > 0:
            raise DomainError(f"hyperfine splitting must be > 0 Hz, got {self.hyperfine_splitting_hz!r}")

    @property
    def f_lower(self):
        return int(round(self.nuclear_spin - 0.5))

    @property
    def f_upper(self):
        return int(round(self.nuclear_spin + 0.5))


class HyperfineState(Record):
    """One |f, m> sublevel."""

    f: int
    m: int

    def __post_init__(self):
        if abs(self.m) > self.f:
            raise DomainError(f"|m| <= f required, got |{self.f},{self.m}>")

    def label(self):
        return f"|{self.f},{self.m}>"


class HyperfineChannel(Record):
    """Two-atom collision channel / computational basis state.

    The total projection m_tot = m_a + m_b is conserved in collisions and
    classifies which inelastic decay channels are open.
    """

    species_a: AtomSpecies
    state_a: HyperfineState
    species_b: AtomSpecies
    state_b: HyperfineState

    def __post_init__(self):
        require_valid_state(self.species_a, self.state_a)
        require_valid_state(self.species_b, self.state_b)

    @property
    def m_tot(self):
        return self.state_a.m + self.state_b.m

    def label(self):
        return (f"{self.state_a.label()}{self.species_a.name}"
                f"+{self.state_b.label()}{self.species_b.name}")

    def internal_energy_hz(self, b_gauss):
        """Sum of the two single-atom level energies [Hz]; kinetic energy is
        taken as zero (ultracold regime)."""
        return (breit_rabi_energy(self.species_a, self.state_a, b_gauss)
                + breit_rabi_energy(self.species_b, self.state_b, b_gauss))


def require_valid_state(species, state):
    if state.f not in (species.f_lower, species.f_upper):
        raise DomainError(
            f"state {state.label()} invalid for {species.name}: "
            f"f must be {species.f_lower} or {species.f_upper}")


# Built-in species. The Li7 splitting is a pinned literature value.
RB87 = AtomSpecies("Rb87", 1.5, 6.835e9, 2.00233)
LI7 = AtomSpecies("Li7", 1.5, 803.5e6, 2.00230)

SPECIES_PRESETS = {"Rb87": RB87, "Li7": LI7}


def all_states(species):
    """Every |f, m> sublevel of the ground manifold, ordered (f, m) ascending."""
    out = []
    for f in (species.f_lower, species.f_upper):
        for m in range(-f, f + 1):
            out.append(HyperfineState(f, m))
    return out


def _breit_rabi(species, state, b_gauss, slope=False):
    """Level energy [Hz] of |f, m> at field B [G] relative to the centroid
    or, with ``slope``, its derivative dE/dB [Hz/G] (module docstring form)."""
    require_valid_state(species, state)
    bad = np.less(b_gauss, 0)
    if bad.any():
        first = float(np.asarray(b_gauss)[bad][0])
        raise DomainError(f"magnetic field must be >= 0 G, got {first!r}")
    g_x = species.g_j - species.g_i
    offset = -1.0 / (2.0 * (2.0 * species.nuclear_spin + 1.0))
    g_nuclear = species.g_i * BOHR_MAGNETON_HZ_PER_G
    sign = 1.0 if state.f == species.f_upper else -1.0
    c = 4.0 * state.m / (2.0 * species.nuclear_spin + 1.0)
    # The radicand is convex in x >= 0, so where it is finite at the largest
    # field (in Python floats, which do not warn) it is finite at every field.
    b_max = float(b_gauss.max(initial=0.0) if isinstance(b_gauss, np.ndarray) else b_gauss)
    x_max = g_x * BOHR_MAGNETON_HZ_PER_G * b_max / species.hyperfine_splitting_hz
    if not math.isfinite(1.0 + c * x_max + x_max * x_max):
        raise DomainError(f"magnetic field {b_max!r} G is beyond the float range of the "
                          f"Breit-Rabi formula")
    x = g_x * BOHR_MAGNETON_HZ_PER_G * b_gauss / species.hyperfine_splitting_hz
    stretched = state.m == -species.f_upper  # c = -2: the radicand is (1 - x)^2
    if stretched:
        root = 1.0 - x
    else:
        radicand = 1.0 + c * x + x * x
        root = np.sqrt(radicand) if isinstance(radicand, np.ndarray) else math.sqrt(radicand)
    if not slope:
        return (species.hyperfine_splitting_hz * (offset + sign * 0.5 * root)
                + g_nuclear * state.m * b_gauss)
    dx_db = g_x * BOHR_MAGNETON_HZ_PER_G / species.hyperfine_splitting_hz
    # 0.0 * x keeps the stretched slope -1/2 shaped like the field
    d_half_root = 0.0 * x - 0.5 if stretched else sign * (c + 2.0 * x) / (4.0 * root)
    return species.hyperfine_splitting_hz * d_half_root * dx_db + g_nuclear * state.m


def breit_rabi_energy(species, state, b_gauss):
    """Level energy [Hz] of |f, m> at field B [G], relative to the centroid.

    Defined for every nuclear spin and every field >= 0. Raises DomainError
    for a state invalid for the species, a negative field or a field whose
    radicand leaves float range.
    """
    return _breit_rabi(species, state, b_gauss)


def transition_frequency(species, upper, lower, b_gauss):
    """E(upper) - E(lower) [Hz]."""
    return (breit_rabi_energy(species, upper, b_gauss)
            - breit_rabi_energy(species, lower, b_gauss))


def field_sensitivity(species, upper, lower, b_gauss):
    """Analytic derivative d(transition_frequency)/dB [Hz/G].

    Defined at every field >= 0: the stretched state m = -(I+1/2) has the
    constant slope of its linear level through x = 1.
    """
    return (_breit_rabi(species, upper, b_gauss, slope=True)
            - _breit_rabi(species, lower, b_gauss, slope=True))


def site_frequency_resolution(sensitivity_hz_per_g, gradient_g_per_cm, spacing_cm):
    """Qubit-frequency difference [Hz] between lattice sites one spacing apart
    in a magnetic gradient, from the magnitude |df/dB| of the field sensitivity."""
    resolution = sensitivity_hz_per_g * gradient_g_per_cm * spacing_cm
    for name, value in (("sensitivity", sensitivity_hz_per_g), ("gradient", gradient_g_per_cm),
                        ("spacing", spacing_cm), ("resolution", resolution)):
        if not 0 <= value < math.inf:
            raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    return resolution


def resonance_site_count(resonance_width_g, gradient_g_per_cm, spacing_cm):
    """Number of sites per lattice dimension that fit inside a resonance of
    the given width under a field gradient: floor(width / (gradient*spacing))."""
    if not 0 <= resonance_width_g < math.inf:
        raise DomainError(f"resonance width must be finite and >= 0 G, got {resonance_width_g!r}")
    if not (0 < gradient_g_per_cm < math.inf and 0 < spacing_cm < math.inf):
        raise DomainError("gradient and spacing must be finite and > 0 for a site count")
    site_width_g = gradient_g_per_cm * spacing_cm   # 0.0 when the product underflows
    if not (site_width_g > 0.0 and resonance_width_g / site_width_g < math.inf):
        raise DomainError(f"site count {resonance_width_g!r}/{site_width_g!r} leaves float range")
    return int(math.floor(resonance_width_g / site_width_g))


def open_decay_channels(channel, b_gauss):
    """All two-atom channels (same species pair) the input can decay into.

    A channel is open when it conserves m_tot and has strictly lower total
    internal energy. An empty list means the input channel is collisionally
    stable in this model. Results are sorted by energy, lowest first.
    """
    e_in = channel.internal_energy_hz(b_gauss)
    found = []
    states_b = all_states(channel.species_b)
    for sa in all_states(channel.species_a):
        for sb in states_b:
            if sa.m + sb.m != channel.m_tot:
                continue
            if sa == channel.state_a and sb == channel.state_b:
                continue
            cand = HyperfineChannel(channel.species_a, sa, channel.species_b, sb)
            e = cand.internal_energy_hz(b_gauss)
            if e < e_in:
                found.append((e, cand))
    found.sort(key=lambda pair: (pair[0], pair[1].state_a.f, pair[1].state_a.m))
    return [cand for _, cand in found]
