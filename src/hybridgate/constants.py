"""Pinned physical constants and the unit conversions used by this package.

Values are CODATA-2018, frozen here instead of being imported from scipy so
that two runs on any machine produce identical bytes for identical inputs.

Unit convention (used consistently everywhere):

* dynamics-facing quantities (Rabi frequencies, detunings, dipole-dipole
  rates) are ANGULAR frequencies in rad/s;
* spectroscopy-facing quantities (transition frequencies, hyperfine
  splittings, field sensitivities) are LINEAR frequencies in Hz.

Where the two meet, the code multiplies by ``TWO_PI`` inline.
"""

import math

from .errors import DomainError

TWO_PI = 2.0 * math.pi

HBAR_J_S = 1.054571817e-34      # reduced Planck constant [J*s]
PLANCK_J_S = 6.62607015e-34     # Planck constant [J*s] (exact)
EPSILON0_F_M = 8.8541878128e-12  # vacuum permittivity [F/m]
FOUR_PI_EPSILON0 = 4.0 * math.pi * EPSILON0_F_M  # SI Coulomb factor [C^2/(J*m)]

DEBYE_C_M = 3.33564e-30         # one Debye [C*m]

# Bohr magneton as a linear frequency per Gauss, mu_B/h.
# Golden-tested; changing this value is a breaking change.
BOHR_MAGNETON_HZ_PER_G = 1.399624604e6


def debye_to_si(mu_debye):
    """Convert a dipole moment from Debye to C*m.

    mu_debye must be finite and non-negative.
    """
    if not math.isfinite(mu_debye) or mu_debye < 0.0:
        raise DomainError(f"dipole moment must be finite and >= 0 D, got {mu_debye!r}")
    return mu_debye * DEBYE_C_M

