import math

import pytest

from hybridgate import constants
from hybridgate.constants import debye_to_si
from hybridgate.errors import DomainError


def test_pinned_golden_values():
    # Changing any of these is a breaking change.
    assert constants.BOHR_MAGNETON_HZ_PER_G == 1.399624604e6
    assert constants.DEBYE_C_M == 3.33564e-30
    assert constants.HBAR_J_S == 1.054571817e-34
    assert constants.PLANCK_J_S == 6.62607015e-34
    assert constants.EPSILON0_F_M == 8.8541878128e-12
    assert constants.FOUR_PI_EPSILON0 == 4.0 * math.pi * 8.8541878128e-12


def test_debye_to_si_values():
    assert debye_to_si(1.0) == 3.33564e-30
    assert debye_to_si(0.0) == 0.0
    # 4.2 D * pinned constant, frozen: 1.4009688e-29 C*m
    assert debye_to_si(4.2) == pytest.approx(1.40097e-29, rel=1e-5)
    assert debye_to_si(4.2) == 4.2 * 3.33564e-30


@pytest.mark.parametrize("bad", [-1.0, -1e-30, math.inf, math.nan])
def test_debye_to_si_rejects_bad_input(bad):
    with pytest.raises(DomainError):
        debye_to_si(bad)

