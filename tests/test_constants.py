import math

import pytest

from hybridgate import constants
from hybridgate.constants import angular_to_linear, debye_to_si, linear_to_angular
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


def test_linear_to_angular_values():
    assert linear_to_angular(0.0) == 0.0
    assert linear_to_angular(1.0) == 2.0 * math.pi
    assert linear_to_angular(1e6 / (2.0 * math.pi)) == pytest.approx(1e6, rel=1e-15)


def test_round_trip_within_one_ulp():
    values = [0.0, 1.0, -1.0, 2.0 * math.pi, math.pi, 1e-300, 1e300, 6.835e9,
              1.34e5, -2.5e-7, 3.0, 7.77e-12]
    # deterministic pseudo-random magnitudes
    x = 0.123456
    for _ in range(200):
        x = (x * 9301.0 + 49297.0) % 233280.0
        values.append((x / 233280.0 - 0.5) * 10.0 ** int(x % 40 - 20))
    for v in values:
        back = linear_to_angular(angular_to_linear(v))
        assert abs(back - v) <= math.ulp(abs(v)), v


def test_round_trip_exact_for_commensurate_values():
    # Multiples of 2*pi by powers of two survive the division exactly.
    for v in (0.0, 2.0 * math.pi, 4.0 * math.pi, math.pi, 0.5 * math.pi):
        assert linear_to_angular(angular_to_linear(v)) == v
