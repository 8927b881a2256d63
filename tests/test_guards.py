"""Library inputs that are nan or inf stop at construction with a DomainError
naming the field, instead of flowing on into nan or all-zero results."""

import math
import re
from importlib import resources

import numpy as np
import pytest

from hybridgate.budget import NoiseModel, ramsey_contrast_mc
from hybridgate.dynamics import LambdaParams, PulseEnvelope, TwoLevelParams, integrate_schrodinger
from hybridgate.errors import ConfigError, DomainError
from hybridgate.gate import DipoleParams
from hybridgate.hyperfine import AtomSpecies
from hybridgate.record import fields, replace
from hybridgate.scenario import _KEYS, load_scenario_text

NAN, INF = math.nan, math.inf


def _integrate(substeps):
    h = np.array([[0.0, 5e5], [5e5, 0.0]], dtype=complex)
    return integrate_schrodinger(lambda t: np.broadcast_to(h, (len(t), 2, 2)),
                                 np.array([1.0, 0.0], dtype=complex),
                                 np.linspace(0.0, 1e-6, 3), substeps=substeps)


@pytest.mark.parametrize("build, field", [
    (lambda: TwoLevelParams(NAN), "omega_r"),
    (lambda: TwoLevelParams(INF), "omega_r"),
    (lambda: TwoLevelParams(1e6, NAN), "delta"),
    (lambda: TwoLevelParams(1e6, INF), "delta"),
    (lambda: LambdaParams(NAN, 2e7, 2e8), "omega_p"),
    (lambda: LambdaParams(2e7, -INF, 2e8), "omega_s"),
    (lambda: LambdaParams(2e7, 2e7, INF), "delta_e"),
    (lambda: LambdaParams(2e7, 2e7, 2e8, delta_rad_s=NAN), "^delta_rad_s must"),
    (lambda: LambdaParams(2e7, 2e7, 2e8, gamma_e_rad_s=NAN), "gamma_e"),
    (lambda: LambdaParams(2e7, 2e7, 2e8, gamma_e_rad_s=INF), "gamma_e"),
    (lambda: PulseEnvelope(NAN, 1e-4, 3e-5), "peak"),
    (lambda: PulseEnvelope(INF, 1e-4, 3e-5), "peak"),
    (lambda: PulseEnvelope(1e6, NAN, 3e-5), "center"),
    (lambda: PulseEnvelope(1e6, -INF, 3e-5), "center"),
    (lambda: PulseEnvelope(1e6, 1e-4, INF), "rms_width_s"),
    (lambda: DipoleParams(4.2, 6.6e9, 1e5, 500e-9, fopa_enhancement=NAN), "fopa_enhancement"),
    (lambda: DipoleParams(4.2, 6.6e9, 1e5, 500e-9, fopa_enhancement=INF), "fopa_enhancement"),
    (lambda: AtomSpecies("Rb87", NAN, 6.8e9, 2.0), "nuclear_spin"),
    (lambda: AtomSpecies("Rb87", INF, 6.8e9, 2.0), "nuclear_spin"),
    (lambda: _integrate(2.5), "substeps"),
    (lambda: _integrate(0), "substeps"),
    (lambda: _integrate(True), "substeps"),
    (lambda: _integrate(False), "substeps"),
    *((lambda seed=seed: NoiseModel(1e-4, 0.0, 1e5, seed=seed), "seed")
      for seed in (1.5, -0.5, True, False, "7", NAN, INF, 7.0, -1, 2 ** 64, None)),
    *((lambda n=n: NoiseModel(1e-4, 0.0, 1e5, mc_samples=n), "mc_samples")
      for n in (999, 0, -1, 2000.5, 100000.0, True, "100000", NAN, INF, None, np.int64(999))),
])
def test_non_finite_or_non_integer_input_is_a_domain_error(build, field):
    with pytest.raises(DomainError, match=field):
        build()


BUNDLED = resources.files("hybridgate").joinpath("data/paper.cfg").read_text()
SCN = load_scenario_text(BUNDLED)


# Each of these was a second copy of a bound, or a bound only the config loader
# held, so that a record built from its constructor or by replace skipped it.
@pytest.mark.parametrize("build, field", [
    (lambda: NoiseModel(INF, 0.0, 1e5), "sigma_b_gauss"),
    (lambda: DipoleParams(4.2, 6.6e9, 1e5, INF), "separation_m"),
    (lambda: AtomSpecies("X", 1.5, INF, 2.0), "hyperfine_splitting_hz"),
    (lambda: LambdaParams(-2e7, 2e7, 2e8), "omega_p_rad_s"),
    (lambda: replace(SCN.stirap, peak_rad_s=-1.0), "peak_rad_s"),
    (lambda: replace(SCN.stirap, rms_width_s=NAN), "rms_width_s"),
    (lambda: replace(SCN.field, b_gauss=-5.0), "b_gauss"),
])
def test_a_declared_bound_holds_however_the_record_is_built(build, field):
    with pytest.raises(DomainError, match=f"^{field} must be "):
        build()


# A rule across the fields of [levels] or [sweep] was a check of the loader alone,
# so that replace gave levels_run a falling grid and sweep a constant one.
@pytest.mark.parametrize("section, changes, line", [
    ("levels", {"b_min_gauss": 500.0, "b_max_gauss": 100.0, "count": 5},
     "[levels] b_max_G: b_max_G must exceed b_min_G for a multi-point grid"),
    ("sweep", {"maximum": 3e-7}, "[sweep] max: max must exceed min"),
    ("sweep", {"minimum": -1e-7},
     "[sweep] min: must be > 0, the bound of [dipole] separation_r_m, got -1e-07"),
    ("sweep", {"parameter": "b_g"},
     "[sweep] parameter: unknown sweep parameter 'b_g'; choose one of ('separation_r_m', "
     "'b_G', 'sigma_B_G', 'omega_R_rad_s', 'mu_permanent_D')"),
])
def test_a_cross_field_rule_holds_however_the_record_is_built(section, changes, line):
    text = BUNDLED
    for field, key in _KEYS[section][1]:
        if field in changes:   # the same change as config text, in [section] alone
            head, header, body = text.partition(f"[{section}]\n")
            text = head + header + re.sub(rf"(?m)^{key} = .*$", f"{key} = {changes[field]}",
                                          body, count=1)
    record = getattr(SCN, section)
    for build in (lambda: load_scenario_text(text), lambda: replace(record, **changes),
                  lambda: type(record)(**{**fields(record), **changes})):
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == line


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int32(7)])
def test_noise_model_takes_an_integer_seed_in_64_bits(seed):
    assert NoiseModel(1e-4, 0.0, 1e5, seed=seed).seed is seed


@pytest.mark.parametrize("n", [1000, 10 ** 9, np.int64(1000), np.uint32(100000)])
def test_noise_model_takes_an_integer_sample_count_of_at_least_1000(n):
    assert NoiseModel(1e-4, 0.0, 1e5, mc_samples=n).mc_samples is n
    assert NoiseModel(1e-4, 0.0, 1e5).mc_samples == 100000


@pytest.mark.parametrize("n", [10 ** 9 + 1, np.int64(10 ** 9 + 1), 10 ** 20])
def test_noise_model_refuses_a_sample_count_above_10_to_the_9(n):
    model = NoiseModel(1e-4, 0.0, 1e5)
    for build in (lambda: NoiseModel(1e-4, 0.0, 1e5, mc_samples=n),
                  lambda: replace(model, mc_samples=n)):
        with pytest.raises(DomainError,
                           match=r"mc_samples must be >= 1000, <= 1000000000, got"):
            build()


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1, 1.7, 1.0, True, False, "1", None])
def test_monte_carlo_refuses_a_seed_outside_64_bits_or_not_an_integer(seed):
    # folded into 64 bits or truncated, each would alias a valid seed's stream
    with pytest.raises(DomainError, match=r"^seed must be (an integer|>= 0, < 18446744073709551616),"):
        ramsey_contrast_mc(2.38e6, 3e-4, 1e-4, 1000, seed)


def test_monte_carlo_takes_every_seed_the_noise_model_takes():
    for seed in (0, 1, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int32(7)):
        assert 0.0 <= ramsey_contrast_mc(2.38e6, 3e-4, 1e-4, 1000, seed) <= 1.0
    assert (ramsey_contrast_mc(2.38e6, 3e-4, 1e-4, 1000, np.uint64(2 ** 64 - 1))
            == ramsey_contrast_mc(2.38e6, 3e-4, 1e-4, 1000, 2 ** 64 - 1))
