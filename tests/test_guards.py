"""Library inputs that are nan or inf stop at construction with a DomainError
naming the field, instead of flowing on into nan or all-zero results."""

import math

import numpy as np
import pytest

from hybridgate.budget import NoiseModel, ramsey_contrast_mc
from hybridgate.dynamics import LambdaParams, PulseEnvelope, TwoLevelParams, integrate_schrodinger
from hybridgate.errors import DomainError
from hybridgate.gate import DipoleParams
from hybridgate.hyperfine import AtomSpecies
from hybridgate.record import replace

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
    (lambda: LambdaParams(2e7, 2e7, 2e8, delta_rad_s=NAN), "^delta must"),
    (lambda: LambdaParams(2e7, 2e7, 2e8, gamma_e_rad_s=NAN), "gamma_e"),
    (lambda: LambdaParams(2e7, 2e7, 2e8, gamma_e_rad_s=INF), "gamma_e"),
    (lambda: PulseEnvelope(NAN, 1e-4, 3e-5), "peak"),
    (lambda: PulseEnvelope(INF, 1e-4, 3e-5), "peak"),
    (lambda: PulseEnvelope(1e6, NAN, 3e-5), "center"),
    (lambda: PulseEnvelope(1e6, -INF, 3e-5), "center"),
    (lambda: PulseEnvelope(1e6, 1e-4, INF), "rms width"),
    (lambda: DipoleParams(4.2, 6.6e9, 1e5, 500e-9, fopa_enhancement=NAN), "fopa_enhancement"),
    (lambda: DipoleParams(4.2, 6.6e9, 1e5, 500e-9, fopa_enhancement=INF), "fopa_enhancement"),
    (lambda: AtomSpecies("Rb87", NAN, 6.8e9, 2.0), "nuclear spin"),
    (lambda: AtomSpecies("Rb87", INF, 6.8e9, 2.0), "nuclear spin"),
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
                           match=r"mc_samples must be an integer in \[1000, 1000000000\]"):
            build()


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1, 1.7, 1.0, True, False, "1", None])
def test_monte_carlo_refuses_a_seed_outside_64_bits_or_not_an_integer(seed):
    # folded into 64 bits or truncated, each would alias a valid seed's stream
    with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        ramsey_contrast_mc(2.38e6, 3e-4, 1e-4, 1000, seed)


def test_monte_carlo_takes_every_seed_the_noise_model_takes():
    for seed in (0, 1, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int32(7)):
        assert 0.0 <= ramsey_contrast_mc(2.38e6, 3e-4, 1e-4, 1000, seed) <= 1.0
    assert (ramsey_contrast_mc(2.38e6, 3e-4, 1e-4, 1000, np.uint64(2 ** 64 - 1))
            == ramsey_contrast_mc(2.38e6, 3e-4, 1e-4, 1000, 2 ** 64 - 1))
