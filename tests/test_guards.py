"""Library inputs that are nan or inf stop at construction with a DomainError
naming the field, instead of flowing on into nan or all-zero results."""

import math

import numpy as np
import pytest

from hybridgate.dynamics import LambdaParams, PulseEnvelope, TwoLevelParams, integrate_schrodinger
from hybridgate.errors import DomainError
from hybridgate.gate import DipoleParams
from hybridgate.hyperfine import AtomSpecies

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
])
def test_non_finite_or_non_integer_input_is_a_domain_error(build, field):
    with pytest.raises(DomainError, match=field):
        build()
