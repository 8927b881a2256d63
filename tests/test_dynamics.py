import math
import warnings

import numpy as np
import pytest

from hybridgate.dynamics import (
    MAX_SUBSTEPS,
    NORM_DRIFT_LIMIT,
    STEP_PHASE_MAX,
    STIRAP_POINTS,
    STEP_PHASE_TARGET,
    LambdaParams,
    PulseEnvelope,
    TwoLevelParams,
    compensated_bare_detuning,
    effective_rabi,
    integrate_schrodinger,
    lambda_matrix,
    pi_pulse_duration,
    raman_trajectory,
    simulate_stirap,
    stirap_trajectory,
    two_level_population,
)
from hybridgate.dynamics import _matmul_last, _norm_and_hermiticity, _rk4_substep, _to_matrix_last
from hybridgate.errors import DomainError, NumericalFailure, StepSizeError


def _two_level_h(omega):
    return np.array([[0.0, 0.5 * omega], [0.5 * omega, 0.0]], dtype=complex)


def _constant(h, view=True):
    """Time-independent H as the integrator takes it: one copy per requested
    time, as a read-only broadcast view or as an array of its own."""
    if view:
        return lambda t: np.broadcast_to(h, np.shape(t) + h.shape)
    return lambda t: np.tile(h, (len(t), 1, 1))


def _stirap_setup(peak_factor=1.0, reversed_order=False, sigma=30e-6, separation=45e-6):
    peak = 1e6 * peak_factor
    margin = 4.0 * sigma
    t_stokes, t_pump = margin, margin + separation
    if reversed_order:
        t_stokes, t_pump = t_pump, t_stokes
    return PulseEnvelope(peak, t_pump, sigma), PulseEnvelope(peak, t_stokes, sigma)


def _raman_final_populations(params, duration_s):
    return raman_trajectory(params, duration_s).final_populations()


class TestTwoLevelPopulation:
    def test_resonant_pi_pulse(self):
        p = TwoLevelParams(1e6, 0.0)
        assert two_level_population(p, math.pi / 1e6) == pytest.approx(1.0, abs=1e-12)

    def test_zero_time(self):
        assert two_level_population(TwoLevelParams(1e6, 5e4), 0.0) == 0.0

    def test_detuned_peak(self):
        p = TwoLevelParams(1e6, 1.34e5)
        t = math.pi / p.generalized_rabi_rad_s
        # peak transfer = omega^2 / (omega^2 + delta^2)
        assert two_level_population(p, t) == pytest.approx(0.9823607307192059, rel=1e-12)
        assert two_level_population(p, t) == pytest.approx(0.98236, abs=1e-5)

    def test_zero_drive(self):
        with np.errstate(all="raise"):
            assert two_level_population(TwoLevelParams(0.0, 0.0), 1.0) == 0.0
            assert np.array_equal(two_level_population(TwoLevelParams(0.0, 0.0), [0.0, 1.0]),
                                  [0.0, 0.0])

    def test_periodicity(self):
        p = TwoLevelParams(1e6, 2e5)
        period = 2.0 * math.pi / p.generalized_rabi_rad_s
        ts = np.linspace(0.0, 3 * period, 57)
        assert np.max(np.abs(two_level_population(p, ts + period)
                             - two_level_population(p, ts))) < 1e-12

    @pytest.mark.parametrize("omega", [0.0, 1e6])
    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan, [0.0, math.inf]])
    def test_rejects_negative_or_non_finite_time(self, omega, t):
        with pytest.raises(DomainError, match="finite and >= 0"):
            two_level_population(TwoLevelParams(omega, 0.0), t)

    def test_rejects_negative_rabi(self):
        with pytest.raises(DomainError):
            TwoLevelParams(-1e6, 0.0)


class TestEffectiveRabi:
    def test_paper_reduction(self):
        red = effective_rabi(LambdaParams(2e7, 2e7, 2e8))
        assert red.omega_r_rad_s == 1e6
        assert red.light_shift_pump_rad_s == 5e5
        assert red.light_shift_stokes_rad_s == 5e5

    def test_zero_pump(self):
        assert effective_rabi(LambdaParams(0.0, 2e7, 2e8)).omega_r_rad_s == 0.0

    def test_zero_detuning_rejected(self):
        with pytest.raises(DomainError):
            effective_rabi(LambdaParams(2e7, 2e7, 0.0))

    @pytest.mark.parametrize("params", [LambdaParams(1e300, 2e7, 2e8),
                                        LambdaParams(1e300, 1e300, 2e8),
                                        LambdaParams(2e7, 2e7, 1e-320)],
                             ids=["square overflows", "product overflows", "quotient overflows"])
    def test_rates_beyond_float_range_are_a_domain_error(self, params):
        with pytest.raises(DomainError, match="overflows"):
            effective_rabi(params)


class TestPiPulseDuration:
    def test_values(self):
        assert pi_pulse_duration(TwoLevelParams(1e6, 0.0)) == pytest.approx(3.1416e-6, rel=1e-4)
        assert pi_pulse_duration(TwoLevelParams(2e6, 0.0)) == pytest.approx(
            0.5 * pi_pulse_duration(TwoLevelParams(1e6, 0.0)), rel=1e-12)
        assert pi_pulse_duration(TwoLevelParams(1e6, 1.34e5)) == pytest.approx(
            3.1137616786394606e-6, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DomainError):
            pi_pulse_duration(TwoLevelParams(0.0, 0.0))


class TestIntegrator:
    def test_zero_hamiltonian_is_identity(self):
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        grid = np.linspace(0.0, 1.0, 11)
        traj = integrate_schrodinger(_constant(np.zeros((2, 2), dtype=complex)), psi0, grid)
        assert np.array_equal(traj.amplitudes, np.tile(psi0, (11, 1)))

    @pytest.mark.parametrize("view", [True, False])
    def test_matches_analytic_two_level(self, view):
        omega = 1e6
        grid = np.linspace(0.0, math.pi / omega, 101)
        traj = integrate_schrodinger(_constant(_two_level_h(omega), view),
                                     np.array([1.0, 0.0], dtype=complex), grid)
        analytic = two_level_population(TwoLevelParams(omega, 0.0), grid)
        assert np.max(np.abs(traj.populations()[:, 1] - analytic)) < 1e-8
        assert abs(traj.populations()[-1, 1] - 1.0) < 1e-8

    def test_matches_analytic_detuned_two_level(self):
        omega, delta = 1e6, 4e5
        h = np.array([[0.0, 0.5 * omega], [0.5 * omega, -delta]], dtype=complex)
        p = TwoLevelParams(omega, delta)
        grid = np.linspace(0.0, 3.0 * math.pi / p.generalized_rabi_rad_s, 151)
        traj = integrate_schrodinger(_constant(h), np.array([1.0, 0.0], dtype=complex), grid)
        analytic = two_level_population(p, grid)
        assert np.max(np.abs(traj.populations()[:, 1] - analytic)) < 1e-8

    @pytest.mark.parametrize("shape", [lambda n: (2, 2), lambda n: (n, 2, 3),
                                       lambda n: (n - 1, 2, 2), lambda n: (n, 3, 3)],
                             ids=["one matrix", "not square", "one short", "wrong d"])
    def test_rejects_anything_but_a_stack(self, shape):
        # H for n times must be an (n, d, d) stack; one (d, d) matrix for
        # every time is not accepted
        with pytest.raises(DomainError, match="stack"):
            integrate_schrodinger(lambda t: np.zeros(shape(len(t)), dtype=complex),
                                  np.array([1.0, 0.0], dtype=complex), np.linspace(0.0, 1e-6, 5))

    def test_unitarity_drift_per_1e4_steps(self):
        omega = 1e6
        h = _two_level_h(omega)
        step = 0.01 / float(np.linalg.norm(h))
        grid = np.linspace(0.0, step * 10000, 101)
        traj = integrate_schrodinger(_constant(h), np.array([1.0, 0.0], dtype=complex),
                                     grid, substeps=100)
        assert traj.norm_drift < 1e-9

    def test_halving_step_changes_little(self):
        omega = 1e6
        grid = np.linspace(0.0, math.pi / omega, 101)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        coarse = integrate_schrodinger(_constant(_two_level_h(omega)), psi0, grid, substeps=10)
        fine = integrate_schrodinger(_constant(_two_level_h(omega)), psi0, grid, substeps=20)
        # a tenth of the 1e-8 analytic-equivalence tolerance
        assert np.max(np.abs(coarse.final_populations() - fine.final_populations())) <= 1e-9

    def test_step_size_precondition(self):
        with pytest.raises(StepSizeError):
            integrate_schrodinger(_constant(_two_level_h(1e6)),
                                  np.array([1.0, 0.0], dtype=complex),
                                  np.linspace(0.0, 1e-3, 2), substeps=1)

    @pytest.mark.parametrize("omega", [1e300, 1e9])
    def test_derived_substeps_have_a_work_bound(self, omega):
        # 1e300: ||H||*dt is inf; 1e9: finite, but past MAX_SUBSTEPS
        grid = np.linspace(0.0, 1e-3, 2)
        needed = 1e-3 * float(np.linalg.norm(_two_level_h(1e9))) / STEP_PHASE_TARGET
        assert needed > MAX_SUBSTEPS
        with pytest.raises(StepSizeError, match="work bound"):
            integrate_schrodinger(_constant(_two_level_h(omega)),
                                  np.array([1.0, 0.0], dtype=complex), grid)

    def test_step_size_check_sees_the_stencil(self):
        # H is large only around 0.25 us, the midpoint of the first of two
        # substeps, which the grid points and grid midpoint never sample
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

        def spike(t):
            inside = np.abs(np.asarray(t) - 0.25e-6) < 0.05e-6
            return 1e9 * inside[..., None, None] * sigma_x

        with pytest.raises(StepSizeError):
            integrate_schrodinger(spike, np.array([1.0, 0.0], dtype=complex),
                                  np.linspace(0.0, 1e-6, 2), substeps=2)

    @pytest.mark.parametrize("substeps", [None, 1], ids=["derived", "given"])
    @pytest.mark.parametrize("size", [1e155, 1e160])
    def test_squares_beyond_float_range_raise_without_a_warning(self, substeps, size):
        # elements past ~1e154 overflow their squares: the norm is inf, and
        # the stack is rejected before its Hermitian verdict is read
        stack = _random_hermitian(np.random.default_rng(7), (), 3)
        stack *= size / np.max(np.abs(stack))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError):
                integrate_schrodinger(_constant(stack), np.array([1.0, 0.0, 0.0], dtype=complex),
                                      np.linspace(0.0, 1e-6, 5), substeps=substeps)

    @pytest.mark.parametrize("substeps", [None, 3], ids=["derived", "given"])
    def test_a_nan_at_a_stage_time_raises(self, substeps):
        # H is nan everywhere but on the grid points and midpoints, where the
        # derived substeps are probed: only the RK4 stages meet the nan
        grid = np.linspace(0.0, 1e-6, 3)
        probes = np.concatenate([grid, grid[:-1] + 0.25e-6])

        def hamiltonian(t):
            h = np.tile(_two_level_h(1e5), (len(t), 1, 1))
            h[np.min(np.abs(t[:, None] - probes), axis=1) > 1e-15] = np.nan
            return h

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match="nan"):
                integrate_schrodinger(hamiltonian, np.array([1.0, 0.0], dtype=complex), grid,
                                      substeps=substeps)

    def test_norm_drift_raises_numerical_failure(self):
        # run at the precondition limit long enough to exceed the drift budget
        h = _two_level_h(1e6)
        step = 0.05 / float(np.linalg.norm(h))
        grid = np.linspace(0.0, step * 20000, 101)
        with pytest.raises(NumericalFailure):
            integrate_schrodinger(_constant(h), np.array([1.0, 0.0], dtype=complex),
                                  grid, substeps=200)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(DomainError):
            integrate_schrodinger(_constant(_two_level_h(1e6)),
                                  np.array([1.0, 0.5], dtype=complex),
                                  np.linspace(0.0, 1e-6, 5))

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(DomainError):
            integrate_schrodinger(_constant(_two_level_h(1e6)),
                                  np.array([1.0, 0.0], dtype=complex),
                                  np.array([0.0, 1e-7, 5e-7]))

    def test_rejects_two_dimensional_state(self):
        with pytest.raises(DomainError, match="1-d"):
            integrate_schrodinger(_constant(_two_level_h(1e6)),
                                  np.array([[1.0, 0.0]], dtype=complex),
                                  np.linspace(0.0, 1e-6, 5))


def _last(stack):
    """An (n, d, d) stack as the integrator holds it, (d, d, n)."""
    return _to_matrix_last(stack, *stack.shape[:2])


# --- per-matrix references for the matrix-last kernel: the (n, d, d) forms
# --- the integrator used before it moved to (d, d, n) stacks.
def _reference_update(h_a, h_mid, h_b, h):
    """RK4 update matrices, one np.matmul per (d, d) matrix of (n, d, d) stacks."""
    out = np.empty_like(h_a)
    for i in range(len(h_a)):
        a, m, b = (-1j * h) * h_a[i], (-1j * h) * h_mid[i], (-1j * h) * h_b[i]
        k2 = m + 0.5 * np.matmul(m, a)
        k3 = m + 0.5 * np.matmul(m, k2)
        k4 = b + np.matmul(b, k3)
        out[i] = np.eye(len(a)) + (a + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return out


def _reference_trajectory(hamiltonian, psi0, grid, substeps):
    """RK4 on the integrator's evaluation times, one interval and matrix at a time."""
    h = (grid[1] - grid[0]) / substeps
    psi, out = psi0, [psi0]
    for start in grid[:-1]:
        t = np.array([start])
        h_b, propagator = hamiltonian(t), np.eye(len(psi0))
        for k in range(substeps):
            t = np.array([start + k * h])
            h_a, h_mid, h_b = h_b, hamiltonian(t + 0.5 * h), hamiltonian(t + h)
            propagator = np.matmul(_reference_update(h_a, h_mid, h_b, h)[0], propagator)
        psi = np.matmul(propagator, psi)
        out.append(psi)
    return np.array(out)


def _reference_max_frobenius(h_matrices):
    return float(np.max(np.linalg.norm(h_matrices, axis=(-2, -1))))


def _reference_is_hermitian(h_matrices):
    scale = np.maximum(1.0, np.max(np.abs(h_matrices), axis=(-2, -1)))
    asym = np.max(np.abs(h_matrices - np.swapaxes(h_matrices, -1, -2).conj()), axis=(-2, -1))
    return bool(np.all(asym <= 1e-12 * scale))


def _random_hermitian(rng, shape, d):
    x = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    return 0.5 * (x + np.swapaxes(x, -1, -2).conj())


def _smooth_hamiltonian(rng, d, rate):
    """H(t) = rate * (A + cos(2 pi t / 1 us) B) with random Hermitian A, B."""
    a, b = rate * _random_hermitian(rng, (), d), rate * _random_hermitian(rng, (), d)
    return lambda t: a + np.cos(2e6 * np.pi * np.asarray(t))[:, None, None] * b


class TestMatrixLastKernel:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_substep_matches_per_matrix_update(self, d):
        # one substep applied to a random propagator P in place equals the
        # per-matrix update matrix times P
        rng = np.random.default_rng(d)
        h_a, h_mid, h_b, p = (rng.normal(size=(600, d, d)) + 1j * rng.normal(size=(600, d, d))
                              for _ in range(4))
        h = 0.01
        expected = _reference_update(h_a, h_mid, h_b, h) @ p
        propagator = _last(p)
        _rk4_substep(propagator, _last(h_a), _last(h_mid), _last(h_b), h,
                     [np.empty_like(propagator) for _ in range(4)])
        assert np.max(np.abs(np.moveaxis(propagator, -1, 0) - expected)) < 1e-13
        product = _matmul_last(_last(h_a), _last(h_b), *(np.empty_like(propagator) for _ in range(2)))
        assert np.max(np.abs(np.moveaxis(product, -1, 0) - h_a @ h_b)) < 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_propagators_match_per_matrix_rk4(self, d):
        rng = np.random.default_rng(10 + d)
        hamiltonian = _smooth_hamiltonian(rng, d, 3e5)
        psi0 = np.zeros(d, dtype=complex)
        psi0[0] = 1.0
        grid = np.linspace(0.0, 2e-6, 41)
        traj = integrate_schrodinger(hamiltonian, psi0, grid, substeps=7)
        expected = _reference_trajectory(hamiltonian, psi0, grid, 7)
        assert np.max(np.abs(traj.amplitudes - expected)) < 1e-13

    def test_non_hermitian_propagators_match_per_matrix_rk4(self):
        # gamma_e > 0: the excited state decays, so the run is not unitary
        pump, stokes = _stirap_setup()

        def hamiltonian(t):
            return lambda_matrix(pump.value(t), stokes.value(t), 2e5, 0.0, 3e5)

        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        grid = np.linspace(pump.center_s - pump.rms_width_s, pump.center_s, 31)
        traj = integrate_schrodinger(hamiltonian, psi0, grid, substeps=25)
        expected = _reference_trajectory(hamiltonian, psi0, grid, 25)
        assert np.max(np.abs(traj.amplitudes - expected)) < 1e-13
        assert traj.norms_squared()[-1] < 0.99

    def test_one_non_hermitian_matrix_is_flagged(self):
        stack = _random_hermitian(np.random.default_rng(5), (600,), 3)
        assert _reference_is_hermitian(stack)
        assert _norm_and_hermiticity(_last(stack))[1] is True
        stack[300, 0, 2] += 1e-9
        assert not _reference_is_hermitian(stack)
        assert _norm_and_hermiticity(_last(stack))[1] is False
        norm_max, _ = _norm_and_hermiticity(_last(stack))
        assert norm_max == pytest.approx(_reference_max_frobenius(stack), rel=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("size", [1e-3, 1e6], ids=["below 1", "above 1"])
    @pytest.mark.parametrize("asym_ratio", [0.5, 0.99, 1.01, 2.0])
    @pytest.mark.parametrize("phase_ratio", [0.99, 1.01])
    def test_squared_checks_agree_with_the_references_at_the_margin(
            self, d, size, asym_ratio, phase_ratio):
        # matrix 300 sits at phase_ratio of the step-phase limit and matrix
        # 450 has one element asym_ratio times its Hermiticity tolerance off;
        # "below 1" keeps every element under 1, so the tolerance is 1e-12
        rng = np.random.default_rng(d)
        stack = _random_hermitian(rng, (600,), d)
        stack *= 0.5 * size / np.max(np.linalg.norm(stack, axis=(-2, -1)))
        stack[300] *= phase_ratio * size / np.linalg.norm(stack[300])
        h = STEP_PHASE_MAX / size
        stack[450, 0, d - 1] += asym_ratio * 1e-12 * max(1.0, np.max(np.abs(stack[450])))
        norm_max, is_hermitian = _norm_and_hermiticity(_last(stack))
        assert _reference_is_hermitian(stack) == (asym_ratio < 1) == is_hermitian
        assert (_reference_max_frobenius(stack) * h > STEP_PHASE_MAX) == (phase_ratio > 1)
        assert (norm_max * h > STEP_PHASE_MAX) == (phase_ratio > 1)

    @pytest.mark.parametrize("phase_ratio, raises", [(0.99, False), (1.01, True)])
    def test_one_over_limit_matrix_raises(self, phase_ratio, raises):
        # 600 intervals, one substep: every H call is one 600-matrix stack, and
        # only matrix 300 reaches phase_ratio times the step-phase limit
        base = _random_hermitian(np.random.default_rng(6), (600,), 3)
        base /= np.max(np.linalg.norm(base, axis=(-2, -1)))
        grid = np.linspace(0.0, 6e-6, 601)
        h = grid[1] - grid[0]
        stack = base * (0.01 / h)
        stack[300] *= phase_ratio * STEP_PHASE_MAX / (h * np.linalg.norm(stack[300]))
        assert (_reference_max_frobenius(stack) * h > STEP_PHASE_MAX) == raises
        assert np.argmax(np.linalg.norm(stack, axis=(-2, -1))) == 300

        def hamiltonian(t):
            assert len(t) == 600
            return stack

        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        if raises:
            with pytest.raises(StepSizeError):
                integrate_schrodinger(hamiltonian, psi0, grid, substeps=1)
        else:
            integrate_schrodinger(hamiltonian, psi0, grid, substeps=1)


class TestPulseEnvelope:
    def test_gaussian(self):
        env = PulseEnvelope(1.0, 10.0, 2.0)
        assert env.start_s == 2.0 and env.end_s == 18.0
        assert env.value(10.0) == 1.0
        assert env.value(12.0) == pytest.approx(math.exp(-0.5), rel=1e-12)
        # support is [start_s, end_s): zero before it and at its end
        assert env.value(1.0) == 0.0
        assert env.value(2.0) == math.exp(-8.0)
        assert env.value(18.0) == 0.0
        times = np.array([1.0, 2.0, 10.0, 12.0, 17.5, 18.0])
        assert np.array_equal(env.value(times), [env.value(t) for t in times])

    def test_validation(self):
        with pytest.raises(DomainError):
            PulseEnvelope(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            PulseEnvelope(-1.0, 0.0, 1.0)


class TestRamanPiPulse:
    def test_paper_parameters(self):
        p = LambdaParams(2e7, 2e7, 2e8, delta_rad_s=0.0)
        p_a, p_e, p_g = _raman_final_populations(p, math.pi / 1e6)
        assert p_g >= 0.98
        assert p_e <= 5e-3
        assert p_a + p_e + p_g == pytest.approx(1.0, abs=1e-9)

    def test_no_fields(self):
        p_a, p_e, p_g = _raman_final_populations(LambdaParams(0.0, 0.0, 2e8), 1e-6)
        assert (p_a, p_e, p_g) == (1.0, 0.0, 0.0)

    def test_adiabatic_elimination_improves_with_detuning(self):
        base = LambdaParams(2e7, 2e7, 2e8)
        drive = TwoLevelParams(effective_rabi(base).omega_r_rad_s, 0.0)
        duration = pi_pulse_duration(drive)
        p2 = two_level_population(drive, duration)
        d1 = abs(_raman_final_populations(base, duration)[2] - p2)
        scaled = LambdaParams(2e7 * math.sqrt(10.0), 2e7 * math.sqrt(10.0), 2e9)
        d2 = abs(_raman_final_populations(scaled, duration)[2] - p2)
        assert d1 <= 0.01
        assert d1 / d2 >= 5.0

    def test_trajectory_tracks_two_level_formula(self):
        # At delta_e = 20x the couplings the residual ripple stays below 1%
        # at every grid time (at 10x the turn-on ripple peaks at ~1.3%).
        p = LambdaParams(2e7, 2e7, 4e8)
        drive = TwoLevelParams(effective_rabi(p).omega_r_rad_s, 0.0)
        traj = raman_trajectory(p, pi_pulse_duration(drive))
        analytic = two_level_population(drive, traj.times)
        assert np.max(np.abs(traj.populations()[:, 2] - analytic)) <= 0.01

    def test_stark_compensation_restores_resonance(self):
        # Unequal couplings shift the two-photon resonance. delta_rad_s is
        # the dressed detuning, so the drive at 0 is on resonance; the bare
        # (uncompensated) drive at 0 is the drive with delta_rad_s raised by
        # the differential light shift.
        comp = LambdaParams(2e7, 1e7, 4e8)
        red = effective_rabi(comp)
        bare = LambdaParams(2e7, 1e7, 4e8,
                            delta_rad_s=red.light_shift_pump_rad_s - red.light_shift_stokes_rad_s)
        assert compensated_bare_detuning(bare) == 0.0
        duration = math.pi / red.omega_r_rad_s
        assert _raman_final_populations(comp, duration)[2] >= 0.98
        assert _raman_final_populations(bare, duration)[2] < 0.9

    def test_compensated_detuning_value(self):
        p = LambdaParams(2e7, 1e7, 4e8, delta_rad_s=0.0)
        red = effective_rabi(p)
        expected = -(red.light_shift_pump_rad_s - red.light_shift_stokes_rad_s)
        assert compensated_bare_detuning(p) == pytest.approx(expected, rel=1e-12)

    def test_excited_loss_decays_norm(self):
        p = LambdaParams(2e7, 2e7, 2e8, gamma_e_rad_s=1e6)
        traj = raman_trajectory(p, math.pi / 1e6)
        norms = traj.norms_squared()
        assert np.all(np.diff(norms) <= 1e-12)
        assert norms[-1] < 1.0

    @pytest.mark.parametrize("gamma_e", [0.0, 1e6])
    def test_exact_propagation_matches_the_integrator(self, gamma_e):
        # the same constant H, lossless and lossy, through the RK4 integrator
        p = LambdaParams(2e7, 2e7, 2e8, gamma_e_rad_s=gamma_e)
        duration = math.pi / 1e6
        exact = raman_trajectory(p, duration)
        h = lambda_matrix(2e7, 2e7, 2e8, compensated_bare_detuning(p), gamma_e)
        rk4 = integrate_schrodinger(_constant(h), np.array([1.0, 0.0, 0.0], dtype=complex),
                                    exact.times)
        assert np.max(np.abs(exact.populations() - rk4.populations())) <= 1e-9
        assert (exact.norms_squared()[-1] < 0.999) == (gamma_e > 0)

    @pytest.mark.parametrize("drive", [(2e7, 2e7, 2e8), (1e150, 1e150, 1e160)],
                             ids=["bundled scale", "squares overflow"])
    @pytest.mark.parametrize("gamma_e, raises", [(0.0, True), (1e6, False)])
    def test_norm_drift_raises_on_a_lossless_pulse(self, monkeypatch, drive, gamma_e, raises):
        # a linear solve 1e-6 off in scale drifts the norm by 2e-6, which only
        # a lossless H forbids, also where the squares of its elements overflow
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: (1.0 + 1e-6) * solve(a, b))
        p = LambdaParams(*drive, gamma_e_rad_s=gamma_e)
        if raises:
            with pytest.raises(NumericalFailure):
                raman_trajectory(p, math.pi / 1e6)
        else:   # the same drift passes: a lossy run is not checked
            assert raman_trajectory(p, math.pi / 1e6).norm_drift > NORM_DRIFT_LIMIT

    def test_loss_matrix_form(self):
        h = lambda_matrix(2e7, 2e7, 2e8, 0.0, 1e6)
        assert h[1, 1] == pytest.approx(-2e8 - 0.5e6j)
        omega_p, gamma_e = np.array([0.0, 1e7, 2e7]), np.array([0.0, 5e5, 1e6])
        stack = lambda_matrix(omega_p, 2e7, 2e8, 0.0, gamma_e)
        assert stack.shape == (3, 3, 3)
        for i in range(3):
            assert np.array_equal(stack[i], lambda_matrix(omega_p[i], 2e7, 2e8, 0.0, gamma_e[i]))

    def test_stack_is_built_matrix_last(self):
        # an (n, 3, 3) view of a (3, 3, n) array: equal bit for bit to a
        # matrix-by-matrix construction, and taken by the integrator as is
        n = 50
        omega_p, gamma_e = np.linspace(0.0, 2e7, n), np.linspace(1e5, 1e6, n)
        h = lambda_matrix(omega_p, 1.5e7, 2e8, 3e3, gamma_e)
        expected = np.zeros((n, 3, 3), dtype=complex)
        for i in range(n):
            expected[i, 0, 1] = expected[i, 1, 0] = 0.5 * omega_p[i]
            expected[i, 1, 2] = expected[i, 2, 1] = 0.5 * 1.5e7
            expected[i, 1, 1] = -2e8 - 0.5j * gamma_e[i]
            expected[i, 2, 2] = -3e3
        assert h.shape == (n, 3, 3)
        assert np.array_equal(h, expected)
        assert np.shares_memory(_to_matrix_last(h, n, 3), h)

    def test_scalar_inputs_give_one_plain_matrix(self):
        # the (3, 3) matrix raman_trajectory diagonalises
        h = lambda_matrix(2e7, 1.5e7, 2e8, 3e3, 1e6)
        expected = np.array([[0.0, 1e7, 0.0], [1e7, -2e8 - 0.5e6j, 0.75e7], [0.0, 0.75e7, -3e3]])
        assert h.shape == (3, 3) and h.flags.c_contiguous
        assert np.array_equal(h, expected)


class TestStirap:
    def test_counterintuitive_order_transfers(self):
        pump, stokes = _stirap_setup()
        traj = stirap_trajectory(pump, stokes, 0.0, 0.0)
        assert traj.final_populations()[2] > 0.99
        assert traj.norm_drift < 1e-9

    def test_reversed_order_is_worse(self):
        eff = simulate_stirap(*_stirap_setup(), 0.0, 0.0)
        assert simulate_stirap(*_stirap_setup(reversed_order=True), 0.0, 0.0) < eff

    def test_weak_drive_fails_adiabaticity(self):
        assert simulate_stirap(*_stirap_setup(peak_factor=0.01), 0.0, 0.0) < 0.9

    def test_one_photon_detuning_tolerated(self):
        # the transfer rides the dark state, which has no excited component,
        # so a moderate one-photon detuning barely degrades it
        assert simulate_stirap(*_stirap_setup(), 5e5, 0.0) > 0.99

    def test_grid_spacing_must_resolve_the_narrower_pulse(self):
        # The grid runs from the Stokes start (0) to the pump end (8 sigma +
        # separation), so this separation puts its spacing at exactly sigma.
        sigma = 1.0
        at_sigma = (STIRAP_POINTS - 1 - 2 * 4) * sigma

        def pulses(separation):
            return (PulseEnvelope(1e-3, 4.0 * sigma + separation, sigma),
                    PulseEnvelope(1e-3, 4.0 * sigma, sigma))

        assert stirap_trajectory(*pulses(at_sigma), 0.0, 0.0).norm_drift < 1e-9
        with pytest.raises(DomainError, match="spacing 1 s exceeds the rms width 0.5 s"):
            stirap_trajectory(pulses(at_sigma)[0], PulseEnvelope(1e-3, 2.0, 0.5),
                              0.0, 0.0)
        with pytest.raises(DomainError, match="spacing"):
            stirap_trajectory(*pulses(at_sigma + 1.0), 0.0, 0.0)
