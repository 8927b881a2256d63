import math
import re
import warnings
from importlib import resources

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
    Trajectory,
    TwoLevelParams,
    compensated_bare_detuning,
    effective_rabi,
    integrate_schrodinger,
    lambda_matrix,
    pi_pulse_duration,
    raman_trajectory,
    stirap_trajectory,
    two_level_population,
)
from hybridgate import repro
from hybridgate.dynamics import (_interval_states, _is_hermitian, _matmul_last, _norm_max,
                                 _rk4_substep, _to_matrix_last)
from hybridgate.errors import DomainError, NumericalFailure, StepSizeError
from hybridgate.scenario import load_scenario_text


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


def _stirap_efficiency(pump, stokes, delta_e, delta):
    """Final molecule population of a STIRAP run from the atoms."""
    return float(stirap_trajectory(pump, stokes, delta_e, delta).final_populations()[2])


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

    def test_given_substeps_have_the_same_work_bound_before_h_is_called(self):
        calls = []

        def hamiltonian(t):
            calls.append(t)
            return np.tile(_two_level_h(1.0), (len(t), 1, 1))

        with pytest.raises(StepSizeError, match="work bound"):
            integrate_schrodinger(hamiltonian, np.array([1.0, 0.0], dtype=complex),
                                  np.linspace(0.0, 1e-6, 5), substeps=MAX_SUBSTEPS + 1)
        assert calls == []

    def test_given_substeps_at_the_work_bound_run(self):
        traj = integrate_schrodinger(_constant(_two_level_h(1e5)),
                                     np.array([1.0, 0.0], dtype=complex),
                                     np.linspace(0.0, 1e-6, 2), substeps=MAX_SUBSTEPS)
        assert traj.amplitudes.shape == (2, 2) and traj.norm_drift < 1e-12

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

    def test_rejects_three_dimensional_state(self):
        with pytest.raises(DomainError, match=r"\(d,\) state or an \(m, d\) stack"):
            integrate_schrodinger(_constant(_two_level_h(1e6)),
                                  np.array([[[1.0, 0.0]]], dtype=complex),
                                  np.linspace(0.0, 1e-6, 5))

    @pytest.mark.parametrize("substeps", [None, 2], ids=["derived", "given"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, complex(0.0, math.inf), math.nan],
                             ids=["inf", "-inf", "imaginary inf", "nan"])
    def test_a_non_finite_h_at_a_probe_time_is_named_by_the_probe(self, value, substeps):
        # one non-finite element at the midpoint of the last interval: the
        # probe, which runs before any stage whether substeps is given or
        # derived, names a non-finite H, not a step phase beyond the work bound
        grid = np.linspace(0.0, 1e-6, 5)

        def hamiltonian(t):
            h = np.tile(_two_level_h(1e5), (len(t), 1, 1))
            h[t == 0.5 * (grid[-2] + grid[-1]), 0, 1] = value
            return h

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match="nan or inf at a probe time") as err:
                integrate_schrodinger(hamiltonian, np.array([1.0, 0.0], dtype=complex), grid,
                                      substeps=substeps)
        assert "work bound" not in str(err.value)

    @pytest.mark.parametrize("substeps", [None, 3], ids=["derived", "given"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e160],
                             ids=["nan", "inf", "squares overflow"])
    def test_a_non_finite_h_at_a_stage_time_raises(self, value, substeps):
        # H is finite and small on the grid points and midpoints, where it is
        # probed; elsewhere it holds a nan or an inf, or elements whose squares
        # leave float range: only the RK4 stages meet it, and no substep
        # count would help
        grid = np.linspace(0.0, 1e-6, 3)
        probes = np.concatenate([grid, grid[:-1] + 0.25e-6])

        def hamiltonian(t):
            h = np.tile(_two_level_h(1e5), (len(t), 1, 1))
            h[np.min(np.abs(t[:, None] - probes), axis=1) > 1e-15] = value
            return h

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match=r"is (nan|inf), not finite") as err:
                integrate_schrodinger(hamiltonian, np.array([1.0, 0.0], dtype=complex), grid,
                                      substeps=substeps)
        assert "stage time" in str(err.value) and "past float range" in str(err.value)
        assert "increase substeps" not in str(err.value)

    def test_the_step_phase_is_checked_on_the_probes_grid_point_values(self):
        # H is too coarse for the given step at the first grid time alone,
        # which no call after the probe meets: only the check on the probe's
        # values that start the first substep sees it
        grid = np.linspace(0.0, 1e-6, 3)

        def hamiltonian(t):
            h = np.tile(_two_level_h(1e5), (len(t), 1, 1))
            h[t == grid[0]] = _two_level_h(1e9)
            return h

        with pytest.raises(StepSizeError, match="step size too coarse"):
            integrate_schrodinger(hamiltonian, np.array([1.0, 0.0], dtype=complex), grid,
                                  substeps=2)

    @pytest.mark.parametrize("substeps, used", [(None, 2), (1, 1), (3, 3)],
                             ids=["derived", "given 1", "given 3"])
    def test_the_probe_calls_h_once_on_grid_points_and_midpoints(self, substeps, used):
        grid = np.linspace(0.0, 1e-6, 5)
        assert math.ceil(0.25e-6 * np.linalg.norm(_two_level_h(1e5)) / STEP_PHASE_TARGET) == 2
        calls = []

        def hamiltonian(t):
            calls.append(np.array(t))
            return np.tile(_two_level_h(1e5), (len(t), 1, 1))

        traj = integrate_schrodinger(hamiltonian, np.array([1.0, 0.0], dtype=complex), grid,
                                     substeps=substeps)
        probes = np.concatenate([grid, grid[:-1] + 0.125e-6])
        assert np.array_equal(calls[0], probes)
        assert [len(t) for t in calls[1:]] == [8] * (len(calls) - 1)
        # the probe, whose grid-point values start the first substep, then one
        # call per substep on its midpoints and ends
        assert len(calls) == 1 + used
        h = 0.25e-6 / used
        assert np.array_equal(calls[-1], np.concatenate([grid[:-1] + (used - 1) * h + 0.5 * h,
                                                         grid[:-1] + (used - 1) * h + h]))
        assert traj.norm_drift < 1e-12

    @pytest.mark.parametrize("grid", [[0.0, 1e-6, math.nan], [0.0, math.nan, 2e-6],
                                      [0.0, math.inf], [-math.inf, 0.0]],
                             ids=["nan last", "nan inside", "inf", "-inf"])
    def test_rejects_a_non_finite_grid_before_calling_h(self, grid):
        # every comparison with a nan is false, so a nan last time would
        # pass the uniformity test
        def hamiltonian(t):
            raise AssertionError("H is called for a non-finite grid")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite times"):
                integrate_schrodinger(hamiltonian, np.array([1.0, 0.0], dtype=complex),
                                      np.array(grid))


class TestStateStack:
    """An (m, d) psi0: every state is advanced by the same interval propagators."""

    def test_each_row_matches_its_own_run(self):
        rng = np.random.default_rng(3)
        hamiltonian = _smooth_hamiltonian(rng, 3, 2e6)
        states = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        grid = np.linspace(0.0, 2e-6, 41)
        stack = integrate_schrodinger(hamiltonian, states, grid)
        assert stack.amplitudes.shape == (4, 41, 3)
        for state, row in zip(states, stack.amplitudes):
            single = integrate_schrodinger(hamiltonian, state, grid)
            assert single.amplitudes.shape == (41, 3)
            assert np.max(np.abs(row - single.amplitudes)) <= 1e-14

    @pytest.mark.parametrize("psi0", [[[1.0, 0.0], [1.0, 0.5]], [[1.0, 0.0], [math.nan, 0.0]],
                                      [math.nan, 0.0]], ids=["row", "nan row", "nan state"])
    def test_an_unnormalized_or_nan_state_is_rejected(self, psi0):
        # a nan state used to pass the norm check and run to an all-nan trajectory
        with pytest.raises(DomainError, match="not normalized"):
            integrate_schrodinger(_constant(_two_level_h(1e6)), np.array(psi0, dtype=complex),
                                  np.linspace(0.0, 1e-6, 5))

    def test_a_drifting_row_fails_the_norm_check(self):
        # H drives only the first two levels, so the third state never moves;
        # the first, at the step-phase limit, drifts past the budget
        h = np.zeros((3, 3), dtype=complex)
        h[:2, :2] = _two_level_h(1e6)
        step = 0.05 / float(np.linalg.norm(h))
        grid = np.linspace(0.0, step * 20000, 101)
        still, driven = np.eye(3, dtype=complex)[[2, 0]]
        assert integrate_schrodinger(_constant(h), still[None], grid,
                                     substeps=200).norm_drift == 0.0
        with pytest.raises(NumericalFailure):
            integrate_schrodinger(_constant(h), np.array([still, driven]), grid, substeps=200)

    def test_trajectory_methods_work_on_the_last_axes(self):
        amplitudes = np.zeros((2, 3, 2), dtype=complex)
        amplitudes[0, :, 0] = 1.0
        amplitudes[1, :, 1] = [1.0, 0.5j, 0.25]
        traj = Trajectory(np.arange(3.0), amplitudes)
        assert np.array_equal(traj.populations(), np.abs(amplitudes) ** 2)
        assert np.array_equal(traj.norms_squared(), [[1.0, 1.0, 1.0], [1.0, 0.25, 0.0625]])
        assert traj.norm_drift == 0.9375
        assert np.array_equal(traj.final_populations(), [[1.0, 0.0], [0.0, 0.0625]])

    def test_trajectory_arrays_are_read_only_views_of_writable_inputs(self):
        grid = np.linspace(0.0, 1.0, 11)
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        traj = integrate_schrodinger(_constant(np.zeros((2, 2), dtype=complex)), psi0, grid)
        for array in (traj.times, traj.amplitudes):
            with pytest.raises(ValueError):
                array[0] = 5.0
        assert grid.flags.writeable and psi0.flags.writeable   # the caller's arrays


class TestDetuningMirror:
    """Flipping both detunings, (delta_e, delta) -> (-delta_e, -delta), maps a
    lossless H to -D H D with D = diag(1, -1, 1). H is real, so the propagator
    maps to D conj(U) D: each amplitude to D conj(psi) from the same psi0, and
    each population to itself. With a loss gamma_e the mirror would turn it into
    a gain, so these runs keep gamma_e = 0."""

    D = np.array([1.0, -1.0, 1.0])

    @pytest.mark.parametrize("delta_e, delta", [(2e6, 3e4), (-1e6, -2e4), (5e5, 0.0)])
    def test_stirap_is_mirrored_bit_for_bit(self, delta_e, delta):
        # every RK4 operation commutes with the map exactly
        atoms_and_molecule = np.eye(3)[[0, 2]]
        run = stirap_trajectory(*_stirap_setup(), delta_e, delta, psi0=atoms_and_molecule)
        flipped = stirap_trajectory(*_stirap_setup(), -delta_e, -delta, psi0=atoms_and_molecule)
        assert np.array_equal(flipped.amplitudes, self.D * np.conj(run.amplitudes))
        assert np.array_equal(flipped.populations(), run.populations())

    @pytest.mark.parametrize("delta_e, delta", [(2e8, 3e5), (-4e8, -1e5), (2e8, 0.0)])
    def test_raman_is_mirrored_within_ulps(self, delta_e, delta):
        # np.linalg.eig promises no exact symmetry, so this allows a few ulps;
        # unequal couplings make the light-shift compensation flip too
        params = LambdaParams(2e7, 3e7, delta_e, delta)
        flipped = LambdaParams(2e7, 3e7, -delta_e, -delta)
        run, mirrored = raman_trajectory(params, 3e-6), raman_trajectory(flipped, 3e-6)
        ulps = 4 * np.finfo(float).eps
        assert np.max(np.abs(mirrored.amplitudes - self.D * np.conj(run.amplitudes))) <= ulps
        assert np.max(np.abs(mirrored.populations() - run.populations())) <= ulps


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
        stacks = [_last(h_a), _last(h_mid), _last(h_b)]
        _rk4_substep(propagator, *stacks, h, [np.empty_like(propagator) for _ in range(4)],
                     tuple(stack.any(axis=-1) for stack in stacks))
        assert np.max(np.abs(np.moveaxis(propagator, -1, 0) - expected)) < 1e-13
        product = _matmul_last(stacks[0], stacks[2], *(np.empty_like(propagator) for _ in range(2)),
                               stacks[0].any(axis=-1))
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
        assert _is_hermitian(_last(stack)) is True
        stack[300, 0, 2] += 1e-9
        assert not _reference_is_hermitian(stack)
        assert _is_hermitian(_last(stack)) is False
        assert _norm_max(_last(stack), _last(stack).any(axis=-1)) == pytest.approx(
            _reference_max_frobenius(stack), rel=1e-15)

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
        norm_max = _norm_max(_last(stack), _last(stack).any(axis=-1))
        is_hermitian = _is_hermitian(_last(stack))
        assert _reference_is_hermitian(stack) == (asym_ratio < 1) == is_hermitian
        assert (_reference_max_frobenius(stack) * h > STEP_PHASE_MAX) == (phase_ratio > 1)
        assert (norm_max * h > STEP_PHASE_MAX) == (phase_ratio > 1)

    @pytest.mark.parametrize("phase_ratio, raises", [(0.99, False), (1.01, True)])
    def test_one_over_limit_matrix_raises(self, phase_ratio, raises):
        # 600 intervals, one substep: the stage H calls are the 600 starts and
        # then the 600 midpoints and 600 ends in one call, and only matrix 300
        # reaches phase_ratio times the step-phase limit; the probe's 1201
        # times, which it checks for finiteness and Hermiticity only, get the
        # grid stack and its last matrix again
        base = _random_hermitian(np.random.default_rng(6), (600,), 3)
        base /= np.max(np.linalg.norm(base, axis=(-2, -1)))
        grid = np.linspace(0.0, 6e-6, 601)
        h = grid[1] - grid[0]
        stack = base * (0.01 / h)
        stack[300] *= phase_ratio * STEP_PHASE_MAX / (h * np.linalg.norm(stack[300]))
        assert (_reference_max_frobenius(stack) * h > STEP_PHASE_MAX) == raises
        assert np.argmax(np.linalg.norm(stack, axis=(-2, -1))) == 300

        def hamiltonian(t):
            assert len(t) in (600, 1200, 1201)
            return {600: stack, 1200: np.concatenate([stack, stack]),
                    1201: np.concatenate([stack, stack[-1:], stack])}[len(t)]

        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        if raises:
            with pytest.raises(StepSizeError):
                integrate_schrodinger(hamiltonian, psi0, grid, substeps=1)
        else:
            integrate_schrodinger(hamiltonian, psi0, grid, substeps=1)


def _dense_matmul_last(x, y):
    """x @ y for matrix-last stacks, every entry of x taken: the product
    before supports, d broadcast multiply-adds over the columns of x."""
    out = x[:, :1] * y[0]
    for k in range(1, len(x)):
        out += x[:, k:k + 1] * y[k]
    return out


class TestSupportAwareKernel:
    """Products skip the entries of H that are exactly 0 at every time of
    the call that returned it, and the states come from a prefix scan."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_support_aware_product_is_the_dense_product(self, d):
        rng = np.random.default_rng(20 + d)
        y = rng.normal(size=(d, d, 600)) + 1j * rng.normal(size=(d, d, 600))
        patterns = [rng.random((d, d)) < 0.5 for _ in range(20)]
        patterns += [np.ones((d, d), bool), np.zeros((d, d), bool),
                     np.repeat(np.arange(d)[:, None] != 0, d, axis=1)]   # row 0 all zero
        for pattern in patterns:
            x = (rng.normal(size=(d, d, 600)) + 1j * rng.normal(size=(d, d, 600))) * pattern[..., None]
            x[..., ::7] = 0.0      # zeros at some times keep an entry supported
            assert np.array_equal(x.any(axis=-1), pattern)
            dense = _dense_matmul_last(x, y)
            out, term = np.empty_like(y), np.empty_like(y)
            assert np.array_equal(_matmul_last(x, y, out, term, pattern), dense)
            # the dense product is the case where every entry is supported
            assert np.array_equal(_matmul_last(x, y, out, term, np.ones((d, d), bool)), dense)
        assert not _matmul_last(np.zeros_like(y), y, out, term, np.zeros((d, d), bool)).any()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_substep_with_supports_matches_per_matrix_update(self, d):
        rng = np.random.default_rng(30 + d)
        h_a, h_mid, h_b, p = (rng.normal(size=(600, d, d)) + 1j * rng.normal(size=(600, d, d))
                              for _ in range(4))
        h_a[:, 0, :] = 0.0       # an all-zero row
        h_mid[:, :, 1] = 0.0
        h_b[:] = 0.0             # an all-zero stack
        expected = _reference_update(h_a, h_mid, h_b, 0.01) @ p
        propagator = _last(p)
        stacks = [_last(h_a), _last(h_mid), _last(h_b)]
        _rk4_substep(propagator, *stacks, 0.01, [np.empty_like(propagator) for _ in range(4)],
                     tuple(stack.any(axis=-1) for stack in stacks))
        assert np.max(np.abs(np.moveaxis(propagator, -1, 0) - expected)) < 1e-13

    @pytest.mark.parametrize("substeps", [1, 2, 3])
    def test_the_support_comes_from_each_call(self, substeps):
        # H's zero pattern depends on where t falls in its grid interval: A
        # at the grid points, B at the grid midpoints and C at every other
        # time (the substep midpoints, and with 3 substeps some ends too).
        # The probe sees A and B, so its support lacks C's (1, 2) and (2, 1),
        # and the interval starts see A alone: a support carried over from
        # either drops entries of a later call and moves the result by far
        # more than 1e-13. The first substep starts from the probe's values at
        # the grid points, whose support is A's alone. H is not Hermitian, so
        # the norm its jumps drift is not checked.
        rng = np.random.default_rng(7)
        masks = {0: np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]]),
                 2: np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
                 None: np.array([[0, 1, 0], [1, 0, 1], [0, 1, 1]])}
        parts = {key: 5e4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * mask
                 for key, mask in masks.items()}
        grid = np.linspace(0.0, 2e-6, 11)
        dt = grid[1] - grid[0]

        def hamiltonian(t):
            t = np.asarray(t)
            phase = np.rint(4 * substeps * t / dt) % (4 * substeps)
            out = np.empty(t.shape + (3, 3), dtype=complex)
            for i, p in enumerate(phase):
                key = 0 if p == 0 else 2 if p == 2 * substeps else None
                out[i] = (1.0 + 0.3 * np.cos(1e6 * t[i])) * parts[key]
            return out

        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        supports = []

        def support(h):
            return tuple(np.any(h != 0, axis=0).ravel())

        def recorded(t):
            h = hamiltonian(t)
            supports.append(support(h))
            if len(supports) == 1:   # the probe: its first n values start the first substep
                supports.append(support(h[:len(grid) - 1]))
            return h

        traj = integrate_schrodinger(recorded, psi0, grid, substeps=substeps)
        assert len(supports) == 2 + substeps
        assert not supports[0][5] and len(set(supports[1:])) >= 2   # the probe lacks C's (1, 2)
        expected = _reference_trajectory(hamiltonian, psi0, grid, substeps)
        assert np.max(np.abs(traj.amplitudes - expected)) < 1e-13
        assert np.max(np.abs(traj.amplitudes[-1] - psi0)) > 1e-2

    @pytest.mark.parametrize("n", [1, 2, 3, 600])
    @pytest.mark.parametrize("m", [None, 2], ids=["one state", "2-state stack"])
    def test_scan_matches_sequential_application(self, n, m):
        rng = np.random.default_rng(n)
        d = 3
        unitaries = np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]
        psi = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0][:, :m or 1]
        psi = psi[:, 0] if m is None else psi
        expected = [psi]
        for interval in unitaries:
            expected.append(interval @ expected[-1])
        scratch = [np.empty((d, d, n), dtype=complex) for _ in range(2)]
        states = _interval_states(_last(unitaries), psi, *scratch)
        assert states.shape == (n + 1,) + psi.shape
        assert np.max(np.abs(states - np.array(expected))) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 600])
    @pytest.mark.parametrize("identities", ["after the first", "odd", "random half"])
    def test_scan_over_the_dense_support_is_the_scan_over_each_products_support(
            self, n, identities):
        # identity intervals hold exact zeros, so a product over x's own
        # support, x.any(axis=-1), can skip terms that the dense one adds as
        # signed zeros; the states must still be the same bits
        rng = np.random.default_rng(40 + n)
        d = 3
        unitaries = np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]
        identity = {"after the first": np.arange(n) > 0, "odd": np.arange(n) % 2 == 1,
                    "random half": rng.random(n) < 0.5}[identities]
        unitaries[identity] = np.eye(d)
        psi = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0][:, :2]
        prefix, spare, term = _last(unitaries), *(np.empty((d, d, n), dtype=complex) for _ in range(2))
        sparse_levels, s = 0, 1
        while s < n:
            support = prefix[..., s:].any(axis=-1)
            sparse_levels += not support.all()
            _matmul_last(prefix[..., s:], prefix[..., :-s], spare[..., s:], term[..., s:], support)
            spare[..., :s] = prefix[..., :s]
            prefix, spare = spare, prefix
            s *= 2
        rows = np.ascontiguousarray(np.moveaxis(prefix, -1, 0)).reshape(n * d, d)
        expected = np.concatenate([psi[None], (rows @ psi).reshape(n, d, 2)])
        if identities == "after the first" and n > 1:
            assert sparse_levels == math.ceil(math.log2(n))
        scratch = [np.empty((d, d, n), dtype=complex) for _ in range(2)]
        assert np.array_equal(_interval_states(_last(unitaries), psi, *scratch), expected)

    def test_detuned_stirap_efficiencies_pinned(self):
        # with both detunings H[1, 1] and H[2, 2] join the support (6 of 9
        # entries); like the bundled pin in test_cli, these may move only by
        # rounding when the order of the RK4 arithmetic changes
        text = resources.files("hybridgate").joinpath("data/paper.cfg").read_text()
        head, header, body = text.partition("[stirap]\n")
        body, count = re.subn(r"(?m)^delta_e_rad_s = .*$", "delta_e_rad_s = 2e6", body, count=1)
        body, count2 = re.subn(r"(?m)^delta_rad_s = .*$", "delta_rad_s = 3e4", body, count=1)
        assert header and count == count2 == 1
        stirap = repro.stirap_run(load_scenario_text(head + header + body))
        assert stirap.efficiency == pytest.approx(0.9868479263109864, rel=1e-12)
        assert stirap.reversed_efficiency == pytest.approx(0.9868479247492854, rel=1e-12)


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

    def test_values_inside_the_window_are_the_gaussian(self):
        env = PulseEnvelope(1e6, 165e-6, 30e-6)
        t = np.linspace(env.start_s, env.end_s, 601)[:-1]
        u = (t - env.center_s) / env.rms_width_s
        assert np.array_equal(env.value(t), env.peak_rad_s * np.exp(-0.5 * u * u))

    def test_a_narrow_window_does_not_overflow(self):
        # (t - center) / width is 1e300 at t = 1, and its square is beyond
        # float range; outside the window the envelope is 0 with no warning
        env = PulseEnvelope(1.0, 0.0, 1e-300)
        assert np.array_equal(env.value([0.0, 1.0, -1.0, math.inf, math.nan]),
                              [1.0, 0.0, 0.0, 0.0, 0.0])

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

    @pytest.mark.parametrize("duration", [math.inf, math.nan, 0.0, -1e-6])
    def test_duration_must_be_finite_and_positive(self, duration):
        # rejected before np.linspace builds the grid, which warns for an inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="duration must be finite and > 0"):
                raman_trajectory(LambdaParams(2e7, 2e7, 2e8), duration)

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
        eff = _stirap_efficiency(*_stirap_setup(), 0.0, 0.0)
        assert _stirap_efficiency(*_stirap_setup(reversed_order=True), 0.0, 0.0) < eff

    def test_weak_drive_fails_adiabaticity(self):
        assert _stirap_efficiency(*_stirap_setup(peak_factor=0.01), 0.0, 0.0) < 0.9

    def test_one_photon_detuning_tolerated(self):
        # the transfer rides the dark state, which has no excited component,
        # so a moderate one-photon detuning barely degrades it
        assert _stirap_efficiency(*_stirap_setup(), 5e5, 0.0) > 0.99

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


class TestStirapTimeReversal:
    """H(t) of STIRAP is real symmetric and the reversed pulses mirror the
    forward ones in time, so U_rev = U_fwd^T: the reversed-order transfer
    from the atoms is the forward transfer from the molecule to the atoms."""

    ATOMS_AND_MOLECULE = np.eye(3)[[0, 2]]

    @pytest.mark.parametrize("delta_e, delta, tol", [(0.0, 0.0, 1e-12), (2e6, 3e4, 1e-10)],
                             ids=["bundled", "detuned"])
    def test_molecule_row_gives_the_reversed_order(self, delta_e, delta, tol):
        direct = _stirap_efficiency(*_stirap_setup(reversed_order=True), delta_e, delta)
        both = stirap_trajectory(*_stirap_setup(), delta_e, delta, psi0=self.ATOMS_AND_MOLECULE)
        assert both.amplitudes.shape == (2, STIRAP_POINTS, 3)
        assert both.final_populations()[1, 0] == pytest.approx(direct, abs=tol)
        # the atoms row is the default run from the atoms
        single = stirap_trajectory(*_stirap_setup(), delta_e, delta)
        assert np.max(np.abs(both.amplitudes[0] - single.amplitudes)) <= 1e-14

    def test_detuned_gap_is_the_integrator_error(self):
        # With a two-photon detuning the cut-off jumps of the envelopes fall
        # inside grid intervals, where RK4 converges at first order: the gap
        # between the two routes halves as the substeps double.
        forward = _stirap_setup(3.0, separation=120e-6)
        reverse = _stirap_setup(3.0, reversed_order=True, separation=120e-6)
        grid = np.linspace(forward[1].start_s, forward[0].end_s, STIRAP_POINTS)

        def hamiltonian(pump, stokes):
            return lambda t: lambda_matrix(pump.value(t), stokes.value(t), -1e6, -2e4, 0.0)

        def gap(substeps):
            direct = integrate_schrodinger(hamiltonian(*reverse), self.ATOMS_AND_MOLECULE[0],
                                           grid, substeps)
            both = integrate_schrodinger(hamiltonian(*forward), self.ATOMS_AND_MOLECULE, grid,
                                         substeps)
            return abs(direct.final_populations()[2] - both.final_populations()[1, 0])

        derived = 141   # the substeps derived from STEP_PHASE_TARGET for these pulses
        assert gap(derived) > 1e-7
        assert gap(2 * derived) <= 0.6 * gap(derived)
