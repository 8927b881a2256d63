"""Two- and three-level coherent dynamics: analytic Rabi formulas, the exact
propagation of a rectangular Raman pulse and a deterministic fixed-step
Schrodinger integrator for time-dependent drives.

The Lambda system is written in the rotating frame with the atom-pair state
at zero energy, the excited molecular state at -delta_e and the target
molecular state at -delta; couplings are real, omega_p/2 and omega_s/2.
All frequencies are angular (rad/s) with hbar absorbed, so i dpsi/dt = H psi.
States are normalized 1-d complex arrays ordered as LAMBDA_LABELS. Pulses are
a rectangular Raman pulse (constant H, propagated exactly through the
eigendecomposition of H) or STIRAP under Gaussian PulseEnvelopes.

Integration is classical 4th-order Runge-Kutta with a fixed substep chosen
so that ||H||*h stays at STEP_PHASE_TARGET (hard limit STEP_PHASE_MAX,
checked on every H the stages use). The propagators of all grid intervals
start at the identity and advance together: each substep applies the four
RK4 stages, from H at the substep's start, midpoint and end, to them in
place, in buffers allocated once per call. Hamiltonian callables take a
1-d array of n times and return an (n, d, d) array.

Internally a stack of n matrices is held matrix-last, as a contiguous
(d, d, n) array: a product of two stacks is then d broadcast multiply-adds
over length-n rows, where an (n, d, d) matmul makes one BLAS call per
matrix. lambda_matrix builds its stacks in that layout, so they arrive
without a copy; only the interval propagators are turned back to (n, d, d).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalFailure, StepSizeError

STEP_PHASE_TARGET = 0.01   # default ||H||_F * h per RK4 substep
STEP_PHASE_MAX = 0.05      # hard precondition on ||H||_F * h
MAX_SUBSTEPS = 5000        # work bound on the derived substeps per interval (bundled STIRAP: 37)
NORM_DRIFT_LIMIT = 1e-7    # max allowed |sum|c|^2 - 1| for unitary evolution
GAUSSIAN_CUTOFF_SIGMAS = 4.0  # gaussian envelopes are zero beyond this many rms widths
STIRAP_POINTS = 601        # output grid of a STIRAP trajectory
RAMAN_POINTS = 501         # output grid of a Raman trajectory

LAMBDA_LABELS = ("atoms", "excited", "molecule")


@dataclass(frozen=True)
class Trajectory:
    """Integrator output: states on the requested time grid."""

    times: np.ndarray
    amplitudes: np.ndarray   # shape (n_times, dim)

    def populations(self):
        return np.abs(self.amplitudes) ** 2

    def norms_squared(self):
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)

    @property
    def norm_drift(self):
        return float(np.max(np.abs(self.norms_squared() - 1.0)))

    def final_populations(self):
        return np.abs(self.amplitudes[-1]) ** 2


@dataclass(frozen=True)
class TwoLevelParams:
    """Effective two-level drive: Rabi frequency and two-photon detuning."""

    omega_r_rad_s: float
    delta_rad_s: float = 0.0

    def __post_init__(self):
        if not 0 <= self.omega_r_rad_s < math.inf:
            raise DomainError(f"omega_r must be finite and >= 0, got {self.omega_r_rad_s!r}")
        if not math.isfinite(self.delta_rad_s):
            raise DomainError(f"delta must be finite, got {self.delta_rad_s!r}")

    @property
    def generalized_rabi_rad_s(self):
        return math.hypot(self.omega_r_rad_s, self.delta_rad_s)


@dataclass(frozen=True)
class LambdaParams:
    """Pump/Stokes drive of the three-level system.

    gamma_e adds a loss term -i*gamma_e/2 on the excited diagonal.
    delta_rad_s is the dressed (light-shifted) two-photon detuning; the
    bare detuning of the drive is compensated_bare_detuning(params).
    """

    omega_p_rad_s: float
    omega_s_rad_s: float
    delta_e_rad_s: float
    delta_rad_s: float = 0.0
    gamma_e_rad_s: float = 0.0

    def __post_init__(self):
        if not 0 <= self.gamma_e_rad_s < math.inf:
            raise DomainError(f"gamma_e must be finite and >= 0, got {self.gamma_e_rad_s!r}")


@dataclass(frozen=True)
class EffectiveTwoLevel:
    """Far-detuned reduction of the Lambda system."""

    omega_r_rad_s: float
    light_shift_pump_rad_s: float    # shift of the atom-pair level
    light_shift_stokes_rad_s: float  # shift of the molecular level


@dataclass(frozen=True)
class PulseEnvelope:
    """Gaussian time envelope of one laser pulse, zero outside
    [start_s, end_s) = center -/+ GAUSSIAN_CUTOFF_SIGMAS rms widths."""

    peak_rad_s: float
    center_s: float
    rms_width_s: float

    def __post_init__(self):
        if not 0 <= self.peak_rad_s < math.inf:
            raise DomainError(f"peak amplitude must be finite and >= 0, got {self.peak_rad_s!r}")
        if not math.isfinite(self.center_s):
            raise DomainError(f"center must be finite, got {self.center_s!r}")
        if not 0 < self.rms_width_s < math.inf:
            raise DomainError(f"rms width must be finite and > 0, got {self.rms_width_s!r}")

    # Cached: value() reads both bounds on every Hamiltonian evaluation.
    @cached_property
    def start_s(self):
        return self.center_s - GAUSSIAN_CUTOFF_SIGMAS * self.rms_width_s

    @cached_property
    def end_s(self):
        return self.start_s + 2.0 * GAUSSIAN_CUTOFF_SIGMAS * self.rms_width_s

    def value(self, t):
        """Envelope at scalar or array time t (an array of the same shape)."""
        t = np.asarray(t, dtype=float)
        u = (t - self.center_s) / self.rms_width_s
        inside = (t >= self.start_s) & (t < self.end_s)
        return np.where(inside, self.peak_rad_s * np.exp(-0.5 * u * u), 0.0)


def two_level_population(params, t):
    """Transferred population |c_g(t)|^2 of a two-level drive started in the
    other state: (omega^2/W^2) sin^2(W t / 2), W = sqrt(omega^2 + delta^2).

    Accepts scalar or array t, finite and >= 0; returns 0 when omega = delta = 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0)):
        raise DomainError("time must be finite and >= 0")
    w = params.generalized_rabi_rad_s
    amp = (params.omega_r_rad_s / w) ** 2 if w else 0.0  # W = 0 only when omega = 0
    out = amp * np.sin(0.5 * w * t_arr) ** 2
    return float(out) if np.isscalar(t) else out


def effective_rabi(params):
    """Reduce the far-detuned Lambda system to a two-level drive.

    Returns the effective Rabi frequency omega_p*omega_s/(2*delta_e) and the
    two light shifts omega_p^2/(4*delta_e), omega_s^2/(4*delta_e). Raises
    DomainError when one of them is beyond float range.
    """
    if params.delta_e_rad_s == 0.0:
        raise DomainError("effective two-level reduction requires delta_e != 0")
    p, s, de = params.omega_p_rad_s, params.omega_s_rad_s, params.delta_e_rad_s
    try:
        reduction = EffectiveTwoLevel(p * s / (2.0 * de), p ** 2 / (4.0 * de), s ** 2 / (4.0 * de))
    except OverflowError:   # a square beyond float range
        reduction = None
    if reduction is None or not all(map(math.isfinite, vars(reduction).values())):
        raise DomainError(f"effective Rabi rate or light shift overflows for {params!r}")
    return reduction


def pi_pulse_duration(params):
    """Duration pi / sqrt(omega^2 + delta^2) of a generalized pi pulse."""
    w = params.generalized_rabi_rad_s
    if w == 0.0:
        raise DomainError("pi pulse undefined for omega_r = delta = 0")
    return math.pi / w


def _matmul_last(x, y, out, term):
    """out = x @ y for matrix-last (d, d, n) stacks; term is (d, d, n) scratch."""
    np.multiply(x[:, :1], y[0], out=out)
    for k in range(1, len(x)):
        out += np.multiply(x[:, k:k + 1], y[k], out=term)
    return out


def _rk4_substep(propagator, h_a, h_mid, h_b, h, buffers):
    """Advance the matrix-last (d, d, n) propagators P in place by one
    classical RK4 substep of dP/dt = -i H P, of length h, from H at the
    substep's start, midpoint and end; buffers are four (d, d, n) complex
    scratch arrays.

    With c = -i h: k1 = H_a P, k2 = H_mid (P + c k1 / 2),
    k3 = H_mid (P + c k2 / 2), k4 = H_b (P + c k3) and
    P += c (k1 + 2 k2 + 2 k3 + k4) / 6, summed as (u1 + 2 u2 + u3 + u4) / 3
    from the scaled stages u1 = c k1 / 2, u2 = c k2 / 2, u3 = c k3 and
    u4 = c k4 / 2.
    """
    stage, y, total, term = buffers
    c = -1j * h
    np.multiply(_matmul_last(h_a, propagator, stage, term), 0.5 * c, out=total)
    np.add(propagator, total, out=y)
    np.multiply(_matmul_last(h_mid, y, stage, term), 0.5 * c, out=y)
    total += y
    total += y
    y += propagator
    np.multiply(_matmul_last(h_mid, y, stage, term), c, out=y)
    total += y
    y += propagator
    total += np.multiply(_matmul_last(h_b, y, stage, term), 0.5 * c, out=stage)
    total *= 1.0 / 3.0
    propagator += total


def _norm_and_hermiticity(h_matrices, scratch=None):
    """Largest Frobenius norm of matrices whose axes lead, and whether each
    is Hermitian to 1e-12 of max(1, its largest |element|).

    Both are computed on squares from the real and imaginary parts: h is
    Hermitian when Re h is symmetric and Im h antisymmetric, so |h - h^H|^2
    is (Re h - Re h^T)^2 + (Im h + Im h^T)^2, compared with
    (1e-12 max(1, max|h|))^2. Past |h| ~ 1e154 the norm is inf, and the
    integrator rejects such a stack before it reads the verdict.
    scratch is a float array of shape (3,) + h_matrices.shape, allocated
    when not given.
    """
    if scratch is None:
        scratch = np.empty((3,) + h_matrices.shape)
    squared, asym, term = scratch
    re, im = h_matrices.real, h_matrices.imag
    rows = len(h_matrices) ** 2    # one row per matrix element, one column per matrix
    with np.errstate(over="ignore"):    # an overflow makes norm_max inf, rejected by the caller
        np.multiply(re, re, out=squared)
        squared += np.multiply(im, im, out=term)
        np.subtract(re, re.swapaxes(0, 1), out=asym)
        asym *= asym
        np.add(im, im.swapaxes(0, 1), out=term)
        asym += np.multiply(term, term, out=term)
        squared, asym = squared.reshape(rows, -1), asym.reshape(rows, -1)
        norm_max = math.sqrt(squared.sum(axis=0).max())
    tolerance = 1e-24 * np.maximum(1.0, squared.max(axis=0))
    return norm_max, bool((asym.max(axis=0) <= tolerance).all())


def _to_matrix_last(h_matrices, n, d):
    """H's (n, d, d) stack for n times as a contiguous (d, d, n) array."""
    h_matrices = np.asarray(h_matrices, dtype=complex)
    if h_matrices.shape != (n, d, d):
        raise DomainError(f"H must return an ({n}, {d}, {d}) stack for {n} times, "
                          f"got shape {h_matrices.shape}")
    return np.ascontiguousarray(h_matrices.transpose(1, 2, 0))


def _unitary_checked(traj, hermitian):
    """traj, unless H is Hermitian and traj drifts from unit norm by more
    than NORM_DRIFT_LIMIT (NumericalFailure)."""
    if hermitian and traj.norm_drift > NORM_DRIFT_LIMIT:
        raise NumericalFailure(
            f"norm drift {traj.norm_drift:.3e} exceeds {NORM_DRIFT_LIMIT} on a unitary run")
    return traj


def integrate_schrodinger(hamiltonian, psi0, t_grid, substeps=None):
    """Integrate i dpsi/dt = H(t) psi on a uniform time grid.

    Parameters
    ----------
    hamiltonian : callable, 1-d array of n times -> (n, d, d) complex array
    psi0 : normalized 1-d complex array
    t_grid : increasing, uniform array of output times
    substeps : RK4 substeps per grid interval; derived from STEP_PHASE_TARGET and
        the max Frobenius norm of H on grid points and midpoints when omitted

    Raises DomainError when H returns anything but an (n, d, d) stack for n
    times and a state of length d, StepSizeError when the derived substeps
    exceed MAX_SUBSTEPS (or are not finite) or when max||H||*h over every H
    the stages use exceeds the hard limit or is nan, and NumericalFailure when a
    Hermitian run drifts from unit norm by more than NORM_DRIFT_LIMIT.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise DomainError("t_grid must be a 1-d array with at least two times")
    dts = np.diff(t_grid)
    dt = float(dts[0])
    if dt <= 0 or np.max(np.abs(dts - dt)) > 1e-9 * abs(dt):
        raise DomainError("t_grid must be uniform and increasing")

    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.ndim != 1:
        raise DomainError(f"psi0 must be a 1-d array, got shape {psi.shape}")
    norm_sq = float(np.sum(np.abs(psi) ** 2))
    if abs(norm_sq - 1.0) > 1e-9:
        raise DomainError(f"psi0 not normalized: sum |c|^2 = {norm_sq!r}")

    if substeps is None:
        probes = np.concatenate([t_grid, t_grid[:-1] + 0.5 * dt])
        norm_max, _ = _norm_and_hermiticity(
            _to_matrix_last(hamiltonian(probes), len(probes), len(psi)))
        needed = dt * norm_max / STEP_PHASE_TARGET
        if not needed <= MAX_SUBSTEPS:
            raise StepSizeError(f"the step phase target needs {needed:.3g} RK4 substeps per "
                                f"interval, more than the work bound {MAX_SUBSTEPS}")
        substeps = max(1, math.ceil(needed))
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise DomainError(f"substeps must be an integer >= 1, got {substeps!r}")
    h = dt / substeps
    starts = t_grid[:-1]
    n, d = len(starts), len(psi)
    scratch = np.empty((3, d, d, n))
    hermitian = True

    def evaluate(times):
        nonlocal hermitian
        h_matrices = _to_matrix_last(hamiltonian(times), n, d)
        norm_max, is_hermitian = _norm_and_hermiticity(h_matrices, scratch)
        phase = norm_max * h
        if not phase <= STEP_PHASE_MAX:   # a nan in H makes the phase nan
            raise StepSizeError(
                f"step size too coarse: max||H||*h = {phase:.3g} > {STEP_PHASE_MAX}; "
                f"increase substeps or refine t_grid" if phase > STEP_PHASE_MAX else
                "max||H||*h is nan, not finite: H holds a nan at a stage time")
        hermitian = hermitian and is_hermitian
        return h_matrices

    propagator = np.zeros((d, d, n), dtype=complex)
    propagator[np.arange(d), np.arange(d)] = 1.0
    buffers = [np.empty_like(propagator) for _ in range(4)]
    h_b = evaluate(starts)
    for k in range(substeps):
        t = starts + k * h
        h_a, h_mid, h_b = h_b, evaluate(t + 0.5 * h), evaluate(t + h)
        _rk4_substep(propagator, h_a, h_mid, h_b, h, buffers)

    out = np.empty((len(t_grid), len(psi)), dtype=complex)
    out[0] = psi
    propagators = np.ascontiguousarray(np.moveaxis(propagator, -1, 0))
    for i, interval in enumerate(propagators, start=1):
        psi = interval @ psi
        out[i] = psi

    return _unitary_checked(Trajectory(times=t_grid, amplitudes=out), hermitian)


def compensated_bare_detuning(params):
    """Bare two-photon detuning whose dressed value equals params.delta_rad_s.

    The dressed detuning is delta_bare + shift_pump - shift_stokes, so
    compensation subtracts the differential light shift.
    """
    shifts = effective_rabi(params)
    return params.delta_rad_s - (shifts.light_shift_pump_rad_s - shifts.light_shift_stokes_rad_s)


def lambda_matrix(omega_p, omega_s, delta_e, delta, gamma_e):
    """Rotating-frame Lambda Hamiltonian [rad/s] for instantaneous couplings,
    one-photon detuning, bare two-photon detuning and excited-state loss.
    Array arguments broadcast; the result has shape broadcast_shape + (3, 3).
    It is a view of a (3, 3) + broadcast_shape array, so the integrator
    holds an (n, 3, 3) stack matrix-last without a copy."""
    shape = np.broadcast(omega_p, omega_s, delta_e, delta, gamma_e).shape
    h = np.zeros((3, 3) + shape, dtype=complex)
    h[0, 1] = h[1, 0] = 0.5 * omega_p
    h[1, 2] = h[2, 1] = 0.5 * omega_s
    h[1, 1] = -delta_e - 0.5j * gamma_e
    h[2, 2] = -delta
    return h.transpose(*range(2, h.ndim), 0, 1)


def raman_trajectory(params, duration_s):
    """Rectangular Raman pulse from the atom-pair state over [0, duration],
    on RAMAN_POINTS equally spaced times.

    H is constant, so psi(t) = V exp(-i w t) V^-1 psi0 on every grid time at
    once, from the eigenvalues w and eigenvectors V of H (np.linalg.eig, as
    gamma_e > 0 makes H non-Hermitian). Raises DomainError when a phase w*t
    leaves float range and NumericalFailure when a lossless run (gamma_e = 0)
    drifts from unit norm by more than NORM_DRIFT_LIMIT.
    """
    if not duration_s > 0:
        raise DomainError(f"duration must be > 0, got {duration_s!r}")
    h = lambda_matrix(params.omega_p_rad_s, params.omega_s_rad_s, params.delta_e_rad_s,
                      compensated_bare_detuning(params), params.gamma_e_rad_s)
    grid = np.linspace(0.0, duration_s, RAMAN_POINTS)
    w, v = np.linalg.eig(h)
    if not math.isfinite(duration_s * float(np.abs(w).max())):
        raise DomainError(f"phase w*t of a {duration_s!r} s pulse leaves float range")
    c = np.linalg.solve(v, np.array([1.0, 0.0, 0.0], dtype=complex))
    traj = Trajectory(times=grid, amplitudes=(np.exp(-1j * np.outer(grid, w)) * c) @ v.T)
    return _unitary_checked(traj, params.gamma_e_rad_s == 0.0)


def stirap_trajectory(pump, stokes, delta_e_rad_s, delta_rad_s):
    """Integrate the Lambda system from the atom-pair state under Gaussian
    pump and Stokes envelopes.

    Light-shift compensation does not apply here (the envelopes are resolved
    exactly, and delta_e may be zero); delta_rad_s is the bare detuning.
    Raises DomainError when the spacing of the STIRAP_POINTS grid exceeds the
    smaller rms width: the grid would not resolve that pulse.
    """
    t0 = min(pump.start_s, stokes.start_s)
    t1 = max(pump.end_s, stokes.end_s)
    spacing = (t1 - t0) / (STIRAP_POINTS - 1)
    width = min(pump.rms_width_s, stokes.rms_width_s)
    if not spacing <= width:
        raise DomainError(f"STIRAP grid spacing {spacing:.3g} s exceeds the rms width "
                          f"{width!r} s; the pulses are not resolved")

    def hfunc(t):
        return lambda_matrix(pump.value(t), stokes.value(t), delta_e_rad_s, delta_rad_s, 0.0)

    grid = np.linspace(t0, t1, STIRAP_POINTS)
    return integrate_schrodinger(hfunc, np.array([1.0, 0.0, 0.0]), grid)


def simulate_stirap(pump, stokes, delta_e_rad_s, delta_rad_s):
    """Transfer efficiency: final molecular population of the pulse sequence."""
    traj = stirap_trajectory(pump, stokes, delta_e_rad_s, delta_rad_s)
    return float(traj.final_populations()[2])
