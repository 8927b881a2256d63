"""Two- and three-level coherent dynamics: analytic Rabi formulas, the exact
propagation of a rectangular Raman pulse and a deterministic fixed-step
Schrodinger integrator for time-dependent drives.

The Lambda system is written in the rotating frame with the atom-pair state
at zero energy, the excited molecular state at -delta_e and the target
molecular state at -delta; couplings are real, omega_p/2 and omega_s/2.
All frequencies are angular (rad/s) with hbar absorbed, so i dpsi/dt = H psi.
States are normalized complex arrays ordered as LAMBDA_LABELS: one (d,) state,
or an (m, d) stack of m states that the integrator advances together. Pulses are
a rectangular Raman pulse (constant H, propagated exactly through the
eigendecomposition of H) or STIRAP under Gaussian PulseEnvelopes.

Integration is classical 4th-order Runge-Kutta with a fixed substep. H is
probed once per call, on the grid points and midpoints: the probe rejects a
nan or inf, gives the Hermitian verdict that decides the norm check and,
unless a substep count is given, sets it so that ||H||*h stays at
STEP_PHASE_TARGET. The stages check only the step phase, against the hard
limit STEP_PHASE_MAX, on every H they use. The propagators of all grid
intervals start at the identity and advance together: the probe's values at
the interval starts begin the first substep, so H is called 1 + substeps
times, and each substep calls H once, on its n midpoints and then its n
ends, and applies the four RK4 stages, from H at the substep's start,
midpoint and end, to them in place, in buffers allocated once per call. A
doubling scan over the interval propagators then gives the propagator from
the first grid time to each later one, and these carry every initial state
of a stack at once, as the columns of one (d, m) array, so m states cost
little more than one. Hamiltonian callables take a 1-d array of n times and
return an (n, d, d) array.

Internally a stack of n matrices is held matrix-last, as a contiguous
(d, d, n) array: a product of two stacks is then a few broadcast
multiply-adds over length-n rows, where an (n, d, d) matmul makes one BLAS
call per matrix. Every product and norm sums only the entries of the
support its caller gives: in the stage products and the step-phase norm,
the entries of an H call that are non-zero at any of its times (4 of 9 for
the resonant Lambda H), so the sums are the dense ones; in the prefix scan,
every entry. lambda_matrix builds its stacks in that layout, so they arrive
without a copy; only the prefix propagators are turned back to (n, d, d).
"""

import math

import numpy as np

from .errors import DomainError, NumericalFailure, StepSizeError
from .record import Record, fields

STEP_PHASE_TARGET = 0.01   # default ||H||_F * h per RK4 substep
STEP_PHASE_MAX = 0.05      # hard precondition on ||H||_F * h
MAX_SUBSTEPS = 5000        # work bound on given or derived substeps per interval (bundled STIRAP: 37)
NORM_DRIFT_LIMIT = 1e-7    # max allowed |sum|c|^2 - 1| for unitary evolution
GAUSSIAN_CUTOFF_SIGMAS = 4.0  # gaussian envelopes are zero beyond this many rms widths
STIRAP_POINTS = 601        # output grid of a STIRAP trajectory
RAMAN_POINTS = 501         # output grid of a Raman trajectory

LAMBDA_LABELS = ("atoms", "excited", "molecule")


class Trajectory(Record):
    """Integrator output: states on the requested time grid. The methods
    work on the last two axes, so a stack of m runs is one Trajectory."""

    times: np.ndarray
    amplitudes: np.ndarray   # shape (n_times, dim), or (m, n_times, dim) for m initial states

    def populations(self):
        return np.abs(self.amplitudes) ** 2

    def norms_squared(self):
        return np.sum(np.abs(self.amplitudes) ** 2, axis=-1)

    @property
    def norm_drift(self):
        """Largest |sum |c|^2 - 1| over every time and every state of a stack."""
        return float(np.max(np.abs(self.norms_squared() - 1.0)))

    def final_populations(self):
        return np.abs(self.amplitudes[..., -1, :]) ** 2


class TwoLevelParams(Record):
    """Effective two-level drive: Rabi frequency and two-photon detuning."""

    omega_r_rad_s: float
    delta_rad_s: float = 0.0
    _bounds = {"omega_r_rad_s": ">= 0", "delta_rad_s": None}

    @property
    def generalized_rabi_rad_s(self):
        return math.hypot(self.omega_r_rad_s, self.delta_rad_s)


class LambdaParams(Record):
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
    _bounds = {"omega_p_rad_s": ">= 0", "omega_s_rad_s": ">= 0", "delta_e_rad_s": None,
               "delta_rad_s": None, "gamma_e_rad_s": ">= 0"}


class EffectiveTwoLevel(Record):
    """Far-detuned reduction of the Lambda system."""

    omega_r_rad_s: float
    light_shift_pump_rad_s: float    # shift of the atom-pair level
    light_shift_stokes_rad_s: float  # shift of the molecular level


class PulseEnvelope(Record):
    """Gaussian time envelope of one laser pulse, zero outside
    [start_s, end_s) = center -/+ GAUSSIAN_CUTOFF_SIGMAS rms widths."""

    peak_rad_s: float
    center_s: float
    rms_width_s: float
    _bounds = {"peak_rad_s": ">= 0", "center_s": None, "rms_width_s": "> 0"}

    @property
    def start_s(self):
        return self.center_s - GAUSSIAN_CUTOFF_SIGMAS * self.rms_width_s

    @property
    def end_s(self):
        return self.start_s + 2.0 * GAUSSIAN_CUTOFF_SIGMAS * self.rms_width_s

    def value(self, t):
        """Envelope at scalar or array time t (an array of the same shape).

        A time outside the window is moved to +inf, where the Gaussian is
        exactly 0 and no square of it can overflow; inside the window each
        value is peak * exp(-u*u/2), u = (t - center) / rms width."""
        t = np.asarray(t, dtype=float)
        u = np.where((t >= self.start_s) & (t < self.end_s), t, np.inf)
        u -= self.center_s
        u /= self.rms_width_s
        u *= -0.5 * u
        return self.peak_rad_s * np.exp(u, out=u)


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
    if reduction is None or not all(map(math.isfinite, fields(reduction).values())):
        raise DomainError(f"effective Rabi rate or light shift overflows for {params!r}")
    return reduction


def pi_pulse_duration(params):
    """Duration pi / sqrt(omega^2 + delta^2) of a generalized pi pulse."""
    w = params.generalized_rabi_rad_s
    if w == 0.0:
        raise DomainError("pi pulse undefined for omega_r = delta = 0")
    return math.pi / w


def _matmul_last(x, y, out, term, support):
    """out = x @ y for matrix-last (d, d, n) stacks, from the terms of the
    entries of x in support only; term is (d, d, n) scratch.

    support is a (d, d) boolean array that the caller gives, False only
    where that entry of x is exactly 0 at all n: each row of out is the sum,
    in column order, of x[i, k] * y[k] over the supported k, and a row with
    none is 0. For a finite y every term it skips is a signed zero of the
    dense sum, so the sums are the dense ones; the dense product is the case
    where every entry is supported.
    """
    for i, row in enumerate(support.tolist()):
        columns = [k for k, supported in enumerate(row) if supported]
        if not columns:
            out[i] = 0.0
            continue
        np.multiply(x[i, columns[0]], y[columns[0]], out=out[i])
        for k in columns[1:]:
            out[i] += np.multiply(x[i, k], y[k], out=term[i])
    return out


def _rk4_substep(propagator, h_a, h_mid, h_b, h, buffers, supports):
    """Advance the matrix-last (d, d, n) propagators P in place by one
    classical RK4 substep of dP/dt = -i H P, of length h, from H at the
    substep's start, midpoint and end; buffers are four (d, d, n) complex
    scratch arrays and supports the (d, d) supports of the three H stacks
    (see _matmul_last).

    With c = -i h: k1 = H_a P, k2 = H_mid (P + c k1 / 2),
    k3 = H_mid (P + c k2 / 2), k4 = H_b (P + c k3) and
    P += c (k1 + 2 k2 + 2 k3 + k4) / 6, summed as (u1 + 2 u2 + u3 + u4) / 3
    from the scaled stages u1 = c k1 / 2, u2 = c k2 / 2, u3 = c k3 and
    u4 = c k4 / 2.
    """
    stage, y, total, term = buffers
    support_a, support_mid, support_b = supports
    c = -1j * h
    np.multiply(_matmul_last(h_a, propagator, stage, term, support_a), 0.5 * c, out=total)
    np.add(propagator, total, out=y)
    np.multiply(_matmul_last(h_mid, y, stage, term, support_mid), 0.5 * c, out=y)
    total += y
    total += y
    y += propagator
    np.multiply(_matmul_last(h_mid, y, stage, term, support_mid), c, out=y)
    total += y
    y += propagator
    total += np.multiply(_matmul_last(h_b, y, stage, term, support_b), 0.5 * c, out=stage)
    total *= 1.0 / 3.0
    propagator += total


def _norm_max(h_matrices, support):
    """Largest Frobenius norm of the matrices of a matrix-last (d, d, n)
    stack, from the squares of the real and imaginary parts of the entries
    in the (d, d) support that the caller gives (the entries left out are
    0, so the norm is the same): nan when h holds a nan, inf when it holds
    an inf or an element past |h| ~ 1e154.
    """
    entries = h_matrices[support]    # (supported entries, n)
    squared, term = np.empty((2,) + entries.shape)
    with np.errstate(over="ignore"):    # an overflow makes the norm inf, rejected by the caller
        np.multiply(entries.real, entries.real, out=squared)
        squared += np.multiply(entries.imag, entries.imag, out=term)
        return math.sqrt(squared.sum(axis=0).max())


def _is_hermitian(h_matrices):
    """Whether each matrix of a finite matrix-last (d, d, n) stack is
    Hermitian to 1e-12 of max(1, its largest |element|)."""
    with np.errstate(over="ignore"):    # a difference past float range is inf: not Hermitian
        asym = np.abs(h_matrices - h_matrices.swapaxes(0, 1).conj()).max(axis=(0, 1))
        scale = np.maximum(1.0, np.abs(h_matrices).max(axis=(0, 1)))
    return bool((asym <= 1e-12 * scale).all())


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


def _interval_states(propagator, psi, spare, term):
    """psi and then P_i ... P_2 P_1 psi for i = 1 .. n, as an (n + 1, d) or
    (n + 1, d, m) array, from the matrix-last (d, d, n) interval propagators
    P_i and one (d,) state or m states as the columns of a (d, m) array;
    spare and term are (d, d, n) scratch, and propagator is overwritten.

    A Hillis-Steele scan forms the prefix products: after the level of
    offset s, interval i holds the product of intervals max(1, i - 2s + 1)
    .. i, later ones on the left, so ceil(log2 n) levels of _matmul_last
    leave every prefix, each level over the dense support (an exact 0
    adds only signed zeros; on STIRAP the intervals' supports join to a
    dense one). Stacked as (n d, d) rows, they take psi in one product.
    """
    prefix, n = propagator, propagator.shape[-1]
    d = len(prefix)
    dense = np.ones((d, d), bool)
    s = 1
    while s < n:
        _matmul_last(prefix[..., s:], prefix[..., :-s], spare[..., s:], term[..., s:], dense)
        spare[..., :s] = prefix[..., :s]
        prefix, spare = spare, prefix
        s *= 2
    out = np.empty((n + 1,) + psi.shape, dtype=complex)
    out[0] = psi
    rows = np.ascontiguousarray(np.moveaxis(prefix, -1, 0)).reshape(n * d, d)
    np.matmul(rows, psi, out=out[1:].reshape((n * d,) + psi.shape[1:]))
    return out


def integrate_schrodinger(hamiltonian, psi0, t_grid, substeps=None):
    """Integrate i dpsi/dt = H(t) psi on a uniform time grid.

    Parameters
    ----------
    hamiltonian : callable, 1-d array of n times -> (n, d, d) complex array
    psi0 : normalized complex state of shape (d,), or an (m, d) stack of
        such states; each is advanced by the same interval propagators, and
        the trajectory's amplitudes are (n, d) or (m, n, d) for n grid times
    t_grid : increasing, uniform array of finite output times
    substeps : RK4 substeps per grid interval; derived when omitted from
        STEP_PHASE_TARGET and the max Frobenius norm of H at the probe, the
        one call of hamiltonian on the grid points and midpoints

    Raises DomainError when t_grid is not finite, uniform and increasing,
    when psi0 is not one state or a stack of them, or a state is not
    normalized, or when H returns anything but an (n, d, d) stack for n
    times and states of length d; StepSizeError when the given substeps
    exceed MAX_SUBSTEPS (before H is called), when the probe meets a nan
    or inf in H, when the derived substeps exceed MAX_SUBSTEPS, or when
    max||H||*h over every H the stages use exceeds the hard limit or is not
    finite; and NumericalFailure when any state of a run the probe finds
    Hermitian drifts from unit norm by more than NORM_DRIFT_LIMIT.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or not np.isfinite(t_grid).all():
        raise DomainError("t_grid must be a 1-d array of at least two finite times")
    dts = np.diff(t_grid)
    dt = float(dts[0])
    if dt <= 0 or np.max(np.abs(dts - dt)) > 1e-9 * abs(dt):
        raise DomainError("t_grid must be uniform and increasing")

    psi = np.asarray(psi0, dtype=complex)
    if psi.ndim not in (1, 2) or psi.size == 0:
        raise DomainError(f"psi0 must be a (d,) state or an (m, d) stack of states, "
                          f"got shape {psi.shape}")
    norm_error = float(np.max(np.abs(np.sum(np.abs(psi) ** 2, axis=-1) - 1.0)))
    if not norm_error <= 1e-9:   # a nan state fails too
        raise DomainError(f"psi0 not normalized: sum |c|^2 is {norm_error!r} off 1")
    d = psi.shape[-1]
    if substeps is not None and (isinstance(substeps, bool)
                                 or not isinstance(substeps, (int, np.integer)) or substeps < 1):
        raise DomainError(f"substeps must be an integer >= 1, got {substeps!r}")
    if substeps is not None and substeps > MAX_SUBSTEPS:
        raise StepSizeError(f"{substeps} RK4 substeps per interval are more than the work "
                            f"bound {MAX_SUBSTEPS}")

    probes = np.concatenate([t_grid, t_grid[:-1] + 0.5 * dt])
    h_probe = _to_matrix_last(hamiltonian(probes), len(probes), d)
    if not np.isfinite(h_probe).all():
        raise StepSizeError("H holds a nan or inf at a probe time; it must be finite")
    hermitian = _is_hermitian(h_probe)
    if substeps is None:
        needed = dt * _norm_max(h_probe, h_probe.any(axis=-1)) / STEP_PHASE_TARGET
        if needed > MAX_SUBSTEPS:
            raise StepSizeError(f"the step phase target needs {needed:.3g} RK4 substeps per "
                                f"interval, more than the work bound {MAX_SUBSTEPS}")
        substeps = max(1, math.ceil(needed))
    h = dt / substeps
    starts = t_grid[:-1]
    n = len(starts)

    def checked(h_matrices):
        """A matrix-last H stack with its support (exact zeros only, from this
        stack); raises when max||H||*h passes STEP_PHASE_MAX."""
        support = h_matrices.any(axis=-1)
        phase = _norm_max(h_matrices, support) * h
        if not phase <= STEP_PHASE_MAX:
            raise StepSizeError(
                f"step size too coarse: max||H||*h = {phase:.3g} > {STEP_PHASE_MAX}; "
                f"increase substeps or refine t_grid" if math.isfinite(phase) else
                f"max||H||*h is {phase}, not finite: H holds a nan or inf at a stage time, "
                f"or its squared norm is past float range")
        return h_matrices, support

    propagator = np.zeros((d, d, n), dtype=complex)
    propagator[np.arange(d), np.arange(d)] = 1.0
    buffers = [np.empty_like(propagator) for _ in range(4)]
    h_b, support_b = checked(h_probe[..., :n])   # the probe's values at the interval starts
    for k in range(substeps):   # one call on the n midpoints, then the n ends
        t = starts + k * h
        both, support = checked(_to_matrix_last(hamiltonian(np.concatenate((t + 0.5 * h, t + h))),
                                                2 * n, d))
        h_a, support_a, h_b = h_b, support_b, both[..., n:]
        _rk4_substep(propagator, h_a, both[..., :n], h_b, h, buffers,
                     (support_a, support, support))
        support_b = support

    out = _interval_states(propagator, psi.T, buffers[0], buffers[3])
    amplitudes = out.transpose(*range(2, out.ndim), 0, 1)   # (n + 1, d) or (m, n + 1, d)
    return _unitary_checked(Trajectory(times=t_grid, amplitudes=amplitudes), hermitian)


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
    if not 0 < duration_s < math.inf:
        raise DomainError(f"duration must be finite and > 0, got {duration_s!r}")
    h = lambda_matrix(params.omega_p_rad_s, params.omega_s_rad_s, params.delta_e_rad_s,
                      compensated_bare_detuning(params), params.gamma_e_rad_s)
    grid = np.linspace(0.0, duration_s, RAMAN_POINTS)
    w, v = np.linalg.eig(h)
    if not math.isfinite(duration_s * float(np.abs(w).max())):
        raise DomainError(f"phase w*t of a {duration_s!r} s pulse leaves float range")
    c = np.linalg.solve(v, np.array([1.0, 0.0, 0.0], dtype=complex))
    traj = Trajectory(times=grid, amplitudes=(np.exp(-1j * np.outer(grid, w)) * c) @ v.T)
    return _unitary_checked(traj, params.gamma_e_rad_s == 0.0)


def stirap_trajectory(pump, stokes, delta_e_rad_s, delta_rad_s, psi0=(1.0, 0.0, 0.0)):
    """Integrate the Lambda system under Gaussian pump and Stokes envelopes,
    from psi0: the atom-pair state by default, or any (3,) state or (m, 3)
    stack that integrate_schrodinger takes.

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
    return integrate_schrodinger(hfunc, psi0, grid)

