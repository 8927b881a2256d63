"""Decoherence and feasibility budget for the protocol.

Magnetic noise is modeled as quasi-static and Gaussian: constant within one
shot, normally distributed across shots. The dephasing time is defined as
T_phi = 1/(2*pi * sensitivity * sigma_B), under which the Ramsey contrast
decays as exp(-t^2 / (2 T_phi^2)). A rotation step is adiabatic for the trap
when it spans at least ADIABATIC_MIN_PERIODS trap oscillation periods.

The Monte Carlo contrast reduces fixed blocks on one thread per CPU: its memory
grows with the sample count only by the 16 bytes of sums of each 65536-sample
chunk, and its result does not change with the threads.
"""

import math
import os
import threading

import numpy as np

from .constants import TWO_PI
from .errors import DomainError
from .gate import ENABLER_KINDS
from .record import Record

# Monte Carlo samples are drawn in chunks of MC_CHUNK, chunk c from a Philox
# stream keyed by (seed, c). The chunks are spread over worker threads, one
# per CPU in the affinity mask, and their sums are added in chunk order, so
# the result does not depend on the number of workers. A worker reduces a
# chunk MC_BLOCK samples at a time, nine numpy calls a block: with two threads
# on 2 shared x86_64 vCPUs, blocks of 8192 and 16384 took 10% and 5% longer
# than whole chunks, and 32768 took no longer. The sums do not use np.dot:
# OpenBLAS splits a dot of more than 10000 values over its own threads, and
# their count changes the rounding.
MC_CHUNK = 65536
MC_BLOCK = 32768
MC_MIN_SAMPLES = 1000   # fewer give no meaningful contrast
MC_MAX_SAMPLES = 10 ** 9   # about 19 s of sampling; more is refused before any allocation

ADIABATIC_MIN_PERIODS = 3.0


def _is_integer(value):
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class NoiseModel(Record):
    """Noise and trap inputs for the budget."""

    sigma_b_gauss: float
    gamma_inelastic_per_s: float
    trap_frequency_hz: float
    seed: int = 0
    mc_samples: int = 100000   # Monte Carlo samples of the Ramsey contrast

    def __post_init__(self):
        if not self.sigma_b_gauss > 0:
            raise DomainError(f"sigma_B must be > 0 G, got {self.sigma_b_gauss!r}")
        if not self.gamma_inelastic_per_s >= 0:
            raise DomainError(f"inelastic rate must be >= 0, got {self.gamma_inelastic_per_s!r}")
        if not self.trap_frequency_hz > 0:
            raise DomainError(f"trap frequency must be > 0 Hz, got {self.trap_frequency_hz!r}")
        if not _is_integer(self.seed) or not 0 <= int(self.seed) < 2 ** 64:
            raise DomainError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not _is_integer(self.mc_samples) or not (
                MC_MIN_SAMPLES <= self.mc_samples <= MC_MAX_SAMPLES):
            raise DomainError(f"mc_samples must be an integer in [{MC_MIN_SAMPLES}, "
                              f"{MC_MAX_SAMPLES}], got {self.mc_samples!r}")


class AdiabaticityResult(Record):
    ok: bool
    margin: float  # trap periods elapsed during the pulse


class BudgetReport(Record):
    dephasing_time_s: float
    gate_time_s: float
    operations_count: int
    loss_probability: float
    adiabaticity_ok: bool
    readout_min_duration_s: float


def dephasing_time(sensitivity_hz_per_g, sigma_b_gauss):
    """Dephasing time of a qubit transition under rms field noise sigma_B > 0,
    from the magnitude |df/dB| > 0 of its field sensitivity."""
    if not sensitivity_hz_per_g > 0:
        raise DomainError(f"sensitivity must be > 0 Hz/G, got {sensitivity_hz_per_g!r}")
    if not math.isfinite(sensitivity_hz_per_g):
        raise DomainError(f"sensitivity must be finite, got {sensitivity_hz_per_g!r}")
    if not (sigma_b_gauss > 0 and math.isfinite(sigma_b_gauss)):
        raise DomainError(f"sigma_B must be finite and > 0 G, got {sigma_b_gauss!r}")
    rate = TWO_PI * (sensitivity_hz_per_g * sigma_b_gauss)
    t_phi = 1.0 / rate if rate > 0.0 else math.inf   # rate underflowed to 0.0
    if not 0.0 < t_phi < math.inf:
        raise DomainError(f"dephasing time for sensitivity {sensitivity_hz_per_g!r} Hz/G and "
                          f"sigma_B {sigma_b_gauss!r} G is out of float range: {t_phi!r} s")
    return t_phi


def _available_cpus():
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ramsey_contrast_mc(sensitivity_hz_per_g, sigma_b_gauss, t_s, n_samples, seed):
    """Monte Carlo Ramsey contrast |<exp(i 2 pi * sensitivity * dB * t)>| under
    quasi-static Gaussian field offsets dB ~ N(0, sigma_B^2).

    Each sample costs one transcendental: the half-angle identities with
    t = tan(phase/2) give cos = 2/(1+t^2) - 1 and sin = 2t/(1+t^2), so the
    result differs from a cos/sin reduction only by rounding (<= 1e-14 absolute).

    Bit-identical for identical seeds on any number of CPUs. Chunk c draws
    from an independent Philox stream keyed by (seed, c). The chunks run on
    min(chunks, CPUs in the affinity mask) threads, the caller being one of
    them: worker w takes chunks w, w + workers, ... and stores each chunk's
    cos and sin sums in row c. Once every worker has joined, the caller
    raises the first worker's exception, if any, or adds the rows in index
    order. A chunk is drawn and reduced in blocks of MC_BLOCK samples, in
    stream order, and its sums are the sums of the block sums in that order.
    """
    if not _is_integer(n_samples) or not MC_MIN_SAMPLES <= n_samples <= MC_MAX_SAMPLES:
        raise DomainError(f"need an integer n_samples in [{MC_MIN_SAMPLES}, {MC_MAX_SAMPLES}] "
                          f"for a meaningful contrast, got {n_samples!r}")
    if not _is_integer(seed) or not 0 <= int(seed) < 2 ** 64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not (sigma_b_gauss >= 0 and math.isfinite(sigma_b_gauss)):
        raise DomainError(f"sigma_B must be finite and >= 0 G, got {sigma_b_gauss!r}")
    if not math.isfinite(sensitivity_hz_per_g):
        raise DomainError(f"sensitivity must be finite, got {sensitivity_hz_per_g!r}")
    if not (t_s >= 0 and math.isfinite(t_s)):
        raise DomainError(f"time must be finite and >= 0, got {t_s!r}")
    half_phase_per_normal = 0.5 * TWO_PI * sensitivity_hz_per_g * t_s * sigma_b_gauss
    if not math.isfinite(half_phase_per_normal):
        raise DomainError(f"phase per unit normal overflows: {half_phase_per_normal!r}")
    n_chunks = -(-n_samples // MC_CHUNK)
    workers = min(n_chunks, _available_cpus())
    # One generator per worker, set for chunk c to the state of a new
    # Philox(key=(seed, c)), so memory does not grow with n_samples. Generators
    # and buffers are allocated here, not in the workers: a thread that calls
    # malloc gets a glibc arena of its own, which raises peak RSS.
    rngs = [np.random.Generator(np.random.Philox(key=0)) for _ in range(workers)]
    starts = [rng.bit_generator.state for rng in rngs]   # counter 0, empty buffer
    buffers = np.empty((workers, 2, min(MC_BLOCK, n_samples)))  # t and 1/(1+t^2) per worker
    sums = np.empty((n_chunks, 2))
    errors = [None] * workers

    def work(w):
        try:
            for c in range(w, n_chunks, workers):
                take = min(MC_CHUNK, n_samples - c * MC_CHUNK)
                starts[w]["state"]["key"] = (int(seed), c)
                rngs[w].bit_generator.state = starts[w]
                inv_sum = t_inv_sum = 0.0
                for start in range(0, take, MC_BLOCK):
                    t, inv = buffers[w, :, :min(MC_BLOCK, take - start)]
                    rngs[w].standard_normal(out=t)
                    t *= half_phase_per_normal
                    np.tan(t, out=t)
                    np.multiply(t, t, out=inv)
                    inv += 1.0
                    np.reciprocal(inv, out=inv)
                    inv_sum += inv.sum()
                    t *= inv
                    t_inv_sum += t.sum()
                sums[c] = 2.0 * inv_sum - take, 2.0 * t_inv_sum
        except BaseException as exc:  # raised again by the caller after the join
            errors[w] = exc

    started = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=work, args=(w,))
            thread.start()
            started.append(thread)
        work(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    cos_sum = sin_sum = 0.0
    for chunk_cos, chunk_sin in sums.tolist():
        cos_sum += chunk_cos
        sin_sum += chunk_sin
    return math.hypot(cos_sum, sin_sum) / n_samples


def inelastic_loss_probability(gamma_per_s, t_s):
    """Probability 1 - exp(-gamma*t) of an inelastic loss event within t."""
    if not (gamma_per_s >= 0 and t_s >= 0 and math.isfinite(gamma_per_s) and math.isfinite(t_s)):
        raise DomainError("rate and time must both be finite and >= 0")
    return -math.expm1(-gamma_per_s * t_s)


def operations_budget(dephasing_time_s, gate_time_s):
    """Number of gates fitting within the dephasing time: floor(T_phi/T_gate)."""
    if not (dephasing_time_s > 0 and math.isfinite(dephasing_time_s)):
        raise DomainError(f"dephasing time must be finite and > 0, got {dephasing_time_s!r}")
    if not gate_time_s > 0:
        raise DomainError(f"gate time must be > 0, got {gate_time_s!r}")
    ratio = dephasing_time_s / gate_time_s
    if math.isinf(ratio):
        raise DomainError(f"dephasing time {dephasing_time_s!r} s over gate time "
                          f"{gate_time_s!r} s overflows")
    return int(math.floor(ratio))


def adiabaticity_check(pulse_duration_s, trap_frequency_hz):
    """Pass when the pulse spans at least ADIABATIC_MIN_PERIODS trap periods."""
    if not pulse_duration_s > 0:
        raise DomainError(f"pulse duration must be > 0, got {pulse_duration_s!r}")
    if not trap_frequency_hz > 0:
        raise DomainError(f"trap frequency must be > 0, got {trap_frequency_hz!r}")
    margin = pulse_duration_s * trap_frequency_hz
    return AdiabaticityResult(ok=margin >= ADIABATIC_MIN_PERIODS, margin=margin)


def selective_readout_min_duration(splitting_hz, selectivity_factor=1.0):
    """Minimum pulse duration resolving a qubit splitting: factor/splitting."""
    if not splitting_hz > 0:
        raise DomainError(f"splitting must be > 0 Hz, got {splitting_hz!r}")
    if not selectivity_factor > 0:
        raise DomainError(f"selectivity factor must be > 0, got {selectivity_factor!r}")
    return selectivity_factor / splitting_hz


def assemble_budget(noise, sensitivity_hz_per_g, schedule, readout_splitting_hz,
                    selectivity_factor=1.0):
    """Compose the individual estimates into one report.

    Adiabaticity is judged on the one-qubit (enabler) rotation steps of the
    schedule; the conversion pulses are bounded by other physics. A schedule
    without rotation steps passes vacuously.
    """
    t_phi = dephasing_time(sensitivity_hz_per_g, noise.sigma_b_gauss)
    gate_time = schedule.gate_s
    if not gate_time > 0:
        raise DomainError("schedule has no gate steps; gate time must be > 0")
    ops = operations_budget(t_phi, gate_time)
    loss = inelastic_loss_probability(noise.gamma_inelastic_per_s, gate_time)
    rotations = [s.duration_s for s in schedule.steps if s.kind in ENABLER_KINDS]
    adiabatic_ok = all(adiabaticity_check(d, noise.trap_frequency_hz).ok for d in rotations)
    return BudgetReport(
        dephasing_time_s=t_phi,
        gate_time_s=gate_time,
        operations_count=ops,
        loss_probability=loss,
        adiabaticity_ok=adiabatic_ok,
        readout_min_duration_s=selective_readout_min_duration(readout_splitting_hz,
                                                              selectivity_factor),
    )
