import math
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hybridgate import budget
from hybridgate.budget import (
    MC_BLOCK,
    MC_CHUNK,
    NoiseModel,
    adiabaticity_check,
    assemble_budget,
    dephasing_time,
    inelastic_loss_probability,
    operations_budget,
    ramsey_contrast_mc,
    selective_readout_min_duration,
)
from hybridgate.errors import DomainError
from hybridgate.gate import build_gate_schedule, dipole_dipole_rate

SENS = 2.38e6
SIGMA = 3e-4


class TestDephasingTime:
    def test_paper_numbers(self):
        t = dephasing_time(SENS, SIGMA)
        assert t == pytest.approx(2.229060827617582e-4, rel=1e-12)  # 1/(2 pi * 714 Hz)
        assert abs(t - 200e-6) / 200e-6 < 0.25

    def test_zero_noise_rejected(self):
        # T_phi would be unbounded
        with pytest.raises(DomainError, match="> 0 G, got 0.0"):
            dephasing_time(SENS, 0.0)

    def test_inverse_scaling(self):
        assert dephasing_time(SENS, 2 * SIGMA) == pytest.approx(
            dephasing_time(SENS, SIGMA) / 2.0, rel=1e-12)

    def test_definition_identity(self):
        t = dephasing_time(SENS, SIGMA)
        assert t * SENS * SIGMA * 2.0 * math.pi == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            dephasing_time(0.0, SIGMA)

    def test_nan_noise_rejected(self):
        with pytest.raises(DomainError):
            dephasing_time(SENS, math.nan)

    @pytest.mark.parametrize("sens, sigma", [(math.inf, SIGMA), (SENS, math.inf)])
    def test_infinite_inputs_rejected(self, sens, sigma):
        # 1/(2 pi * sens * sigma) would be a dephasing time of 0.0 s.
        with pytest.raises(DomainError, match="finite"):
            dephasing_time(sens, sigma)

    @pytest.mark.parametrize("sens, sigma", [(1e-200, 1e-200), (1e-160, 1e-160), (1e200, 1e200)])
    def test_out_of_range_product_rejected(self, sens, sigma):
        # sens * sigma underflows to 0.0 (a division by zero), to a subnormal
        # whose inverse is inf, or overflows to inf (a dephasing time of 0.0 s)
        inputs = f"sensitivity {sens!r} Hz/G and sigma_B {sigma!r} G"
        with pytest.raises(DomainError, match=re.escape(inputs)):
            dephasing_time(sens, sigma)


class TestRamseyContrast:
    def test_zero_time_is_exactly_one(self):
        assert ramsey_contrast_mc(SENS, SIGMA, 0.0, 1000, 42) == 1.0

    def test_gaussian_decay_at_t_phi(self):
        t_phi = dephasing_time(SENS, SIGMA)
        c = ramsey_contrast_mc(SENS, SIGMA, t_phi, 100000, 12345)
        assert abs(c - math.exp(-0.5)) <= 0.01

    def test_long_time_contrast_collapses(self):
        t_phi = dephasing_time(SENS, SIGMA)
        assert ramsey_contrast_mc(SENS, SIGMA, 5.0 * t_phi, 100000, 12345) < 0.01

    def test_matches_analytic_law_within_statistics(self):
        t_phi = dephasing_time(SENS, SIGMA)
        n = 100000
        tol = 3.0 / math.sqrt(n)
        for factor in (0.5, 1.0, 2.0, 3.0):
            t = factor * t_phi
            c = ramsey_contrast_mc(SENS, SIGMA, t, n, 999)
            assert abs(c - math.exp(-0.5 * factor ** 2)) <= tol

    def test_bit_reproducible(self):
        t_phi = dephasing_time(SENS, SIGMA)
        a = ramsey_contrast_mc(SENS, SIGMA, t_phi, 50000, 7)
        b = ramsey_contrast_mc(SENS, SIGMA, t_phi, 50000, 7)
        assert a == b

    def test_chunk_streams_are_order_independent(self):
        # Recompute the two-chunk reduction by drawing the chunks in reverse
        # order, each reduced in the kernel's MC_BLOCK sub-blocks in stream
        # order; per-chunk keyed streams must give the identical result.
        n = 2 * MC_CHUNK
        t = 1e-4
        seed = 31337
        sums = {}
        for chunk_index in (1, 0):
            key = np.array([seed, chunk_index], dtype=np.uint64)
            z = np.random.Generator(np.random.Philox(key=key)).standard_normal(MC_CHUNK)
            tan_half = np.tan(z * (0.5 * 2.0 * math.pi * SENS * t * SIGMA))
            inv = 1.0 / (tan_half * tan_half + 1.0)
            inv_sum = t_inv_sum = 0.0
            for block in range(0, MC_CHUNK, MC_BLOCK):
                inv_sum += inv[block:block + MC_BLOCK].sum()
                t_inv_sum += (tan_half[block:block + MC_BLOCK] * inv[block:block + MC_BLOCK]).sum()
            sums[chunk_index] = (2.0 * inv_sum - MC_CHUNK, 2.0 * t_inv_sum)
        manual = math.hypot(0.0 + sums[0][0] + sums[1][0], 0.0 + sums[0][1] + sums[1][1]) / n
        assert ramsey_contrast_mc(SENS, SIGMA, t, n, seed) == manual

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    def test_matches_complex_exponential_reduction(self, seed):
        # The contrast as |sum of exp(i phase)| / n over the same Philox
        # chunks, with a partial last chunk; only the rounding may differ.
        n = 2 * MC_CHUNK + 1234
        t = dephasing_time(SENS, SIGMA)
        total = 0.0j
        for chunk_index, take in enumerate((MC_CHUNK, MC_CHUNK, 1234)):
            key = np.array([seed, chunk_index], dtype=np.uint64)
            db = np.random.Generator(np.random.Philox(key=key)).standard_normal(take) * SIGMA
            total += np.exp(1j * 2.0 * math.pi * SENS * db * t).sum()
        expected = abs(total / n)
        assert ramsey_contrast_mc(SENS, SIGMA, t, n, seed) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("factor", [0.01, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("n", [1000, 2 * MC_CHUNK + 1234])
    def test_half_angle_form_matches_cos_sin_reduction(self, factor, n):
        # cos and sin summed directly over the same Philox chunks; phases at
        # 10 T_phi reach well past +-pi.
        t = factor * dephasing_time(SENS, SIGMA)
        cos_sum = sin_sum = 0.0
        for chunk_index, start in enumerate(range(0, n, MC_CHUNK)):
            key = np.array([5, chunk_index], dtype=np.uint64)
            z = np.random.Generator(np.random.Philox(key=key)).standard_normal(
                min(MC_CHUNK, n - start))
            phase = (2.0 * math.pi * SENS * t * SIGMA) * z
            cos_sum += np.cos(phase).sum()
            sin_sum += np.sin(phase).sum()
        expected = math.hypot(cos_sum, sin_sum) / n
        assert abs(ramsey_contrast_mc(SENS, SIGMA, t, n, 5) - expected) <= 1e-14

    def test_minimum_samples_enforced(self):
        with pytest.raises(DomainError):
            ramsey_contrast_mc(SENS, SIGMA, 1e-4, 999, 0)

    def test_sample_count_above_the_bound_rejected_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")
        monkeypatch.setattr(threading, "Thread", refuse)
        monkeypatch.setattr(np.random, "Philox", refuse)
        for n in (budget.MC_MAX_SAMPLES + 1, 10 ** 20):
            with pytest.raises(DomainError, match=r"n_samples must be >= 1000, <= 1000000000, got"):
                ramsey_contrast_mc(SENS, SIGMA, 1e-4, n, 0)

    @pytest.mark.parametrize("n", [2000.5, 100000.0, True, "100000", math.nan])
    def test_non_integer_sample_count_rejected(self, n):
        with pytest.raises(DomainError, match="n_samples must be an integer"):
            ramsey_contrast_mc(SENS, SIGMA, 1e-4, n, 0)

    def test_nan_time_rejected(self):
        with pytest.raises(DomainError):
            ramsey_contrast_mc(SENS, SIGMA, math.nan, 1000, 0)

    @pytest.mark.parametrize("sens, sigma, t", [
        (SENS, math.nan, 1e-4),    # was a nan contrast
        (SENS, math.inf, 1e-4),
        (SENS, -1e-4, 1e-4),       # was 0.8208; NoiseModel rejects a negative sigma_B
        (math.nan, SIGMA, 1e-4),   # was a nan contrast
        (math.inf, SIGMA, 1e-4),
        (SENS, SIGMA, math.inf),   # was nan with a RuntimeWarning from tan
        (1e300, 1e2, 1e10),        # finite inputs whose phase scale overflows
    ])
    def test_non_finite_or_negative_inputs_rejected(self, sens, sigma, t):
        with pytest.raises(DomainError):
            ramsey_contrast_mc(sens, sigma, t, 1000, 0)


def _workers(monkeypatch, cpus):
    monkeypatch.setattr(budget, "_available_cpus", lambda: cpus)


class TestParallelChunks:
    # Each worker is a real thread, so no test asks for more than 8.

    @pytest.mark.parametrize("n", [1000, MC_CHUNK, 2 * MC_CHUNK + 1234, 2_000_000])
    def test_result_does_not_depend_on_worker_count(self, monkeypatch, n):
        t = dephasing_time(SENS, SIGMA)
        _workers(monkeypatch, 1)
        serial = ramsey_contrast_mc(SENS, SIGMA, t, n, 2024)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # switch threads as often as possible
        try:
            for cpus in (2, 3, 8):
                _workers(monkeypatch, cpus)
                assert ramsey_contrast_mc(SENS, SIGMA, t, n, 2024) == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n, cpus, extra", [
        (1000, 8, 0),
        (MC_CHUNK, 8, 0),
        (MC_CHUNK + 1, 8, 1),
        (3 * MC_CHUNK, 2, 1),
        (3 * MC_CHUNK, 8, 2),
        (3 * MC_CHUNK, 1, 0),
    ])
    def test_one_thread_per_extra_worker(self, monkeypatch, n, cpus, extra):
        # min(chunks, cpus) workers, the caller being one of them.
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        _workers(monkeypatch, cpus)
        monkeypatch.setattr(threading, "Thread", CountingThread)
        ramsey_contrast_mc(SENS, SIGMA, 1e-4, n, 1)
        assert len(started) == extra
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("failing_chunk", [0, 1, 3])
    def test_failing_chunk_raises_in_the_caller(self, monkeypatch, failing_chunk):
        # Chunk 0 runs in the calling thread, chunks 1 and 3 in the worker.
        real_generator = np.random.Generator
        ran_in = []

        class FailingGenerator:   # fails when its draw is keyed to the failing chunk
            def __init__(self, bit_generator):
                self.bit_generator = bit_generator
                self.rng = real_generator(bit_generator)

            def standard_normal(self, out):
                if int(self.bit_generator.state["state"]["key"][1]) == failing_chunk:
                    ran_in.append(threading.current_thread())
                    raise FloatingPointError(f"chunk {failing_chunk} failed")
                return self.rng.standard_normal(out=out)

        _workers(monkeypatch, 2)
        monkeypatch.setattr(np.random, "Generator", FailingGenerator)
        with pytest.raises(FloatingPointError, match=f"chunk {failing_chunk} failed"):
            ramsey_contrast_mc(SENS, SIGMA, 1e-4, 4 * MC_CHUNK, 9)
        assert (ran_in[0] is threading.main_thread()) == (failing_chunk == 0)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_generator_per_worker_for_any_number_of_chunks(self, monkeypatch, cpus):
        # A generator costs about 1 kB: one per chunk would make memory grow
        # with n_samples.
        real_generator = np.random.Generator
        built = []

        def generator(bit_generator):
            built.append(bit_generator)
            return real_generator(bit_generator)

        n = 8 * MC_CHUNK + 5   # 9 chunks
        _workers(monkeypatch, cpus)
        expected = ramsey_contrast_mc(SENS, SIGMA, 1e-4, n, 3)
        monkeypatch.setattr(np.random, "Generator", generator)
        assert ramsey_contrast_mc(SENS, SIGMA, 1e-4, n, 3) == expected
        assert len(built) == cpus

    def test_traced_memory_does_not_grow_with_the_sample_count(self, monkeypatch):
        # Each worker draws and reduces its chunks in MC_BLOCK sub-blocks of one
        # (2, MC_BLOCK) buffer: 2 workers trace about 1.05 MB at any sample
        # count, where buffers of MC_CHUNK samples would take 2.1 MB.
        _workers(monkeypatch, 2)
        ramsey_contrast_mc(SENS, SIGMA, 1e-4, 1000, 4)   # numpy.random imports helpers on first use
        peaks = []
        for n in (100_000, 2_000_000):
            tracemalloc.start()
            try:
                ramsey_contrast_mc(SENS, SIGMA, 1e-4, n, 4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1_100_000, peaks
        assert max(peaks) - min(peaks) < 16 * 1024, peaks

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert budget._available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert budget._available_cpus() == 1


class TestInelasticLoss:
    def test_paper_value(self):
        loss = inelastic_loss_probability(1e5, 20e-6)
        assert loss == pytest.approx(0.8646647167633873, rel=1e-12)  # 1 - e^-2
        assert abs(loss - 0.8647) <= 1e-4

    def test_trivial_cases(self):
        assert inelastic_loss_probability(0.0, 1.0) == 0.0
        assert inelastic_loss_probability(1e5, 0.0) == 0.0

    def test_monotone_and_bounded(self):
        previous = -1.0
        for t in np.linspace(0.0, 3e-4, 50):  # gamma*t <= 30 stays below 1 in floats
            loss = inelastic_loss_probability(1e5, float(t))
            assert 0.0 <= loss < 1.0
            assert loss >= previous
            previous = loss

    def test_saturates_at_one_in_floats(self):
        assert inelastic_loss_probability(1e5, 1e-3) == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            inelastic_loss_probability(-1.0, 1.0)

    def test_nan_rate_rejected(self):
        with pytest.raises(DomainError):
            inelastic_loss_probability(math.nan, 20e-6)

    @pytest.mark.parametrize("gamma, t", [(math.inf, 0.0), (1e5, math.inf)])
    def test_infinite_inputs_rejected(self, gamma, t):
        # inf * 0 made (inf, 0.0) a nan probability.
        with pytest.raises(DomainError):
            inelastic_loss_probability(gamma, t)


class TestOperationsBudget:
    def test_paper_values(self):
        assert operations_budget(200e-6, 20e-6) == 10
        assert operations_budget(223e-6, 20e-6) == 11

    def test_equal_times(self):
        assert operations_budget(3.7e-4, 3.7e-4) == 1

    def test_scale_invariance(self):
        for a in (0.5, 2.0, 7.0):
            assert operations_budget(a * 223e-6, a * 20e-6) == operations_budget(223e-6, 20e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            operations_budget(math.inf, 20e-6)
        with pytest.raises(DomainError):
            operations_budget(200e-6, 0.0)

    @pytest.mark.parametrize("t_phi, t_gate", [(1.0, 1e-320), (1e300, 1e-10)])
    def test_overflowing_ratio_rejected(self, t_phi, t_gate):
        # T_phi / T_gate is inf, which floor() cannot turn into an int
        inputs = f"{t_phi!r} s over gate time {t_gate!r} s"
        with pytest.raises(DomainError, match=re.escape(inputs)):
            operations_budget(t_phi, t_gate)


class TestAdiabaticity:
    def test_paper_case(self):
        result = adiabaticity_check(30e-6, 1e5)
        assert result.ok
        assert result.margin == pytest.approx(3.0, rel=1e-12)

    def test_fast_pulse_fails(self):
        result = adiabaticity_check(1e-6, 1e5)
        assert not result.ok
        assert result.margin == pytest.approx(0.1, rel=1e-12)

    def test_exact_boundary_passes(self):
        for nu in (1e5, 123456.0):
            assert adiabaticity_check(3.0 / nu, nu).ok


class TestReadout:
    def test_values(self):
        assert selective_readout_min_duration(1e3) == pytest.approx(1e-3, rel=1e-12)
        assert selective_readout_min_duration(1e9) == pytest.approx(1e-9, rel=1e-12)
        assert selective_readout_min_duration(1e3, 10.0) == pytest.approx(1e-2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            selective_readout_min_duration(0.0)


class TestAssembleBudget:
    def _schedule(self):
        return build_gate_schedule(dipole_dipole_rate(4.2, 500e-9), 1e6, 30e-6)

    def test_paper_composition(self):
        noise = NoiseModel(SIGMA, 1e5, 1e5, seed=1)
        sens = 2.3296942049243324e6  # analytic sensitivity at 649 G
        report = assemble_budget(noise, sens, self._schedule(), 1e3)
        assert 180e-6 <= report.dephasing_time_s <= 250e-6
        assert 15e-6 <= report.gate_time_s <= 35e-6
        assert 8 <= report.operations_count <= 12
        assert report.loss_probability == pytest.approx(
            inelastic_loss_probability(1e5, report.gate_time_s), rel=1e-12)
        assert report.adiabaticity_ok
        assert report.readout_min_duration_s == pytest.approx(1e-3, rel=1e-12)

    def test_zero_inelastic_rate_loses_nothing(self):
        noise = NoiseModel(SIGMA, 0.0, 1e5, seed=1)
        report = assemble_budget(noise, SENS, self._schedule(), 1e3)
        assert report.loss_probability == 0.0

    def test_doubling_gate_time_halves_operations(self):
        t_phi = 223e-6
        gate = 27.4e-6
        n_full = operations_budget(t_phi, gate)
        n_half = operations_budget(t_phi, 2.0 * gate)
        assert n_half == math.floor(t_phi / (2.0 * gate))
        assert abs(n_full / 2.0 - n_half) <= 1.0

    def test_slow_trap_fails_adiabaticity(self):
        noise = NoiseModel(SIGMA, 1e5, 1e4, seed=1)  # 10 kHz trap, 30 us rotations
        report = assemble_budget(noise, SENS, self._schedule(), 1e3)
        assert not report.adiabaticity_ok

    def test_noise_model_validation(self):
        with pytest.raises(DomainError):
            NoiseModel(-1e-4, 1e5, 1e5)
        with pytest.raises(DomainError, match="sigma_b_gauss must be > 0, got 0.0"):
            NoiseModel(0.0, 1e5, 1e5)
        with pytest.raises(DomainError):
            NoiseModel(SIGMA, -1.0, 1e5)
        with pytest.raises(DomainError):
            NoiseModel(SIGMA, 1e5, 0.0)

    def test_noise_model_rejects_nan(self):
        with pytest.raises(DomainError):
            NoiseModel(math.nan, 1e5, 1e5)
        with pytest.raises(DomainError):
            NoiseModel(SIGMA, math.nan, 1e5)
