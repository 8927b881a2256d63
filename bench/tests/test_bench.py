"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hybridgate.scenario import load_scenario_text  # noqa: E402
from worker import SPANS_PATH, Runner  # noqa: E402

UNSEEN_SEEDS = (9001, 9002, 9003)
# A seed whose pool, when the STIRAP pulse area was jittered, had a unit
# with intuitive-order transfer above the counterintuitive one.
AREA_JITTER_SEED = 1305767632


@pytest.fixture
def runner_for(tmp_path):
    sinks = []

    def make(workload):
        sink = open(os.devnull, "w", encoding="utf-8")
        sinks.append(sink)
        return Runner(workload, str(tmp_path), sink)

    yield make
    for sink in sinks:
        sink.close()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", (0, 1, 2, 12345))
def test_every_generated_config_parses(workload, seed):
    for unit in workloads.generate(workload, seed):
        scenario = load_scenario_text(unit.config)
        assert scenario.mc_samples == unit.mc_samples


def test_pools_balance_cost_across_seeds():
    # Antithetic pairs keep each seed's total MC samples fixed; every
    # paper_repro unit keeps the bundled STIRAP pulse area.
    for seed in (1, 2, 3):
        units = workloads.generate("noise_mc", seed)
        assert sum(u.mc_samples for u in units) == pytest.approx(2e6 * len(units), abs=len(units))
        for unit in workloads.generate("paper_repro", seed):
            stirap = load_scenario_text(unit.config).stirap
            assert stirap.peak_rad_s * stirap.rms_width_s == pytest.approx(1e6 * 3e-5, rel=1e-12)


@pytest.mark.parametrize("seed", UNSEEN_SEEDS + (AREA_JITTER_SEED,))
def test_paper_repro_jitter_keeps_every_check_passing(runner_for, seed):
    runner = runner_for("paper_repro")
    for unit, cfg, out in runner.prepare(workloads.generate("paper_repro", seed), f"s{seed}_"):
        codes = runner.call(unit, cfg, out)
        assert workloads.check_unit("paper_repro", unit, out, codes) == []


def test_exit_code_zero_with_a_failed_check_counts_as_failure(runner_for):
    # A known defect: paper-repro prints 24/25 checks passed at 600 G and
    # still exits 0. The benchmark must count that unit as failed.
    runner = runner_for("paper_repro")
    unit = workloads.Unit(workloads.render_config({("field", "b_G"): 600.0}),
                          ("paper-repro",), 100000)
    (unit, cfg, out), = runner.prepare([unit], "b600_")
    codes = runner.call(unit, cfg, out)
    assert codes == [0]
    assert not runner.check("b600", unit, out, codes)
    assert runner.attempted == 1
    assert len(runner.failures) == 1
    assert "transition_649G_hz" in runner.failures[0]


def test_design_scan_and_noise_mc_units_pass_their_checks(runner_for):
    for workload in ("design_scan", "noise_mc"):
        runner = runner_for(workload)
        (unit, cfg, out), = runner.prepare(workloads.generate(workload, 4)[:1], workload)
        codes = runner.call(unit, cfg, out)
        assert workloads.check_unit(workload, unit, out, codes) == []


def test_reference_tolerance_accepts_roundoff_and_rejects_real_changes():
    stored = workloads.load_reference("paper_repro")
    roundoff = {k: v * (1 + 1e-13) for k, v in stored.items()}
    assert workloads.reference_problems(roundoff, stored) == []
    changed = dict(stored, stirap_efficiency=stored["stirap_efficiency"] * (1 + 1e-6))
    assert len(workloads.reference_problems(changed, stored)) == 1


def test_sampler_times_the_kernel_only_while_entered():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = calibration.Sampler("interpreted")
    with sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
        end = time.perf_counter()
    count = len(sampler.speeds)
    time.sleep(2 * calibration.PERIOD_S)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.speeds) == count >= 4
    assert 0.0 < sampler.spent < end - start
    assert sampler.stamps == sorted(sampler.stamps)
    inside = [v for t, v in zip(sampler.stamps, sampler.speeds) if start <= t <= end]
    assert sampler.speed(start, end) == pytest.approx(sum(inside) / len(inside))
    with pytest.raises(RuntimeError):
        sampler.speed(end + 10.0, end + 10.0)


def test_self_times_partition_the_parent_span():
    spans = [tracing.Span("bench.unit", 0.0, None, 0), tracing.Span("cli.main", 1.0, 0, 0),
             tracing.Span("output.write_csv", 2.0, 1, 0)]
    for span, end in zip(spans, (10.0, 6.0, 3.5)):
        span.end = end
    assert tracing.self_times(spans) == [5.0, 3.5, 1.5]


def test_traced_run_spans_sum_to_each_unit():
    if os.path.exists(SPANS_PATH):
        os.remove(SPANS_PATH)   # so that only this run's spans are read
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "design_scan", "--seed", "3", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == declared

    spans = []
    with open(SPANS_PATH, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            span = tracing.Span(s["name"], s["start"], s["parent"], s["unit"])
            span.end = s["end"]
            spans.append(span)
    own = tracing.self_times(spans)
    subtree = [0.0] * len(spans)
    for i in reversed(range(len(spans))):   # children come after their parent
        subtree[i] += own[i]
        if spans[i].parent is not None:
            subtree[spans[i].parent] += subtree[i]
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    assert roots and all(spans[i].name == tracing.UNIT_SPAN for i in roots)
    for i in roots:
        assert math.isclose(subtree[i], spans[i].duration, rel_tol=1e-9, abs_tol=1e-12)
    assert all(t >= -1e-9 for t in own)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "noise_mc", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
