"""Runs one workload in this process: a closed loop that calls
``hybridgate.cli.main`` for one unit at a time, the way a user runs the tool.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --work DIR

Started by run.py with ``src`` on PYTHONPATH and BLAS/OpenMP threads pinned
to 1. Prints one JSON object with the raw measurements as its last line.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

import numpy

import calibration
import tracing
import workloads

# Spans of the last traced run, as JSON lines, at the root of the checkout.
SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          ".bench_spans.jsonl")
MODULES = ("cli", "scenario", "output", "hyperfine", "dynamics", "gate", "budget")


class Runner:
    """Runs units of one workload, checks them and keeps the failure count."""

    def __init__(self, workload, work_dir, stream):
        self.workload = workload
        self.work_dir = work_dir
        self.stream = stream
        self.modules = {name: importlib.import_module(f"hybridgate.{name}") for name in MODULES}
        self.attempted = 0
        self.failures = []
        self.sampler = calibration.Sampler(workloads.CALIBRATION_KERNEL[workload])

    def prepare(self, units, tag):
        """Write each unit's config once; returns (unit, config path, out dir)."""
        prepared = []
        for i, unit in enumerate(units):
            path = os.path.join(self.work_dir, f"{tag}{i}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(unit.config)
            prepared.append((unit, path, os.path.join(self.work_dir, f"{tag}{i}")))
        return prepared

    def call(self, unit, config_path, out_dir):
        main = self.modules["cli"].main   # looked up per call so tracing can wrap it
        saved, sys.stdout = sys.stdout, self.stream
        try:
            return [main([sub, "--config", config_path, "--out", out_dir])
                    for sub in unit.subcommands]
        finally:
            sys.stdout = saved

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def check(self, label, unit, out_dir, exit_codes):
        problems = workloads.check_unit(self.workload, unit, out_dir, exit_codes)
        self.record(label, problems)
        return not problems

    def passes(self, prepared, seconds, call):
        """Whole passes over the pool until the units have taken ``seconds``.

        Returns (start, end, time) of each unit. The time is its wall time
        less what the speed sampler took from it. The output checks between
        units are not timed.
        """
        units = []
        timed = 0.0
        while timed < seconds or not units:
            for i, (unit, cfg, out) in enumerate(prepared):
                spent = self.sampler.spent
                t0 = time.perf_counter()
                codes = call(len(units), unit, cfg, out)
                t1 = time.perf_counter()
                units.append((t0, t1, t1 - t0 - (self.sampler.spent - spent)))
                timed += units[-1][2]
                self.check(f"unit {i}", unit, out, codes)
        return units


def run(args):
    stream = open(os.devnull, "w", encoding="utf-8")
    runner = Runner(args.workload, args.work, stream)
    try:
        # Warm-up on the fixed reference unit, compared with stored values.
        (ref, ref_cfg, ref_out), = runner.prepare(
            workloads.generate(args.workload, workloads.REFERENCE_SEED)[:1], "ref")
        codes = runner.call(ref, ref_cfg, ref_out)
        problems = workloads.check_unit(args.workload, ref, ref_out, codes)
        if not problems:
            problems = workloads.reference_problems(
                workloads.key_quantities(args.workload, ref_out),
                workloads.load_reference(args.workload))
        runner.record("reference unit", problems)

        pool = runner.prepare(workloads.generate(args.workload, args.seed), "u")

        def plain(n, *unit_args):
            return runner.call(*unit_args)

        result = {}
        if args.trace:
            tracer = tracing.Tracer()
            # Alternate untraced and traced passes so drift hits both alike.
            plain_units = traced_units = 0
            plain_s = traced_s = 0.0
            half = args.seconds / 2.0
            while plain_s < half or traced_s < half:
                timed = runner.passes(pool, 0.0, plain)
                plain_units += len(timed)
                plain_s += sum(t for _, _, t in timed)
                tracer.install(runner.modules)
                try:
                    timed = runner.passes(
                        pool, 0.0, lambda n, *a: tracer.run_unit(traced_units + n, runner.call, *a))
                finally:
                    tracer.uninstall()
                traced_units += len(timed)
                traced_s += sum(t for _, _, t in timed)
            layers = tracing.layer_metrics(tracer.spans, traced_units)
            layers["trace.overhead_ratio"] = (plain_units / plain_s) / (traced_units / traced_s)
            result["layers"] = layers
            tracer.write(SPANS_PATH)
        else:
            with runner.sampler:
                timed = runner.passes(pool, args.seconds, plain)
            result["call_times_s"] = [t for _, _, t in timed]
            result["norm_times_s"] = [t * runner.sampler.speed(t0, t1) for t0, t1, t in timed]
            result["pass_units"] = len(pool)
            result["speed_samples"] = len(runner.sampler.speeds)

        # Byte-identity: rerun the first unit with identical inputs.
        unit, cfg, out = pool[0]
        first = workloads.output_hashes(out)
        rerun_out = os.path.join(args.work, "rerun")
        codes = runner.call(unit, cfg, rerun_out)
        problems = workloads.check_unit(args.workload, unit, rerun_out, codes)
        if not problems and workloads.output_hashes(rerun_out) != first:
            problems = ["rerun outputs differ from the first run (SHA-256)"]
        runner.record("rerun", problems)
    finally:
        stream.close()

    result.update({
        "attempted": runner.attempted,
        "failures": runner.failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    })
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
