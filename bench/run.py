"""hybridgate benchmark.

    python3 bench/run.py --workload paper_repro --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Runs one seeded workload in a child interpreter (see worker.py) and prints
one line per metric with its unit, a machine fingerprint, and, as the last
line of standard output, a JSON object with the keys correct, attempted,
failed and metrics. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run. ``--workload all`` runs every
workload untraced, one after another. Run it from the repository root;
nothing is installed, the package is imported from ``src``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import calibration
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 12

# Set-up as a user pays it: import the CLI and load the bundled scenario, in
# a fresh interpreter so no import is cached. Each probe is followed by the
# imports calibration kernel, also in a fresh interpreter, to normalise it.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import hybridgate.cli
from importlib import resources
from hybridgate.scenario import load_scenario_text
text = resources.files("hybridgate").joinpath("data/paper.cfg").read_text(encoding="utf-8")
load_scenario_text(text)
print(time.perf_counter() - t0)
"""


class BenchmarkError(Exception):
    pass


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def setup_samples(env, probes):
    """Normalised set-up times of several fresh interpreters."""
    def timed(script):
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout)

    reference = calibration.REFERENCE_S["imports"]
    return [timed(SETUP_PROBE) * reference / timed(calibration.IMPORTS_KERNEL)
            for _ in range(probes)]


def run_worker(args, env, work):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    # The worker runs for --seconds, plus warm-up, checks and rerun.
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=2 * args.seconds + 60)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    """HEAD of the checkout; None outside a git tree or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "hybridgate")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def fingerprint(env, numpy_version):
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "threads_env": {name: env[name] for name in THREAD_ENV},
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


def measure(args):
    """Run one workload; returns (result line dict, fingerprint)."""
    env = child_env()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        # Probes before and after the worker sample two moments of machine load.
        probes = 0 if args.trace else SETUP_PROBES
        setup = setup_samples(env, probes // 2)
        raw = run_worker(args, env, work)
        setup += setup_samples(env, probes - probes // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass   # another run is still using it
    failed = len(raw["failures"])
    attempted = raw["attempted"]
    for failure in raw["failures"][:10]:
        print(f"FAILED {args.workload} {failure}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": raw["layers"][name], "unit": unit}
                   for name, unit in declared_units("per_layer").items()}
    else:
        times = raw["call_times_s"]
        norm = raw["norm_times_s"]
        size = raw["pass_units"]
        per_unit = [statistics.median(norm[i::size]) for i in range(size)]
        values = {
            "setup_s": statistics.median(setup),
            "call_p50_s": statistics.median(per_unit),
            "throughput_per_s": len(norm) / sum(norm),
            "pass_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared_units("end_to_end").items()}
        print(f"{args.workload}: {len(times) // size} passes of {size} units "
              f"({len(times)} calls, {sum(times):.3f} s timed, {raw['speed_samples']} speed "
              f"samples); raw call median {statistics.median(times):.6g} s, "
              f"p90 {statistics.quantiles(times, n=10)[-1]:.6g} s; "
              f"setup_s over {len(setup)} interpreters")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, fingerprint(env, raw["numpy"])


def print_metrics(workload, result):
    for name, m in result["metrics"].items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload}: fail_ratio = {ratio:.6g} ratio "
          f"({result['failed']} of {result['attempted']} units failed)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hybridgate", "cli.py")):
        print("bench: no hybridgate package under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, fp = measure(args)
            print_metrics(args.workload, result)
            print(json.dumps({"fingerprint": fp}))
            print(json.dumps(result))
            return 0
        results = {}
        for workload in WORKLOADS:
            sub = argparse.Namespace(**{**vars(args), "workload": workload, "trace": 0})
            results[workload], fp = measure(sub)
            print_metrics(workload, results[workload])
        print(json.dumps({"fingerprint": fp}))
        print(json.dumps(results))
        return 0
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
