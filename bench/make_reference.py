"""Regenerate reference.json: the key quantities of each workload's fixed
reference unit (the first unit of the pool for workloads.REFERENCE_SEED).

    PYTHONPATH=src:bench python3 bench/make_reference.py

Run it only when a workload's inputs change on purpose, never to make a
failing comparison pass.
"""

import json
import os
import tempfile

import workloads
from worker import Runner


def main():
    reference = {}
    with tempfile.TemporaryDirectory() as work, open(os.devnull, "w") as sink:
        for workload in workloads.WORKLOADS:
            runner = Runner(workload, work, sink)
            (unit, cfg, out), = runner.prepare(
                workloads.generate(workload, workloads.REFERENCE_SEED)[:1], workload)
            codes = runner.call(unit, cfg, out)
            problems = workloads.check_unit(workload, unit, out, codes)
            if problems:
                raise SystemExit(f"{workload} reference unit fails its checks: {problems}")
            reference[workload] = workloads.key_quantities(workload, out)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
