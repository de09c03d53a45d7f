"""Record the reference outputs that perfbench/run.py checks against.

    python3 perfbench/record_reference.py

For every workload, size and data seed it runs the workload's training job
once (infer_stack: the stack it serves) and stores the accuracy matrix and the
per-task, per-layer r_eff. Run it only on code whose outputs are known to be
right: a later change that alters these outputs is reported as failing.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from run import HERE, OUT, import_library, machine, pin_blas_threads, tune_allocator


def main():
    pin_blas_threads()
    allocator = tune_allocator()
    import_library()
    from workloads import REFERENCE_SEEDS, WORKLOADS, Job

    path = HERE / "reference.json"
    reference = {"machine": {**machine(), "malloc": allocator}, "jobs": {}}
    OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for size in ("toy", "full"):
            seeds = reference["jobs"].setdefault(name, {}).setdefault(size, {})
            for seed in range(REFERENCE_SEEDS):
                work = Path(tempfile.mkdtemp(prefix="ref-", dir=OUT))
                try:
                    job = Job(WORKLOADS[name], seed, size == "toy", work, reference=None)
                    job.train(job.fixture_dir)
                    seeds[str(seed)] = job.observed
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                print(name, size, seed, job.observed["r_eff"][-1], flush=True)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
