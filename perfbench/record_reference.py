"""Record reference output values for the default seed of each workload.

    python3 perfbench/record_reference.py [workload ...]

Runs the first REFERENCE_ROUNDS rounds of seed 0 with no time limit and
writes perfbench/reference/<workload>.json.  run.py compares every task
of a seed-0 run that falls inside the recorded prefix against these
values, with the tolerances of checks.TOLERANCES.  Re-record only when
a change is meant to move the outputs, and say so where it lands.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

SEED = 0
# More rounds than a 25-second run completes on a 2-core machine.
REFERENCE_ROUNDS = {"dyn-bulk": 10, "experiment-mix": 12, "dense-oracle": 4}


def record(cli, workload: str) -> None:
    work_dir = run.OUT / "work" / f"reference-{workload}"
    batches = workloads.generate(workload, SEED, REFERENCE_ROUNDS[workload])
    tasks = []
    try:
        for i, task in enumerate(t for batch in batches for t in batch):
            res = run.execute(cli, task, work_dir / f"t{i:05d}", summarize=True)
            if res.error:
                raise SystemExit(f"{workload} task {i} failed: {res.error}")
            tasks.append({"argv": task.argv("-"),
                          "values": {k: list(v) for k, v in res.summary.items()}})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    path = run.REFERENCE_DIR / f"{workload}.json"
    lines = ",\n".join(json.dumps(task) for task in tasks)
    path.write_text(f'{{"seed": {SEED}, "tasks": [\n{lines}\n]}}\n')
    print(f"wrote {path} ({len(tasks)} tasks)")


def main(argv: list[str]) -> int:
    cli = run.import_cli()
    for workload in argv or workloads.WORKLOADS:
        record(cli, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
