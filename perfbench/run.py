"""Closed-loop benchmark of the ixysense CLI.

    python3 perfbench/run.py --workload dyn-bulk --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One client, no think time: each task is one `ixysense.cli.main(argv)`
call in this warm process, made as soon as the previous one returns and
its outputs are checked.  The task list comes from workloads.py and the
seed; the program sees only the generated `--set` overrides.

A fixed reference probe (speed.py) is timed before every task and after
the last one.  The shared host's speed moves by up to 1.7x within
seconds, so the task timings are given at the host speed at which the
probe takes its reference time: each latency is multiplied by the
reference time over the mean of the probes timed around it.  setup_s,
fresh interpreters starting up, does not follow the probe and stays
wall time.  The wall-clock figures go to the results file and the
report.

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 runs the first half of the time budget untraced, then replays
exactly those tasks with spans on every layer (tracing.py) and reports
the per-layer table and the tracing overhead.  `--workload all` runs
both for every workload.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Results, with the machine and environment, also go to
.perfbench/results/ in the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; children inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# One CPU for this process and the setup interpreters it starts, so that
# the speed probe always runs where the timed work runs: the vCPUs of a
# shared host change speed independently of each other.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse
import contextlib
import gc
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

CLI_THREADS = 1          # --threads passed to every task; <= nproc
SETUP_REPEATS = 5        # fresh interpreters behind the setup_s median
SETUP_ROUNDS = 64        # rounds generated by each of them
REFERENCE_DIR = BENCH / "reference"

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class TaskResult:
    task: workloads.Task
    start: float
    latency: float
    error: str | None
    bytes_written: int
    worst_rel_diff: float
    summary: dict


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def import_cli():
    """ixysense.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import ixysense.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import ixysense from {SRC}: {exc}") from exc
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"ixysense imported from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2 ** 20,
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cli_threads": CLI_THREADS,
        "cpu_pinned": CPU,
    }


def measure_setup(workload: str, seed: int, probe: speed.Probe) -> tuple[list, list]:
    """Fresh interpreters importing ixysense.cli and making the task list.

    Returns their (start, end) spans and the probes around them.
    """
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import ixysense.cli, workloads; "
            f"workloads.generate({workload!r}, {seed}, {SETUP_ROUNDS})")
    spans, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(probe())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        spans.append((start, time.perf_counter()))
    probes.append(probe())
    return spans, probes


def load_reference(workload: str, seed: int) -> list[dict] | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return data["tasks"] if data["seed"] == seed else None


def execute(cli, task: workloads.Task, out_dir: Path, summarize: bool) -> TaskResult:
    """Run one task, time the CLI call alone, then check its outputs."""
    argv = task.argv(str(out_dir))
    gc.collect()
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a traceback is a failed task, not a failed run
        status = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start

    written, worst, summary = 0, 0.0, {}
    if status != 0:
        error = f"exit {status}: {sink.getvalue().strip()[-300:]}"
    else:
        try:
            checks.check_outputs(out_dir)
            if task.experiment == "oracle-check":
                worst = checks.worst_rel_diff(out_dir)
            if summarize:
                summary = checks.summarize(task.experiment, out_dir, task.config())
        except (checks.OutputError, OSError, ValueError, KeyError, IndexError) as exc:
            error = f"bad output: {type(exc).__name__}: {exc}"
    if out_dir.exists():
        written = sum(f.stat().st_size for f in out_dir.iterdir())
        shutil.rmtree(out_dir)
    return TaskResult(task, start, latency, error, written, worst, summary)


def run_loop(cli, batches, work_dir: Path, seconds: float | None,
             reference: list[dict] | None,
             probe: speed.Probe) -> tuple[list[TaskResult], list[tuple[float, float]]]:
    """Whole rounds until `seconds` of wall time have passed (all if None).

    Returns the results and the probes, (midpoint, wall time) pairs: one
    before each task and one after the last.
    """
    results: list[TaskResult] = []
    probes: list[tuple[float, float]] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    n_ref = 0 if reference is None else len(reference)
    for batch in batches:
        for task in batch:
            i = len(results)
            probes.append(probe())
            results.append(execute(cli, task, work_dir / f"t{i:05d}", summarize=i < n_ref))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    probes.append(probe())
    return results, probes


def reference_problems(results: list[TaskResult], reference: list[dict] | None) -> list[str]:
    problems = []
    if reference is None:
        return problems
    for i, res in enumerate(results[:len(reference)]):
        ref = reference[i]
        if res.task.argv("-") != ref["argv"]:
            problems.append(f"task {i}: generated task differs from the reference task")
            continue
        if res.error is None:
            expected = {k: tuple(v) for k, v in ref["values"].items()}
            problems += [f"task {i} ({res.task.experiment}): {p}"
                         for p in checks.compare(res.summary, expected)]
    return problems


def latency_groups(results: list[TaskResult], scaled: list[float]) -> dict:
    groups: dict[str, list[float]] = {}
    for res, latency in zip(results, scaled):
        groups.setdefault(res.task.kind, []).append(latency)
    return {kind: {"n": len(v), "median_s": statistics.median(v)}
            for kind, v in sorted(groups.items())}


def scaled_latencies(results: list[TaskResult], probes, probe: speed.Probe) -> list[float]:
    return probe.scaled([(r.start, r.start + r.latency) for r in results], probes)


def latency_metrics(results: list[TaskResult], latencies: list[float]) -> dict:
    """Throughput and latency percentiles over one run's tasks."""
    done = sum(r.task.work for r in results if r.error is None)
    return {"work_per_s": done / sum(latencies),
            "task_p50_s": statistics.median(latencies),
            "task_p90_s": statistics.quantiles(latencies, n=10)[8]}


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    work_dir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        probe = speed.Probe(workload)
        for _ in range(3):  # also pays the probe's first-call costs
            probe()
        # The seed's first task is also run once untimed: the first
        # full-size task in a process runs about 1.25x slower (dyn-bulk).
        first = next(workloads.rounds(workload, seed))[0]
        run_loop(cli, [workloads.warmup_tasks() + [first]], work_dir / "warmup", None, None,
                 probe)
        run = run_traced if trace else run_untraced
        record = run(cli, workload, seed, seconds, work_dir, probe)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record.update({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": int(trace), "environment": env,
                   "work_unit": workloads.WORK_UNIT[workload]})
    write_results(record)
    return record


def _common(results: list[TaskResult], problems: list[str]) -> dict:
    failures = [f"task {i} ({r.task.experiment}): {r.error}"
                for i, r in enumerate(results) if r.error]
    return {
        "attempted": len(results),
        "failed": len(failures),
        "fail_frac": len(failures) / len(results),
        "failures": failures,
        "reference_problems": problems,
        "correct": not failures and not problems,
    }


def run_untraced(cli, workload, seed, seconds, work_dir, probe) -> dict:
    setup_spans, setup_probes = measure_setup(workload, seed, probe)
    setup = [end - start for start, end in setup_spans]
    reference = load_reference(workload, seed)
    results, probes = run_loop(cli, workloads.rounds(workload, seed), work_dir, seconds,
                               reference, probe)
    raw = [r.latency for r in results]
    scaled = scaled_latencies(results, probes, probe)
    record = _common(results, reference_problems(results, reference))
    record["reference_checked"] = min(len(reference or []), len(results))
    record["metrics"] = {
        "setup_s": statistics.median(probe.scaled(setup_spans, setup_probes)),
        **latency_metrics(results, scaled),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record["wall_clock"] = {"setup_s": statistics.median(setup),
                            **latency_metrics(results, raw)}
    record["probe_s"] = {"mean": statistics.fmean(s for _, s in probes), "ref": probe.ref_s,
                         "samples": [s for _, s in probes],
                         "setup_samples": [s for _, s in setup_probes]}
    record["task_starts_s"] = [r.start - probes[0][0] for r in results]
    record["probe_midpoints_s"] = [at - probes[0][0] for at, _ in probes]
    record["setup_samples_s"] = setup
    record["latency_samples"] = len(raw)
    record["latencies_s"] = raw
    record["latency_by_kind"] = latency_groups(results, scaled)
    return record


def run_traced(cli, workload, seed, seconds, work_dir, probe) -> dict:
    from tracing import Tracer

    # The warm-up tasks head both passes, so every layer is measured even
    # on a workload that does not use it.
    warmup = workloads.warmup_tasks()
    plain, plain_probes = run_loop(
        cli, itertools.chain([warmup], workloads.rounds(workload, seed)),
        work_dir, seconds / 2, None, probe)
    replay = [[r.task for r in plain]]
    with Tracer() as tracer:
        traced, traced_probes = run_loop(cli, replay, work_dir, None, None, probe)
    # Both passes at the reference host speed, so that drift between
    # them does not read as tracing overhead.
    plain_s = sum(scaled_latencies(plain, plain_probes, probe))
    traced_s = sum(scaled_latencies(traced, traced_probes, probe))
    layers = tracer.layer_table()
    layers["dense.worst_rel_diff"] = max((r.worst_rel_diff for r in traced), default=0.0)
    layers["cli.bytes_written"] = sum(r.bytes_written for r in traced)
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    record = _common(plain + traced, [])
    record["metrics"] = layers
    record["missing_layers"] = tracer.missing
    record["untraced_s"] = plain_s
    record["traced_s"] = traced_s
    return record


def write_results(record: dict) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}"
    suffix = "layers" if record["trace"] else "e2e"
    (results / f"{stem}-{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")
    if record["trace"]:
        (results / f"{stem}-layers.txt").write_text(layer_text(record))


def layer_text(record: dict) -> str:
    lines = [f"per-layer table: {record['workload']} seed {record['seed']}, "
             f"{record['attempted'] // 2} tasks traced "
             f"({record['traced_s']:.3f} s traced vs {record['untraced_s']:.3f} s untraced, "
             f"at the reference host speed)"]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:<50} {value:>16.6g} {UNITS[name]}")
    if record["missing_layers"]:
        lines.append(f"  layers not found: {', '.join(record['missing_layers'])}")
    return "\n".join(lines) + "\n"


def report(record: dict) -> None:
    head = (f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
            f"{record['attempted']} tasks, {record['failed']} failed "
            f"(fail_frac {record['fail_frac']:.4g}), correct {record['correct']}")
    print(head)
    for line in record["failures"][:10] + record["reference_problems"][:10]:
        print(f"  ! {line}")
    if record["trace"]:
        print(layer_text(record), end="")
    else:
        unit = record["work_unit"]
        for name, value in record["metrics"].items():
            shown = f"{unit}/s" if name == "work_per_s" else UNITS[name]
            print(f"  {name:<14} {value:>14.6g} {shown}")
        wall = record["wall_clock"]
        print("  wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items())
              + f"; probe mean {record['probe_s']['mean'] * 1e3:.3f} ms "
              f"(ref {record['probe_s']['ref'] * 1e3:g} ms)")
        print(f"  latency samples {record['latency_samples']}; by kind: "
              + ", ".join(f"{k} n={v['n']} p50={v['median_s']:.4g}s"
                          for k, v in record["latency_by_kind"].items()))
    env = record["environment"]
    print(f"  env: nproc {env['nproc']}, RAM {env['ram_mib']} MiB, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS {env['blas'].get('version')} "
          f"pinned to {env['blas_threads']['OPENBLAS_NUM_THREADS']} thread, "
          f"--threads {env['cli_threads']}")


def result_line(record: dict) -> str:
    kind = "per_layer" if record["trace"] else "end_to_end"
    declared = [m["name"] for m in SPEC[kind]]
    if sorted(record["metrics"]) != sorted(declared):
        raise BenchError(f"metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(record['metrics']) ^ set(declared))}")
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in record["metrics"].items()}})


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in a fresh process.

    A fresh process per run keeps each peak RSS its own.  The last line
    merges the runs, with metric names prefixed by the workload.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = run_workload(cli, args.workload, args.seed, args.seconds,
                          bool(args.trace), environment())
    report(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
