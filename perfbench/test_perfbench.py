"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROUNDS = {"dyn-bulk": 20, "experiment-mix": 10, "dense-oracle": 20}


def _tasks(workload: str, seed: int) -> list[workloads.Task]:
    return [t for batch in workloads.generate(workload, seed, ROUNDS[workload])
            for t in batch]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_task_list(workload):
    first = [t.argv("out") for t in _tasks(workload, 7)]
    second = [t.argv("out") for t in _tasks(workload, 7)]
    assert first == second


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_different_task_list(workload):
    assert ([t.argv("out") for t in _tasks(workload, 7)]
            != [t.argv("out") for t in _tasks(workload, 8)])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_composition_across_seeds(workload):
    def kinds(seed):
        return [sorted((t.experiment, t.kind) for t in batch)
                for batch in workloads.generate(workload, seed, 4)]
    assert kinds(1) == kinds(2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_sizes_respect_the_memory_cap(workload):
    for seed in range(3):
        for task in _tasks(workload, seed):
            assert workloads.peak_bytes_estimate(task) <= workloads.MEMORY_CAP_BYTES
            cfg = task.config()
            for n, z in itertools.product(cfg.get("N_list", [cfg.get("N", 1024)]),
                                          cfg.get("Z_list", [cfg.get("Z", 1)])):
                assert 1 <= z <= n // 2


def test_largest_dyn_bulk_task_is_n65536_within_the_cap():
    biggest = max(_tasks("dyn-bulk", 0), key=workloads.peak_bytes_estimate)
    assert biggest.config()["N"] == 65536
    assert workloads.peak_bytes_estimate(biggest) < workloads.MEMORY_CAP_BYTES


@pytest.fixture
def tracer():
    import ixysense.cli  # noqa: F401  (loads every ixysense module)

    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_wrapped_function_returns_the_unwrapped_value(tracer):
    import ixysense
    from ixysense import metrology
    from ixysense.model import ModelParams, ThetaKind

    params = ModelParams(N=64, Z=3, alpha=1.2, gamma=0.4, h=-0.9)
    wrapped = metrology.qfi_curve(params, [0.5, 2.0], ThetaKind.FIELD_H)
    original = metrology.qfi_curve.__wrapped__(params, [0.5, 2.0], ThetaKind.FIELD_H)
    assert np.array_equal(wrapped, original)
    assert ixysense.qfi_curve is metrology.qfi_curve
    assert metrology.qfi_curve is not metrology.qfi_curve.__wrapped__


def test_every_module_binding_is_wrapped_and_restored():
    import ixysense
    from ixysense import analysis, blocks, metrology

    originals = (blocks.block_arrays, metrology.block_arrays, analysis.qfi_curve,
                 ixysense.qfi_curve)
    with tracing.Tracer() as t:
        assert not t.missing
        assert metrology.block_arrays is blocks.block_arrays
        assert blocks.block_arrays is not originals[0]
        assert analysis.qfi_curve is metrology.qfi_curve is ixysense.qfi_curve
    assert (blocks.block_arrays, metrology.block_arrays, analysis.qfi_curve,
            ixysense.qfi_curve) == originals


def test_spans_nest_and_count_work(tracer):
    from ixysense.metrology import stationary_qfi
    from ixysense.model import ModelParams, ThetaKind

    stationary_qfi(ModelParams(N=32, Z=2, alpha=1.0, gamma=0.3, h=-1.5),
                   ThetaKind.FIELD_H)
    table = tracer.layer_table()
    assert table["metrology.stationary_qfi.calls"] == 1
    assert table["metrology.stationary_qfi.block_arrays_per_call"] == 5
    assert table["blocks.block_arrays.modes"] == 5 * 16
    assert table["model.momentum_coupling.terms"] == 5 * 2 * 16
    stats = tracer.layer_stats()
    for entry in stats.values():
        assert 0.0 <= entry["self_s"] <= entry["total_s"] + 1e-9


def test_checks_reject_non_finite_and_negative_qfi(tmp_path):
    (tmp_path / "manifest.json").write_text(
        '{"outputs": ["a.csv"], "config": {}}')
    (tmp_path / "a.csv").write_text("# preamble\nt,qfi\n1.0,2.0\n")
    checks.check_outputs(tmp_path)
    for bad in ("1.0,nan\n", "1.0,-0.5\n", "inf,1.0\n"):
        (tmp_path / "a.csv").write_text("t,qfi\n" + bad)
        with pytest.raises(checks.OutputError):
            checks.check_outputs(tmp_path)


def test_compare_uses_the_tolerance_of_each_kind():
    ref = {"q": ("qfi_dyn", 2.0), "h": ("h_e", -1.0)}
    assert checks.compare({"q": ("qfi_dyn", 2.0 * (1 + 1e-9)),
                           "h": ("h_e", -1.0 + 1e-9)}, ref) == []
    assert len(checks.compare({"q": ("qfi_dyn", 2.0 * (1 + 1e-5)),
                               "h": ("h_e", -1.0 + 1e-6)}, ref)) == 2


def test_layer_table_covers_the_declared_per_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    added_by_runner = {"dense.worst_rel_diff", "cli.bytes_written", "trace.overhead_frac"}
    assert set(tracing.Tracer().layer_table()) | added_by_runner == declared



def test_probe_scaling_follows_the_host_speed_around_each_span():
    probe = speed.Probe("experiment-mix")
    ref = probe.ref_s
    # Probes at t = 0, 2, 4, 6 and 16; the host runs at half speed from t = 3.
    probes = [(0.0, ref), (2.0, ref), (4.0, 2 * ref), (6.0, 2 * ref), (16.0, 2 * ref)]
    spans = [(0.5, 1.5), (2.5, 3.5), (4.5, 5.5), (6.5, 15.5)]
    # A short span takes the probes beside it; the long last one also
    # takes every probe within its own length.
    expected = [1.0, 1.0 / 1.5, 0.5, 9.0 / 1.6]  # the last: all five, mean 1.6 ref
    assert probe.scaled(spans, probes) == pytest.approx(expected)
    with pytest.raises(ValueError):
        probe.scaled(spans, probes[:-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_has_a_probe(workload):
    _, seconds = speed.Probe(workload)()
    assert seconds > 0.0
