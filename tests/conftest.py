"""Fixtures shared by the test modules."""

import os

import pytest

from ixysense import analysis


@pytest.fixture
def two_cpu_pools(monkeypatch):
    """Two usable CPUs for run_cells, and the worker count of each pool it starts.

    run_cells caps its pool at the usable CPUs, so on a one-CPU host a
    --threads test would run its cells in order and check nothing about
    threads; under this fixture threads >= 2 start a real 2-worker pool.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pools, pool = [], analysis.ThreadPoolExecutor

    def recorded(max_workers):
        pools.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", recorded)
    return pools
