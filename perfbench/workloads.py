"""Seeded task lists for the three benchmark workloads.

A task is one `ixysense <experiment>` invocation, given to the program
only as `--set key=value` overrides.  Tasks come in rounds: a round has
a fixed composition (experiment kinds and size strata), and the seed
draws every parameter inside that composition and the order within the
round.  A run executes whole rounds, so every run holds the same mix of
task kinds whatever the seed, and seeds differ only in the values drawn.

This module imports neither numpy nor ixysense, so generating a task
list costs the same on every commit.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

WORKLOADS = ("dyn-bulk", "experiment-mix", "dense-oracle")

# Largest peak footprint any generated task may need.  The dynamics
# kernel holds about 128 B per mode x time cell (ROADMAP baseline);
# the estimate below rounds that up.
MEMORY_CAP_BYTES = 2 * 1024 ** 3
BYTES_PER_DYN_CELL = 160
# Dense oracle: a 2^N x 2^N complex matrix is held about a dozen times
# over during expm (operand, Pade terms, squarings).
DENSE_MATRIX_COPIES = 12

# Work units per workload, reported with work_per_s.
WORK_UNIT = {"dyn-bulk": "cells", "experiment-mix": "tasks",
             "dense-oracle": "cells"}


@dataclass(frozen=True)
class Task:
    """One experiment invocation and the work it stands for."""

    experiment: str
    sets: tuple  # ((key, value), ...), in the order passed to the CLI
    kind: str    # stratum label, used to group latencies in reports
    work: float  # in WORK_UNIT of the workload

    def argv(self, out_dir: str) -> list[str]:
        args = [self.experiment]
        for key, value in self.sets:
            args += ["--set", f"{key}={json.dumps(value)}"]
        return args + ["--threads", "1", "--out", out_dir]

    def config(self) -> dict:
        return dict(self.sets)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


class _Deck:
    """Draws from a list without replacement, reshuffling when empty.

    Used to stratify discrete choices: over any len(items) consecutive
    draws every item appears once.
    """

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.items)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


# --- dyn-bulk --------------------------------------------------------------

DYN_SIZES = (16384, 32768, 65536)
DYN_T_POINTS = 300


def _dyn_bulk_rounds(rng: random.Random):
    decks = {n: _Deck(rng, itertools.product(("broken", "unbroken"),
                                             ("h", "gamma")))
             for n in DYN_SIZES}
    while True:
        tasks = []
        for n in DYN_SIZES:
            side, theta = decks[n].draw()
            # Unbroken: |h| - 1 > gamma >= |gamma Im J| keeps every block
            # real.  Broken: just inside the dome above h = -1, where the
            # modes near phi = 0 go complex for every Z <= 16 drawn here.
            h = _u(rng, -2.6, -1.7) if side == "unbroken" else _u(rng, -0.95, -0.75)
            sets = (("N", n), ("Z", rng.randint(1, 16)),
                    ("alpha", _u(rng, 0.5, 2.5)), ("gamma", _u(rng, 0.2, 0.6)),
                    ("h", h), ("theta", theta), ("t_points", DYN_T_POINTS))
            tasks.append(Task("qfi-dynamics", sets, f"N={n}",
                              work=(n // 2) * DYN_T_POINTS))
        rng.shuffle(tasks)
        yield tasks


# --- experiment-mix --------------------------------------------------------

def _model_sets(rng: random.Random):
    """Model overrides for a default-size (N=1024) run; Z <= 64 fits N=128."""
    return (("Z", rng.randint(1, 64)), ("alpha", _u(rng, 0.5, 2.5)),
            ("gamma", _u(rng, 0.1, 0.6)), ("h", _u(rng, -2.5, -0.3)),
            ("theta", rng.choice(("h", "gamma"))))


def _short_tasks(rng: random.Random) -> list[Task]:
    """One of each short default-size experiment.

    exceptional-point and qfi-dynamics cost about the same, and the
    round's median latency falls between them, so they are kept alike.
    """
    ep_sets = (("Z", rng.randint(1, 8)), ("alpha", _u(rng, 0.5, 2.0)),
               ("gamma", 0.5))
    dyn_sets = _model_sets(rng)[1:] + (("Z_list", [rng.randint(1, 64)]),)
    return [
        Task("exceptional-point", ep_sets, "short", 1),
        Task("time-scaling", _model_sets(rng), "short", 1),
        Task("size-scaling", _model_sets(rng)
             + (("t_eval", _u(rng, 50.0, 400.0)),), "short", 1),
        Task("ratio", _model_sets(rng), "short", 1),
        Task("qfi-dynamics", dyn_sets, "short", 1),
    ]


# The heavy tasks of a round: stationary sweeps as (Z range, N list,
# number of dh offsets) and dispersions as (Z range, N).  Sizes are fixed
# per slot and Z moves only inside a narrow range, so every round costs
# about the same.  J(phi) costs O(Z N) and the
# stationary stencil recomputes it at 5 points, so Z sets their cost.
#
# The six heavy tasks form a cost ladder, so that p90 falls inside one
# slot whatever the number of rounds a run completes.  p90 is 2.6 tasks
# from the top of each 26-task round: the two stationary sweeps (about
# 1-1.5 s) are above it, the two (N=16384, Z near 1024) dispersions
# (about 0.55 s) hold it, and the N=32768 dispersion and the ep-table
# (under 0.4 s) are below it.
STATIONARY_SLOTS = (
    ((1, 8), [1024, 2048, 4096, 8192], 5),  # default sizes, all 5 offsets
    ((448, 512), [1024, 2048, 4096], 2),    # long range, two offsets
)
STATIONARY_DH = (0.0, -1e-4, -1e-3, -1e-2, -1e-1)
DISPERSION_SLOTS = (((960, 1024), 16384), ((960, 1024), 16384), ((2, 8), 32768))


def _heavy_tasks(rng: random.Random, anchors: _Deck) -> list[Task]:
    tasks = []
    for (z_lo, z_hi), n_list, n_dh in STATIONARY_SLOTS:
        sets = (("Z", rng.randint(z_lo, z_hi)), ("alpha", _u(rng, 0.5, 2.0)),
                ("gamma", _u(rng, 0.3, 0.6)), ("theta", rng.choice(("h", "gamma"))),
                ("anchor", anchors.draw()), ("N_list", n_list),
                ("dh_list", sorted(rng.sample(STATIONARY_DH, n_dh), reverse=True)))
        tasks.append(Task("stationary-scaling", sets, "heavy", 1))
    for (z_lo, z_hi), n in DISPERSION_SLOTS:
        sets = (("N", n), ("Z", rng.randint(z_lo, z_hi)),
                ("alpha", _u(rng, 0.5, 2.5)), ("gamma", _u(rng, 0.1, 0.6)),
                ("h", _u(rng, -2.5, -0.3)))
        tasks.append(Task("dispersion", sets, "heavy", 1))
    sets = (("gamma", 0.5),
            ("Z_list", sorted(rng.sample(range(1, 9), 2))),
            ("alpha_list", sorted(_u(rng, 0.5, 2.0) for _ in range(3))))
    tasks.append(Task("ep-table", sets, "heavy", 1))
    return tasks


def _experiment_mix_rounds(rng: random.Random):
    anchors = _Deck(rng, ("critical-point", "exceptional-point"))
    while True:
        tasks = []
        for _ in range(4):
            tasks += _short_tasks(rng)
        tasks += _heavy_tasks(rng, anchors)
        rng.shuffle(tasks)
        yield tasks


# --- dense-oracle ----------------------------------------------------------

# Cells per round at each size; N = 10 is one cell in nine but most of
# the time, because expm on 1024 x 1024 dominates there.  With nine
# cells a round, p90 falls on the N = 10 cells and the median in the
# middle of the N = 6 cells.
DENSE_ROUND = ((4, 2), (6, 4), (8, 2), (10, 1))
# Z decks per N.  A cell's cost grows with Z, so the N = 6 cells, which
# hold the median, all take Z = 2.  At N = 10 the six 1024 x 1024 expm
# calls set the cell's cost, and their scaling-and-squaring depth
# follows |H| t, so those cells take Z = 2 and keep t near 1 and h in a
# narrow band.  The N = 4 and N = 8 cells cover every Z up to N / 2 and
# the wide parameter ranges.
DENSE_Z_DECK = {4: (1, 2), 6: (2,), 8: (1, 2, 3, 4), 10: (2,)}


def _dense_oracle_rounds(rng: random.Random):
    z_decks = {n: _Deck(rng, zs) for n, zs in DENSE_Z_DECK.items()}
    while True:
        tasks = []
        for n, count in DENSE_ROUND:
            for _ in range(count):
                if n == 10:
                    h, t = _u(rng, -1.0, -0.5), _u(rng, 0.9, 1.1)
                else:
                    h, t = _u(rng, -2.0, 0.5), _u(rng, 0.2, 2.0)
                sets = (("N_list", [n]), ("Z_list", [z_decks[n].draw()]),
                        ("alpha_list", [_u(rng, 0.0, 3.0)]),
                        ("gamma_list", [_u(rng, 0.0, 0.6)]),
                        ("h_list", [h]), ("t_list", [t]),
                        ("theta_list", [rng.choice(("h", "gamma"))]))
                tasks.append(Task("oracle-check", sets, f"N={n}", work=1))
        rng.shuffle(tasks)
        yield tasks


_ROUNDS = {"dyn-bulk": _dyn_bulk_rounds,
           "experiment-mix": _experiment_mix_rounds,
           "dense-oracle": _dense_oracle_rounds}


def peak_bytes_estimate(task: Task) -> int:
    """Upper estimate of a task's peak working memory."""
    cfg = task.config()
    if task.experiment == "qfi-dynamics":
        return cfg.get("N", 1024) // 2 * cfg.get("t_points", 300) * BYTES_PER_DYN_CELL
    if task.experiment == "oracle-check":
        dim = 2 ** max(cfg["N_list"])
        return dim * dim * 16 * DENSE_MATRIX_COPIES
    if task.experiment == "ratio":
        return cfg.get("N", 1024) // 2 * 801 * BYTES_PER_DYN_CELL
    # Everything else holds O(N) arrays and records of at most 32768 modes.
    n = max(cfg.get("N_list", [cfg.get("N", 1024)]))
    return n * 1024


def rounds(workload: str, seed: int):
    """Endless iterator over the rounds of one workload's task list."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    for batch in _ROUNDS[workload](rng):
        for task in batch:
            if peak_bytes_estimate(task) > MEMORY_CAP_BYTES:
                raise ValueError(f"task exceeds the memory cap: {task}")
        yield batch


def generate(workload: str, seed: int, n_rounds: int) -> list[list[Task]]:
    """The first n_rounds rounds of a workload's task list."""
    return list(itertools.islice(rounds(workload, seed), n_rounds))


def warmup_tasks() -> list[Task]:
    """One tiny task per experiment, untimed, reaching every traced layer.

    Runs before every timed loop so that lazy imports and first-call
    costs are paid, and heads the traced replay so that every layer of
    the per-layer table is measured on every workload.
    """
    tiny = (("N", 64), ("Z", 2))
    return [Task(experiment, sets, "warmup", 0) for experiment, sets in (
        ("dispersion", tiny),
        ("exceptional-point", ()),
        ("ep-table", (("Z_list", [1]), ("alpha_list", [1.0]))),
        ("qfi-dynamics", tiny + (("t_points", 10),)),
        ("time-scaling", tiny),
        ("size-scaling", (("N_list", [64, 128, 256]),)),
        ("stationary-scaling", (("N_list", [64, 128, 256]), ("dh_list", [-0.01]))),
        ("ratio", tiny + (("n_grid", 11),)),
        ("oracle-check", (("N_list", [4]), ("Z_list", [1]), ("gamma_list", [0.3]),
                          ("h_list", [-0.7]), ("t_list", [1.0]), ("theta_list", ["h"]))),
    )]
