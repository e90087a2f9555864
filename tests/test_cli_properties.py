"""Property test of the exit-code and determinism contract of the CLI.

For configs drawn per experiment over small chains, from exactly the keys
that experiment declares in `cli.EXPERIMENTS`: the exit code is 0, 2 or
3; exit 0 leaves only finite numbers in every CSV and fits.json; and
--threads 1 and --threads 2 write byte-identical files.  A config with
one wrong-typed value, or a fitted N_list of fewer than three distinct
sizes, exits 2 and writes nothing.  Draws are derandomized and no example
database is kept, so every run tries the same configs and leaves no
.hypothesis directory behind.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ixysense.cli import EXPERIMENTS, main


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def _lists(elements, max_size=3):
    return st.lists(elements, min_size=1, max_size=max_size)


def _sizes(*choices):
    return st.lists(st.sampled_from(choices), min_size=3, max_size=4, unique=True)


# Key -> strategy for its value.  Every key an experiment declares must
# have one, here or in PER_EXPERIMENT.
KEYS = {
    "N": st.sampled_from([4, 6, 8, 16, 32]),
    "Z": st.integers(1, 3),
    "alpha": _floats(0.0, 3.0),
    "gamma": _floats(-1.5, 1.5),
    "h": _floats(-3.0, 3.0),
    "anisotropy": st.sampled_from(["non-hermitian", "hermitian"]),
    "theta": st.sampled_from(["h", "gamma"]),
    "t_min": _floats(0.0, 5.0),
    "t_max": _floats(0.0, 2000.0),
    "t_points": st.integers(1, 30),
    "t_spacing": st.sampled_from(["log", "linear"]),
    "transient_window": st.sampled_from([[0.02, 1.0], [0.0, 1.0], [1.0, 0.5]]),
    "transient_points": st.integers(2, 12),
    "longtime_window": st.sampled_from([[200.0, 1000.0], [5.0, 50.0]]),
    "longtime_points": st.integers(2, 12),
    "t_eval": _floats(0.0, 500.0),
    "anchor": st.sampled_from(["critical-point", "exceptional-point"]),
    "dh_list": _lists(_floats(-0.5, 0.1), 2),
    "t0": _floats(0.0, 60.0),
    "t1": _floats(40.0, 100.0),
    "n_grid": st.integers(1, 30),
    "gamma_list": _lists(_floats(-1.0, 1.0), 1),
    "h_list": _lists(_floats(-2.0, 1.0), 1),
    "t_list": _lists(_floats(0.0, 3.0), 2),
    "theta_list": _lists(st.sampled_from(["h", "gamma"]), 2),
    "rel_tol": st.sampled_from([1e-8, 1e-30]),
}
PER_EXPERIMENT = {
    "ep-table": {"Z_list": _lists(st.integers(1, 3), 2),
                 "alpha_list": _lists(_floats(0.0, 2.5), 2)},
    "qfi-dynamics": {"Z_list": st.none() | _lists(st.integers(1, 3), 2)},
    "size-scaling": {"N_list": _sizes(8, 16, 32, 64)},
    "stationary-scaling": {"N_list": _sizes(16, 32, 64, 128)},
    "oracle-check": {"N_list": _lists(st.sampled_from([4, 6]), 2),
                     "Z_list": _lists(st.integers(1, 2), 2),
                     "alpha_list": _lists(_floats(0.0, 3.0), 1)},
}
# Keys drawn in every config, because their defaults bound the run's cost.
ALWAYS = {"N", "N_list", "Z_list", "alpha_list", "gamma_list", "h_list", "t_list",
          "t_points", "transient_points", "longtime_points", "dh_list", "t0", "t1",
          "n_grid"}
FITTED = {"size-scaling", "stationary-scaling"}

# Invalid or extreme values of valid type: any of exit 0, 2 or 3.
EXTREMES = [
    {"gamma": math.nan}, {"gamma": -math.inf}, {"h": math.nan}, {"h": 1e155},
    {"h": 1e200}, {"h": 1e300}, {"alpha": -0.5}, {"Z": 99}, {"anisotropy": "bogus"},
    {"t_list": [1e300]}, {"t_max": 1.7e308}, {"t1": 1.7e308},
]


def _wrong_values(default) -> list:
    """Values of the wrong type for a key with this default."""
    wrong = ["bogus", {}]
    if isinstance(default, list):
        wrong += [5, None, []]  # a scalar for a list, null, an empty list
        if isinstance(default[0], int):
            wrong.append([1.7])
    elif default is not None:
        wrong += [[default], None]  # a list for a scalar, null
        if isinstance(default, (int, str)):
            wrong.append(1.7)
    return wrong


def _edges(experiment):
    """(overrides, must exit 2) pairs, none in about half the configs."""
    keys = EXPERIMENTS[experiment][0]
    extremes = [e for e in EXTREMES if set(e) <= set(keys)]
    wrong = [({key: value}, True) for key, (default, _) in keys.items()
             for value in _wrong_values(default)]
    edges = st.sampled_from([(e, False) for e in extremes] or [({}, False)])
    edges |= st.sampled_from(wrong)
    if experiment in FITTED:
        short = st.lists(st.sampled_from([16, 32]), min_size=1, max_size=4)
        edges |= short.map(lambda sizes: ({"N_list": sizes}, True))
    return st.just(({}, False)) | st.just(({}, False)) | edges


def _configs(experiment):
    keys = EXPERIMENTS[experiment][0]
    known = {**KEYS, **PER_EXPERIMENT.get(experiment, {})}
    strategies = {key: known[key] for key in keys}
    base = st.fixed_dictionaries(
        {k: s for k, s in strategies.items() if k in ALWAYS},
        optional={k: s for k, s in strategies.items() if k not in ALWAYS})
    return st.tuples(base, _edges(experiment)).map(
        lambda pair: ({**pair[0], **pair[1][0]}, pair[1][1]))


def _assert_finite_numbers(path: Path):
    if path.suffix == ".json":
        fields = []
        for record in json.loads(path.read_text())["fits"]:
            for value in record.values():
                fields.extend(value if isinstance(value, list) else [value])
    else:
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        fields = [f for ln in lines[1:] for f in ln.split(",")]
    for field in fields:
        try:
            value = float(field)
        except (TypeError, ValueError):
            continue  # a label: theta name, "mean" row, fit group
        assert math.isfinite(value), f"{path.name}: {field}"


@pytest.fixture(autouse=True, scope="module")
def _hypothesis_home(tmp_path_factory):
    # Hypothesis caches the constants of local source files in its home
    # directory, ./.hypothesis by default; keep that out of the tree
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
    yield
    set_hypothesis_home_dir(None)


def test_every_strategy_names_a_declared_key():
    declared = {key for keys, _ in EXPERIMENTS.values() for key in keys}
    assert set(KEYS) <= declared
    for experiment, keys in PER_EXPERIMENT.items():
        assert set(keys) <= set(EXPERIMENTS[experiment][0])


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_exit_codes_finite_outputs_and_thread_determinism(experiment):
    @settings(max_examples=30, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_configs(experiment))
    def check(drawn):
        cfg, must_reject = drawn
        sets = [arg for key, value in cfg.items()
                for arg in ("--set", f"{key}={json.dumps(value)}")]
        with tempfile.TemporaryDirectory() as tmp:
            out = {t: Path(tmp) / f"threads{t}" for t in (1, 2)}
            codes = {t: main([experiment, *sets, "--out", str(out[t]),
                              "--threads", str(t)]) for t in (1, 2)}
            assert codes[1] == codes[2] and codes[1] in (0, 2, 3)
            if must_reject:
                assert codes[1] == 2 and not out[1].exists(), cfg
            files = sorted(p.name for p in out[1].glob("*")
                           if p.suffix == ".csv" or p.name == "fits.json")
            assert files == sorted(p.name for p in out[2].glob("*")
                                   if p.suffix == ".csv" or p.name == "fits.json")
            for name in files:
                if codes[1] == 0:
                    _assert_finite_numbers(out[1] / name)
                assert (out[1] / name).read_bytes() == (out[2] / name).read_bytes()

    check()
