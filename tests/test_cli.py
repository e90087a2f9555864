"""Experiment runner: config resolution, output contracts, determinism, exits."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ixysense
from ixysense import dense, dynamics
from ixysense.analysis import STATIONARY_N_LIST, ScalingAnchor
from ixysense.blocks import TOL_PHASE, block_arrays, build_blocks, classify_phase
from ixysense.cli import EXPERIMENTS, RunWriter, build_parser, main, resolve_config
from ixysense.errors import ConfigError
from ixysense.model import ModelParams, ThetaKind, grid_coupling


def _read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            comments.append(line)
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return comments, header, rows


def _args(override):
    """Each space-separated value of override as a --set value, or, where
    it starts with --, as a flag of its own (--threads=0)."""
    return [arg for value in override.split()
            for arg in ([value] if value.startswith("--") else ["--set", value])]


def test_resolve_config_layering(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"N": 64, "gamma": 0.5}))
    cfg = resolve_config("dispersion", str(cfg_file), ["gamma=0.25", "Z=2"])
    assert cfg["N"] == 64          # from file
    assert cfg["gamma"] == 0.25    # --set beats file
    assert cfg["Z"] == 2
    assert cfg["alpha"] == 1.5     # default survives
    assert cfg["experiment"] == "dispersion"


def test_resolve_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        resolve_config("dispersion", None, ["bogus=1"])


def test_resolve_config_parses_declared_types():
    cfg = resolve_config("stationary-scaling", None, [
        "Z=2.0", "gamma=1", "theta=gamma", "anchor=exceptional-point",
        "N_list=[16,32,64.0]"])
    assert cfg["Z"] == 2 and type(cfg["Z"]) is int
    assert cfg["gamma"] == 1.0 and type(cfg["gamma"]) is float
    assert cfg["theta"] is ThetaKind.ANISOTROPY_GAMMA
    assert cfg["anchor"] is ScalingAnchor.EXCEPTIONAL_POINT
    assert cfg["N_list"] == [16, 32, 64]


@pytest.mark.parametrize("experiment,key", [
    ("dispersion", "theta"), ("exceptional-point", "theta"), ("ep-table", "theta"),
    ("ep-table", "Z"), ("ep-table", "alpha"), ("size-scaling", "N"),
    ("stationary-scaling", "N"), ("oracle-check", "N"), ("oracle-check", "Z"),
    ("oracle-check", "alpha"), ("oracle-check", "gamma"), ("oracle-check", "h"),
    ("oracle-check", "theta"),
])
def test_keys_a_runner_does_not_read_are_rejected(experiment, key):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        resolve_config(experiment, None, [f"{key}=1"])


def test_resolve_config_experiment_mismatch(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"experiment": "ratio"}))
    with pytest.raises(ConfigError):
        resolve_config("dispersion", str(cfg_file), [])


def test_malformed_config_reports_line(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text('{\n  "N": 64,\n  oops\n}\n')
    code = main(["dispersion", "--config", str(cfg_file),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    assert not (tmp_path / "o").exists()


def test_print_config(capsys):
    assert main(["time-scaling", "--print-config", "--set", "N=64"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["N"] == 64
    assert cfg["transient_window"] == [0.02, 1.0]
    assert cfg["longtime_window"] == [200.0, 1000.0]
    assert cfg["experiment"] == "time-scaling"


def test_invalid_model_exits_2(tmp_path, capsys):
    assert main(["dispersion", "--set", "N=7",
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# Values of the wrong type, each parsed against its key's declared type.
TYPE_ERRORS = [
    ("qfi-dynamics", "Z_list=5"),
    ("qfi-dynamics", "t_points=[3]"),
    ("size-scaling", "t_eval=[1]"),
    ("ratio", "n_grid={}"),
    ("time-scaling", "transient_points=[2]"),
    ("oracle-check", "rel_tol=[1]"),
    ("qfi-dynamics", "Z_list=[1.7]"),
]

# Values outside a single key's bounds, which its type rejects.
BOUND_ERRORS = [
    ("size-scaling", "t_eval=-1"),
    ("ratio", "t0=-1"),
    ("ratio", "n_grid=1"),
    ("oracle-check", "N_list=[16]"),
    ("oracle-check", "N_list=[4,7]"),
    ("oracle-check", "N_list=[2]"),
    ("qfi-dynamics", "t_min=-1"),
    ("qfi-dynamics", "t_points=1"),
    ("time-scaling", "transient_window=[-1,2]"),
    ("time-scaling", "longtime_window=[1000,200]"),
    ("time-scaling", "transient_points=2"),
    ("dispersion", "alpha=-1.0"),
    ("ep-table", "alpha_list=[-1.0]"),
    ("oracle-check", "alpha_list=[1.5,-1.0]"),
    ("oracle-check", "rel_tol=-1"),
    ("oracle-check", "t_list=[-1]"),
    ("size-scaling", "N_list=[64,128,257]"),
    ("stationary-scaling", "N_list=[64,128,2]"),
]

# Repeated values where each one names its own output file, rejected by
# the runner before its first write.
REPEAT_ERRORS = [
    ("qfi-dynamics", "Z_list=[2,2]"),
    ("qfi-dynamics", "Z_list=[1,3,1,1] N=64"),
    ("stationary-scaling", "dh_list=[0.0,0.0]"),
    ("stationary-scaling", "dh_list=[0.0,-0.0]"),
    ("stationary-scaling", "N_list=[16,32,16,64]"),
    ("size-scaling", "N_list=[16,16,32,64]"),
]

# Flag values outside their bounds, rejected like a key's.
FLAG_ERRORS = [
    ("dispersion", "--threads=0"),
    ("size-scaling", "--threads=-3"),
]

# Keys an experiment does not declare: its runner sets or ignores the
# field h, the stationary stencil step is fixed, the exceptional point
# has a closed form, so no bracket or tolerance steers it, and only the
# non-Hermitian chain has one, so its experiments take no anisotropy.
# ratio compares the two chains, so it takes no anisotropy either.
DROPPED_KEYS = [
    ("exceptional-point", "anisotropy=hermitian"),
    ("ep-table", "anisotropy=hermitian"),
    ("ratio", "anisotropy=hermitian"),
    ("exceptional-point", "h=-0.5"),
    ("ep-table", "h=-0.5"),
    ("stationary-scaling", "h=-0.5"),
    ("exceptional-point", "ep_bracket=[-0.7,-1.2]"),
    ("exceptional-point", "ep_tol=null"),
    ("ep-table", "ep_bracket=[-3,-0.5]"),
    ("ep-table", "ep_tol=1e-9"),
    ("stationary-scaling", "ep_bracket=[-3,-0.5]"),
    ("stationary-scaling", "fd_step=-1"),
    ("stationary-scaling", "fd_step=0"),
    ("stationary-scaling", "fd_step=NaN N_list=[64,128,256]"),
]

# Values that conflict with another key, and the keys the message names.
CROSS_KEY_ERRORS = [
    ("ratio", "t0=5 t1=2", ("t0", "t1")),
    ("qfi-dynamics", "t_min=5 t_max=2", ("t_min", "t_max")),
    ("qfi-dynamics", "t_min=0", ("t_min", "t_spacing")),
    ("ep-table", "N=8 Z_list=[4,5]", ("Z_list", "N")),
    ("qfi-dynamics", "Z_list=[600]", ("Z_list", "N")),
    ("oracle-check", "Z_list=[3]", ("Z_list", "N_list")),
    ("stationary-scaling", "Z=600", ("Z", "N_list")),
    ("size-scaling", "N_list=[6,8,10] Z=4", ("Z", "N_list")),
]


@pytest.mark.parametrize("experiment,override", [
    ("dispersion", "h=NaN"),
    ("dispersion", "gamma=Infinity"),
    ("size-scaling", "t_eval=NaN N_list=[64,128,256]"),
    ("qfi-dynamics", "t_max=Infinity N=64"),
    ("stationary-scaling", "N_list=[1024,2048]"),
    ("size-scaling", "N_list=[64,64,128]"),
    *TYPE_ERRORS,
    *BOUND_ERRORS,
    *REPEAT_ERRORS,
    *FLAG_ERRORS,
    *DROPPED_KEYS,
    *[(experiment, override) for experiment, override, _ in CROSS_KEY_ERRORS],
    ("dispersion", "theta=bogus"),  # dispersion reads no theta
])
def test_rejected_values_exit_2(tmp_path, capsys, experiment, override):
    # non-finite model values and values a runner rejects end in one
    # config-error line, not a traceback or a NaN result, and leave no
    # output directory; override holds one or more space-separated --set
    # values or flags (see _args)
    assert main([experiment, *_args(override), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# Sizes whose arrays need 4 EiB, past any 47-bit address space, so the
# allocation fails whatever the overcommit setting.
HUGE_N = 2 ** 60


@pytest.mark.parametrize("experiment,override", [
    ("dispersion", f"N={HUGE_N}"),
    ("qfi-dynamics", f"N={HUGE_N}"),
    ("size-scaling", f"N_list=[64,128,{HUGE_N}]"),
])
def test_out_of_memory_exits_2(tmp_path, capsys, experiment, override):
    assert main([experiment, *_args(override), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out of memory: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment,override,keys", CROSS_KEY_ERRORS)
def test_cross_key_errors_name_both_keys(tmp_path, capsys, experiment, override, keys):
    assert main([experiment, *_args(override), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {', '.join(keys)}: ")


def test_type_errors_name_the_key_and_write_nothing(tmp_path, capsys):
    for experiment, override in TYPE_ERRORS + BOUND_ERRORS + REPEAT_ERRORS + FLAG_ERRORS:
        key = override.split("=")[0]
        out = tmp_path / experiment
        assert main([experiment, *_args(override), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not out.exists()


@pytest.mark.parametrize("experiment,override", DROPPED_KEYS)
def test_dropped_keys_are_unknown(tmp_path, capsys, experiment, override):
    assert main([experiment, *_args(override), "--out", str(tmp_path / "o")]) == 2
    key = override.split("=")[0]
    assert capsys.readouterr().err == (
        f"config error: unknown config key '{key}' for experiment '{experiment}'\n")


@pytest.mark.parametrize("experiment,override,named", [
    ("qfi-dynamics", "Z_list=[1,3,1]", "Z=1"),
    ("stationary-scaling", "dh_list=[-0.0,0.1,0.0]", "dh=-0.0"),
    ("size-scaling", "N_list=[16,32,16,64]", "N=16"),
])
def test_repeated_entry_is_named(tmp_path, capsys, experiment, override, named):
    # a second Z=1 would overwrite qfi_dynamics_Z1.csv and list it twice, a
    # second dh would write two fits.json groups under one key, and a second
    # N would count one point twice in the power-law fit
    assert main([experiment, "--set", override, "--out", str(tmp_path / "o")]) == 2
    assert f"{named} more than once" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["f.txt", "f.txt/sub"])
def test_unusable_out_exits_2(tmp_path, capsys, out):
    # an --out that is an existing file, or lies under one, ends in one
    # config-error line and leaves the file as it was
    (tmp_path / "f.txt").write_text("keep\n")
    assert main(["dispersion", "--set", "N=16", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert (tmp_path / "f.txt").read_text() == "keep\n"


def test_missing_experiment_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "experiment" in capsys.readouterr().err


def test_unknown_experiment_lists_the_valid_names(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--set", "N=16"])
    assert exc.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert "'bogus'" in message
    assert all(f"'{name}'" in message for name in EXPERIMENTS)


def test_help_names_every_experiment(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in EXPERIMENTS)


def test_options_parse_the_same_before_and_after_the_experiment():
    options = ["--set", "N=16", "--config", "c.json", "--set", "Z=2",
               "--threads", "2", "--print-config", "--out", "d"]
    parser = build_parser()
    after = parser.parse_args(["ratio", *options])
    assert vars(after) == {"experiment": "ratio", "config": "c.json", "out": "d",
                           "set": ["N=16", "Z=2"], "threads": 2,
                           "print_config": True}
    assert parser.parse_args([*options, "ratio"]) == after
    assert parser.parse_args([*options[:4], "ratio", *options[4:]]) == after


def test_parser_is_built_once_and_keeps_no_overrides(capsys):
    # main reuses one parser; each run resolves only its own --set list
    assert build_parser() is build_parser()
    for overrides, want in ((["N=16", "Z=2"], {"N": 16, "Z": 2, "h": -0.7}),
                            (["h=-1.1"], {"N": 1024, "Z": 1, "h": -1.1})):
        assert main(["ratio", "--print-config", *_args(" ".join(overrides))]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert {key: cfg[key] for key in want} == want
    assert build_parser().parse_args(["ratio"]).set == []


def _fresh_python(code):
    """stdout of code run in a new interpreter that imports this ixysense."""
    src = str(Path(ixysense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


# Defines scipy_loaded(): the sorted scipy modules in sys.modules.
_SCIPY_LOADED = ("import sys\n"
                 "def scipy_loaded():\n"
                 "    return sorted(m for m in sys.modules\n"
                 "                  if m == 'scipy' or m.startswith('scipy.'))\n")


def test_cli_import_loads_no_scipy():
    # no scipy module at all: only the dense oracle loads it, on its first call
    code = _SCIPY_LOADED + ("import ixysense; print(scipy_loaded())\n"
                            "import ixysense.cli; print(scipy_loaded())\n")
    assert _fresh_python(code).splitlines() == ["[]", "[]"]


def test_package_root_exports_only_qfi_curve():
    # every other name is imported from its module
    public = {name for name, value in vars(ixysense).items()
              if not name.startswith("_") and not isinstance(value, type(ixysense))}
    assert public == {"qfi_curve"}
    assert ixysense.__version__ == "0.1.0"


def _cold_runs(out, *runs):
    """In one new interpreter that sees two usable CPUs, main() on each argv
    in turn; per run its exit code, the scipy modules loaded after it and
    the worker count of each pool it started (as the two_cpu_pools fixture)."""
    argvs = [[*run.split(), "--out", str(out / str(i))] for i, run in enumerate(runs)]
    code = _SCIPY_LOADED + (
        "import contextlib, json, os, ixysense.analysis, ixysense.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "pools, pool = [], ixysense.analysis.ThreadPoolExecutor\n"
        "def recorded(max_workers):\n"
        "    pools.append(max_workers)\n"
        "    return pool(max_workers=max_workers)\n"
        "ixysense.analysis.ThreadPoolExecutor = recorded\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(sys.stderr):\n"
        "        code = ixysense.cli.main(argv)\n"
        "    print(json.dumps([code, scipy_loaded(), pools]))\n"
        "    pools.clear()\n")
    return [json.loads(line) for line in _fresh_python(code).splitlines()]


SCIPY_FREE_RUNS = (
    "dispersion --set N=16",
    "qfi-dynamics --set N=16 --set t_points=5",
    "time-scaling --set N=16 --set transient_points=5 --set longtime_points=5",
    "size-scaling --set N_list=[16,32,64] --set t_eval=5.0",
    "stationary-scaling --set N_list=[16,32,64]",
    "ratio --set N=16 --set n_grid=11",
    "exceptional-point",
    "ep-table",
    "stationary-scaling --set anchor=exceptional-point --set N_list=[16,32,64]",
)


def test_only_the_oracle_loads_scipy(tmp_path):
    *free, oracle = _cold_runs(
        tmp_path, *SCIPY_FREE_RUNS,
        "oracle-check --set N_list=[4] --set t_list=[0.5]")
    assert free == [[0, [], []]] * len(SCIPY_FREE_RUNS)
    assert oracle[0] == 0
    assert "scipy.linalg" in oracle[1] and "scipy.optimize" not in oracle[1]


@pytest.mark.parametrize("experiment,override,named", [
    ("exceptional-point", "gamma=0", "anisotropy=non-hermitian, gamma=0.0"),
    ("ep-table", "gamma=0", "gamma=0.0"),
    ("stationary-scaling", "anchor=exceptional-point anisotropy=hermitian "
     "N_list=[16,32,64]", "anisotropy=hermitian"),
])
def test_numerical_failure_exits_3(tmp_path, capsys, experiment, override, named):
    # a model with no broken mode has no exceptional point
    assert main([experiment, *_args(override), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "o").exists()


def test_exceptional_point_anchor_below_old_bracket(tmp_path):
    # at Z = 1 and gamma = 0.9 the edge -sqrt(1.81) lies below -1.2
    out = tmp_path / "o"
    assert main(["stationary-scaling", "--set", "anchor=exceptional-point",
                 "--set", "gamma=0.9", "--set", "N_list=[64,128,256]",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert abs(manifest["derived"]["anchor_value"] + math.sqrt(1.81)) <= 1e-14
    _, _, rows = _read_csv(out / "stationary_scaling.csv")
    assert len(rows) == 15 and all(math.isfinite(float(r[2])) for r in rows)
    fits = json.loads((out / "fits.json").read_text())["fits"]
    assert all(math.isfinite(f["slope"]) for f in fits)


def test_huge_gamma_exceptional_point_runs_without_warning(tmp_path):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["exceptional-point", "--set", "gamma=1e200",
                     "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "exceptional_point.csv")
    assert float(rows[0][4]) == pytest.approx(-1e200, rel=1e-14)


@pytest.mark.parametrize("experiment,override,named", [
    ("qfi-dynamics", "h=1e300 N=64", "h=1e+300"),
    ("time-scaling", "h=1e200 N=64", "h=1e+200"),
    ("dispersion", "h=1e300 N=64", "h=1e+300"),
    ("stationary-scaling", "gamma=1e154 N_list=[16,32,64]", "gamma=1e+154"),
    ("qfi-dynamics", "t_max=1e300 t_points=3 N=64", "N=64"),
    ("ratio", "t1=1e300 n_grid=3 N=64", "N=64"),
    # the phase sqrt(eps_sq) t of an unbroken mode overflows, and tan of it is NaN
    ("qfi-dynamics", "t_max=1.7e308 t_spacing=linear t_points=3 h=-1.5 N=64", "t=8.5e+307"),
    # the dense propagator overflows at t = 1e300
    ("oracle-check", 'N_list=[4] Z_list=[1] gamma_list=[0.0] h_list=[-0.7] '
                     'theta_list=["h"] t_list=[1.0,1e300]', "t=1e+300"),
])
def test_non_finite_result_exits_3(tmp_path, capsys, experiment, override, named):
    # a field or anisotropy whose square overflows, or a time at which the
    # QFI or the dense evolution does, ends in one numerical-failure line
    # naming the model, not NaN rows, an inf eps_sq, a numpy warning or a
    # PASS over a NaN rel_diff
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, *_args(override), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "o").exists()


def test_huge_finite_field_runs_without_warning(tmp_path):
    # eps_sq near 1e308 is still finite, and so are its kernel derivatives
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["qfi-dynamics", "--set", "h=1e154", "--set", "N=64",
                     "--out", str(tmp_path / "o")]) == 0


def test_dispersion_outputs(tmp_path):
    for h, label in [(-1.0, "broken"), (-3.0, "unbroken")]:
        out = tmp_path / label
        assert main(["dispersion", "--out", str(out), "--set", "N=16",
                     "--set", "Z=2", "--set", "gamma=0.5", "--set", f"h={h}"]) == 0
        comments, header, rows = _read_csv(out / "dispersion.csv")
        assert header == "p,phi,j_real,j_imag,eps_sq,broken"
        assert len(rows) == 8
        cfg = json.loads(comments[1].removeprefix("# config "))  # the resolved config
        assert cfg["gamma"] == 0.5 and cfg["h"] == h
        # every row reads back exactly to the block_arrays columns, a and b
        # by one operation each on the row and the config
        params = ModelParams(N=16, Z=2, alpha=1.5, gamma=0.5, h=h)
        columns = block_arrays(params)
        eps_sq = columns[-1]
        for i, row in enumerate(rows):
            assert row[0] == str(i + 1)
            phi, j_real, j_imag, eps = (float(text) for text in row[1:5])
            a, b = cfg["h"] + j_real, cfg["gamma"] * j_imag
            assert [phi, j_real, j_imag, a, b, eps] == [col[i] for col in columns]
            assert row[5] == str(int(eps_sq[i] < -TOL_PHASE))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "dispersion"
        cls = classify_phase(build_blocks(params))
        assert cls.label.value == label
        assert manifest["derived"] == {"classification": label,
                                       "min_eps_sq": cls.min_eps_sq,
                                       "argmin_mode": cls.argmin_mode}
        assert "dispersion.csv" in manifest["outputs"]
        assert manifest["wall_time_s"] >= 0


def test_csv_writes_floats_as_repr(tmp_path):
    values = [5e-324, 1e16, -0.0, 0.1, 1.7976931348623157e308]
    RunWriter(str(tmp_path), "dispersion", {}).csv("w.csv", "v", [np.array(values)])
    _, header, rows = _read_csv(tmp_path / "w.csv")
    assert header == "v"
    assert rows == [[repr(v)] for v in values]


def test_csv_row_template_writes_str_bytes(tmp_path):
    # the %s row template gives the bytes of ",".join(map(str, row))
    columns = [np.array([0, -3, 2 ** 40]), np.array([-0.0, 1e-300, 5e-324]),
               np.array([1e300, 0.1, -2.5]), ["mean", "", "x"]]
    path = RunWriter(str(tmp_path), "dispersion", {}).csv("w.csv", "a,b,c,d", columns)
    rows = path.read_bytes().split(b"a,b,c,d\n", 1)[1]
    want = "".join(",".join(map(str, row)) + "\n"
                   for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                    for c in columns)))
    assert rows == want.encode()


def test_the_run_directory_is_made_once_by_the_first_write(tmp_path, monkeypatch):
    # a run that fails before its first write leaves no directory; one that
    # writes a CSV, fits.json and manifest.json makes it once
    made, mkdir = [], Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    out = tmp_path / "o"
    assert main(["ratio", *_args("t0=8.0 t1=2.0"), "--out", str(out)]) == 2
    assert made == [] and not out.exists()
    assert main(["size-scaling", *_args("t_eval=5.0 N_list=[32,64,128]"),
                 "--out", str(out)]) == 0
    assert made == [out]
    assert sorted(p.name for p in out.iterdir()) == ["fits.json", "manifest.json",
                                                     "size_scaling.csv"]


def test_each_run_path_computes_the_grid_fft_once_per_coupling(tmp_path):
    # a miss of the one-entry memo is one FFT: one per Z of qfi-dynamics, one
    # for both chains of ratio, one per search of exceptional-point, and one
    # per (N, Z, alpha) of oracle-check, whose cells run in that order
    runs = [("qfi-dynamics N=32 t_points=10", 1),
            ("qfi-dynamics N=32 Z_list=[1,2,3] t_points=10", 3),
            ("ratio N=32 t0=2.0 t1=8.0 n_grid=13", 1),
            ("exceptional-point", 1),
            ("oracle-check N_list=[4] Z_list=[2] gamma_list=[0.3] h_list=[-0.7] "
             't_list=[1.0] theta_list=["h"]', 1),
            ("oracle-check N_list=[4,6] t_list=[1.0]", 4)]
    for i, (run, misses) in enumerate(runs):
        experiment, *overrides = run.split()
        grid_coupling.cache_clear()
        assert main([experiment, *_args(" ".join(overrides)),
                     "--out", str(tmp_path / str(i))]) == 0
        assert grid_coupling.cache_info().misses == misses, run


def test_exceptional_point_output(tmp_path):
    out = tmp_path / "o"
    assert main(["exceptional-point", "--out", str(out),
                 "--set", "Z=1", "--set", "gamma=0.5"]) == 0
    _, header, rows = _read_csv(out / "exceptional_point.csv")
    assert header == "Z,alpha,gamma,N,h_e,iterations"
    assert len(rows) == 1
    h_e = float(rows[0][4])
    assert abs(h_e + math.sqrt(1.25)) < 1e-8


def test_ep_table_grid(tmp_path):
    out = tmp_path / "o"
    assert main(["ep-table", "--out", str(out), "--set", "gamma=0.5",
                 "--set", "Z_list=[1,2]", "--set", "alpha_list=[1.0]"]) == 0
    _, header, rows = _read_csv(out / "ep_table.csv")
    assert header == "Z,alpha,gamma,N,h_e,iterations"
    assert [r[0] for r in rows] == ["1", "2"]


def test_qfi_dynamics_one_file_per_Z(tmp_path):
    out = tmp_path / "o"
    assert main(["qfi-dynamics", "--out", str(out), "--set", "N=32",
                 "--set", "Z_list=[1,2]", "--set", "t_points=10",
                 "--set", "t_max=5.0"]) == 0
    for z in (1, 2):
        _, header, rows = _read_csv(out / f"qfi_dynamics_Z{z}.csv")
        assert header == "t,qfi"
        assert len(rows) == 10
        assert all(float(r[1]) >= 0 for r in rows)


def test_time_scaling_fits(tmp_path):
    out = tmp_path / "o"
    assert main(["time-scaling", "--out", str(out), "--set", "N=64",
                 "--set", "h=-3.0", "--set", "transient_points=12",
                 "--set", "longtime_points=12"]) == 0
    _, header, rows = _read_csv(out / "time_scaling.csv")
    assert header == "t,qfi"
    assert len(rows) == 24
    fits = json.loads((out / "fits.json").read_text())["fits"]
    assert [f["group"] for f in fits] == ["transient", "longtime"]
    for f in fits:
        assert set(f) == {"group", "slope", "intercept", "r_squared",
                          "window", "n_points", "stderr", "n_excluded"}


def test_size_scaling_output(tmp_path):
    out = tmp_path / "o"
    assert main(["size-scaling", "--out", str(out), "--set", "t_eval=5.0",
                 "--set", "N_list=[32,64,128]"]) == 0
    _, header, rows = _read_csv(out / "size_scaling.csv")
    assert header == "N,qfi"
    assert [r[0] for r in rows] == ["32", "64", "128"]
    fits = json.loads((out / "fits.json").read_text())["fits"]
    assert fits[0]["group"] == "size"


def test_stationary_scaling_output(tmp_path):
    out = tmp_path / "o"
    assert main(["stationary-scaling", "--out", str(out),
                 "--set", "N_list=[128,256,512]", "--set", "dh_list=[0.0,-0.3]",
                 "--set", "gamma=0.5", "--set", "Z=2", "--set", "alpha=1.0",
                 "--set", "theta=gamma"]) == 0
    _, header, rows = _read_csv(out / "stationary_scaling.csv")
    assert header == "dh,N,qfi,mu_fit_group"
    assert len(rows) == 6
    groups = {r[3] for r in rows}
    fits = json.loads((out / "fits.json").read_text())["fits"]
    assert groups == {f["group"] for f in fits}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"] == {"anchor_value": -1.0}


def test_ratio_summary_row(tmp_path):
    out = tmp_path / "o"
    assert main(["ratio", "--out", str(out), "--set", "N=32",
                 "--set", "t0=2.0", "--set", "t1=8.0", "--set", "n_grid=13"]) == 0
    _, header, rows = _read_csv(out / "ratio.csv")
    assert header == "t,qfi_nh,qfi_h,ratio"
    assert len(rows) == 14
    assert rows[-1][0] == "mean"
    assert rows[-1][1] == "" and rows[-1][2] == ""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"]["mean_ratio"] == float(rows[-1][3])


def test_oracle_check_passes(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["oracle-check", "--out", str(out), "--set", "N_list=[4,6]",
                 "--set", "t_list=[1.0]"]) == 0
    assert "ORACLE CHECK: PASS" in capsys.readouterr().out
    _, header, rows = _read_csv(out / "oracle_check.csv")
    assert header == "N,Z,alpha,gamma,h,t,theta,qfi_mode,qfi_dense,rel_diff"
    assert len(rows) == 32
    assert max(float(r[-1]) for r in rows) < 1e-8


def test_no_run_path_calls_the_scalar_views(tmp_path, monkeypatch):
    # propagator, evolve_mode and evolve_mode_derivative are checks of the
    # array path, not a route of any experiment's numbers
    def refuse(x, t):
        raise AssertionError(f"a run path called the scalar views at x={x}, t={t}")

    monkeypatch.setattr(dynamics, "_cell", refuse)
    runs = ["qfi-dynamics N=32 Z_list=[1,2] t_points=10 t_max=5.0",
            "time-scaling N=64 h=-3.0 transient_points=12 longtime_points=12",
            "size-scaling t_eval=5.0 N_list=[32,64,128]",
            "ratio N=32 t0=2.0 t1=8.0 n_grid=13",
            "oracle-check N_list=[4,6] t_list=[1.0]"]
    for i, run in enumerate(runs):
        experiment, override = run.split(" ", 1)
        assert main([experiment, *_args(override), "--out", str(tmp_path / str(i))]) == 0


def test_reruns_are_byte_identical(tmp_path):
    args = ["ratio", "--set", "N=32", "--set", "t0=2.0", "--set", "t1=8.0",
            "--set", "n_grid=13"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "ratio.csv").read_bytes()
    b = (tmp_path / "b" / "ratio.csv").read_bytes()
    assert a == b


def test_threads_do_not_change_results(tmp_path, two_cpu_pools):
    base = ["size-scaling", "--set", "t_eval=5.0", "--set", "N_list=[32,64,128]"]
    assert main(base + ["--out", str(tmp_path / "a"), "--threads", "1"]) == 0
    assert main(base + ["--out", str(tmp_path / "b"), "--threads", "4"]) == 0
    assert two_cpu_pools == [2]
    a = (tmp_path / "a" / "size_scaling.csv").read_bytes()
    b = (tmp_path / "b" / "size_scaling.csv").read_bytes()
    assert a == b


def test_threads_do_not_change_stationary_results_from_a_cold_coupling(tmp_path,
                                                                        two_cpu_pools):
    # pool threads share the one-entry J(phi) memo, which holds each size
    # before its cells start, so at any --threads J is evaluated once per
    # size (the critical-point anchor evaluates none of its own)
    for threads in ("2", "1"):
        grid_coupling.cache_clear()
        assert main(["stationary-scaling", "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
        assert grid_coupling.cache_info().misses == len(STATIONARY_N_LIST)
    assert two_cpu_pools == [2] * len(STATIONARY_N_LIST)
    for name in ("stationary_scaling.csv", "fits.json"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_threads_do_not_change_oracle_results_from_a_cold_term_table(tmp_path,
                                                                     two_cpu_pools):
    # the first build for each N can run on several run_cells threads at once
    base = ["oracle-check", "--set", "N_list=[4,6,8,10,12]", "--set", "t_list=[1.0]"]
    for threads in ("2", "1"):
        dense._term_table.cache_clear()
        assert main(base + ["--out", str(tmp_path / threads), "--threads", threads]) == 0
    assert two_cpu_pools == [2]
    assert ((tmp_path / "2" / "oracle_check.csv").read_bytes()
            == (tmp_path / "1" / "oracle_check.csv").read_bytes())


def test_threads_do_not_change_results_when_scipy_loads_on_a_worker(tmp_path):
    # --threads 2 first, so scipy is first imported on run_cells pool threads
    runs = ["oracle-check --set N_list=[4,6] --threads 2",
            "oracle-check --set N_list=[4,6] --threads 1"]
    assert [(code, pools) for code, _, pools in _cold_runs(tmp_path, *runs)] == [(0, [2]),
                                                                                (0, [])]
    assert ((tmp_path / "0" / "oracle_check.csv").read_bytes()
            == (tmp_path / "1" / "oracle_check.csv").read_bytes())


def test_ep_table_runs_its_cells_in_order_without_a_pool(tmp_path, monkeypatch):
    # ep-table cells are short GIL-bound searches that no thread count speeds up
    def no_pool(*args, **kwargs):
        raise AssertionError("ep-table started a thread pool")

    monkeypatch.setattr("ixysense.analysis.ThreadPoolExecutor", no_pool)
    for threads in ("2", "1"):
        assert main(["ep-table", "--out", str(tmp_path / threads), "--threads", threads]) == 0
    assert ((tmp_path / "2" / "ep_table.csv").read_bytes()
            == (tmp_path / "1" / "ep_table.csv").read_bytes())
