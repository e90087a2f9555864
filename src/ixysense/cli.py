"""Command-line experiment runner.

Each subcommand resolves a flat JSON config (defaults < --config file <
repeated --set overrides), runs one named experiment, and writes a run
manifest (manifest.json), CSV series, and, for fitting experiments, a
fits.json record.  Each experiment declares exactly the keys its runner
reads, each with a default and a type, and every value is parsed against
its type before anything is written.  Identical configs produce
byte-identical CSV files; wall time lives only in the manifest.  Exit
codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, replace
from enum import Enum
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DYNAMICAL_N_LIST,
    LONGTIME_GRID,
    STATIONARY_DH_LIST,
    STATIONARY_N_LIST,
    TRANSIENT_GRID,
    ScalingAnchor,
    find_exceptional_point,
    run_cells,
    sweep_size_scaling,
    sweep_stationary_scaling,
    sweep_time_scaling,
)
from .blocks import block_arrays, classify_modes
from .dense import MAX_DENSE_SITES, dense_evolve_qfi
from .errors import ConfigError, NumericalError
from .metrology import dynamical_qfi, qfi_curve, qfi_ratio_time_avg
from .model import AnisotropyMode, ModelParams, ThetaKind


# Key types: each maps a JSON value to the typed value a runner reads, or
# raises ValueError saying what it expected.

def _int(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return value


def _float(value) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"expected a finite number, got {json.dumps(value)}")


def _at_least(parse, bound):
    """parse, then require the value to be >= bound."""
    def check(value):
        parsed = parse(value)
        if parsed < bound:
            raise ValueError(f"must be >= {bound}, got {json.dumps(value)}")
        return parsed
    return check


def _size(value) -> int:
    n = _int(value)
    if n % 2 or n < 4:
        raise ValueError(f"expected an even N >= 4, got {json.dumps(value)}")
    return n


def _dense_size(value) -> int:
    n = _size(value)
    if n > MAX_DENSE_SITES:
        raise ValueError(f"expected N <= {MAX_DENSE_SITES}, got {json.dumps(value)}")
    return n


def _list(item):
    def parse(value) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError(f"expected a nonempty list, got {json.dumps(value)}")
        return [item(v) for v in value]
    return parse


def _pair(value) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected [lo, hi], got {json.dumps(value)}")
    return _float(value[0]), _float(value[1])


def _time_window(value) -> tuple[float, float]:
    lo, hi = _pair(value)
    if not 0 < lo < hi:
        raise ValueError(f"needs 0 < lo < hi, got {json.dumps(value)}")
    return lo, hi


def _distinct(parse, name):
    """parse a list, then reject a value given twice (-0.0 is 0.0)."""
    def check(value) -> list:
        items = parse(value)
        if len(set(items)) < len(items):
            raise ValueError(f"{name}={max(items, key=items.count)!r} more than once in {items}")
        return items
    return check


def _fitted_sizes(value) -> list[int]:
    sizes = _distinct(_list(_size), "N")(value)
    if len(sizes) < 3:
        raise ValueError(f"a power-law fit needs at least 3 sizes, got {sizes}")
    return sizes


def _choice(options):
    """One of options: an Enum class, matched by value, or a tuple of strings."""
    by_name = {getattr(o, "value", o): o for o in options}

    def parse(value):
        if not isinstance(value, str) or value not in by_name:
            raise ValueError(
                f"expected one of {list(by_name)}, got {json.dumps(value)}")
        return by_name[value]
    return parse


def _optional(parse):
    return lambda value: None if value is None else parse(value)


def _plain(value):
    """The JSON form of a typed config value."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.value if isinstance(value, Enum) else value


# Model and probe keys: name -> (default, type).  An experiment declares
# the ones its runner reads; a ModelParams field comes from its
# <field>_list key where that is set, else from its own key, or, for an h
# that the runner sets itself or never reads, is 0.  The exceptional-point
# experiments read no anisotropy (a Hermitian chain has no such point),
# nor does ratio, which compares the two chains.
_MODEL = {
    "N": (1024, _int), "Z": (1, _int), "alpha": (1.5, _at_least(_float, 0.0)),
    "gamma": (0.3, _float), "h": (-0.7, _float),
    "anisotropy": ("non-hermitian", _choice(AnisotropyMode)),
    "theta": ("h", _choice(ThetaKind)),
}


def _model(*names) -> dict:
    return {name: _MODEL[name] for name in names}


def _source(cfg: dict, name: str) -> tuple[str, list]:
    """The key that supplies the model field name, and the values it sweeps."""
    if cfg.get(f"{name}_list") is not None:
        return f"{name}_list", cfg[f"{name}_list"]
    return name, [cfg.get(name, 0.0)]


def _params(cfg: dict) -> ModelParams:
    """The model of the run's first cell, once every swept Z fits every swept N."""
    sources = {name: _source(cfg, name) for name in ("N", "Z", "alpha", "gamma", "h")}
    (z_key, zs), (n_key, ns) = sources["Z"], sources["N"]
    if min(zs) < 1 or max(zs) > min(ns) // 2:
        z = min(zs) if min(zs) < 1 else max(zs)
        raise ConfigError(f"{z_key}, {n_key}: need 1 <= Z <= N/2 for every Z and N, "
                          f"got Z={z} at N={min(ns)}")
    return ModelParams(**{name: values[0] for name, (_, values) in sources.items()},
                       anisotropy_mode=cfg.get("anisotropy", AnisotropyMode.NON_HERMITIAN))


def _parse_set(item: str):
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings allowed without quotes
    return key, value


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    return data


def resolve_config(experiment: str, config_path: str | None,
                   overrides: list[str]) -> dict:
    """Defaults, then file keys, then --set pairs; each value parsed to its
    key's type, and keys the experiment does not declare rejected."""
    keys = EXPERIMENTS[experiment][0]
    layered = {key: default for key, (default, _) in keys.items()}
    if config_path:
        layered.update(_load_config_file(config_path))
    for item in overrides or []:
        key, value = _parse_set(item)
        layered[key] = value
    named = layered.pop("experiment", experiment)
    if named != experiment:
        raise ConfigError(f"config names experiment {named!r} but the "
                          f"{experiment!r} subcommand was invoked")
    cfg = {"experiment": experiment}
    for key, value in layered.items():
        if key not in keys:
            raise ConfigError(
                f"unknown config key {key!r} for experiment {experiment!r}")
        try:
            cfg[key] = keys[key][1](value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return cfg


class RunWriter:
    """Collects output files, warnings, and derived values for one run.

    The output directory is made once, by the first write, so a run that
    fails before writing anything leaves no directory behind.
    """

    def __init__(self, out_dir: str, experiment: str, cfg: dict):
        self.dir = Path(out_dir)
        self.experiment = experiment
        self.cfg = cfg
        self.outputs: list[str] = []
        self.warnings: list[str] = []
        self.derived: dict = {}
        self._t0 = time.perf_counter()

    def _preamble(self) -> list[str]:
        lines = [f"ixysense {__version__} {self.experiment}",
                 "config " + json.dumps(self.cfg, sort_keys=True)]
        if self.derived:
            lines.append("derived " + json.dumps(self.derived, sort_keys=True))
        return lines

    def _path(self, name: str) -> Path:
        if not self.outputs:
            self.dir.mkdir(parents=True, exist_ok=True)
        return self.dir / name

    def csv(self, name: str, header: str, columns) -> Path:
        """One row per index of the equal-length columns (arrays or lists).

        Each value is written with %s, which is str: for a Python float
        its shortest round-trip repr.
        """
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        row_format = ",".join(["%s"] * len(columns)) + "\n"
        path = self._path(name)
        with open(path, "w") as f:
            f.writelines(f"# {line}\n" for line in self._preamble())
            f.write(header + "\n")
            f.writelines(row_format % row for row in zip(*columns))
        self.outputs.append(name)
        print(f"wrote {path}")
        return path

    def fits(self, groups) -> Path:
        records = [{"group": group, **asdict(fit)} for group, fit in groups]
        path = self._path("fits.json")
        path.write_text(json.dumps({"fits": records}, indent=2, sort_keys=True) + "\n")
        self.outputs.append("fits.json")
        print(f"wrote {path}")
        return path

    def manifest(self) -> Path:
        body = {
            "experiment": self.experiment,
            "version": __version__,
            "config": self.cfg,
            "derived": self.derived,
            "warnings": self.warnings,
            "outputs": self.outputs,
            "wall_time_s": time.perf_counter() - self._t0,
        }
        path = self._path("manifest.json")
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return path


def _time_grid(cfg: dict) -> np.ndarray:
    lo, hi, n = cfg["t_min"], cfg["t_max"], cfg["t_points"]
    if not hi > lo:
        raise ConfigError(f"t_min, t_max: need t_min < t_max, got t_min={lo!r}, t_max={hi!r}")
    if cfg["t_spacing"] == "linear":
        return np.linspace(lo, hi, n)
    if lo <= 0:
        raise ConfigError(f"t_min, t_spacing: log spacing needs t_min > 0, got t_min={lo!r}")
    return np.geomspace(lo, hi, n)


def _run_dispersion(params, cfg, writer, threads) -> int:
    phi, j_real, j_imag, _, _, eps_sq = block_arrays(params)
    broken, cls = classify_modes(eps_sq)
    writer.derived["classification"] = cls.label.value
    writer.derived["min_eps_sq"] = cls.min_eps_sq
    writer.derived["argmin_mode"] = cls.argmin_mode
    # a = h + j_real and b = gamma * j_imag read back exactly from the columns
    writer.csv("dispersion.csv", "p,phi,j_real,j_imag,eps_sq,broken",
               [np.arange(1, phi.size + 1), phi, j_real, j_imag, eps_sq,
                broken.astype(np.int8)])
    print(f"classification: {cls.label.value} "
          f"(min eps_sq {cls.min_eps_sq:.6g} at mode {cls.argmin_mode})")
    return 0


def _ep_row(params: ModelParams):
    res = find_exceptional_point(params)
    return (params.Z, params.alpha, params.gamma, params.N, res.h_e, res.iterations)


def _run_exceptional_point(params, cfg, writer, threads) -> int:
    row = _ep_row(params)
    writer.derived["h_e"] = row[4]
    writer.csv("exceptional_point.csv", "Z,alpha,gamma,N,h_e,iterations",
               [[value] for value in row])
    print(f"h_e = {row[4]:.9f} ({row[5]} angles evaluated)")
    return 0


def _run_ep_table(params, cfg, writer, threads) -> int:
    rows = [_ep_row(replace(params, Z=z, alpha=alpha))
            for z, alpha in itertools.product(cfg["Z_list"], cfg["alpha_list"])]
    writer.csv("ep_table.csv", "Z,alpha,gamma,N,h_e,iterations", zip(*rows))
    return 0


def _run_qfi_dynamics(params, cfg, writer, threads) -> int:
    grid = _time_grid(cfg)
    zs = cfg["Z_list"] or [params.Z]
    models = [replace(params, Z=z) for z in zs]
    writer.derived["t_grid"] = [float(grid[0]), float(grid[-1]), len(grid)]
    for p in models:
        values = qfi_curve(p, grid, cfg["theta"])
        writer.csv(f"qfi_dynamics_Z{p.Z}.csv", "t,qfi", [grid, values])
    return 0


def _run_time_scaling(params, cfg, writer, threads) -> int:
    tg = np.geomspace(*cfg["transient_window"], cfg["transient_points"])
    lg = np.geomspace(*cfg["longtime_window"], cfg["longtime_points"])
    res = sweep_time_scaling(params, cfg["theta"], transient_grid=tg, longtime_grid=lg)
    writer.derived["transient_window"] = list(res.transient_fit.window)
    writer.derived["longtime_window"] = list(res.longtime_fit.window)
    writer.csv("time_scaling.csv", "t,qfi", [res.t, res.qfi])
    writer.fits([("transient", res.transient_fit), ("longtime", res.longtime_fit)])
    print(f"transient slope {res.transient_fit.slope:.4f}, "
          f"longtime slope {res.longtime_fit.slope:.4f}")
    return 0


def _run_size_scaling(params, cfg, writer, threads) -> int:
    res = sweep_size_scaling(params, cfg["theta"], t_eval=cfg["t_eval"],
                             N_list=cfg["N_list"], threads=threads)
    writer.derived["t_eval"] = cfg["t_eval"]
    writer.derived["fit_window"] = list(res.fit.window)
    writer.csv("size_scaling.csv", "N,qfi", [res.N, res.qfi])
    writer.fits([("size", res.fit)])
    print(f"size-scaling slope {res.fit.slope:.4f}")
    return 0


def _run_stationary_scaling(params, cfg, writer, threads) -> int:
    res = sweep_stationary_scaling(params, cfg["theta"], dh_list=cfg["dh_list"],
                                   N_list=cfg["N_list"], anchor=cfg["anchor"],
                                   threads=threads)
    writer.derived["anchor_value"] = res.anchor_value
    groups = [(repr(float(row.dh)), row.fit) for row in res.rows]
    for row in res.rows:
        if row.straddled_modes:
            writer.warnings.append(
                f"dh={row.dh!r}: {row.straddled_modes} straddled modes "
                f"across the N list (finite-difference stencil crossed an "
                f"exceptional point)")
    sizes = res.rows[0].N  # every dh row sweeps the same sizes
    writer.csv("stationary_scaling.csv", "dh,N,qfi,mu_fit_group", [
        np.repeat([row.dh for row in res.rows], sizes.size),
        np.tile(sizes, len(res.rows)), np.concatenate([row.qfi for row in res.rows]),
        np.repeat([group for group, _ in groups], sizes.size)])
    writer.fits(groups)
    for group, fit in groups:
        print(f"dh={group}: mu = {fit.slope:.4f} (stderr {fit.stderr:.4f})")
    return 0


def _run_ratio(params, cfg, writer, threads) -> int:
    if not cfg["t1"] > cfg["t0"]:
        raise ConfigError(
            f"t0, t1: need t0 < t1, got t0={cfg['t0']!r}, t1={cfg['t1']!r}")
    res = qfi_ratio_time_avg(params, cfg["theta"], t0=cfg["t0"], t1=cfg["t1"],
                             n_grid=cfg["n_grid"])
    if res.dropped:
        writer.warnings.append(
            f"{res.dropped} grid points dropped (benchmark QFI below floor)")
    writer.derived["mean_ratio"] = res.mean_ratio
    writer.csv("ratio.csv", "t,qfi_nh,qfi_h,ratio", [
        [*res.t.tolist(), "mean"], [*res.qfi_nh.tolist(), ""],
        [*res.qfi_h.tolist(), ""], [*res.ratio.tolist(), res.mean_ratio]])
    print(f"time-averaged ratio = {res.mean_ratio:.4f} "
          f"({res.t.size} points, {res.dropped} dropped)")
    return 0


def _run_oracle_check(params, cfg, writer, threads) -> int:
    rel_tol = cfg["rel_tol"]
    axes = [cfg[key] for key in ("N_list", "Z_list", "alpha_list", "gamma_list",
                                 "h_list", "t_list", "theta_list")]
    cells = list(itertools.product(*axes))

    def cell(c):
        n, z, alpha, gamma, h, t, theta = c
        p = replace(params, N=n, Z=z, alpha=alpha, gamma=gamma, h=h)
        f_mode = dynamical_qfi(p, t, theta).value
        f_dense = dense_evolve_qfi(p, t, theta)
        rel = abs(f_mode - f_dense) / max(abs(f_dense), 1.0)
        return (n, z, alpha, gamma, h, t, theta.value, f_mode, f_dense, rel)

    columns = list(zip(*run_cells(cell, cells, threads)))
    writer.csv("oracle_check.csv",
               "N,Z,alpha,gamma,h,t,theta,qfi_mode,qfi_dense,rel_diff", columns)
    worst = max(columns[-1])
    ok = worst <= rel_tol
    writer.derived["worst_rel_diff"] = worst
    writer.derived["rel_tol"] = rel_tol
    writer.derived["result"] = "PASS" if ok else "FAIL"
    print(f"ORACLE CHECK: {'PASS' if ok else 'FAIL'} "
          f"({len(cells)} cells, worst rel diff {worst:.3e}, tol {rel_tol:.1e})")
    if not ok:
        writer.warnings.append(
            f"momentum/dense QFI disagree: worst rel diff {worst:.3e} "
            f"exceeds {rel_tol:.1e}")
        return 3
    return 0


_ALL_MODEL = ("N", "Z", "alpha", "gamma", "h", "anisotropy")

# Experiment name -> (keys: name -> (default, type), runner).  These are
# exactly the keys the runner reads; every resolved config holds all of
# them, no hidden knobs.
EXPERIMENTS: dict[str, tuple[dict, object]] = {
    "dispersion": (_model(*_ALL_MODEL), _run_dispersion),
    "exceptional-point": (_model("N", "Z", "alpha", "gamma"), _run_exceptional_point),
    "ep-table": ({
        **_model("N", "gamma"),
        "Z_list": ([1, 2, 4, 7], _list(_int)),
        "alpha_list": ([0.5, 1.0, 1.5, 2.0], _list(_at_least(_float, 0.0))),
    }, _run_ep_table),
    "qfi-dynamics": ({
        **_model(*_ALL_MODEL, "theta"),
        "Z_list": (None, _optional(_distinct(_list(_int), "Z"))),  # a file per Z
        "t_min": (0.02, _at_least(_float, 0.0)), "t_max": (1000.0, _float),
        "t_points": (300, _at_least(_int, 2)),
        "t_spacing": ("log", _choice(("log", "linear"))),
    }, _run_qfi_dynamics),
    "time-scaling": ({
        **_model(*_ALL_MODEL, "theta"),
        "transient_window": ([TRANSIENT_GRID[0], TRANSIENT_GRID[-1]], _time_window),
        "transient_points": (len(TRANSIENT_GRID), _at_least(_int, 3)),
        "longtime_window": ([LONGTIME_GRID[0], LONGTIME_GRID[-1]], _time_window),
        "longtime_points": (len(LONGTIME_GRID), _at_least(_int, 3)),
    }, _run_time_scaling),
    "size-scaling": ({
        **_model("Z", "alpha", "gamma", "h", "anisotropy", "theta"),
        "N_list": (list(DYNAMICAL_N_LIST), _fitted_sizes),
        "t_eval": (200.0, _at_least(_float, 0.0)),
    }, _run_size_scaling),
    "stationary-scaling": ({
        **_model("Z", "alpha", "gamma", "anisotropy", "theta"),
        "anchor": ("critical-point", _choice(ScalingAnchor)),
        "dh_list": (list(STATIONARY_DH_LIST), _distinct(_list(_float), "dh")),
        "N_list": (list(STATIONARY_N_LIST), _fitted_sizes),
    }, _run_stationary_scaling),
    "ratio": ({
        **_model("N", "Z", "alpha", "gamma", "h", "theta"),
        "t0": (200.0, _at_least(_float, 0.0)), "t1": (1000.0, _float),
        "n_grid": (801, _at_least(_int, 2)),
    }, _run_ratio),
    "oracle-check": ({
        **_model("anisotropy"),
        "N_list": ([4, 6, 8], _list(_dense_size)), "Z_list": ([1, 2], _list(_int)),
        "alpha_list": ([1.5], _list(_at_least(_float, 0.0))),
        "gamma_list": ([0.0, 0.3], _list(_float)),
        "h_list": ([-0.7, -1.5], _list(_float)),
        "t_list": ([0.5, 1.0, 2.0], _list(_at_least(_float, 0.0))),
        "theta_list": (["h", "gamma"], _list(_choice(ThetaKind))),
        "rel_tol": (1e-8, _at_least(_float, 0.0)),
    }, _run_oracle_check),
}


@cache  # one parser per process; parse_args copies the --set default list
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ixysense",
        description="QFI metrology experiments for the long-range iXY chain")
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="flat JSON config file")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default runs/<experiment>)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweep cells (speed only)")
    parser.add_argument("--print-config", action="store_true",
                        help="print the fully resolved config and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        cfg = resolve_config(args.experiment, args.config, args.set)
        record = {key: _plain(value) for key, value in cfg.items()}
        params = _params(cfg)
        if args.print_config:
            print(json.dumps(record, indent=2, sort_keys=True))
            return 0
        out_dir = args.out if args.out else str(Path("runs") / args.experiment)
        writer = RunWriter(out_dir, args.experiment, record)
        status = EXPERIMENTS[args.experiment][1](params, cfg, writer, args.threads)
        writer.manifest()
        return status
    except (ConfigError, ValueError) as exc:  # ValueError: a library call's rejection
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size whose arrays cannot be allocated
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # RunWriter could not create or write the output
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
