"""Command-line experiment runner.

Each subcommand resolves a flat JSON config (defaults < --config file <
repeated --set overrides), runs one named experiment, and writes a run
manifest (manifest.json), CSV series, and, for fitting experiments, a
fits.json record.  Identical configs produce byte-identical CSV files;
wall time lives only in the manifest.  Exit codes: 0 success, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_EP_BRACKET,
    DEFAULT_EP_TOL,
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
from .blocks import TOL_PHASE, build_blocks, classify_phase
from .dense import dense_evolve_qfi
from .errors import ConfigError, NumericalError
from .metrology import dynamical_qfi, qfi_curve, qfi_ratio_time_avg
from .model import AnisotropyMode, ModelParams, ThetaKind

_MODEL_KEYS = {
    "N": 1024, "Z": 1, "alpha": 1.5, "gamma": 0.3, "h": -0.7,
    "anisotropy": "non-hermitian", "theta": "h",
}


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
    """Defaults, then file keys, then --set pairs; unknown keys rejected."""
    cfg = dict(_MODEL_KEYS)
    cfg.update(EXPERIMENTS[experiment][0])
    allowed = set(cfg) | {"experiment"}

    layered: dict = {}
    if config_path:
        layered.update(_load_config_file(config_path))
    for item in overrides or []:
        key, value = _parse_set(item)
        layered[key] = value

    for key, value in layered.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown config key {key!r} for experiment {experiment!r}")
        if key == "experiment":
            if value != experiment:
                raise ConfigError(
                    f"config names experiment {value!r} but the "
                    f"{experiment!r} subcommand was invoked")
            continue
        cfg[key] = value
    cfg["experiment"] = experiment
    return cfg


def _model_params(cfg: dict) -> ModelParams:
    try:
        aniso = AnisotropyMode(cfg["anisotropy"])
    except ValueError as exc:
        raise ConfigError(f"anisotropy must be one of "
                          f"{[m.value for m in AnisotropyMode]}") from exc
    try:
        return ModelParams(N=int(cfg["N"]), Z=int(cfg["Z"]),
                           alpha=float(cfg["alpha"]), gamma=float(cfg["gamma"]),
                           h=float(cfg["h"]), anisotropy_mode=aniso)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _theta(cfg: dict) -> ThetaKind:
    try:
        return ThetaKind(cfg["theta"])
    except ValueError as exc:
        raise ConfigError(
            f"theta must be one of {[t.value for t in ThetaKind]}") from exc


def _list_of(cfg: dict, key: str, kind) -> list:
    value = cfg[key]
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{key} must be a nonempty list")
    try:
        return [kind(v) for v in value]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _bracket(cfg: dict) -> tuple[float, float]:
    bracket = _list_of(cfg, "ep_bracket", float)
    if len(bracket) != 2 or not bracket[0] < bracket[1]:
        raise ConfigError(
            f"ep_bracket must be [lo, hi] with lo < hi, got {cfg['ep_bracket']}")
    return bracket[0], bracket[1]


def _fit_sizes(cfg: dict) -> list:
    """N_list of a sweep that fits a power law in N."""
    sizes = _list_of(cfg, "N_list", int)
    if len(set(sizes)) < 3:
        raise ConfigError(
            f"N_list needs at least 3 distinct sizes for a power-law fit, got {sizes}")
    return sizes


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


class RunWriter:
    """Collects output files, warnings, and derived values for one run."""

    def __init__(self, out_dir: str, experiment: str, cfg: dict):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
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

    def csv(self, name: str, header: str, rows) -> Path:
        path = self.dir / name
        with open(path, "w") as f:
            for line in self._preamble():
                f.write(f"# {line}\n")
            f.write(header + "\n")
            for row in rows:
                f.write(",".join(_fmt(v) for v in row) + "\n")
        self.outputs.append(name)
        print(f"wrote {path}")
        return path

    def fits(self, groups) -> Path:
        records = []
        for group, fit in groups:
            records.append({
                "group": group, "slope": fit.slope, "intercept": fit.intercept,
                "r_squared": fit.r_squared, "window": list(fit.window),
                "n_points": fit.n_points, "stderr": fit.stderr,
                "n_excluded": fit.n_excluded,
            })
        path = self.dir / "fits.json"
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
        path = self.dir / "manifest.json"
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return path


def _time_grid(cfg: dict) -> np.ndarray:
    lo, hi, n = float(cfg["t_min"]), float(cfg["t_max"]), int(cfg["t_points"])
    if n < 2:
        raise ConfigError(f"t_points must be >= 2, got {n}")
    if not np.isfinite([lo, hi]).all():
        raise ConfigError(f"t_min and t_max must be finite, got [{lo}, {hi}]")
    if not hi > lo:
        raise ConfigError(f"need t_max > t_min, got [{lo}, {hi}]")
    spacing = cfg["t_spacing"]
    if spacing == "log":
        if lo <= 0:
            raise ConfigError("log spacing needs t_min > 0")
        return np.geomspace(lo, hi, n)
    if spacing == "linear":
        return np.linspace(lo, hi, n)
    raise ConfigError(f"t_spacing must be 'log' or 'linear', got {spacing!r}")


def _run_dispersion(cfg: dict, writer: RunWriter, threads: int) -> int:
    params = _model_params(cfg)
    blocks = build_blocks(params)
    cls = classify_phase(blocks)
    writer.derived["classification"] = cls.label.value
    writer.derived["min_eps_sq"] = cls.min_eps_sq
    writer.derived["argmin_mode"] = cls.argmin_mode
    rows = [(b.p, b.phi, b.j_real, b.j_imag, b.a, b.b, b.eps_sq,
             int(b.eps_sq < -TOL_PHASE)) for b in blocks]
    writer.csv("dispersion.csv", "p,phi,j_real,j_imag,a,b,eps_sq,broken", rows)
    print(f"classification: {cls.label.value} "
          f"(min eps_sq {cls.min_eps_sq:.6g} at mode {cls.argmin_mode})")
    return 0


def _ep_row(params: ModelParams, bracket, tol):
    res = find_exceptional_point(params, bracket=bracket, tol=tol)
    return (params.Z, params.alpha, params.gamma, params.N, res.h_e, res.iterations)


def _run_exceptional_point(cfg: dict, writer: RunWriter, threads: int) -> int:
    params = _model_params(cfg)
    bracket = _bracket(cfg)
    row = _ep_row(params, bracket, float(cfg["ep_tol"]))
    writer.derived["h_e"] = row[4]
    writer.csv("exceptional_point.csv", "Z,alpha,gamma,N,h_e,iterations", [row])
    print(f"h_e = {row[4]:.9f} ({row[5]} iterations)")
    return 0


def _run_ep_table(cfg: dict, writer: RunWriter, threads: int) -> int:
    params = _model_params(cfg)
    bracket = _bracket(cfg)
    tol = float(cfg["ep_tol"])
    z_list = _list_of(cfg, "Z_list", int)
    alpha_list = _list_of(cfg, "alpha_list", float)
    cells = [(z, alpha) for z in z_list for alpha in alpha_list]

    def cell(c):
        z, alpha = c
        return _ep_row(replace(params, Z=z, alpha=alpha), bracket, tol)

    rows = run_cells(cell, cells, threads)
    writer.csv("ep_table.csv", "Z,alpha,gamma,N,h_e,iterations", rows)
    return 0


def _run_qfi_dynamics(cfg: dict, writer: RunWriter, threads: int) -> int:
    params = _model_params(cfg)
    theta = _theta(cfg)
    grid = _time_grid(cfg)
    z_list = ([int(z) for z in cfg["Z_list"]]
              if cfg["Z_list"] is not None else [params.Z])
    if not z_list:
        raise ConfigError("Z_list must be a nonempty list")
    writer.derived["t_grid"] = [float(grid[0]), float(grid[-1]), len(grid)]
    for z in z_list:
        p = replace(params, Z=z)
        values = qfi_curve(p, grid, theta)
        writer.csv(f"qfi_dynamics_Z{z}.csv", "t,qfi",
                   list(zip(grid, values)))
    return 0


def _run_time_scaling(cfg: dict, writer: RunWriter, threads: int) -> int:
    params = _model_params(cfg)
    theta = _theta(cfg)
    tw = _list_of(cfg, "transient_window", float)
    lw = _list_of(cfg, "longtime_window", float)
    if len(tw) != 2 or len(lw) != 2:
        raise ConfigError("fit windows must be [lo, hi] pairs")
    tg = np.geomspace(tw[0], tw[1], int(cfg["transient_points"]))
    lg = np.geomspace(lw[0], lw[1], int(cfg["longtime_points"]))
    res = sweep_time_scaling(params, theta, transient_grid=tg, longtime_grid=lg)
    writer.derived["transient_window"] = list(res.transient_fit.window)
    writer.derived["longtime_window"] = list(res.longtime_fit.window)
    writer.csv("time_scaling.csv", "t,qfi", list(zip(res.t, res.qfi)))
    writer.fits([("transient", res.transient_fit), ("longtime", res.longtime_fit)])
    print(f"transient slope {res.transient_fit.slope:.4f}, "
          f"longtime slope {res.longtime_fit.slope:.4f}")
    return 0


def _run_size_scaling(cfg: dict, writer: RunWriter, threads: int) -> int:
    params = _model_params(cfg)
    theta = _theta(cfg)
    n_list = _fit_sizes(cfg)
    res = sweep_size_scaling(params, theta, t_eval=float(cfg["t_eval"]),
                             N_list=n_list, threads=threads)
    writer.derived["t_eval"] = float(cfg["t_eval"])
    writer.derived["fit_window"] = list(res.fit.window)
    writer.csv("size_scaling.csv", "N,qfi", list(zip(res.N, res.qfi)))
    writer.fits([("size", res.fit)])
    print(f"size-scaling slope {res.fit.slope:.4f}")
    return 0


def _run_stationary_scaling(cfg: dict, writer: RunWriter, threads: int) -> int:
    params = _model_params(cfg)
    theta = _theta(cfg)
    try:
        anchor = ScalingAnchor(cfg["anchor"])
    except ValueError as exc:
        raise ConfigError(f"anchor must be one of "
                          f"{[a.value for a in ScalingAnchor]}") from exc
    dh_list = _list_of(cfg, "dh_list", float)
    n_list = _fit_sizes(cfg)
    fd_step = cfg["fd_step"]
    fd_step = None if fd_step is None else float(fd_step)
    bracket = _bracket(cfg)
    res = sweep_stationary_scaling(params, theta, dh_list=dh_list,
                                   N_list=n_list, anchor=anchor,
                                   fd_step=fd_step, ep_bracket=bracket,
                                   threads=threads)
    writer.derived["anchor_value"] = res.anchor_value
    writer.derived["fd_steps"] = sorted({row.fd_step for row in res.rows})
    rows_csv = []
    groups = []
    for row in res.rows:
        group = repr(float(row.dh))
        groups.append((group, row.fit))
        rows_csv.extend((row.dh, n, v, group) for n, v in zip(row.N, row.qfi))
        if row.straddled_modes:
            writer.warnings.append(
                f"dh={row.dh!r}: {row.straddled_modes} straddled modes "
                f"across the N list (finite-difference stencil crossed an "
                f"exceptional point)")
    writer.csv("stationary_scaling.csv", "dh,N,qfi,mu_fit_group", rows_csv)
    writer.fits(groups)
    for group, fit in groups:
        print(f"dh={group}: mu = {fit.slope:.4f} (stderr {fit.stderr:.4f})")
    return 0


def _run_ratio(cfg: dict, writer: RunWriter, threads: int) -> int:
    params = _model_params(cfg)
    theta = _theta(cfg)
    res = qfi_ratio_time_avg(params, theta, t0=float(cfg["t0"]),
                             t1=float(cfg["t1"]), n_grid=int(cfg["n_grid"]))
    if res.dropped:
        writer.warnings.append(
            f"{res.dropped} grid points dropped (benchmark QFI below floor)")
    writer.derived["mean_ratio"] = res.mean_ratio
    rows = list(zip(res.t, res.qfi_nh, res.qfi_h, res.ratio))
    rows.append(("mean", "", "", res.mean_ratio))
    writer.csv("ratio.csv", "t,qfi_nh,qfi_h,ratio", rows)
    print(f"time-averaged ratio = {res.mean_ratio:.4f} "
          f"({res.n_samples} points, {res.dropped} dropped)")
    return 0


def _run_oracle_check(cfg: dict, writer: RunWriter, threads: int) -> int:
    params = _model_params(cfg)
    rel_tol = float(cfg["rel_tol"])
    thetas = []
    for name in _list_of(cfg, "theta_list", str):
        try:
            thetas.append(ThetaKind(name))
        except ValueError as exc:
            raise ConfigError(f"theta_list: unknown theta {name!r}") from exc
    cells = [(n, z, alpha, gamma, h, t, theta)
             for n in _list_of(cfg, "N_list", int)
             for z in _list_of(cfg, "Z_list", int)
             for alpha in _list_of(cfg, "alpha_list", float)
             for gamma in _list_of(cfg, "gamma_list", float)
             for h in _list_of(cfg, "h_list", float)
             for t in _list_of(cfg, "t_list", float)
             for theta in thetas]

    def cell(c):
        n, z, alpha, gamma, h, t, theta = c
        p = replace(params, N=n, Z=z, alpha=alpha, gamma=gamma, h=h)
        f_mode = dynamical_qfi(p, t, theta).value
        f_dense = dense_evolve_qfi(p, t, theta)
        rel = abs(f_mode - f_dense) / max(abs(f_dense), 1.0)
        return (n, z, alpha, gamma, h, t, theta.value, f_mode, f_dense, rel)

    rows = run_cells(cell, cells, threads)
    writer.csv("oracle_check.csv",
               "N,Z,alpha,gamma,h,t,theta,qfi_mode,qfi_dense,rel_diff", rows)
    worst = max(r[-1] for r in rows)
    ok = worst <= rel_tol
    writer.derived["worst_rel_diff"] = worst
    writer.derived["rel_tol"] = rel_tol
    writer.derived["result"] = "PASS" if ok else "FAIL"
    print(f"ORACLE CHECK: {'PASS' if ok else 'FAIL'} "
          f"({len(rows)} cells, worst rel diff {worst:.3e}, tol {rel_tol:.1e})")
    if not ok:
        writer.warnings.append(
            f"momentum/dense QFI disagree: worst rel diff {worst:.3e} "
            f"exceeds {rel_tol:.1e}")
        return 3
    return 0


# Experiment name -> (keys on top of the model block, runner).  The key
# values are the defaults; every resolved config is the full union, no
# hidden knobs.
EXPERIMENTS: dict[str, tuple[dict, object]] = {
    "dispersion": ({}, _run_dispersion),
    "exceptional-point": ({
        "ep_bracket": list(DEFAULT_EP_BRACKET), "ep_tol": DEFAULT_EP_TOL,
    }, _run_exceptional_point),
    "ep-table": ({
        "Z_list": [1, 2, 4, 7], "alpha_list": [0.5, 1.0, 1.5, 2.0],
        "ep_bracket": list(DEFAULT_EP_BRACKET), "ep_tol": DEFAULT_EP_TOL,
    }, _run_ep_table),
    "qfi-dynamics": ({
        "Z_list": None, "t_min": 0.02, "t_max": 1000.0, "t_points": 300,
        "t_spacing": "log",
    }, _run_qfi_dynamics),
    "time-scaling": ({
        "transient_window": [float(TRANSIENT_GRID[0]), float(TRANSIENT_GRID[-1])],
        "transient_points": len(TRANSIENT_GRID),
        "longtime_window": [float(LONGTIME_GRID[0]), float(LONGTIME_GRID[-1])],
        "longtime_points": len(LONGTIME_GRID),
    }, _run_time_scaling),
    "size-scaling": ({
        "N_list": list(DYNAMICAL_N_LIST), "t_eval": 200.0,
    }, _run_size_scaling),
    "stationary-scaling": ({
        "anchor": "critical-point", "dh_list": list(STATIONARY_DH_LIST),
        "N_list": list(STATIONARY_N_LIST), "fd_step": None,
        "ep_bracket": list(DEFAULT_EP_BRACKET),
    }, _run_stationary_scaling),
    "ratio": ({"t0": 200.0, "t1": 1000.0, "n_grid": 801}, _run_ratio),
    "oracle-check": ({
        "N_list": [4, 6, 8], "Z_list": [1, 2], "alpha_list": [1.5],
        "gamma_list": [0.0, 0.3], "h_list": [-0.7, -1.5],
        "t_list": [0.5, 1.0, 2.0], "theta_list": ["h", "gamma"],
        "rel_tol": 1e-8,
    }, _run_oracle_check),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ixysense",
        description="QFI metrology experiments for the long-range iXY chain")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat JSON config file")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default runs/<experiment>)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sweep cells (speed only)")
        p.add_argument("--print-config", action="store_true",
                       help="print the fully resolved config and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.experiment, args.config, args.set)
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        out_dir = args.out if args.out else str(Path("runs") / args.experiment)
        writer = RunWriter(out_dir, args.experiment, cfg)
        try:
            status = EXPERIMENTS[args.experiment][1](cfg, writer, max(1, args.threads))
        except ValueError as exc:  # a value the runner's library call rejected
            raise ConfigError(str(exc)) from exc
        writer.manifest()
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
