"""Output checks for one task, and reference values to compare against.

A task fails when its exit code is not 0, when any number in its CSV
files or fits.json is not finite, when any QFI is below zero, or, for
oracle-check, when a cell's rel_diff exceeds the run's rel_tol.

`summarize` reduces a task's outputs to a few named values of known
kind; `compare` checks them against values recorded at an earlier
commit, with a tolerance per kind (see TOLERANCES).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Tolerance per kind of output, with the scale it applies to: "rel" is
# relative to the reference value, "abs" absolute, and "oracle" relative
# to max(|reference|, 1), the oracle-check's own rel_diff convention.
# Each tolerance is at least 30 times the largest change that moving
# every float input of the seed-0 tasks by 2 ulp produces; README.md
# gives the measured changes.
TOLERANCES = {
    "qfi_dyn": (1e-8, "rel"),      # dynamical QFI, momentum route
    "fit_dyn": (1e-8, "abs"),      # power-law slopes of dynamical QFI
    "ratio": (1e-8, "rel"),        # time-averaged QFI ratio and its samples
    "qfi_dense": (1e-8, "oracle"), # dense-oracle QFI (finite differences)
    "h_e": (2e-9, "abs"),          # bisected exceptional point: 2 x ep_tol
    "eps_sq_sum": (1e-13, "rel"),  # sum of eps_sq over all modes
    "min_eps_sq": (1e-12, "abs"),  # smallest eps_sq
    # Stationary QFI at offsets dh != 0 from the anchor.  A one-step
    # change in the exceptional-point bisection (1e-9) moves the
    # smallest offset (1e-4) by 1e-5 of itself, hence the wide band.
    "qfi_stat": (1e-4, "rel"),
    "fit_stat": (1e-4, "abs"),
}

QFI_COLUMNS = {"qfi", "qfi_nh", "qfi_h", "qfi_mode", "qfi_dense"}


class OutputError(Exception):
    """A task's outputs break one of the checks."""


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _number(text: str) -> float | None:
    """The float in a CSV field, or None for a label such as 'h' or 'mean'."""
    try:
        return float(text)
    except ValueError:
        return None


def _finite_json(value, where: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise OutputError(f"{where}: non-finite number {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _finite_json(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _finite_json(item, f"{where}[{i}]")


def check_outputs(out_dir: Path) -> None:
    """Raise OutputError if the task's files break a check."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name in manifest["outputs"]:
        path = out_dir / name
        if name.endswith(".json"):
            _finite_json(json.loads(path.read_text()), name)
            continue
        header, rows = read_csv(path)
        for row in rows:
            for column, text in zip(header, row):
                value = _number(text)
                if value is None:
                    continue
                if not math.isfinite(value):
                    raise OutputError(f"{name}: non-finite {column} {text!r}")
                if column in QFI_COLUMNS and value < 0.0:
                    raise OutputError(f"{name}: negative {column} {value!r}")
        if name == "oracle_check.csv":
            tol = float(manifest["config"]["rel_tol"])
            worst = worst_rel_diff(out_dir)
            if worst > tol:
                raise OutputError(f"oracle rel_diff {worst:.3e} exceeds rel_tol {tol:.1e}")


def worst_rel_diff(out_dir: Path) -> float:
    """Largest momentum/dense rel_diff of an oracle-check task."""
    header, rows = read_csv(out_dir / "oracle_check.csv")
    col = header.index("rel_diff")
    return max(float(row[col]) for row in rows)


def _column(rows, header, name) -> list[float]:
    col = header.index(name)
    return [float(row[col]) for row in rows]


def summarize(experiment: str, out_dir: Path, config: dict) -> dict[str, tuple[str, float]]:
    """Named reference values of one task: {name: (kind, value)}."""
    out: dict[str, tuple[str, float]] = {}

    def series(kind: str, prefix: str, values, every: int) -> None:
        for i in range(0, len(values), every):
            out[f"{prefix}[{i}]"] = (kind, values[i])

    def fits(kind: str, skip=()) -> None:
        for rec in json.loads((out_dir / "fits.json").read_text())["fits"]:
            if rec["group"] not in skip:
                out[f"slope:{rec['group']}"] = (kind, rec["slope"])

    if experiment == "qfi-dynamics":
        for path in sorted(out_dir.glob("qfi_dynamics_Z*.csv")):
            header, rows = read_csv(path)
            series("qfi_dyn", path.stem, _column(rows, header, "qfi"), 30)
    elif experiment == "time-scaling":
        header, rows = read_csv(out_dir / "time_scaling.csv")
        series("qfi_dyn", "qfi", _column(rows, header, "qfi"), 20)
        fits("fit_dyn")
    elif experiment == "size-scaling":
        header, rows = read_csv(out_dir / "size_scaling.csv")
        series("qfi_dyn", "qfi", _column(rows, header, "qfi"), 1)
        fits("fit_dyn")
    elif experiment == "ratio":
        header, rows = read_csv(out_dir / "ratio.csv")
        body = [row for row in rows if row[0] != "mean"]
        series("ratio", "ratio", _column(body, header, "ratio"), 100)
        out["mean_ratio"] = ("ratio", float(rows[-1][header.index("ratio")]))
    elif experiment in ("exceptional-point", "ep-table"):
        name = "exceptional_point.csv" if experiment == "exceptional-point" else "ep_table.csv"
        header, rows = read_csv(out_dir / name)
        series("h_e", "h_e", _column(rows, header, "h_e"), 1)
    elif experiment == "dispersion":
        header, rows = read_csv(out_dir / "dispersion.csv")
        eps = _column(rows, header, "eps_sq")
        out["eps_sq_sum"] = ("eps_sq_sum", math.fsum(eps))
        out["min_eps_sq"] = ("min_eps_sq", min(eps))
    elif experiment == "stationary-scaling":
        # At the exceptional-point anchor, dh = 0 sits within ep_tol of a
        # point where the stationary QFI diverges: its value there is not
        # determined to better than O(1) and is only checked for sign.
        skip = {repr(0.0)} if config.get("anchor") == "exceptional-point" else set()
        header, rows = read_csv(out_dir / "stationary_scaling.csv")
        for row in rows:
            dh, n, qfi, group = row
            if group not in skip:
                out[f"qfi[{dh},{n}]"] = ("qfi_stat", float(qfi))
        fits("fit_stat", skip)
    elif experiment == "oracle-check":
        header, rows = read_csv(out_dir / "oracle_check.csv")
        series("qfi_dyn", "qfi_mode", _column(rows, header, "qfi_mode"), 1)
        series("qfi_dense", "qfi_dense", _column(rows, header, "qfi_dense"), 1)
    return out


def compare(summary: dict, reference: dict) -> list[str]:
    """Messages for every value outside its kind's tolerance."""
    problems = []
    for name, (kind, ref) in reference.items():
        if name not in summary:
            problems.append(f"{name}: missing")
            continue
        value = summary[name][1]
        tol, how = TOLERANCES[kind]
        scale = {"rel": abs(ref), "abs": 1.0, "oracle": max(abs(ref), 1.0)}[how]
        if not abs(value - ref) <= tol * scale:
            problems.append(f"{name}: {value!r} vs reference {ref!r} "
                            f"({kind}: differs by more than {tol:.0e} {how})")
    return problems
