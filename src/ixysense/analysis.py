"""Exceptional-point location, power-law fits, and scaling sweeps."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .model import (AnisotropyMode, ModelParams, ThetaKind, coupling_profile,
                    critical_field_zero, grid_coupling, momentum_coupling)
from .metrology import dynamical_qfi, qfi_curve, stationary_qfi

# Time grids used throughout the scaling studies: the transient window
# before the first dispersion-scale revival, and the late window where
# every spectrum class has settled into its asymptotic growth.  The
# transient upper edge sits at t = 1: beyond it the growth visibly
# rolls over and the fitted exponent starts sliding with the window.
TRANSIENT_GRID = tuple(np.geomspace(0.02, 1.0, 60))
LONGTIME_GRID = tuple(np.geomspace(200.0, 1000.0, 60))

DYNAMICAL_N_LIST = (128, 256, 512, 1024, 2048, 4096)
STATIONARY_N_LIST = (1024, 2048, 4096, 8192)
# Negative offsets walk from either anchor toward (and past) the
# unbroken side, where the stationary state is unique and the size
# scaling is smooth; positive offsets from the exceptional point dive
# deeper into the broken dome, where the fitted exponent never settles
# (nearest-mode distances to the interior dispersion zeros vary
# quasirandomly with N).  dh = 0 sits exactly on the anchor.
STATIONARY_DH_LIST = (0.0, -1e-4, -1e-3, -1e-2, -1e-1)

# The finest odd-angle grid of the exceptional-point search, the positive-half
# mode count of a 2^17-site chain.  It sets the polish cell, pi / EP_SCAN_ANGLES
# either side of the grid's best angle, and caps the coarse grid, so no search
# costs more than one scan of this many angles.  The polish searches continuous
# angles, so the boundary comes out free of the O((2 pi / N)^2) grid
# shift that the discrete classification of any single finite chain carries.
EP_SCAN_ANGLES = 1 << 16


class ScalingAnchor(Enum):
    EXCEPTIONAL_POINT = "exceptional-point"
    CRITICAL_POINT = "critical-point"


@dataclass(frozen=True)
class EPResult:
    """Lower edge of the broken dome, and the number of angles at which its
    search evaluated g: coarse grid, refinement midpoints and polish."""

    h_e: float
    iterations: int


@dataclass(frozen=True)
class PowerFit:
    """Least-squares line through (log10 x, log10 value)."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int
    stderr: float
    n_excluded: int


@dataclass
class TimeScalingResult:
    t: np.ndarray
    qfi: np.ndarray
    transient_fit: PowerFit
    longtime_fit: PowerFit


@dataclass
class SizeScalingResult:
    N: np.ndarray
    qfi: np.ndarray
    fit: PowerFit


@dataclass
class StationaryRow:
    """QFI against N at the field anchor + dh."""

    dh: float
    N: np.ndarray
    qfi: np.ndarray
    fit: PowerFit
    straddled_modes: int


@dataclass
class StationaryScalingResult:
    anchor_value: float
    rows: tuple[StationaryRow, ...]


def run_cells(fn, cells, threads: int = 1) -> list:
    """Apply fn to each cell, optionally on a thread pool.

    The pool holds min(threads, cells, usable CPUs) workers, and the cells
    run in order when that is 1.  Results come back in cell order
    regardless of thread count, and each cell is a pure computation, so
    the output is identical for any threads value.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, len(cells), cpus)
    if workers <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


class Polish(NamedTuple):
    """Minimizer, minimum and evaluation count of a bounded scalar search."""

    x: float
    fun: float
    nfev: int


def minimize_scalar(fun, bounds, xatol: float, maxiter: int) -> Polish:
    """Minimize a unimodal fun on bounds = (a, b) by golden-section search.

    Two interior points split the bracket in the golden ratio G; each further
    evaluation drops the side beyond the worse one, so the bracket shrinks
    by 1/G (Kiefer, Proc. AMS 4, 502 (1953)).  It stops once the bracket is
    no wider than xatol, after 2 + ceil(log((b - a) / xatol) / log G)
    evaluations, or after maxiter, and returns the better interior point.
    """
    a, b = bounds
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd, nfev = fun(c), fun(d), 2
    while b - a > xatol and nfev < maxiter:
        if fc <= fd:  # a minimum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
        nfev += 1
    return Polish(c, fc, nfev) if fc <= fd else Polish(d, fd, nfev)


def find_exceptional_point(params: ModelParams) -> EPResult:
    """Lower edge of the broken dome: h_e = -max_phi g(phi), g = J^R + |gamma J^I|.

    A mode is broken exactly when |h + J^R| < |gamma J^I|, so every mode
    is unbroken for h <= -max g and the maximizing mode breaks just
    above.  The maximum is certified by branch and bound: g = max(h+, h-),
    h+- = J^R +- gamma J^I, |h+-''| <= K = (1 + gamma) sum r^2 J_r, so a
    cell of width d holds no g above max(its ends) + K d^2 / 8.  The cells
    lie between m >= 4Z + 4 odd angles (EP_SCAN_ANGLES at most, or if K
    overflows), J on them from grid_coupling; g is even about 0 and pi,
    so each edge half-cell reflects into a full cell with equal ends.  Cells
    bounded below the best g seen are dropped, the rest halved until the
    midpoints are the odd angles of EP_SCAN_ANGLES.  A golden-section search
    within a step of the best of these gives h_e free of any finite chain's
    grid shift.  The midpoints and the search take J by direct sums.
    """
    gamma = abs(params.gamma)
    if params.anisotropy_mode is AnisotropyMode.HERMITIAN or gamma == 0.0:
        raise NumericalError(
            f"no exceptional point: every mode is unbroken at every h for "
            f"anisotropy={params.anisotropy_mode.value}, gamma={params.gamma!r}")
    profile = coupling_profile(params.alpha, params.Z)

    def g(j):
        return j.real + gamma * abs(j.imag)

    r = np.arange(1, params.Z + 1)
    curvature = (1.0 + gamma) * float(r * r @ profile.weights)
    m = min(EP_SCAN_ANGLES, max(8, 1 << (4 * params.Z + 3).bit_length()))
    m = m if math.isfinite(curvature) else EP_SCAN_ANGLES
    # positions are integers in units of pi / full: the EP_SCAN_ANGLES grid
    # is the odd integers, which a capped coarse grid already is (w = 1)
    full = 2 * EP_SCAN_ANGLES
    w = full // m if m < EP_SCAN_ANGLES else 1
    angles, j = grid_coupling(2 * m, params.Z, params.alpha)
    gi = g(j)
    best, evaluated = float(gi.max()), m
    if w > 1:  # cells [a, a + w]; each edge half-cell reflected into a full one
        a = np.arange(-1, 2 * m, 2) * (w // 2)
        ga, gb = np.concatenate((gi[:1], gi)), np.concatenate((gi, gi[-1:]))
    while w > 1:
        # the mirror halves of edge cells drop; 2^-40 (1 + gamma) covers rounding
        slack = curvature * (w * math.pi / full) ** 2 / 8 + 2.0 ** -40 * (1.0 + gamma)
        keep = (best - np.maximum(ga, gb) <= slack) & (a + w > 0) & (a < full)
        a, ga, gb, w = a[keep], ga[keep], gb[keep], w // 2
        idx = a + w
        angles = idx * math.pi / full
        gi = g(momentum_coupling(profile, angles))
        best, evaluated = max(best, float(gi.max())), evaluated + idx.size
        a, ga, gb = np.concatenate((a, idx)), np.concatenate((ga, gi)), np.concatenate((gi, gb))
    phi_k = float(angles[np.argmax(gi)])
    step = math.pi / EP_SCAN_ANGLES
    res = minimize_scalar(lambda phi: -g(momentum_coupling(profile, phi)),
                          bounds=(max(phi_k - step, 1e-300), min(phi_k + step, math.pi)),
                          xatol=1e-13, maxiter=300)
    # res.fun is -g at the polished angle; keep the best grid value if it is higher
    return EPResult(h_e=min(-best, float(res.fun)), iterations=evaluated + res.nfev)


def fit_power_law(x, y, window: tuple[float, float]) -> PowerFit:
    """Ordinary least squares on (log10 x, log10 y).

    Points outside the window, non-finite, or with non-positive x or y
    are excluded and counted.  Needs at least three usable points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (np.isfinite(x) & np.isfinite(y) & (x > 0.0) & (y > 0.0)
            & (window[0] <= x) & (x <= window[1]))
    # math.log10 per point: np.log10 differs from it in the last bit
    lx = np.array([math.log10(v) for v in x[keep]])
    ly = np.array([math.log10(v) for v in y[keep]])
    n = lx.size
    if n < 3:
        raise NumericalError(f"need >= 3 usable points for a power-law fit, got {n}")
    xm = lx.mean()
    ym = ly.mean()
    sxx = float(np.sum((lx - xm) ** 2))
    if sxx == 0.0:
        raise NumericalError("all abscissas coincide; slope undefined")
    slope = float(np.sum((lx - xm) * (ly - ym)) / sxx)
    intercept = ym - slope * xm
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ym) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    return PowerFit(slope=slope, intercept=float(intercept), r_squared=r_squared,
                    window=(float(window[0]), float(window[1])), n_points=n,
                    stderr=stderr, n_excluded=x.size - n)


def sweep_time_scaling(params: ModelParams, theta_kind: ThetaKind,
                       transient_grid=None, longtime_grid=None) -> TimeScalingResult:
    """QFI growth exponents in the transient and late-time windows."""
    tg = np.asarray(transient_grid if transient_grid is not None else TRANSIENT_GRID,
                    dtype=float)
    lg = np.asarray(longtime_grid if longtime_grid is not None else LONGTIME_GRID,
                    dtype=float)
    t = np.concatenate([tg, lg])
    qfi = qfi_curve(params, t, theta_kind)
    return TimeScalingResult(
        t=t, qfi=qfi,
        transient_fit=fit_power_law(t, qfi, (float(tg.min()), float(tg.max()))),
        longtime_fit=fit_power_law(t, qfi, (float(lg.min()), float(lg.max()))))


def sweep_size_scaling(params: ModelParams, theta_kind: ThetaKind,
                       t_eval: float = 200.0, N_list=None,
                       threads: int = 1) -> SizeScalingResult:
    """QFI versus chain size at a fixed evolution time."""
    sizes = np.array(N_list if N_list is not None else DYNAMICAL_N_LIST)

    def cell(n) -> float:
        return dynamical_qfi(replace(params, N=int(n)), t_eval, theta_kind).value

    qfi = np.array(run_cells(cell, sizes, threads))
    return SizeScalingResult(N=sizes, qfi=qfi, fit=fit_power_law(
        sizes, qfi, (float(sizes.min()), float(sizes.max()))))


def resolve_anchor(params: ModelParams, anchor: ScalingAnchor) -> float:
    """Field value of the requested anchor.

    The exceptional-point anchor is the dispersion's own boundary (a
    continuous-angle maximum), so it does not inherit the O((2pi/N)^2)
    grid shift of any individual swept size.
    """
    if anchor is ScalingAnchor.CRITICAL_POINT:
        return critical_field_zero()
    return find_exceptional_point(params).h_e


def sweep_stationary_scaling(params: ModelParams, theta_kind: ThetaKind,
                             dh_list=None, N_list=None,
                             anchor: ScalingAnchor = ScalingAnchor.CRITICAL_POINT,
                             threads: int = 1) -> StationaryScalingResult:
    """Stationary QFI size scaling at fields anchor + dh.

    For each offset dh the stationary QFI across N_list at the field
    anchor + dh (the h of params is ignored) is fitted to a power law in N.
    The cells run size-major: each N's J(phi) fills the memo of grid_coupling
    before that N's offsets go to the pool, so it is computed once.  Then regroup by dh.
    """
    offsets = tuple(dh_list if dh_list is not None else STATIONARY_DH_LIST)
    sizes = np.array(N_list if N_list is not None else STATIONARY_N_LIST)
    window = (float(sizes.min()), float(sizes.max()))
    anchor_value = resolve_anchor(params, anchor)

    flat = []
    for n in sizes.tolist():
        grid_coupling(n, params.Z, params.alpha)
        flat += run_cells(lambda dh: stationary_qfi(
            replace(params, N=n, h=anchor_value + dh), theta_kind), offsets, threads)
    rows = []
    for i, dh in enumerate(offsets):
        samples = flat[i::len(offsets)]
        qfi = np.array([s.value for s in samples])
        rows.append(StationaryRow(
            dh=dh, N=sizes, qfi=qfi, fit=fit_power_law(sizes, qfi, window),
            straddled_modes=sum(s.meta["straddled_modes"] for s in samples)))
    return StationaryScalingResult(anchor_value=anchor_value, rows=tuple(rows))
