"""Quantum Fisher information of dynamical and stationary probes.

For a pure state family phi(theta), not necessarily normalized, the
Fisher information of one mode is

    F = 4 [ <dphi|dphi> / n  -  |<phi|dphi>|^2 / n^2 ],    n = <phi|phi>.

This is the standard normalized-state expression with the normalization
and the gauge (overall phase) eliminated algebraically, so it can be fed
raw amplitudes.  It is invariant under phi -> c phi, dphi -> c dphi + w phi
for complex constants c, w, and additive over tensor factors, so the
chain total is the plain sum over momentum blocks.  Each block state is
a 2-vector, for which the bracket equals |phi_0 dphi_1 - phi_1 dphi_0|^2 / n^2
(Lagrange's identity); that form is what the sums use, and it cannot go
negative.

Dynamical probe:  evolve the pair vacuum with each block propagator and
differentiate analytically.  Stationary probe:  reference eigenvector
per block, differentiated by gauge-fixed central differences with one
Richardson refinement (the analytic eigenvector derivative is singular
at exceptional points, which the stationary scans deliberately approach).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError, UnderflowError
from .model import AnisotropyMode, ModelParams, ThetaKind
from .blocks import _describe, block_arrays, probe_vectors
from .dynamics import trajectory_arrays

# Mode x time cells that qfi_curve evaluates at once.  Each chunk array is
# then at most 128 KiB, small enough that malloc reuses the same heap pages
# from chunk to chunk instead of returning them to the OS after each one.
CHUNK_CELLS = 1 << 14


@dataclass
class QfiSample:
    """One Fisher-information value and its numerical-health counters."""

    value: float
    meta: dict = field(default_factory=dict)


@dataclass
class RatioResult:
    """Time-averaged ratio of non-Hermitian to Hermitian-benchmark QFI."""

    mean_ratio: float
    n_samples: int
    dropped: int
    t: np.ndarray
    qfi_nh: np.ndarray
    qfi_h: np.ndarray
    ratio: np.ndarray


def mode_qfi(phi, dphi) -> float:
    """Fisher information from one amplitude pair and its derivative.

    Works for any state dimension; the inputs do not need to be
    normalized (the formula divides the normalization out).  It takes
    the projected form 4 |dphi - phi <phi|dphi>/n|^2 / n, n = <phi|phi>,
    which is >= 0 by construction; the expanded form 4 (<dphi|dphi>/n -
    |<phi|dphi>|^2/n^2) cancels badly when dphi is nearly parallel to phi.
    """
    phi = np.asarray(phi, dtype=complex)
    dphi = np.asarray(dphi, dtype=complex)
    n = np.vdot(phi, phi).real
    if n < 1e-300:
        raise UnderflowError(f"state norm underflow in mode_qfi (norm^2={n})")
    perp = dphi - phi * (np.vdot(phi, dphi) / n)
    return float(4.0 * np.vdot(perp, perp).real / n)


def qfi_curve(params: ModelParams, t_grid, theta_kind: ThetaKind) -> np.ndarray:
    """Dynamical QFI at each time in t_grid, streamed over mode x time chunks.

    Each chunk holds about CHUNK_CELLS mode x time cells: a run of modes
    by the whole grid, or, for a grid of more than CHUNK_CELLS times, one
    mode by a block of CHUNK_CELLS times.  The working memory is then one
    chunk beyond the O(N) block arrays and the O(T) totals, whatever N and
    T.  The per-mode values 4 (cr^2 + ci^2) / n^2 are formed in place over
    the chunk's trajectory_arrays output.  A block's running totals are
    added into the first row of the next chunk before that chunk is
    reduced along the mode axis.  numpy reduces a C-ordered array over its
    leading axis row by row, so with two or more times the totals are a
    sequential sum in mode order whatever the chunk size.  (With a single
    time a chunk is one column, which numpy sums pairwise; one chunk then
    holds up to CHUNK_CELLS = 16384 modes.  The default experiments
    evaluate at most 2048 modes (N = 4096), one chunk each.)
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.isfinite(t_grid).all():
        raise ValueError("evolution times must be finite")
    if (t_grid < 0).any():
        raise ValueError("evolution times must be >= 0")
    _, _, j_imag, a, b, eps_sq = block_arrays(params)
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN
    rows = max(1, CHUNK_CELLS // max(t_grid.size, 1))
    totals = np.empty(t_grid.size)
    for t0 in range(0, t_grid.size, CHUNK_CELLS):
        block = slice(t0, t0 + CHUNK_CELLS)
        for lo in range(0, eps_sq.size, rows):
            chunk = slice(lo, lo + rows)
            n, cr, ci, _ = trajectory_arrays(
                a[chunk, None], b[chunk, None], j_imag[chunk, None],
                eps_sq[chunk, None], hermitian, t_grid[None, block], theta_kind)
            # n = C^2 + (a^2 + m^2) S^2 >= 1 in an unrescaled cell and >= 1/4
            # in a rescaled one, so the division below never meets n ~ 0
            # per-mode QFI 4 (cr^2 + ci^2) / n^2, over the chunk's own arrays
            per_mode = np.multiply(cr, cr, out=cr)
            per_mode += np.multiply(ci, ci, out=ci)
            per_mode *= 4.0
            per_mode /= np.multiply(n, n, out=n)
            if lo:
                per_mode[0] += totals[block]  # the sum goes on in mode order
            totals[block] = np.add.reduce(per_mode, axis=0)
    if not np.isfinite(totals).all():
        raise NumericalError(f"non-finite dynamical QFI at {_describe(params)}")
    return totals


def dynamical_qfi(params: ModelParams, t: float, theta_kind: ThetaKind) -> QfiSample:
    """Fisher information of the evolved chain at time t."""
    return QfiSample(value=float(qfi_curve(params, [t], theta_kind)[0]))


def _theta_value(params: ModelParams, theta_kind: ThetaKind) -> float:
    if theta_kind is ThetaKind.FIELD_H:
        return params.h
    return params.gamma


def _with_theta(params: ModelParams, theta_kind: ThetaKind, value: float) -> ModelParams:
    if theta_kind is ThetaKind.FIELD_H:
        return replace(params, h=value)
    return replace(params, gamma=value)


def _probe_set(params: ModelParams):
    """Probe vectors plus eps_sq for every block of one parameter point."""
    _, _, _, a, b, eps_sq = block_arrays(params)
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN
    v, defective = probe_vectors(a, b, hermitian)
    return v, eps_sq, defective


def _regauge(v: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """Rotate each row's phase so its pivot component is real positive.

    Rows whose pivot component vanished (an eigenvector flipped
    orientation entirely between stencil points) keep their own gauge.
    """
    piv = np.take_along_axis(v, pivot[:, None], axis=1)[:, 0]
    mag = np.abs(piv)
    phase = np.where(mag > 0, np.conj(piv) / np.where(mag > 0, mag, 1.0), 1.0)
    return v * phase[:, None]


def stationary_qfi(params: ModelParams, theta_kind: ThetaKind) -> QfiSample:
    """Fisher information of the stationary reference probe.

    Per-mode eigenvector derivatives use gauge-fixed central differences
    with one Richardson refinement (steps s and s/2, s = 1e-6 max(1, |theta|));
    all stencil states are re-gauged against the center state's largest
    component before differencing.  Modes whose eps_sq changes sign
    inside the stencil straddle an exceptional point; the count is
    reported in meta["straddled_modes"] and the value is still returned.
    """
    theta0 = _theta_value(params, theta_kind)
    step = 1e-6 * max(1.0, abs(theta0))

    with np.errstate(over="ignore", invalid="ignore"):  # overflow: checked below
        v0, eps0, defect0 = _probe_set(params)
        pivot = np.argmax(np.abs(v0), axis=1)
        v0 = _regauge(v0, pivot)

        stencil = {}
        eps_edge = {}
        for offs in (-step, -0.5 * step, 0.5 * step, step):
            p_off = _with_theta(params, theta_kind, theta0 + offs)
            v, eps, _ = _probe_set(p_off)
            stencil[offs] = _regauge(v, pivot)
            eps_edge[offs] = eps

        d_full = (stencil[step] - stencil[-step]) / (2.0 * step)
        d_half = (stencil[0.5 * step] - stencil[-0.5 * step]) / step
        dv = (4.0 * d_half - d_full) / 3.0

        n = np.sum(v0.real ** 2 + v0.imag ** 2, axis=1)
        cross = v0[:, 0] * dv[:, 1] - v0[:, 1] * dv[:, 0]
        per_mode = 4.0 * (cross.real ** 2 + cross.imag ** 2) / (n * n)
    if not np.isfinite(per_mode).all():
        raise NumericalError(f"non-finite stationary QFI at {_describe(params)}")
    total = math.fsum(per_mode)

    straddled = int(np.count_nonzero(
        np.sign(eps_edge[step]) != np.sign(eps_edge[-step])))
    meta = {
        "straddled_modes": straddled,
        "defective_modes": int(np.count_nonzero(defect0)),
    }
    return QfiSample(value=total, meta=meta)


def qfi_ratio_time_avg(params: ModelParams, theta_kind: ThetaKind,
                       t0: float = 200.0, t1: float = 1000.0,
                       n_grid: int = 801) -> RatioResult:
    """Trapezoid time average of F_nonHermitian / F_Hermitian on [t0, t1].

    The benchmark replaces the imaginary anisotropy i*gamma by the real
    value gamma in the same chain.  Grid points where the benchmark QFI
    falls below 1e-30 are dropped and counted.  With gamma = 0 the two
    models coincide and the ratio is 1 identically.
    """
    if not (t1 > t0 >= 0):
        raise ValueError(f"need t1 > t0 >= 0, got [{t0}, {t1}]")
    if n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {n_grid}")
    grid = np.linspace(t0, t1, n_grid)

    if params.gamma == 0.0 or params.anisotropy_mode is AnisotropyMode.HERMITIAN:
        f = qfi_curve(params, grid, theta_kind)
        return RatioResult(mean_ratio=1.0, n_samples=n_grid, dropped=0, t=grid,
                           qfi_nh=f, qfi_h=f.copy(), ratio=np.ones_like(grid))

    params_h = replace(params, anisotropy_mode=AnisotropyMode.HERMITIAN)
    f_nh = qfi_curve(params, grid, theta_kind)
    f_h = qfi_curve(params_h, grid, theta_kind)
    valid = f_h > 1e-30
    dropped = int(np.count_nonzero(~valid))
    if np.count_nonzero(valid) < 2:
        raise UnderflowError("benchmark QFI vanished on the whole averaging grid")
    tv = grid[valid]
    ratio = f_nh[valid] / f_h[valid]
    # trapezoid rule, in the operation order of scipy's trapezoid()
    area = np.sum(np.diff(tv) * (ratio[1:] + ratio[:-1]) / 2.0)
    mean = float(area / (tv[-1] - tv[0]))
    return RatioResult(mean_ratio=mean, n_samples=int(np.count_nonzero(valid)),
                       dropped=dropped, t=tv, qfi_nh=f_nh[valid], qfi_h=f_h[valid],
                       ratio=ratio)
