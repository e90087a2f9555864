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
per block (blocks.probe_vectors), gauged at each of five stencil points
onto the center vector's largest component and differentiated by central
differences with one Richardson refinement (the analytic eigenvector
derivative is singular at exceptional points, which the stationary scans
deliberately approach).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError
from .model import AnisotropyMode, ModelParams, ThetaKind
from .blocks import _describe, block_arrays, probe_vectors
from .dynamics import mode_columns, trajectory_arrays

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
        raise NumericalError(f"state norm underflow in mode_qfi (norm^2={n})")
    perp = dphi - phi * (np.vdot(phi, dphi) / n)
    return float(4.0 * np.vdot(perp, perp).real / n)


def qfi_curve(params: ModelParams, t_grid, theta_kind: ThetaKind) -> np.ndarray:
    """Dynamical QFI at each time in t_grid, streamed over mode x time chunks.

    The per-mode columns are formed once per curve, in runs of modes of
    one kind (mode_columns), and each run is walked in time-major chunks
    of L = min(run, CHUNK_CELLS) modes by max(1, CHUNK_CELLS // L) times,
    one trajectory_arrays call each: the working memory is one chunk
    beyond the O(N) columns and the O(T) totals, whatever N and T.  The
    per-mode values (cr^2 + ci^2) / n^2, a quarter of the QFI, are formed
    in place over the chunk, summed pairwise along its contiguous mode
    axis by numpy, added into the per-time totals in run and mode order,
    and scaled by 4 at the end.  So the bits of a total do not depend on
    how its times are blocked, and its relative rounding error is at most
    about (log2(CHUNK_CELLS) + 16 + N / (2 CHUNK_CELLS)) eps, as every
    per-mode value is >= 0, not N / 2 eps as for a sequential sum (Higham,
    SIAM J. Sci. Comput. 14, 783 (1993)).
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.ndim > 1:
        raise ValueError(f"evolution times must be a scalar or 1-D, got shape {t_grid.shape}")
    if not np.isfinite(t_grid).all():
        raise ValueError("evolution times must be finite")
    if (t_grid < 0).any():
        raise ValueError("evolution times must be >= 0")
    j_imag, a, b, eps_sq = block_arrays(params)[2:]
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN
    totals = np.zeros(t_grid.size)
    with np.errstate(over="ignore", invalid="ignore"):  # the totals are checked below
        for run in mode_columns(a, b, j_imag, eps_sq, hermitian, t_grid, theta_kind)[1]:
            width = min(run[-1].size, CHUNK_CELLS)
            steps = max(1, CHUNK_CELLS // width)
            for lo in range(0, run[-1].size, width):
                for t0 in range(0, t_grid.size, steps):
                    block = slice(t0, t0 + steps)
                    n, cr, ci = trajectory_arrays(run, t_grid[block], slice(lo, lo + width))
                    # n = 1 + (a^2 + m^2) tau^2 >= 1 in every cell, so the
                    # division below never meets n ~ 0
                    # per-mode QFI over 4, (cr^2 + ci^2) / n^2, on the chunk's own arrays
                    per_mode = np.multiply(cr, cr, out=cr)
                    per_mode += np.multiply(ci, ci, out=ci)
                    per_mode /= np.multiply(n, n, out=n)
                    totals[block] += np.add.reduce(per_mode, axis=1)
    totals *= 4.0
    bad = ~np.isfinite(totals)
    if bad.any():
        raise NumericalError(
            f"non-finite dynamical QFI at {_describe(params)}, t={float(t_grid[bad][0])!r}: "
            "the phase sqrt(eps_sq) t of a mode, or a term of the QFI, overflows")
    return totals


def dynamical_qfi(params: ModelParams, t: float, theta_kind: ThetaKind) -> QfiSample:
    """Fisher information of the evolved chain at time t."""
    return QfiSample(value=float(qfi_curve(params, [t], theta_kind)[0]))


def stationary_qfi(params: ModelParams, theta_kind: ThetaKind) -> QfiSample:
    """Fisher information of the stationary reference probe.

    Per-mode eigenvector derivatives use gauge-fixed central differences
    with one Richardson refinement (steps s and s/2, s = 1e-6 max(1, |theta|)).
    Each of the five stencil points makes one block_arrays and one
    probe_vectors call, which gauges the four off-center points onto the
    center vector's largest component (the pivot): the differenced
    function is the unit eigenvector whose pivot component is real
    positive.  The center vector's own phase drops out of the per-mode
    QFI.  Modes whose eps_sq changes sign inside the stencil straddle an
    exceptional point; the count is reported in meta["straddled_modes"]
    and the value is still returned.
    """
    theta0 = getattr(params, theta_kind.value)  # ThetaKind values name the fields
    step = 1e-6 * max(1.0, abs(theta0))
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN

    with np.errstate(over="ignore", invalid="ignore"):  # overflow: checked below
        a, b = block_arrays(params)[3:5]
        v0, defect0 = probe_vectors(a, b, hermitian)
        pivot = np.argmax(np.abs(v0), axis=1)

        stencil = {}
        eps_edge = {}
        for offs in (-step, -0.5 * step, 0.5 * step, step):
            a, b, eps_edge[offs] = block_arrays(
                replace(params, **{theta_kind.value: theta0 + offs}))[3:]
            stencil[offs] = probe_vectors(a, b, hermitian, pivot)[0]

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
        return RatioResult(mean_ratio=1.0, dropped=0, t=grid,
                           qfi_nh=f, qfi_h=f.copy(), ratio=np.ones_like(grid))

    params_h = replace(params, anisotropy_mode=AnisotropyMode.HERMITIAN)
    f_nh = qfi_curve(params, grid, theta_kind)
    f_h = qfi_curve(params_h, grid, theta_kind)
    valid = f_h > 1e-30
    dropped = int(np.count_nonzero(~valid))
    if np.count_nonzero(valid) < 2:
        raise NumericalError("benchmark QFI vanished on the whole averaging grid")
    tv = grid[valid]
    ratio = f_nh[valid] / f_h[valid]
    # trapezoid rule, in the operation order of scipy's trapezoid()
    area = np.sum(np.diff(tv) * (ratio[1:] + ratio[:-1]) / 2.0)
    mean = float(area / (tv[-1] - tv[0]))
    return RatioResult(mean_ratio=mean, dropped=dropped, t=tv, qfi_nh=f_nh[valid],
                       qfi_h=f_h[valid], ratio=ratio)
