"""Momentum-space mode blocks, dispersion, and phase classification.

Each momentum pair (phi, -phi) contributes an independent two-level
block spanned by the pair vacuum and the doubly excited pair state.
With a = h + Re J(phi) and b = gamma * Im J(phi) the traceless block
reads

    M = [[-a, -b], [ b, a]]     (imaginary anisotropy, non-Hermitian)
    M = [[-a, -b], [-b, a]]     (real anisotropy, Hermitian benchmark)

and squares to eps_sq * I with eps_sq = a^2 - b^2 (non-Hermitian) or
a^2 + b^2 (Hermitian).  A negative eps_sq marks a broken block: a pair
of complex-conjugate eigenvalues and exponential amplitude growth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import NumericalError
from .model import AnisotropyMode, ModelParams, grid_coupling

# Classification tolerance: eigenvalue-squared magnitudes below this are
# treated as coalesced rather than resolved into a sign.
TOL_PHASE = 1e-12


@dataclass(frozen=True)
class ModeBlock:
    """One momentum block and its derived quantities."""

    p: int
    a: float
    b: float
    eps_sq: float
    j_imag: float
    hermitian: bool

    def matrix(self) -> np.ndarray:
        """The traceless 2x2 block."""
        lower = -self.b if self.hermitian else self.b
        return np.array([[-self.a, -self.b], [lower, self.a]], dtype=complex)


class PhaseLabel(Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"


@dataclass(frozen=True)
class SpectrumClassification:
    label: PhaseLabel
    min_eps_sq: float
    argmin_mode: int


@dataclass(frozen=True)
class ModeState:
    """Amplitudes on one block's (vacuum, pair) basis.

    prenorm is the norm the amplitudes had before normalization.
    log_scale records an inert common factor exp(-log_scale) applied to
    unnormalized amplitudes to keep them inside double range; it cancels
    in any quantum Fisher information built from the state.
    """

    amp0: complex
    amp2: complex
    prenorm: float | None = None
    log_scale: float = 0.0

    def vector(self) -> np.ndarray:
        return np.array([self.amp0, self.amp2], dtype=complex)


def _describe(params: ModelParams) -> str:
    """One-line parameter summary for error messages."""
    return (f"N={params.N}, Z={params.Z}, alpha={params.alpha}, gamma={params.gamma}, "
            f"h={params.h}, {params.anisotropy_mode.value}")


def block_arrays(params: ModelParams):
    """Vectorized block data: (phi, j_real, j_imag, a, b, eps_sq).

    Every run path reads these columns; build_blocks wraps them in
    dataclass records, a view for the acceptance suite.  J(phi) is
    model.grid_coupling's, computed once per coupling (N, Z, alpha); each
    call returns arrays of its own.
    """
    phi, j = grid_coupling(params.N, params.Z, params.alpha)
    j_real = j.real.copy()
    j_imag = j.imag.copy()
    a = params.h + j_real
    b = params.gamma * j_imag
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: checked below
        if params.anisotropy_mode is AnisotropyMode.HERMITIAN:
            eps_sq = a * a + b * b
        else:
            eps_sq = a * a - b * b
    if not np.isfinite(eps_sq).all():
        raise NumericalError(f"non-finite eps_sq at {_describe(params)}")
    return phi.copy(), j_real, j_imag, a, b, eps_sq


def build_blocks(params: ModelParams) -> list[ModeBlock]:
    """All mode blocks of the chain, ascending p."""
    _, _, j_imag, a, b, eps_sq = block_arrays(params)
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN
    return [
        ModeBlock(p=i + 1, a=float(a[i]), b=float(b[i]), eps_sq=float(eps_sq[i]),
                  j_imag=float(j_imag[i]), hermitian=hermitian)
        for i in range(len(a))
    ]


def classify_modes(eps_sq) -> tuple[np.ndarray, SpectrumClassification]:
    """Which of modes p = 1, 2, ... are broken (eps_sq below -TOL_PHASE),
    and the spectrum's class: broken iff its smallest eps_sq is."""
    eps_sq = np.asarray(eps_sq, dtype=float)
    if not eps_sq.size:
        raise ValueError("no blocks to classify")
    broken = eps_sq < -TOL_PHASE
    i = int(np.argmin(eps_sq))
    label = PhaseLabel.BROKEN if broken[i] else PhaseLabel.UNBROKEN
    return broken, SpectrumClassification(label=label, min_eps_sq=float(eps_sq[i]),
                                          argmin_mode=i + 1)


def classify_phase(blocks: list[ModeBlock]) -> SpectrumClassification:
    """classify_modes over the blocks' eps_sq, naming the argmin by its p."""
    _, cls = classify_modes([blk.eps_sq for blk in blocks])
    return replace(cls, argmin_mode=blocks[cls.argmin_mode - 1].p)


def probe_vectors(a, b, hermitian: bool, pivot=None):
    """Batched reference eigenvectors for blocks given by arrays a, b.

    Returns (V, defective): V has shape (m, 2), each row of unit norm and
    gauge-fixed so its pivot component is real and >= 0.  The pivot is the
    row's largest-magnitude component, or the one that the array `pivot`
    (0 or 1 per row) names, wherever that one's square is a normal double.
    With m = M_10 (b non-Hermitian, -b Hermitian) the block has
    eigenvalues +-sqrt(x), x = a^2 - m b.  The reference eigenvalue is
    lam = -sqrt(x) (lowest real part) when x > 0, and +i sqrt(|x|)
    (largest imaginary part) when x < 0.  Both rows of (M - lam) give an
    eigenvector, (b, -(a + lam)) and (a - lam, -m); the longer one is
    kept, which avoids cancellation.  Non-Hermitian rows within
    TOL_PHASE of coalescence take lam = 0, which yields the merging
    eigendirection (b, -a), and are flagged; vanishing blocks fall back
    to the vacuum basis vector, also flagged.  The arithmetic is real:
    lam is carried as its real and imaginary parts, and only the second
    component of the kept row can be complex.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = -b if hermitian else b
    x = a * a - m * b
    abs_x = np.abs(x)
    defective = (abs_x <= TOL_PHASE) & (not hermitian)
    minus_root = np.where(defective, 0.0, -np.sqrt(abs_x))
    unbroken = x > (0.0 if hermitian else TOL_PHASE)
    lam_re = np.where(unbroken, minus_root, 0.0)

    # |(b, -(a + lam))|^2 - |(a - lam, -m)|^2 = -4 a Re lam, so the second
    # row is the longer one exactly where lam < 0 and a > 0
    use_w = unbroken & (a > 0.0)
    v0 = np.where(use_w, a - lam_re, b)
    v1r = np.where(use_w, -m, -(a + lam_re))
    v1i = np.where(unbroken, 0.0, minus_root)
    degenerate = (a == 0.0) & (b == 0.0)
    v0[degenerate] = 1.0
    defective |= degenerate

    # gauge: v conj(p) / (|p| |v|) with p the pivot component, which maps
    # p to |p| / |v| with an imaginary part of exactly 0
    n0 = v0 * v0
    n1 = v1r * v1r + v1i * v1i
    on_v1 = n1 > n0
    if pivot is not None:
        pivot = np.asarray(pivot, dtype=bool)
        on_v1 = np.where(np.where(pivot, n1, n0) >= np.finfo(float).tiny, pivot, on_v1)
    p_re, p_im = np.where(on_v1, v1r, v0), np.where(on_v1, v1i, 0.0)
    scale = 1.0 / (np.sqrt(np.where(on_v1, n1, n0)) * np.sqrt(n0 + n1))
    v = np.empty((len(a), 4))
    np.multiply(v0 * p_re, scale, out=v[:, 0])
    np.multiply(v0 * p_im, -scale, out=v[:, 1])
    np.multiply(v1r * p_re + v1i * p_im, scale, out=v[:, 2])
    np.multiply(v1i * p_re - v1r * p_im, scale, out=v[:, 3])
    return v.view(complex), defective
