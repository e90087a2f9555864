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
from .model import AnisotropyMode, ModelParams, coupling_profile, mode_angles, momentum_coupling

# Classification tolerance: eigenvalue-squared magnitudes below this are
# treated as coalesced rather than resolved into a sign.
TOL_PHASE = 1e-12


@dataclass(frozen=True)
class ModeBlock:
    """One momentum block and its derived quantities."""

    p: int
    phi: float
    a: float
    b: float
    eps_sq: float
    j_real: float
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
    dataclass records, a view for the acceptance suite.
    """
    phi = mode_angles(params)
    profile = coupling_profile(params.alpha, params.Z)
    j = momentum_coupling(profile, phi)
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
    return phi, j_real, j_imag, a, b, eps_sq


def build_blocks(params: ModelParams) -> list[ModeBlock]:
    """All mode blocks of the chain, ascending p."""
    phi, j_real, j_imag, a, b, eps_sq = block_arrays(params)
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN
    return [
        ModeBlock(p=i + 1, phi=float(phi[i]), a=float(a[i]), b=float(b[i]),
                  eps_sq=float(eps_sq[i]), j_real=float(j_real[i]),
                  j_imag=float(j_imag[i]), hermitian=hermitian)
        for i in range(len(phi))
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


def probe_vectors(a, b, hermitian: bool):
    """Batched reference eigenvectors for blocks given by arrays a, b.

    Returns (V, defective): V has shape (m, 2), each row normalized and
    gauge-fixed so its largest-magnitude component is real positive.
    With m = M_10 (b non-Hermitian, -b Hermitian) the block has
    eigenvalues +-sqrt(x), x = a^2 - m b.  The reference eigenvalue is
    lam = -sqrt(x) (lowest real part) when x > 0, and +i sqrt(|x|)
    (largest imaginary part) when x < 0.  Both rows of (M - lam) give an
    eigenvector, (b, -(a + lam)) and (a - lam, -m); the longer one is
    kept, which avoids cancellation.  Non-Hermitian rows within
    TOL_PHASE of coalescence take lam = 0, which yields the merging
    eigendirection (b, -a), and are flagged; vanishing blocks fall back
    to the vacuum basis vector, also flagged.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = -b if hermitian else b
    x = a * a - m * b
    root = np.sqrt(np.abs(x))
    lam = np.where(x > 0, -root, 1j * root)
    defective = (np.abs(x) <= TOL_PHASE) & (not hermitian)
    lam[defective] = 0.0

    u0, u1 = b, -(a + lam)
    w0, w1 = a - lam, -m
    keep_u = u0 * u0 + np.abs(u1) ** 2 >= np.abs(w0) ** 2 + w1 * w1
    v = np.stack([np.where(keep_u, u0, w0), np.where(keep_u, u1, w1)], axis=1)

    degenerate = (a == 0.0) & (b == 0.0)
    v[degenerate] = (1.0, 0.0)
    defective |= degenerate

    # gauge: largest-magnitude component real positive, unit norm
    mags = np.abs(v)
    piv = np.take_along_axis(v, np.argmax(mags, axis=1)[:, None], axis=1)[:, 0]
    safe = np.abs(piv) > 0
    phase = np.ones(len(a), dtype=complex)
    phase[safe] = np.conj(piv[safe]) / np.abs(piv[safe])
    v *= phase[:, None]
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v, defective
