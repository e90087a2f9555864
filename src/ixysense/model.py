"""Parameters and Kac-normalized long-range couplings of the iXY chain.

The chain couples each site j to its Z nearest neighbors on a periodic
ring of N sites, with algebraically decaying weights

    J_r(alpha) = r^(-alpha) / K(alpha),      K(alpha) = sum_{r=1}^{Z} r^(-alpha),

so that sum_r J_r = 1 for every (alpha, Z).  The Kac factor K keeps the
total coupling strength intensive as the interaction range grows.

Momentum space enters through the coupling transform

    J(phi) = sum_{r=1}^{Z} J_r exp(i r phi),

evaluated on the half-integer grid phi_p = (2p - 1) pi / N that a
fermionic representation with antiperiodic boundary conditions selects
in the even-parity sector.  grid_coupling owns J on that grid: r phi_p
is an odd multiple of 2 pi / (2N), so J is the odd bins of one real FFT
of length 2N with the weights folded mod 2N, O(N log N) and exact in
every harmonic.  momentum_coupling is the direct Z-term sum at any
other angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


class AnisotropyMode(Enum):
    """Imaginary (iXY) or real (XY benchmark) anisotropy in the couplings."""

    NON_HERMITIAN = "non-hermitian"
    HERMITIAN = "hermitian"


class ThetaKind(Enum):
    """Which parameter the probe estimates: the field h or the anisotropy gamma."""

    FIELD_H = "h"
    ANISOTROPY_GAMMA = "gamma"


@dataclass(frozen=True)
class ModelParams:
    """Complete parameter set of one chain.

    N     -- number of sites, even, >= 4
    Z     -- interaction range, 1 <= Z <= N/2
    alpha -- coupling decay exponent, >= 0
    gamma -- anisotropy strength
    h     -- transverse field
    """

    N: int
    Z: int
    alpha: float
    gamma: float
    h: float
    anisotropy_mode: AnisotropyMode = AnisotropyMode.NON_HERMITIAN

    def __post_init__(self):
        if self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 4, got N={self.N}")
        if not 1 <= self.Z <= self.N // 2:
            raise ValueError(f"Z must satisfy 1 <= Z <= N/2, got Z={self.Z} at N={self.N}")
        for name in ("alpha", "gamma", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name}={getattr(self, name)}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got alpha={self.alpha}")


@dataclass(frozen=True)
class CouplingProfile:
    """The normalized weights J_r, r = 1..Z."""

    weights: np.ndarray


def kac_factor(alpha: float, Z: int) -> float:
    """K(alpha) = sum_{r=1}^{Z} r^(-alpha), exactly rounded (fsum)."""
    if Z < 1:
        raise ValueError(f"Z must be >= 1, got {Z}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return math.fsum(float(r) ** (-alpha) for r in range(1, Z + 1))


def coupling_profile(alpha: float, Z: int) -> CouplingProfile:
    """Normalized coupling weights J_r = r^(-alpha) / K(alpha)."""
    r = np.arange(1, Z + 1, dtype=float)
    return CouplingProfile(weights=r ** (-alpha) / kac_factor(alpha, Z))


@lru_cache(maxsize=1)
def grid_coupling(N: int, Z: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Momentum grid phi_p = (2p - 1) pi / N, p = 1 .. N/2, and J(phi), read-only.

    One block per (phi, -phi) pair, N fermionic modes in total; this is
    the counting that matches the dense oracle.  J is the odd bins of one
    real FFT of length 2N, the weights folded mod 2N (every harmonic is
    exact, whatever Z).  Only the last coupling is kept.
    """
    # the angles first, so an impossible N fails to allocate here
    phi = (2.0 * np.arange(1, N // 2 + 1, dtype=float) - 1.0) * math.pi / N
    weights = coupling_profile(alpha, Z).weights
    folded = np.bincount(np.arange(1, Z + 1) % (2 * N), weights=weights, minlength=2 * N)
    # rfft has exp(-i...); folded is real, so J is its conjugate
    j = np.conj(np.fft.rfft(folded)[1:N:2])
    phi.flags.writeable = j.flags.writeable = False
    return phi, j


def momentum_coupling(profile: CouplingProfile, phi):
    """J(phi) = sum_r J_r exp(i r phi) by the direct sum over the Z terms.

    Accepts a scalar angle or an ndarray of angles; returns complex of
    the same shape.  J on a chain's own momentum grid is grid_coupling.
    """
    phi_arr = np.asarray(phi, dtype=float)
    r = np.arange(1, profile.weights.size + 1)
    # the direct sum holds one (angles x Z) array
    rphi = np.multiply.outer(phi_arr.ravel(), r)
    out = np.cos(rphi) @ profile.weights + 1j * (np.sin(rphi) @ profile.weights)
    return complex(out[0]) if phi_arr.ndim == 0 else out.reshape(phi_arr.shape)


def critical_field_zero() -> float:
    """Field at which the dispersion gap closes at phi = 0.

    Because the weights are Kac-normalized, J(0) = sum_r J_r = 1 for
    every (alpha, Z), so the zero-momentum gap closes at h = -1 exactly.
    """
    return -1.0


def critical_field_pi(alpha: float, Z: int) -> float:
    """Field at which the gap closes at the zone boundary phi = pi.

    J(pi) = sum_r (-1)^r J_r, giving

        h_c = -J(pi) = 1 - 2^(1-alpha) * H_{floor(Z/2)}(alpha) / H_Z(alpha)

    with H_n(alpha) the generalized harmonic number (even-r terms of the
    alternating sum regrouped).  Both forms agree to machine precision;
    the harmonic-number form is used here, the alternating sum is kept
    in the tests as a cross-check.
    """
    kac = kac_factor(alpha, Z)
    half = Z // 2
    if half == 0:
        return 1.0
    return 1.0 - 2.0 ** (1.0 - alpha) * kac_factor(alpha, half) / kac
