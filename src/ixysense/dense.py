"""Dense spin-basis oracle for small chains.

Builds the literal Hamiltonian of the periodic chain from its Pauli
strings, with no fermionic reduction, and computes the dynamical QFI
from the matrix exponential and its exact Frechet derivative
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639 (2009)).
Everything here is an independent cross-check of the momentum-block
pipeline: the only shared ingredient is the coupling profile.

Site basis: bit value 0 is spin up (sigma^z = +1), 1 is spin down, and
site j is bit N-1-j of a state's index, so the all-up state is 0 and
the all-down state is 2^N - 1.  The all-down state is annihilated by
every string-dressed lowering operator, i.e. it is the fermionic vacuum
behind the momentum-block picture, and is the initial state of every
evolution here.

Every term of H flips two bits or none, so H conserves the parity of the
number of down spins, and the sum over (j, r) makes H commute with the
lattice shift.  The vacuum is even (N is even) and shift invariant, so
the evolution never leaves the zero-momentum part of the even sector
(Sandvik, AIP Conf. Proc. 1297, 135 (2010), momentum states).  Its basis
states are the normalized shift orbits

    |a> = R_a^(-1/2) sum_{k < R_a} T^k |a>,

one per representative a: an even state that is the smallest of its N
rotations, with orbit period R_a.  The dimension is 20, 56, 180 and 596
at N = 8, 10, 12 and 14, against 2^(N-1) for the whole even sector.
In this basis

    H = H_hop + gamma H_gamma + h H_z,

where H_hop holds the XX + YY matrix elements between states whose two
bits differ, H_gamma those between states whose two bits agree (times i
for the imaginary anisotropy), and H_z = (1/2) sum_j sigma^z_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrology import mode_qfi
from .model import AnisotropyMode, ModelParams, ThetaKind, coupling_profile

MAX_DENSE_SITES = 14


@dataclass(frozen=True)
class SectorHamiltonian:
    """H on the zero-momentum even sector, with its derivatives in h and gamma.

    matrix  -- H, dense, in the order of the ascending representatives
    d_gamma -- dH/dgamma = H_gamma, dense
    d_h     -- dH/dh = H_z, as its diagonal
    """

    matrix: np.ndarray
    d_gamma: np.ndarray
    d_h: np.ndarray

    def derivative(self, theta_kind: ThetaKind) -> np.ndarray:
        if theta_kind is ThetaKind.FIELD_H:
            return np.diag(self.d_h)
        return self.d_gamma


def _orbit_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Representatives of the even shift orbits, their periods, and a lookup.

    Returns the representatives ascending, the orbit period R of each, and
    for every one of the 2^n states the position of its orbit's
    representative (meaningful for even states only).
    """
    every = np.arange(1 << n)
    shifts = np.arange(n)[:, None]
    rotations = ((every << shifts) | (every >> (n - shifts))) & ((1 << n) - 1)
    smallest = rotations.min(axis=0)
    states = np.flatnonzero((smallest == every) & (np.bitwise_count(every) % 2 == 0))
    # a state is fixed by n / R of its n rotations
    period = n // (rotations[:, states] == states).sum(axis=0)
    return states, period, np.searchsorted(states, smallest)


def build_spin_hamiltonian(params: ModelParams) -> SectorHamiltonian:
    """The periodic-chain Hamiltonian on the zero-momentum even sector.

    Site indices wrap modulo N; every (j, r) term of the double sum is
    built literally, including both antipodal partners at r = N/2, whose
    parity strings dress complementary halves of the ring.  On a basis
    state, X_j X_k flips bits j and k, Y_j Y_k flips them with the sign
    -sigma^z_j sigma^z_k, and the string between them gives the product
    of its sigma^z.  With the weights -(1 +- gamma)/4 this leaves -1/2
    on pairs of unequal bits (hopping) and -gamma/2 on pairs of equal
    bits (pair creation or annihilation), times the string sign and J_r.

    The terms act on the representatives only.  A term that maps a into
    the orbit of b adds its value times sqrt(R_a / R_b) to H[b, a], which
    is the orbit state's matrix element because H commutes with the
    shift.  H_hop and H_gamma are real symmetric; their lower triangles
    are accumulated and mirrored, so the symmetry holds bit for bit.

    Coupling sign is ferromagnetic: the string terms enter with -J_r, so
    the even-parity sector realizes quasiparticle blocks with diagonal
    h + J^(R)(phi), the convention used throughout the momentum pipeline.
    The antiferromagnetic sign (+J_r) is the h -> -h mirror of the same
    spectrum: it maps every block diagonal to -(h + J^(R)) and leaves the
    dispersion and the QFI of the mirrored field unchanged.
    """
    n = params.N
    if n > MAX_DENSE_SITES:
        raise ValueError(
            f"dense oracle is limited to N <= {MAX_DENSE_SITES}, got N={n}")
    weights = coupling_profile(params.alpha, params.Z).weights
    states, period, orbit = _orbit_basis(n)
    dim = len(states)
    cols = np.arange(dim)
    bits = (states[:, None] >> (n - 1 - np.arange(n))) & 1
    sz = 1 - 2 * bits

    hop = np.zeros((dim, dim))
    pair = np.zeros((dim, dim))
    for j in range(n):
        for r in range(1, params.Z + 1):
            k = (j + r) % n
            string = [(j + m) % n for m in range(1, r)]
            value = -0.5 * weights[r - 1] * np.prod(sz[:, string], axis=1)
            flip = (1 << (n - 1 - j)) | (1 << (n - 1 - k))
            rows = orbit[states ^ flip]
            lower = rows >= cols
            same = bits[:, j] == bits[:, k]
            for target, keep in ((hop, lower & ~same), (pair, lower & same)):
                target[rows[keep], cols[keep]] += value[keep]
    scale = np.sqrt(period[None, :] / period[:, None])
    for target in (hop, pair):
        target *= scale
        target += np.tril(target, -1).T

    d_gamma = pair.astype(complex)
    if params.anisotropy_mode is not AnisotropyMode.HERMITIAN:
        d_gamma *= 1j
    d_h = 0.5 * sz.sum(axis=1)
    matrix = hop + params.gamma * d_gamma
    matrix[cols, cols] += params.h * d_h
    return SectorHamiltonian(matrix=matrix, d_gamma=d_gamma, d_h=d_h)


def propagate_dense(op: SectorHamiltonian, t: float,
                    theta_kind: ThetaKind) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H t) psi0 and its theta-derivative, psi0 the vacuum.

    One call of scipy.linalg.expm_frechet gives U = exp(A) and its
    Frechet derivative L(A, E) for A = -i H t and E = -i t dH/dtheta.
    The vacuum is its own one-state orbit and the last representative,
    so U psi0 and its derivative L psi0 are the last columns.  scipy is
    imported here, its only use, so the momentum path never loads it.
    """
    import scipy.linalg

    a = -1j * t * op.matrix
    e = -1j * t * op.derivative(theta_kind)
    u, du = scipy.linalg.expm_frechet(a, e)
    return u[:, -1], du[:, -1]


def dense_evolve_qfi(params: ModelParams, t: float, theta_kind: ThetaKind) -> float:
    """Dynamical QFI of the normalized evolved vacuum, from the dense evolution."""
    psi, dpsi = propagate_dense(build_spin_hamiltonian(params), t, theta_kind)
    return mode_qfi(psi, dpsi)
