"""Dense spin-basis oracle for small chains.

Builds the literal Hamiltonian of the periodic chain from its Pauli
strings, with no fermionic reduction, and computes the dynamical QFI
from the matrix exponential and its exact Frechet derivative
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639 (2009)).
Everything here is an independent cross-check of the momentum-block
pipeline: the only shared ingredient is the coupling profile.

Site basis: bit value 0 is spin up (sigma^z = +1), 1 is spin down.
Basis states are kron-ordered with site 0 leftmost, so site j is bit
N-1-j of the state index, the all-up state is index 0 and the all-down
state is index 2^N - 1.  The all-down state is annihilated by every
string-dressed lowering operator, i.e. it is the fermionic vacuum behind
the momentum-block picture, and is the initial state of every evolution
here.

Every term of H flips two bits or none, so H conserves the parity of the
number of down spins.  N is even, so the vacuum lies in the even sector,
and the whole evolution is carried out there, in dimension 2^(N-1):

    H = H_hop + gamma H_gamma + h H_z,

where H_hop holds the XX + YY matrix elements between states whose two
bits differ, H_gamma those between states whose two bits agree (times i
for the imaginary anisotropy), and H_z = (1/2) sum_j sigma^z_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .metrology import mode_qfi
from .model import AnisotropyMode, ModelParams, ThetaKind, coupling_profile

MAX_DENSE_SITES = 12


@dataclass(frozen=True)
class SectorHamiltonian:
    """H on the even-parity sector, with its derivatives in h and gamma.

    matrix  -- H, dense, in the order of `sector_states(N)`
    d_gamma -- dH/dgamma = H_gamma, dense
    d_h     -- dH/dh = H_z, as its diagonal
    """

    N: int
    matrix: np.ndarray
    d_gamma: np.ndarray
    d_h: np.ndarray

    def derivative(self, theta_kind: ThetaKind) -> np.ndarray:
        if theta_kind is ThetaKind.FIELD_H:
            return np.diag(self.d_h)
        return self.d_gamma


def parity_operator(N: int) -> np.ndarray:
    """Diagonal of prod_j sigma^z_j: +1 on even numbers of down spins."""
    pop = ((np.arange(2 ** N)[:, None] >> np.arange(N)) & 1).sum(axis=1)
    return np.where(pop % 2 == 0, 1.0, -1.0)


def sector_states(N: int) -> np.ndarray:
    """Basis indices of the even-parity sector, ascending."""
    return np.flatnonzero(parity_operator(N) > 0)


def build_spin_hamiltonian(params: ModelParams) -> SectorHamiltonian:
    """The periodic-chain Hamiltonian on the even-parity sector.

    Site indices wrap modulo N; every (j, r) term of the double sum is
    built literally, including both antipodal partners at r = N/2, whose
    parity strings dress complementary halves of the ring.  On a basis
    state, X_j X_k flips bits j and k, Y_j Y_k flips them with the sign
    -sigma^z_j sigma^z_k, and the string between them gives the product
    of its sigma^z.  With the weights -(1 +- gamma)/4 this leaves -1/2
    on pairs of unequal bits (hopping) and -gamma/2 on pairs of equal
    bits (pair creation or annihilation), times the string sign and J_r.

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
    states = sector_states(n)
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
            rows = np.searchsorted(states, states ^ flip)
            same = bits[:, j] == bits[:, k]
            hop[rows[~same], cols[~same]] += value[~same]
            pair[rows[same], cols[same]] += value[same]

    d_gamma = pair.astype(complex)
    if params.anisotropy_mode is not AnisotropyMode.HERMITIAN:
        d_gamma *= 1j
    d_h = 0.5 * sz.sum(axis=1)
    matrix = hop + params.gamma * d_gamma
    matrix[cols, cols] += params.h * d_h
    return SectorHamiltonian(N=n, matrix=matrix, d_gamma=d_gamma, d_h=d_h)


def polarized_vacuum(N: int) -> np.ndarray:
    """The all-down product state in the even sector, whose last state it is."""
    psi = np.zeros(2 ** (N - 1), dtype=complex)
    psi[-1] = 1.0
    return psi


def propagate_dense(op: SectorHamiltonian, t: float,
                    theta_kind: ThetaKind) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H t) psi0 and its theta-derivative, psi0 the vacuum.

    One call of scipy.linalg.expm_frechet gives U = exp(A) and its
    Frechet derivative L(A, E) for A = -i H t and E = -i t dH/dtheta;
    the derivative of U psi0 is L psi0.
    """
    a = -1j * t * op.matrix
    e = -1j * t * op.derivative(theta_kind)
    u, du = scipy.linalg.expm_frechet(a, e)
    psi0 = polarized_vacuum(op.N)
    return u @ psi0, du @ psi0


def dense_evolve_qfi(params: ModelParams, t: float, theta_kind: ThetaKind) -> float:
    """Dynamical QFI of the normalized evolved vacuum, from the dense evolution."""
    psi, dpsi = propagate_dense(build_spin_hamiltonian(params), t, theta_kind)
    return mode_qfi(psi, dpsi)
