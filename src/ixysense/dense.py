"""Dense spin-basis oracle for small chains.

Builds the literal Hamiltonian of the periodic chain from its Pauli
strings, with no fermionic reduction, and computes the dynamical QFI
from the matrix exponential and its exact Frechet derivative
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639 (2009)).
Everything here is an independent cross-check of the momentum-block
pipeline: the only shared ingredients are the coupling profile and
`metrology.mode_qfi`, the QFI of a state and its derivative.

Site basis: bit value 0 is spin up (sigma^z = +1), 1 is spin down, and
site j is bit N-1-j of a state's index, so the all-up state is 0 and
the all-down state is 2^N - 1.  The all-down state is annihilated by
every string-dressed lowering operator, i.e. it is the fermionic vacuum
behind the momentum-block picture, and is the initial state of every
evolution here.

Every term of H flips two bits or none, so H conserves the parity of the
number of down spins.  The sum over (j, r) makes H commute with the
lattice shift, and the mirror j -> -1 - j (bit reversal) maps term
(j, r) onto term (-1 - j - r, r) with the same string.  The vacuum is
even (N is even) and invariant under both, so the evolution never
leaves their symmetric part of the even sector (Sandvik, AIP Conf.
Proc. 1297, 135 (2010), momentum and reflection states).  Its basis
states are the normalized orbits |a> = R_a^(-1/2) sum_{s in O_a} |s>,
one per representative a: an even state that is the smallest of its 2N
images (N rotations, and N rotations of its bit reversal), O_a its R_a
distinct images.  The dimension is 18, 44, 122 and 362 at N = 8, 10,
12 and 14, against 2^(N-1) for the whole even sector.  In this basis

    H = H_hop + gamma H_gamma + h H_z,

where H_hop holds the XX + YY matrix elements between states whose two
bits differ, H_gamma those between states whose two bits agree (times i
for the imaginary anisotropy), and H_z = (1/2) sum_j sigma^z_j.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import NumericalError
from .metrology import mode_qfi
from .model import AnisotropyMode, ModelParams, ThetaKind, coupling_profile

MAX_DENSE_SITES = 14


def _orbit_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Representatives of the even shift-and-mirror orbits, their sizes, and a lookup.

    A state's orbit holds its 2n images: its n rotations and those of its
    bit reversal.  Returns the representatives (smallest members; 18, 44,
    122 and 362 at n = 8 to 14) ascending, the orbit size R of each, and
    for every one of the 2^n states the position of its orbit's
    representative (meaningful for even states only).
    """
    every = np.arange(1 << n)
    sites = np.arange(n)
    mirrored = (((every[:, None] >> sites) & 1) << (n - 1 - sites)).sum(axis=1)
    images = np.concatenate([((s << sites[:, None]) | (s >> (n - sites[:, None])))
                             & ((1 << n) - 1) for s in (every, mirrored)])
    smallest = images.min(axis=0)
    states = np.flatnonzero((smallest == every) & (np.bitwise_count(every) % 2 == 0))
    # a state is its own image under 2n / R of the 2n shifts and mirrors
    size = 2 * n // (images[:, states] == states).sum(axis=0)
    return states, size, np.searchsorted(states, smallest)


@cache
def _term_table(n: int) -> tuple[np.ndarray, ...]:
    """Every (j, r <= n/2) term's entries on the lower triangle, for all Z at once.

    In the builder's (j, r) order, then by column: the flat target
    b * dim + a, r, the string sign and whether the two bits agree (a
    pair term), followed by sqrt(R_a / R_b) and the diagonal of H_z.
    Built on the first call for each n and kept read-only.
    """
    states, size, orbit = _orbit_basis(n)
    dim = len(states)
    cols = np.arange(dim)
    bits = (states[:, None] >> (n - 1 - np.arange(n))) & 1
    sz = 1 - 2 * bits
    terms = []
    for j in range(n):
        for r in range(1, n // 2 + 1):
            k = (j + r) % n
            string = [(j + m) % n for m in range(1, r)]
            rows = orbit[states ^ ((1 << (n - 1 - j)) | (1 << (n - 1 - k)))]
            lower = rows >= cols
            terms.append((rows[lower] * dim + cols[lower], np.full(lower.sum(), r),
                          np.prod(sz[lower][:, string], axis=1),
                          (bits[:, j] == bits[:, k])[lower]))
    table = (*map(np.concatenate, zip(*terms)),
             np.sqrt(size[None, :] / size[:, None]), 0.5 * sz.sum(axis=1))
    for array in table:
        array.flags.writeable = False
    return table


def build_spin_hamiltonian(params: ModelParams,
                           theta_kind: ThetaKind) -> tuple[np.ndarray, np.ndarray]:
    """H on the symmetric even sector and dH/dtheta: H_z for h, H_gamma for gamma.

    Both are dense, with rows and columns in ascending representative order.
    Site indices wrap modulo N; every (j, r) term of the double sum is
    built literally, including both antipodal partners at r = N/2, whose
    parity strings dress complementary halves of the ring.  On a basis
    state, X_j X_k flips bits j and k, Y_j Y_k flips them with the sign
    -sigma^z_j sigma^z_k, and the string between them gives the product
    of its sigma^z.  With the weights -(1 +- gamma)/4 this leaves -1/2
    on pairs of unequal bits (hopping) and -gamma/2 on pairs of equal
    bits (pair creation or annihilation), times the string sign and J_r.

    The terms act on the representatives only, tabulated once per N.  A
    term that maps a into the orbit of b adds its value times
    sqrt(R_a / R_b) to H[b, a], the orbit state's matrix element as H
    commutes with the shift and the mirror.  H_hop and H_gamma are real
    symmetric; their lower triangles are summed in (j, r) order by
    np.bincount and mirrored, so the symmetry holds bit for bit.

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
    flat, r, sign, same, scale, d_h = _term_table(n)
    dim = d_h.size
    keep = r <= params.Z
    value = (-0.5 * weights)[r[keep] - 1] * sign[keep]
    flat, same = flat[keep], same[keep]
    hop, pair = (np.bincount(flat[m], value[m], minlength=dim * dim).reshape(dim, dim)
                 for m in (~same, same))
    for target in (hop, pair):
        target *= scale
        target += np.tril(target, -1).T

    d_gamma = pair.astype(complex)
    if params.anisotropy_mode is not AnisotropyMode.HERMITIAN:
        d_gamma *= 1j
    matrix = hop + params.gamma * d_gamma
    matrix[np.diag_indices(dim)] += params.h * d_h
    return matrix, np.diag(d_h) if theta_kind is ThetaKind.FIELD_H else d_gamma


def propagate_dense(matrix: np.ndarray, derivative: np.ndarray,
                    t: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H t) psi0 and its theta-derivative, psi0 the vacuum.

    One call of scipy.linalg.expm_frechet gives U = exp(A) and its
    Frechet derivative L(A, E) for A = -i H t and E = -i t dH/dtheta.
    The vacuum is its own one-state orbit and the last representative,
    so U psi0 and its derivative L psi0 are the last columns.  scipy is
    imported here, its only use, so the momentum path never loads it.
    """
    import scipy.linalg

    u, du = scipy.linalg.expm_frechet(-1j * t * matrix, -1j * t * derivative)
    return u[:, -1], du[:, -1]


def dense_evolve_qfi(params: ModelParams, t: float, theta_kind: ThetaKind) -> float:
    """Dynamical QFI of the normalized evolved vacuum, from the dense evolution."""
    with np.errstate(over="ignore", invalid="ignore"):  # exp(-i H t) can overflow: checked below
        qfi = mode_qfi(*propagate_dense(*build_spin_hamiltonian(params, theta_kind), t))
    if not np.isfinite(qfi):  # also wherever the evolved vectors are not finite
        raise NumericalError(f"non-finite dense evolution at N={params.N}, t={t!r}")
    return qfi
