"""Dense spin-basis oracle: structure checks and the dual-route QFI match."""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from ixysense.dense import (
    MAX_DENSE_SITES,
    build_spin_hamiltonian,
    dense_evolve_qfi,
    parity_operator,
    polarized_vacuum,
    propagate_dense,
    sector_states,
)
from ixysense.metrology import dynamical_qfi
from ixysense.model import AnisotropyMode, ModelParams, ThetaKind, coupling_profile

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _chain(n, factors):
    """Kronecker chain with the given single-site factors, identity elsewhere."""
    return reduce(np.kron, [factors.get(site, np.eye(2)) for site in range(n)])


def _kron_hamiltonian(params):
    """The full 2^N Hamiltonian, term by term from Kronecker chains."""
    n = params.N
    profile = coupling_profile(params.alpha, params.Z)
    g = params.gamma
    if params.anisotropy_mode is not AnisotropyMode.HERMITIAN:
        g = 1j * g
    cxx, cyy = -(1.0 + g) / 4.0, -(1.0 - g) / 4.0
    acc = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(n):
        for r in range(1, params.Z + 1):
            string = {(j + k) % n: _SZ for k in range(1, r)}
            xx = {**string, j: _SX, (j + r) % n: _SX}
            yy = {**string, j: _SY, (j + r) % n: _SY}
            acc += profile.weights[r - 1] * (cxx * _chain(n, xx) + cyy * _chain(n, yy))
        acc += (params.h / 2.0) * _chain(n, {j: _SZ})
    return acc


_SECTOR_CASES = [(n, z, mode) for n in (4, 6) for z in range(1, n // 2 + 1)
                 for mode in AnisotropyMode]


@pytest.mark.parametrize("n,z,mode", _SECTOR_CASES)
def test_sector_builder_matches_kron_reference(n, z, mode):
    params = ModelParams(N=n, Z=z, alpha=1.3, gamma=0.45, h=-0.8, anisotropy_mode=mode)
    op = build_spin_hamiltonian(params)
    even = sector_states(n)
    ref = _kron_hamiltonian(params)
    scale = np.abs(ref).max()
    assert op.matrix.shape == (2 ** (n - 1), 2 ** (n - 1))
    assert np.abs(op.matrix - ref[np.ix_(even, even)]).max() <= 1e-15 * scale
    # the reference is affine in gamma and h: its slopes are the derivatives
    d_gamma = _kron_hamiltonian(replace(params, gamma=1.0, h=0.0)) \
        - _kron_hamiltonian(replace(params, gamma=0.0, h=0.0))
    assert np.abs(op.d_gamma - d_gamma[np.ix_(even, even)]).max() <= 1e-15
    d_h = _kron_hamiltonian(replace(params, gamma=0.0, h=1.0)) \
        - _kron_hamiltonian(replace(params, gamma=0.0, h=0.0))
    assert np.abs(np.diag(op.d_h) - d_h[np.ix_(even, even)]).max() <= 1e-15


def test_polarized_diagonal_elements():
    # couplings are purely off-diagonal, so <all-up|H|all-up> = N h/2
    # and <all-down|H|all-down> = -N h/2
    params = ModelParams(N=4, Z=2, alpha=1.0, gamma=0.4, h=0.37)
    m = build_spin_hamiltonian(params).matrix
    assert m[0, 0] == pytest.approx(2 * 0.37, rel=1e-14)
    assert m[-1, -1] == pytest.approx(-2 * 0.37, rel=1e-14)


def test_hermitian_mode_builds_hermitian_matrix():
    params = ModelParams(N=4, Z=2, alpha=1.0, gamma=0.4, h=-0.7,
                         anisotropy_mode=AnisotropyMode.HERMITIAN)
    m = build_spin_hamiltonian(params).matrix
    assert np.abs(m - m.conj().T).max() == 0.0


def test_imaginary_anisotropy_conjugates_to_negated_gamma():
    params = ModelParams(N=4, Z=2, alpha=1.0, gamma=0.4, h=-0.7)
    m = build_spin_hamiltonian(params).matrix
    m_neg = build_spin_hamiltonian(replace(params, gamma=-0.4)).matrix
    assert np.abs(m.conj().T - m_neg).max() == 0.0


def test_parity_commutes_exactly():
    # every term flips two bits or none, so no flipped state leaves the
    # sector and the sector block of H is the whole evolution of the vacuum
    n = 6
    even = sector_states(n)
    assert len(even) == 2 ** (n - 1)
    assert (parity_operator(n)[even] == 1.0).all()
    for j in range(n):
        for k in range(j + 1, n):
            flipped = even ^ ((1 << (n - 1 - j)) | (1 << (n - 1 - k)))
            assert np.isin(flipped, even).all()
    m = _kron_hamiltonian(ModelParams(N=n, Z=3, alpha=1.2, gamma=0.3, h=-0.7))
    p = parity_operator(n)
    # P is diagonal +-1; commutation means H_ij vanishes across sectors
    assert np.abs(m * p[None, :] - p[:, None] * m).max() == 0.0


def test_parity_operator_structure():
    p = parity_operator(4)
    assert isinstance(p, np.ndarray)
    assert set(np.unique(p)) == {-1.0, 1.0}
    assert p[0] == 1.0   # all spins up
    assert p[-1] == 1.0  # all spins down, even count


def test_polarized_vacuum_state():
    # the all-down state is the last basis state of the even sector
    psi = polarized_vacuum(4)
    assert psi.shape == (8,)
    assert sector_states(4)[-1] == 2 ** 4 - 1
    assert psi[-1] == 1.0
    assert np.linalg.norm(psi) == 1.0


@pytest.mark.parametrize("theta", [ThetaKind.FIELD_H, ThetaKind.ANISOTROPY_GAMMA])
def test_frechet_derivative_matches_finite_difference(theta):
    params = ModelParams(N=4, Z=2, alpha=1.5, gamma=0.3, h=-0.7)
    t, step = 1.3, 1e-5
    field = "h" if theta is ThetaKind.FIELD_H else "gamma"
    theta0 = getattr(params, field)

    def state(v):
        return propagate_dense(build_spin_hamiltonian(replace(params, **{field: v})),
                               t, theta)[0]

    _, dpsi = propagate_dense(build_spin_hamiltonian(params), t, theta)
    fd = (state(theta0 + step) - state(theta0 - step)) / (2.0 * step)
    assert np.linalg.norm(dpsi - fd) <= 1e-7 * np.linalg.norm(dpsi)


def test_size_guard():
    with pytest.raises(ValueError):
        build_spin_hamiltonian(
            ModelParams(N=MAX_DENSE_SITES + 2, Z=1, alpha=1.0, gamma=0.3, h=-0.7))


@pytest.mark.parametrize("theta", [ThetaKind.FIELD_H, ThetaKind.ANISOTROPY_GAMMA])
def test_dense_matches_momentum_pipeline(theta):
    params = ModelParams(N=6, Z=2, alpha=1.5, gamma=0.3, h=-0.7)
    f_dense = dense_evolve_qfi(params, 1.0, theta)
    f_mode = dynamical_qfi(params, 1.0, theta).value
    assert abs(f_mode - f_dense) / max(abs(f_dense), 1.0) < 1e-8


@pytest.mark.parametrize("n", [8, 10])
def test_dense_qfi_vanishes_without_anisotropy(n):
    # at gamma = 0 the vacuum is an eigenstate: its field derivative is
    # parallel to the state, and only the projected QFI form reads zero
    for mode in AnisotropyMode:
        params = ModelParams(N=n, Z=2, alpha=1.0, gamma=0.0, h=0.3, anisotropy_mode=mode)
        f = dense_evolve_qfi(params, 10.0, ThetaKind.FIELD_H)
        assert 0.0 <= f < 1e-20


def test_dense_matches_momentum_wide_grid():
    """Every Z at N = 4..8 and the odd Z at N = 10, in both phases and both
    anisotropy modes, for times up to 10."""
    cells = [(n, z, mode, h, t, theta)
             for n in (4, 6, 8)
             for z in range(1, n // 2 + 1)
             for mode in AnisotropyMode
             for h in (-0.9, -1.6)
             for t in (0.7, 10.0)
             for theta in ThetaKind]
    cells += [(10, z, mode, -0.9, t, theta)
              for z in (1, 3, 5)
              for mode in AnisotropyMode
              for t, theta in ((10.0, ThetaKind.FIELD_H), (3.0, ThetaKind.ANISOTROPY_GAMMA))]
    worst = 0.0
    for n, z, mode, h, t, theta in cells:
        params = ModelParams(N=n, Z=z, alpha=1.2, gamma=0.4, h=h, anisotropy_mode=mode)
        f_dense = dense_evolve_qfi(params, t, theta)
        f_mode = dynamical_qfi(params, t, theta).value
        assert f_dense >= 0.0
        worst = max(worst, abs(f_mode - f_dense) / max(abs(f_dense), 1.0))
    assert worst <= 1e-10
