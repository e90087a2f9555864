"""Dense spin-basis oracle: structure checks and the dual-route QFI match."""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from ixysense import dense
from ixysense.dense import (
    MAX_DENSE_SITES,
    build_spin_hamiltonian,
    dense_evolve_qfi,
    propagate_dense,
)
from ixysense.cli import main
from ixysense.errors import NumericalError
from ixysense.metrology import dynamical_qfi, mode_qfi
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


def parity_operator(n):
    """Diagonal of prod_j sigma^z_j: +1 on even numbers of down spins."""
    pop = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    return np.where(pop % 2 == 0, 1.0, -1.0)


def sector_states(n):
    """Basis indices of the even-parity sector, ascending."""
    return np.flatnonzero(parity_operator(n) > 0)


def _sector_hamiltonian(params):
    """(H, dH/dgamma, diagonal of dH/dh) on the whole even sector.

    The same Pauli-string loop as the package builder, run over every
    even state instead of the orbit representatives.
    """
    n = params.N
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
    return matrix, d_gamma, d_h


def _rotate(state, n):
    return ((state << 1) | (state >> (n - 1))) & ((1 << n) - 1)


def _mirror(state, n):
    return sum(((state >> j) & 1) << (n - 1 - j) for j in range(n))


def _orbits(n):
    """Shift-and-mirror orbits of the even states, ordered by their smallest member."""
    orbits = {}
    for state in sector_states(n).tolist():
        orbit, frontier = {state}, [state]
        while frontier:
            s = frontier.pop()
            for image in (_rotate(s, n), _mirror(s, n)):
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        orbits[min(orbit)] = sorted(orbit)
    return [orbits[rep] for rep in sorted(orbits)]


def _loop_hamiltonian(params):
    """(H, dH/dgamma, diagonal of dH/dh) from the literal (j, r) loop.

    The builder before its terms were tabulated, on the same orbit basis:
    each term's lower-triangle entries are added in (j, r) order.
    """
    n = params.N
    weights = coupling_profile(params.alpha, params.Z).weights
    states, size, orbit = dense._orbit_basis(n)
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
    scale = np.sqrt(size[None, :] / size[:, None])
    for target in (hop, pair):
        target *= scale
        target += np.tril(target, -1).T

    d_gamma = pair.astype(complex)
    if params.anisotropy_mode is not AnisotropyMode.HERMITIAN:
        d_gamma *= 1j
    d_h = 0.5 * sz.sum(axis=1)
    matrix = hop + params.gamma * d_gamma
    matrix[cols, cols] += params.h * d_h
    return matrix, d_gamma, d_h


def _isometry(n):
    """Columns: the normalized shift-and-mirror orbit states, in the even sector."""
    states = sector_states(n)
    orbits = _orbits(n)
    p = np.zeros((len(states), len(orbits)))
    for col, orbit in enumerate(orbits):
        p[np.searchsorted(states, orbit), col] = 1.0 / np.sqrt(len(orbit))
    return p


def _built(params):
    """(H, dH/dgamma, dH/dh) from the builder, one call per theta; H is the same."""
    matrix, d_h = build_spin_hamiltonian(params, ThetaKind.FIELD_H)
    same, d_gamma = build_spin_hamiltonian(params, ThetaKind.ANISOTROPY_GAMMA)
    assert np.array_equal(matrix, same)
    return matrix, d_gamma, d_h


_SECTOR_CASES = [(n, z, mode) for n in (4, 6) for z in range(1, n // 2 + 1)
                 for mode in AnisotropyMode]


@pytest.mark.parametrize("n,z,mode", _SECTOR_CASES)
def test_sector_builder_matches_kron_reference(n, z, mode):
    params = ModelParams(N=n, Z=z, alpha=1.3, gamma=0.45, h=-0.8, anisotropy_mode=mode)
    matrix, d_gamma, d_h = _built(params)
    even = sector_states(n)
    p = _isometry(n)

    def project(full):
        return p.T @ full[np.ix_(even, even)] @ p

    ref = _kron_hamiltonian(params)
    scale = np.abs(ref).max()
    assert matrix.shape == d_gamma.shape == d_h.shape == (p.shape[1], p.shape[1])
    assert np.abs(matrix - project(ref)).max() <= 1e-15 * scale
    # the reference is affine in gamma and h: its slopes are the derivatives
    ref_gamma = _kron_hamiltonian(replace(params, gamma=1.0, h=0.0)) \
        - _kron_hamiltonian(replace(params, gamma=0.0, h=0.0))
    assert np.abs(d_gamma - project(ref_gamma)).max() <= 1e-15
    ref_h = _kron_hamiltonian(replace(params, gamma=0.0, h=1.0)) \
        - _kron_hamiltonian(replace(params, gamma=0.0, h=0.0))
    assert np.abs(d_h - project(ref_h)).max() <= 1e-15


@pytest.mark.parametrize("n,z", [(n, z) for n in (4, 6, 8, 10, 12)
                                 for z in range(1, n // 2 + 1)])
def test_zero_momentum_builder_matches_sector_reference(n, z):
    # P maps the shift-and-mirror orbit states into the even sector; the new
    # matrices are the sector ones seen through P, and the sector H maps
    # the range of P into itself
    p = _isometry(n)
    for mode in AnisotropyMode:
        params = ModelParams(N=n, Z=z, alpha=1.3, gamma=0.45, h=-0.8, anisotropy_mode=mode)
        built, built_gamma, built_h = _built(params)
        matrix, d_gamma, d_h = _sector_hamiltonian(params)
        hp = matrix @ p
        assert np.abs(p.T @ hp - built).max() <= 1e-14
        assert np.abs(hp - p @ built).max() <= 1e-14
        assert np.abs(p.T @ d_gamma @ p - built_gamma).max() <= 1e-14
        assert np.abs((p.T * d_h) @ p - built_h).max() <= 1e-14


def test_zero_momentum_dimensions():
    dims = {n: build_spin_hamiltonian(
        ModelParams(N=n, Z=2, alpha=1.0, gamma=0.3, h=-0.7), ThetaKind.FIELD_H)[0].shape
        for n in (4, 6, 8, 10, 12, 14)}
    assert dims == {4: (4, 4), 6: (8, 8), 8: (18, 18), 10: (44, 44), 12: (122, 122),
                    14: (362, 362)}
    assert [len(_orbits(n)) for n in (8, 10, 12)] == [18, 44, 122]


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
def test_term_table_matches_loop_reference(n):
    # np.bincount adds each cell's terms in the loop's (j, r) order from
    # 0, so the tabulated build equals the loop bit for bit
    for z in range(1, n // 2 + 1):
        for mode in AnisotropyMode:
            params = ModelParams(N=n, Z=z, alpha=1.3, gamma=0.45, h=-0.8, anisotropy_mode=mode)
            built, built_gamma, built_h = _built(params)
            matrix, d_gamma, d_h = _loop_hamiltonian(params)
            assert np.array_equal(built, matrix)
            assert np.array_equal(built_gamma, d_gamma)
            assert np.array_equal(built_h, np.diag(d_h))
    for array in dense._term_table(n):
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_cached_table_serves_every_z():
    # one table per N holds every range; a build at a smaller Z leaves it
    # intact for the next build at a larger one
    n = 8
    dense._term_table.cache_clear()
    p = _isometry(n)
    for z in (4, 1, 4):
        params = ModelParams(N=n, Z=z, alpha=1.3, gamma=0.45, h=-0.8)
        built, built_gamma, built_h = _built(params)
        matrix, d_gamma, d_h = _sector_hamiltonian(params)
        assert np.abs(p.T @ matrix @ p - built).max() <= 1e-14
        assert np.abs(p.T @ d_gamma @ p - built_gamma).max() <= 1e-14
        assert np.abs((p.T * d_h) @ p - built_h).max() <= 1e-14
    assert dense._term_table.cache_info().misses == 1


def test_polarized_diagonal_elements():
    # couplings are purely off-diagonal, so <all-up|H|all-up> = N h/2
    # and <all-down|H|all-down> = -N h/2
    params = ModelParams(N=4, Z=2, alpha=1.0, gamma=0.4, h=0.37)
    m = build_spin_hamiltonian(params, ThetaKind.FIELD_H)[0]
    assert m[0, 0] == pytest.approx(2 * 0.37, rel=1e-14)
    assert m[-1, -1] == pytest.approx(-2 * 0.37, rel=1e-14)


def test_hermitian_mode_builds_hermitian_matrix():
    # the lower triangle is mirrored, so the symmetry is exact even where
    # orbits of different sizes meet (N = 6 onward)
    for n, z in ((4, 2), (6, 3), (10, 5), (12, 4)):
        params = ModelParams(N=n, Z=z, alpha=1.0, gamma=0.4, h=-0.7,
                             anisotropy_mode=AnisotropyMode.HERMITIAN)
        m = build_spin_hamiltonian(params, ThetaKind.FIELD_H)[0]
        assert np.abs(m - m.conj().T).max() == 0.0


def test_imaginary_anisotropy_conjugates_to_negated_gamma():
    for n, z in ((4, 2), (10, 5)):
        params = ModelParams(N=n, Z=z, alpha=1.0, gamma=0.4, h=-0.7)
        m = build_spin_hamiltonian(params, ThetaKind.FIELD_H)[0]
        m_neg = build_spin_hamiltonian(replace(params, gamma=-0.4), ThetaKind.FIELD_H)[0]
        assert np.abs(m.conj().T - m_neg).max() == 0.0


def test_parity_commutes_exactly():
    # every term flips two bits or none, so no flipped state leaves the
    # sector; the sum over j makes H commute with the shift and the mirror,
    # so the symmetric orbit states span an invariant subspace of the sector
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
    shift = np.array([_rotate(s, n) for s in range(2 ** n)])
    assert np.abs(m[np.ix_(shift, shift)] - m).max() <= 1e-15
    mirror = np.array([_mirror(s, n) for s in range(2 ** n)])
    assert np.abs(m[np.ix_(mirror, mirror)] - m).max() <= 1e-15
    iso = _isometry(n)
    sector = m[np.ix_(even, even)]
    assert np.abs(iso @ (iso.T @ sector @ iso) - sector @ iso).max() <= 1e-15


def test_parity_operator_structure():
    p = parity_operator(4)
    assert isinstance(p, np.ndarray)
    assert set(np.unique(p)) == {-1.0, 1.0}
    assert p[0] == 1.0   # all spins up
    assert p[-1] == 1.0  # all spins down, even count


def test_polarized_vacuum_state():
    # the all-down state is its own one-state orbit and the last
    # representative, so the evolution at t = 0 returns the last basis state
    assert _orbits(4)[-1] == [2 ** 4 - 1]
    op = build_spin_hamiltonian(ModelParams(N=4, Z=2, alpha=1.0, gamma=0.4, h=-0.7),
                                ThetaKind.FIELD_H)
    psi, dpsi = propagate_dense(*op, 0.0)
    assert psi.shape == (4,)
    assert psi[-1] == 1.0
    assert np.linalg.norm(psi) == 1.0
    assert np.abs(dpsi).max() == 0.0


def _frechet_columns(matrix, derivative, t):
    """U psi0 and L psi0 from the whole expm_frechet pair, the reference path."""
    u, du = scipy.linalg.expm_frechet(-1j * t * matrix, -1j * t * derivative)
    return u[:, -1], du[:, -1]


_ACTION_CASES = [(n, mode, theta) for n in (4, 6, 8, 10, 12)
                 for mode in AnisotropyMode for theta in ThetaKind]
_ACTION_CASES += [(14, mode, theta) for mode, theta in zip(AnisotropyMode, ThetaKind)]


@pytest.mark.parametrize("n,mode,theta", _ACTION_CASES)
def test_taylor_action_matches_expm_frechet(monkeypatch, n, mode, theta):
    # the action forced on every cell, long times included, against
    # expm_frechet's whole U and L.  Over these cells the worst measured
    # differences are 6.3e-14 (U psi0), 9.1e-14 (L psi0, relative) and
    # 1.6e-13 (QFI), all at t = 10: a step sums Taylor terms as large as
    # 9.9^9 / 9! = 2.5e3 into a vector of norm about one
    monkeypatch.setattr(dense, "_ACTION_PER_DIM", np.inf)
    params = ModelParams(N=n, Z=n // 2, alpha=1.2, gamma=0.4, h=-1.2, anisotropy_mode=mode)
    op = build_spin_hamiltonian(params, theta)
    for t in (0.0, 0.3, 1.0, 3.0, 10.0):
        psi, dpsi = propagate_dense(*op, t)
        ref, dref = _frechet_columns(*op, t)
        assert np.abs(psi - ref).max() <= 1.5e-13
        assert np.abs(dpsi - dref).max() <= 2e-13 * np.abs(dref).max()
        f, f_ref = mode_qfi(psi, dpsi), mode_qfi(ref, dref)
        assert abs(f - f_ref) <= 3e-13 * max(f_ref, 1.0)


def test_expm_frechet_serves_small_sectors_and_long_times(monkeypatch, tmp_path):
    # the default oracle-check cells at N = 4 and 6, and a cell at t = 1e300,
    # call expm_frechet; an N = 10, t = 1 cell takes the action
    calls = []

    def counted(a, e):
        calls.append(len(a))
        return expm_frechet(a, e)

    expm_frechet = scipy.linalg.expm_frechet
    monkeypatch.setattr(scipy.linalg, "expm_frechet", counted)
    assert main(["oracle-check", "--set", "N_list=[4,6]", "--out", str(tmp_path / "o")]) == 0
    cells = 2 * 2 * 1 * 2 * 2 * 3 * 2  # N, Z, alpha, gamma, h, t, theta
    assert sorted(calls) == [4] * (cells // 2) + [8] * (cells // 2)
    params = ModelParams(N=4, Z=1, alpha=1.5, gamma=0.3, h=-0.7)
    with pytest.raises(NumericalError):
        dense_evolve_qfi(params, 1e300, ThetaKind.FIELD_H)
    assert len(calls) == cells + 1
    for theta in ThetaKind:
        dense_evolve_qfi(replace(params, N=10, Z=2), 1.0, theta)
    assert len(calls) == cells + 1


@pytest.mark.parametrize("t", [1e300, 1.7e308])
def test_overflowing_time_raises_numerical_error(t):
    # at 1.7e308 t ||H||_1 overflows to inf: the plan routes it away from the
    # action and scipy, so it ends in NumericalError, not in scipy's
    # ValueError on infinite input or an OverflowError from a step count
    for theta in ThetaKind:
        with pytest.raises(NumericalError, match="non-finite dense evolution"):
            dense_evolve_qfi(ModelParams(N=4, Z=1, alpha=1.5, gamma=0.3, h=-0.7), t, theta)


@pytest.mark.parametrize("theta", [ThetaKind.FIELD_H, ThetaKind.ANISOTROPY_GAMMA])
def test_frechet_derivative_matches_finite_difference(theta):
    params = ModelParams(N=4, Z=2, alpha=1.5, gamma=0.3, h=-0.7)
    t, step = 1.3, 1e-5
    field = "h" if theta is ThetaKind.FIELD_H else "gamma"
    theta0 = getattr(params, field)

    def state(v):
        return propagate_dense(*build_spin_hamiltonian(replace(params, **{field: v}), theta),
                               t)[0]

    _, dpsi = propagate_dense(*build_spin_hamiltonian(params, theta), t)
    fd = (state(theta0 + step) - state(theta0 - step)) / (2.0 * step)
    assert np.linalg.norm(dpsi - fd) <= 1e-7 * np.linalg.norm(dpsi)


def test_size_guard():
    with pytest.raises(ValueError):
        build_spin_hamiltonian(
            ModelParams(N=MAX_DENSE_SITES + 2, Z=1, alpha=1.0, gamma=0.3, h=-0.7),
            ThetaKind.FIELD_H)


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
    """Every Z at N = 4..12, in both anisotropy modes and for times up to
    10: at N <= 8 in both phases with both theta at each time, at N = 10
    and 12 with one (t, theta) pair per field and gamma; at N = 14 the
    long ranges Z = 3 and 7."""
    cells = [(n, z, mode, h, t, theta)
             for n in (4, 6, 8)
             for z in range(1, n // 2 + 1)
             for mode in AnisotropyMode
             for h in (-0.9, -1.6)
             for t in (0.7, 10.0)
             for theta in ThetaKind]
    cells += [(n, z, mode, -0.9, t, theta)
              for n in (10, 12)
              for z in range(1, n // 2 + 1)
              for mode in AnisotropyMode
              for t, theta in ((10.0, ThetaKind.FIELD_H), (3.0, ThetaKind.ANISOTROPY_GAMMA))]
    cells += [(14, z, mode, -0.9, t, theta)
              for z in (3, 7)
              for mode, (t, theta) in zip(AnisotropyMode, (
                  (10.0, ThetaKind.FIELD_H), (3.0, ThetaKind.ANISOTROPY_GAMMA)))]
    worst = 0.0
    for n, z, mode, h, t, theta in cells:
        params = ModelParams(N=n, Z=z, alpha=1.2, gamma=0.4, h=h, anisotropy_mode=mode)
        f_dense = dense_evolve_qfi(params, t, theta)
        f_mode = dynamical_qfi(params, t, theta).value
        assert f_dense >= 0.0
        worst = max(worst, abs(f_mode - f_dense) / max(abs(f_dense), 1.0))
    assert worst <= 1e-10
