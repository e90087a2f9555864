"""Couplings, Kac normalization, momentum grid, and closed-form critical fields."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from ixysense.blocks import block_arrays
from ixysense.model import (
    ModelParams,
    coupling_profile,
    critical_field_pi,
    critical_field_zero,
    grid_coupling,
    kac_factor,
    momentum_coupling,
)

ALPHA_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
Z_GRID = (1, 2, 3, 4, 7, 16, 100, 999)


def test_kac_factor_frozen_values():
    # hand sums: 1 + 1/2 + 1/3 + 1/4 = 25/12, 1 + 1/4 + 1/9 = 49/36
    assert_allclose(kac_factor(1.0, 4), 25.0 / 12.0, rtol=1e-15)
    assert_allclose(kac_factor(2.0, 3), 49.0 / 36.0, rtol=1e-15)
    assert kac_factor(0.0, 137) == 137.0
    assert kac_factor(1.5, 1) == 1.0


def test_kac_factor_validation():
    with pytest.raises(ValueError):
        kac_factor(1.0, 0)
    with pytest.raises(ValueError):
        kac_factor(-0.1, 4)


def test_coupling_profile_frozen_weights():
    prof = coupling_profile(1.0, 2)
    assert_allclose(prof.weights, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("Z", Z_GRID)
def test_weights_sum_to_one(alpha, Z):
    prof = coupling_profile(alpha, Z)
    assert abs(math.fsum(prof.weights) - 1.0) < 1e-12


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("Z", (1, 2, 7, 100, 5000))
def test_momentum_coupling_at_zero_is_one(alpha, Z):
    # J(0) = sum_r J_r = 1 exactly by Kac normalization
    prof = coupling_profile(alpha, Z)
    assert abs(momentum_coupling(prof, 0.0) - 1.0) < 1e-12


def test_momentum_coupling_frozen_value():
    # Z=2, alpha=1: J(pi/2) = (2/3) i + (1/3) e^{i pi} = -1/3 + 2i/3
    prof = coupling_profile(1.0, 2)
    j = momentum_coupling(prof, math.pi / 2.0)
    assert_allclose([j.real, j.imag], [-1.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def _direct_sum(prof, phi):
    r = np.arange(1, prof.weights.size + 1, dtype=float)
    return (prof.weights[None, :] * np.exp(1j * phi[:, None] * r[None, :])).sum(axis=1)


@pytest.mark.parametrize("alpha,Z", [(0.0, 3), (0.5, 17), (1.5, 200), (3.0, 2000)])
def test_momentum_coupling_matches_direct_sum(alpha, Z):
    prof = coupling_profile(alpha, Z)
    rng = np.random.default_rng(7)
    phi = rng.uniform(0.0, math.pi, size=40)
    assert_allclose(momentum_coupling(prof, phi), _direct_sum(prof, phi), rtol=0, atol=1e-12)


def test_momentum_coupling_scalar_matches_array():
    prof = coupling_profile(1.2, 5)
    phi = 0.7321
    scalar = momentum_coupling(prof, phi)
    arr = momentum_coupling(prof, np.array([phi]))
    assert isinstance(scalar, complex)
    assert scalar == arr[0]


@pytest.mark.parametrize("m,Z", [(8, 17), (8, 100), (5, 999), (1, 3)])
def test_grid_coupling_folds_long_range(m, Z):
    # Z > 2m on the grid; past Z = 4m the weights fold mod 4m
    phi, j = grid_coupling(2 * m, Z, 0.7)
    assert_allclose(j, _direct_sum(coupling_profile(0.7, Z), phi), rtol=0, atol=1e-12)


def test_grid_coupling_and_the_direct_sum_agree():
    # the FFT on the odd grid and momentum_coupling's direct sum at the same
    # angles give the same J to rounding; the memo hands out read-only arrays
    prof = coupling_profile(1.2, 40)
    phi, j = grid_coupling(128, 40, 1.2)
    assert_allclose(phi, (2 * np.arange(1, 65) - 1) * math.pi / 128, rtol=1e-15)
    assert_allclose(j, momentum_coupling(prof, phi), rtol=0, atol=1e-12)
    assert not (phi.flags.writeable or j.flags.writeable)
    assert grid_coupling(128, 40, 1.2)[1] is j
    assert momentum_coupling(prof, phi.reshape(8, 8)).shape == (8, 8)


# Absolute gate of J on the mode grid against a 30-digit sum.  On the 48
# sampled modes of these grids the FFT erred by at most 2.3e-16, and the
# compensated ascending-r loop it replaced by up to 1.3e-15.
GRID_J_ATOL = 1e-15


@pytest.mark.parametrize("N,Z,alpha", [(16, 8, 0.0), (1024, 512, 1.5), (8192, 100, 0.5),
                                       (8192, 4096, 1.0)])
def test_grid_coupling_matches_high_precision(N, Z, alpha):
    # exact angles: r phi_p = 2 pi k / (2N) with k = r (2p - 1) mod 2N,
    # so each term is a 2N-th root of unity, tabulated once at 30 digits
    prof = coupling_profile(alpha, Z)
    got = grid_coupling(N, Z, alpha)[1]
    modes = np.unique(np.linspace(0, N // 2 - 1, 48).astype(int))
    r = np.arange(1, Z + 1)
    with mpmath.workdps(30):
        roots = {}
        weights = [mpmath.mpf(float(w)) for w in prof.weights]
        for p in modes:
            ks = (r * (2 * p + 1)) % (2 * N)
            for k in set(ks.tolist()) - roots.keys():
                roots[k] = mpmath.expjpi(mpmath.mpf(k) / N)
            exact = mpmath.fdot(weights, [roots[k] for k in ks.tolist()])
            assert abs(got[p] - complex(exact)) <= GRID_J_ATOL


def test_mode_angles_full_range():
    p = ModelParams(N=8, Z=1, alpha=1.0, gamma=0.3, h=-0.7)
    assert_allclose(block_arrays(p)[0], np.array([1, 3, 5, 7]) * math.pi / 8.0, rtol=1e-15)


def test_mode_angles_inside_zone():
    p = ModelParams(N=1024, Z=4, alpha=1.5, gamma=0.3, h=-0.7)
    phi = block_arrays(p)[0]
    assert len(phi) == 512
    assert phi[0] > 0.0 and phi[-1] < math.pi
    assert (np.diff(phi) > 0).all()


def test_critical_field_zero_exact():
    assert critical_field_zero() == -1.0


def test_critical_field_pi_frozen_values():
    # Z=4, alpha=1: 1 - (1 + 1/2)/(25/12) = 1 - 18/25 = 0.28
    assert_allclose(critical_field_pi(1.0, 4), 0.28, rtol=1e-14)
    assert critical_field_pi(0.0, 2) == 0.0
    assert critical_field_pi(2.3, 1) == 1.0


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("Z", Z_GRID)
def test_critical_field_pi_matches_alternating_sum(alpha, Z):
    # h_c at the zone boundary is -J(pi) = -sum_r (-1)^r J_r
    prof = coupling_profile(alpha, Z)
    alt = -math.fsum(((-1.0) ** r) * prof.weights[r - 1] for r in range(1, Z + 1))
    assert abs(critical_field_pi(alpha, Z) - alt) < 1e-12


@pytest.mark.parametrize("bad", [dict(N=3), dict(N=6, Z=0), dict(N=6, Z=4),
                                 dict(N=2), dict(N=8, alpha=-0.5),
                                 dict(h=math.nan), dict(gamma=math.inf),
                                 dict(alpha=math.nan), dict(alpha=math.inf)])
def test_params_validation(bad):
    kw = dict(N=8, Z=1, alpha=1.0, gamma=0.3, h=-0.7)
    kw.update(bad)
    with pytest.raises(ValueError):
        ModelParams(**kw)
