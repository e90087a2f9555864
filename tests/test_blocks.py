"""Mode blocks, dispersion classification, and the stationary probe vectors."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ixysense.blocks import (
    TOL_PHASE,
    ModeBlock,
    PhaseLabel,
    block_arrays,
    build_blocks,
    classify_phase,
    probe_vectors,
)
from ixysense.model import AnisotropyMode, ModelParams, grid_coupling


def _block(a, b, hermitian=False):
    x = a * a + b * b if hermitian else a * a - b * b
    return ModeBlock(p=1, a=a, b=b, eps_sq=x, j_imag=0.0, hermitian=hermitian)


def test_block_arrays_matches_build_blocks():
    p = ModelParams(N=16, Z=3, alpha=1.2, gamma=0.4, h=-0.9)
    _, _, ji, a, b, eps_sq = block_arrays(p)
    blocks = build_blocks(p)
    assert len(blocks) == 8
    for i, blk in enumerate(blocks):
        assert blk.p == i + 1
        assert blk.a == a[i]
        assert blk.b == b[i]
        assert blk.eps_sq == eps_sq[i]
        assert blk.j_imag == ji[i]


def test_block_arrays_returns_arrays_the_caller_owns():
    # the cached J(phi) is shared by every field and anisotropy of the chain;
    # writing into one call's columns must not reach the next call
    p = ModelParams(N=16, Z=3, alpha=1.2, gamma=0.4, h=-0.9)
    first = block_arrays(p)
    expected = [col.copy() for col in first]
    for col in first:
        col[:] = np.nan
    for col, want in zip(block_arrays(p), expected):
        assert_array_equal(col, want)
    for cached in grid_coupling(p.N, p.Z, p.alpha):
        with pytest.raises(ValueError):
            cached[0] = 0.0


@pytest.mark.parametrize("hermitian", [False, True])
def test_block_matrix_squares_to_eps_sq(hermitian):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, size=2)
        blk = _block(a, b, hermitian)
        m = blk.matrix()
        assert_allclose(m @ m, blk.eps_sq * np.eye(2), atol=1e-12)


def test_classify_phase_unbroken_and_broken():
    deep = ModelParams(N=64, Z=2, alpha=1.0, gamma=0.3, h=-3.0)
    c = classify_phase(build_blocks(deep))
    assert c.label is PhaseLabel.UNBROKEN
    assert c.min_eps_sq > 0

    inside = ModelParams(N=64, Z=2, alpha=1.0, gamma=0.3, h=-0.7)
    c = classify_phase(build_blocks(inside))
    assert c.label is PhaseLabel.BROKEN
    assert c.min_eps_sq < -TOL_PHASE
    # the reported argmin is the actual minimizer
    blocks = build_blocks(inside)
    eps = [blk.eps_sq for blk in blocks]
    assert blocks[int(np.argmin(eps))].p == c.argmin_mode


def test_classify_phase_empty_raises():
    with pytest.raises(ValueError):
        classify_phase([])


def test_probe_vector_frozen_broken_case():
    # a=0, b=1: eigenvalues +-i, the +i eigenvector is (1, -i)/sqrt(2)
    v, defective = probe_vectors([0.0], [1.0], hermitian=False)
    assert not defective[0]
    assert_allclose(v[0], np.array([1.0, -1.0j]) / math.sqrt(2.0), atol=1e-12)


def test_probe_vector_frozen_unbroken_case():
    # a=1, b=0: M = diag(-1, 1), lowest eigenvalue -1, eigenvector (1, 0)
    v, defective = probe_vectors([1.0], [0.0], hermitian=False)
    assert not defective[0]
    assert_allclose(v[0], np.array([1.0, 0.0]), atol=1e-12)


def test_probe_vector_frozen_hermitian_case():
    # a=0, b=1 Hermitian: M = [[0,-1],[-1,0]], lowest eigenvector (1, 1)/sqrt(2)
    v, defective = probe_vectors([0.0], [1.0], hermitian=True)
    assert not defective[0]
    assert_allclose(v[0], np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-12)


@pytest.mark.parametrize("hermitian", [False, True])
def test_probe_vector_eigen_equation_random(hermitian):
    rng = np.random.default_rng(11)
    a = rng.uniform(-2, 2, size=200)
    b = rng.uniform(-2, 2, size=200)
    keep = np.abs(a * a - b * b) > 1e-6
    a, b = a[keep], b[keep]
    v, defective = probe_vectors(a, b, hermitian=hermitian)
    assert not defective.any()
    for i in range(len(a)):
        lower = -b[i] if hermitian else b[i]
        m = np.array([[-a[i], -b[i]], [lower, a[i]]], dtype=complex)
        x = a[i] ** 2 - lower * b[i]
        lam = -math.sqrt(x) if x > 0 else 1j * math.sqrt(-x)
        assert_allclose(m @ v[i], lam * v[i], atol=1e-10)


def _reference_probe_vectors(a, b, hermitian):
    """Batched 2x2 eig/eigh with explicit eigenvalue selection.

    Lowest eigenvalue (eigh) for Hermitian blocks; otherwise the lowest
    real part when a^2 - b^2 > 0 and the largest imaginary part when it
    is < 0.  Coalesced rows take (b, -a), vanishing rows (1, 0), both
    flagged.  Rows come back unit-norm but in eig's own gauge.
    """
    m = len(a)
    lower = -b if hermitian else b
    mats = np.empty((m, 2, 2), dtype=complex)
    mats[:, 0, 0] = -a
    mats[:, 0, 1] = -b
    mats[:, 1, 0] = lower
    mats[:, 1, 1] = a
    defective = np.zeros(m, dtype=bool)
    if hermitian:
        v = np.linalg.eigh(mats)[1][:, :, 0]
    else:
        vals, vecs = np.linalg.eig(mats)
        x = a * a - b * b
        pick = np.where(x < 0, np.argmax(vals.imag, axis=1),
                        np.argmin(vals.real, axis=1))
        v = np.take_along_axis(vecs, pick[:, None, None], axis=2)[:, :, 0]
        coalesced = (np.abs(x) <= TOL_PHASE) & ~((a == 0.0) & (b == 0.0))
        norm = np.hypot(a[coalesced], b[coalesced])
        v[coalesced] = np.stack([b[coalesced], -a[coalesced]], axis=1) / norm[:, None]
        defective |= coalesced
    degenerate = (a == 0.0) & (b == 0.0)
    v[degenerate] = (1.0, 0.0)
    defective |= degenerate
    return v / np.linalg.norm(v, axis=1)[:, None], defective


@pytest.mark.parametrize("hermitian", [False, True])
def test_probe_vectors_match_eig_reference(hermitian):
    # the closed-form eigenvector against batched eig/eigh: random rows,
    # rows on and near the exceptional manifold, and vanishing blocks
    rng = np.random.default_rng(20261018)
    a = rng.uniform(-2, 2, size=4000)
    b = rng.uniform(-2, 2, size=4000)
    edge = rng.uniform(-2, 2, size=40)
    near = np.sqrt(edge * edge - 0.5 * TOL_PHASE * rng.uniform(-1, 1, size=40))
    a = np.concatenate([a, edge, edge, -edge, [0.0, 0.0, 1e-7, 0.0]])
    b = np.concatenate([b, edge, np.copysign(near, edge), edge, [0.0, 1.0, 0.0, 1e-7]])
    v, defective = probe_vectors(a, b, hermitian)
    v_ref, d_ref = _reference_probe_vectors(a, b, hermitian)
    assert_array_equal(defective, d_ref)
    if not hermitian:
        assert defective[4000:4120].all()
    # same ray: align the reference's phase to the row before comparing
    overlap = np.sum(np.conj(v_ref) * v, axis=1)
    aligned = v_ref * (overlap / np.abs(overlap))[:, None]
    assert np.abs(v - aligned).max() <= 1e-12


def test_probe_vector_gauge_and_norm():
    # broken-phase rows have exactly tied component magnitudes, so the
    # contract is: some maximal-magnitude component is real positive
    rng = np.random.default_rng(5)
    a = rng.uniform(-2, 2, size=300)
    b = rng.uniform(-2, 2, size=300)
    v, _ = probe_vectors(a, b, hermitian=False)
    assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-13)
    mags = np.abs(v)
    for i in range(len(a)):
        near_max = mags[i] >= mags[i].max() * (1.0 - 1e-12)
        cand = v[i][near_max]
        ok = (np.abs(cand.imag) < 1e-12) & (cand.real > 0)
        assert ok.any()


def _pivot_rows(rng):
    """Rows of every kind the pivot gauge meets, as (a, b)."""
    a = rng.uniform(-2, 2, size=300)               # random
    b = rng.uniform(-2, 2, size=300)
    tie = rng.uniform(-2, 2, size=20)               # broken, components tie
    edge = rng.uniform(-2, 2, size=20)              # coalesced, on and near
    near = np.sqrt(edge * edge - 0.5 * TOL_PHASE * rng.uniform(-1, 1, size=20))
    a = np.concatenate([a, np.zeros(20), edge, -edge, edge,
                        [0.0, 0.0, 1.0, -1.0, 0.5, 0.5]])
    # vanishing rows, then rows with one component 0 or too small to square
    b = np.concatenate([b, tie, edge, edge, np.copysign(near, edge),
                        [0.0, 0.0, 0.0, 0.0, 1e-160, 1e-300]])
    return a, b


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("choice", ["zeros", "ones", "random"])
def test_probe_vector_pivot_gauge(hermitian, choice):
    # the gauge goes onto the requested component, or onto the row's own
    # largest one where the requested component vanished; the ray and
    # the defective flags are those of the default call
    rng = np.random.default_rng(20261020)
    a, b = _pivot_rows(rng)
    pivot = {"zeros": np.zeros(len(a), dtype=int), "ones": np.ones(len(a), dtype=int),
             "random": rng.integers(0, 2, size=len(a))}[choice]
    v, defective = probe_vectors(a, b, hermitian, pivot)
    v_own, d_own = probe_vectors(a, b, hermitian)
    _, d_ref = _reference_probe_vectors(a, b, hermitian)
    assert_array_equal(defective, d_ref)
    assert_array_equal(d_own, d_ref)
    assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-15)
    rows = np.arange(len(a))
    vanished = np.abs(v_own[rows, pivot]) < 1e-150
    assert vanished.any()
    used = np.where(vanished, np.argmax(np.abs(v_own), axis=1), pivot)
    assert (v[rows, used].imag == 0).all()
    assert (v[rows, used].real >= 0).all()
    assert_array_equal(v[vanished], v_own[vanished])
    overlap = np.sum(np.conj(v_own) * v, axis=1)
    aligned = v_own * (overlap / np.abs(overlap))[:, None]
    assert np.abs(v - aligned).max() <= 1e-15


def test_probe_vector_coalescence_flagged():
    # a = b sits exactly on the exceptional manifold: the merging
    # eigendirection (b, -a)/sqrt(a^2+b^2) comes back flagged
    v, defective = probe_vectors([1.0], [1.0], hermitian=False)
    assert defective[0]
    assert_allclose(np.abs(v[0]), np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-12)


def test_probe_vector_near_coalescence_tolerance():
    a = 1.0
    inside = math.sqrt(1.0 - 0.5 * TOL_PHASE)   # |eps_sq| = tol/2
    outside = math.sqrt(1.0 - 5.0 * TOL_PHASE)  # |eps_sq| = 5 tol
    _, d_in = probe_vectors([a], [inside], hermitian=False)
    _, d_out = probe_vectors([a], [outside], hermitian=False)
    assert d_in[0]
    assert not d_out[0]


def test_probe_vector_zero_block_flagged():
    v, defective = probe_vectors([0.0], [0.0], hermitian=False)
    assert defective[0]
    assert_allclose(v[0], np.array([1.0, 0.0]), atol=0)


def test_hermitian_mode_eps_sq_positive():
    p = ModelParams(N=64, Z=2, alpha=1.0, gamma=0.5, h=-1.0,
                    anisotropy_mode=AnisotropyMode.HERMITIAN)
    _, _, _, _, _, eps_sq = block_arrays(p)
    assert (eps_sq > 0).all()
    assert classify_phase(build_blocks(p)).label is PhaseLabel.UNBROKEN
