"""Propagator identities, kernel accuracy, and analytic-derivative agreement."""

import cmath
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from ixysense.blocks import ModeBlock, block_arrays, build_blocks
from ixysense.dynamics import (
    DSERIES_Z,
    RESCALE_EXPONENT,
    evolve_mode,
    evolve_mode_derivative,
    mode_columns,
    propagator,
    trajectory_arrays,
    _cell,
    _mode_amplitudes,
)
from ixysense.model import AnisotropyMode, ModelParams, ThetaKind


def _block(a, b, hermitian=False):
    x = a * a + b * b if hermitian else a * a - b * b
    return ModeBlock(p=1, a=a, b=b, eps_sq=x, j_imag=0.0, hermitian=hermitian)


def _grid(a, b, ji, x, hermitian, t, theta):
    """n, cr and ci of every mode on the (modes x times) grid, in input order.

    One trajectory_arrays call per run of mode_columns, each (times x
    sorted modes), put back into the order of a, b, ji and x.
    """
    order, runs = mode_columns(a, b, ji, x, hermitian, t, theta)
    q = np.concatenate([trajectory_arrays(run, t) for run in runs], axis=2)
    out = np.empty_like(q)
    out[:, :, order] = q
    return out.transpose(0, 2, 1)


def _rand_blocks(rng, n, hermitian=False):
    out = []
    for _ in range(n):
        a, b = rng.uniform(-2, 2, size=2)
        out.append(_block(a, b, hermitian))
    return out


def test_propagator_frozen_hyperbolic_case():
    # a=0, b=1: eps_sq = -1, U(1) = cosh(1) I - i sinh(1) M
    blk = _block(0.0, 1.0)
    expected = math.cosh(1.0) * np.eye(2) - 1j * math.sinh(1.0) * blk.matrix()
    assert_allclose(propagator(blk, 1.0), expected, atol=1e-14)


def test_propagator_identity_at_t_zero():
    assert_allclose(propagator(_block(0.7, 0.2), 0.0), np.eye(2), atol=0)


def test_propagator_semigroup():
    rng = np.random.default_rng(17)
    for blk in _rand_blocks(rng, 25) + [_block(1.0, 1.0), _block(1e-9, 0.0)]:
        t1, t2 = rng.uniform(0.0, 3.0, size=2)
        u12 = propagator(blk, t1 + t2)
        prod = propagator(blk, t1) @ propagator(blk, t2)
        assert np.abs(u12 - prod).max() < 1e-10


def test_propagator_unit_determinant():
    rng = np.random.default_rng(23)
    for blk in _rand_blocks(rng, 25):
        t = rng.uniform(0.0, 5.0)
        assert abs(np.linalg.det(propagator(blk, t)) - 1.0) < 1e-10


def test_propagator_unitary_when_hermitian():
    rng = np.random.default_rng(29)
    for blk in _rand_blocks(rng, 15, hermitian=True):
        u = propagator(blk, 1.7)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10


def test_gamma_zero_preserves_norm():
    p = ModelParams(N=32, Z=2, alpha=1.0, gamma=0.0, h=-0.7)
    for blk in build_blocks(p):
        for t in (0.3, 1.0, 7.0, 40.0):
            state = evolve_mode(blk, t)
            assert abs(state.prenorm - 1.0) < 1e-10


def test_propagator_negative_time_raises():
    # all three scalar views reach the one check in _cell
    blk = _block(1.0, 0.0)
    params = ModelParams(N=8, Z=1, alpha=1.0, gamma=0.3, h=-0.7)
    views = (lambda t: propagator(blk, t), lambda t: evolve_mode(blk, t),
             lambda t: evolve_mode_derivative(params, 1, t, ThetaKind.FIELD_H))
    for view in views:
        with pytest.raises(ValueError, match="t must be >= 0"):
            view(-0.1)


def test_propagator_raises_where_its_entries_overflow():
    # exp(|eps| t) overflows past |eps| t ~ 709.78; just below it the
    # entry S b can still overflow.  Either way propagator raises, with no
    # RuntimeWarning, and names x and t
    near = _block(1.9, 2.0)
    cases = [(_block(0.0, 2.0), 500.0), (near, 709.5 / math.sqrt(-near.eps_sq)),
             (_block(0.0, 2.0), 1e300)]
    for blk, t in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"x={blk.eps_sq!r}, t={t!r}")):
                propagator(blk, t)


def test_scalar_views_at_huge_time_run_without_warning():
    # z = x t^2 overflows at t = 1e300, which only places the cell outside
    # the series window.  A broken block's propagator is left out: its true
    # entries cosh and sinh overflow, and it raises.
    params = ModelParams(N=16, Z=2, alpha=1.5, gamma=0.5, h=-1.0)
    blocks = build_blocks(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unbroken = next(blk for blk in blocks if blk.eps_sq > 0)
        assert np.isfinite(propagator(unbroken, 1e300)).all()
        for blk in blocks:
            assert np.isfinite(evolve_mode(blk, 1e300).vector()).all()
        for p in range(1, params.N // 2 + 1):
            for theta in ThetaKind:
                traj = evolve_mode_derivative(params, p, 1e300, theta)
                assert np.isfinite([*traj.state.vector(), *traj.dstate]).all()
    assert {blk.eps_sq > 0 for blk in blocks} == {True, False}  # both kinds covered


def test_kernels_match_complex_reference():
    # C = Re cos(sqrt(x) t), S = sin(sqrt(x) t)/sqrt(x), x of either sign,
    # against the analytic continuation down to x = 0
    xs = np.concatenate([np.geomspace(1e-30, 1e3, 45),
                         -np.geomspace(1e-30, 1e3, 45), [0.0]])
    for t in (1e-3, 1.0, 11.0):
        for xi in xs[np.sqrt(np.abs(xs)) * t < 0.5 * RESCALE_EXPONENT].tolist():
            ci, si, _, _, sig = _cell(xi, t)
            assert sig == 0.0
            root = cmath.sqrt(complex(xi))
            c_ref = cmath.cos(root * t).real
            s_ref = t if xi == 0.0 else (cmath.sin(root * t) / root).real
            assert ci == pytest.approx(c_ref, rel=1e-12, abs=1e-12)
            assert si == pytest.approx(s_ref, rel=1e-12, abs=1e-12)


def _cell_grid(x, t):
    """_cell's C, S, C_x, S_x and sigma on the (modes x times) grid of 1-D x and t."""
    cells = np.frompyfunc(_cell, 2, 5)(np.reshape(x, (-1, 1)), np.reshape(t, (1, -1)))
    return tuple(q.astype(float) for q in cells)


def _mp_cells(x, t):
    """40-digit C and S of the phase sqrt(|x|) t as rounded, on the x by t grid."""
    rt = np.sqrt(np.abs(x))
    c_ref = np.ones((x.size, t.size))  # x = 0: C = 1, S = t
    s_ref = np.broadcast_to(t, c_ref.shape).copy()
    with mpmath.workdps(40):
        for i, (xi, ri) in enumerate(zip(x.tolist(), rt.tolist())):
            if xi == 0.0:
                continue
            cos, sin = (mpmath.cos, mpmath.sin) if xi > 0 else (mpmath.cosh, mpmath.sinh)
            for j, v in enumerate((ri * t).tolist()):
                c_ref[i, j] = float(cos(v))
                s_ref[i, j] = float(sin(v) / ri)
    return c_ref, s_ref


# Gates of C (absolute) and S (relative) against 40-digit cos and sin of
# the phase sqrt(x) t as rounded: libm measures 0.5 and 1.0 eps below,
# where the replaced half-angle tangent form measured 1.0 and 1.93.
C_ATOL = np.finfo(float).eps
S_RTOL = 2.0 * np.finfo(float).eps


def test_trigonometric_kernels_match_mpmath():
    rng = np.random.default_rng(7)
    x = np.geomspace(1e-6, 20.0, 40)
    t = np.concatenate([[1.0, 1000.0], rng.uniform(1.0, 1000.0, 198)])
    c, s, _, _, sig = _cell_grid(x, t)
    assert (sig == 0).all()
    c_ref, s_ref = _mp_cells(x, t)
    assert np.abs(c - c_ref).max() <= C_ATOL
    assert (np.abs(s - s_ref) / np.abs(s_ref)).max() <= S_RTOL
    # the same gates near x = 0, where no series takes over: x of both
    # signs with |x t^2| from 1e-20 to 1e-8, and x = 0 (measured 0 in C
    # and 0.78 eps in S)
    z = np.geomspace(1e-20, 1e-8, 25)
    for ti in np.geomspace(0.01, 1000.0, 9):
        x = np.concatenate([z, -z, [0.0]]) / (ti * ti)
        c, s, _, _, sig = _cell_grid(x, ti)
        assert (sig == 0).all()
        c_ref, s_ref = _mp_cells(x, np.array([ti]))
        assert np.abs(c - c_ref).max() <= C_ATOL
        assert (np.abs(s - s_ref) / np.abs(s_ref)).max() <= S_RTOL


# C, S, C_x, S_x and sigma of the vectorized half-angle kernels that _cell
# replaced, at extreme x and t, as they computed them; NaN where the phase
# sqrt(x) t overflowed.
_REPLACED_KERNEL_CELLS = {
    (0.0, 0.0): (1.0, 0.0, -0.0, -0.0, 0.0),
    (0.0, 1.0): (1.0, 1.0, -0.5, -0.16666666666666666, 0.0),
    (0.0, 1e+150): (1.0, 1e+150, -4.9999999999999995e+299, -math.inf, 0.0),
    (0.0, 1e+300): (1.0, 1e+300, -math.inf, -math.inf, 0.0),
    (5e-324, 0.0): (1.0, 0.0, -0.0, 0.0, 0.0),
    (5e-324, 1.0): (1.0, 1.0, -0.5, -0.16666666666666666, 0.0),
    (5e-324, 1e+150): (1.0, 1e+150, -4.9999999999999995e+299, -math.inf, 0.0),
    (5e-324, 1e+300): (0.7981968917530666, 2.7101305912441834e+161, -math.inf, math.inf, 0.0),
    (-5e-324, 0.0): (1.0, 0.0, -0.0, -0.0, 0.0),
    (-5e-324, 1.0): (1.0, 1.0, -0.5, -0.16666666666666666, 0.0),
    (-5e-324, 1e+150): (1.0, 1e+150, -4.9999999999999995e+299, -math.inf, 0.0),
    (-5e-324, 1e+300): (0.5, 2.2494568972715982e+161, -math.inf,
        -math.inf, 2.2227587494850776e+138),
    (1e-320, 0.0): (1.0, 0.0, -0.0, 0.0, 0.0),
    (1e-320, 1.0): (1.0, 1.0, -0.5, -0.16666666666666666, 0.0),
    (1e-320, 1e+150): (1.0, 1e+150, -4.9999999999999995e+299, -math.inf, 0.0),
    (1e-320, 1e+300): (0.7899996911815813, 6.131106529910056e+159, -math.inf, math.inf, 0.0),
    (-1e-320, 0.0): (1.0, 0.0, -0.0, -0.0, 0.0),
    (-1e-320, 1.0): (1.0, 1.0, -0.5, -0.16666666666666666, 0.0),
    (-1e-320, 1e+150): (1.0, 1e+150, -4.9999999999999995e+299, -math.inf, 0.0),
    (-1e-320, 1e+300): (0.5, 5.0000278322756814e+159, -math.inf, -math.inf, 9.99994433575849e+139),
    (1e+308, 0.0): (1.0, 0.0, -0.0, 0.0, 0.0),
    (1e+308, 1.0): (0.9585335384748351, -2.8497974598015173e-155, 1.4248987299007586e-155,
        4.792667692374177e-309, 0.0),
    (1e+308, 1e+150): (0.9948707118517949, -1.0115466721562065e-155, 5.057733360781032e-06,
        4.974353559258974e-159, 0.0),
    (1e+308, 1e+300): (math.nan, math.nan, math.nan, math.nan, 0.0),
    (-1e+308, 0.0): (1.0, 0.0, -0.0, -0.0, 0.0),
    (-1e+308, 1.0): (0.5, 5e-155, -2.5e-155, -2.499999999999997e-309, 1e+154),
    (-1e+308, 1e+150): (0.5, 5e-155, -2.4999999999999998e-05, -2.5e-159, 1.0000000000000001e+304),
    (-1e+308, 1e+300): (0.5, 5e-155, -2.5e+145, -2.5e-09, math.inf),
}


def test_cell_keeps_the_replaced_grid_values_at_extreme_x_and_t():
    # every cell keeps the finite / +-inf pattern, and the finite values
    # agree within C_ATOL in C and S_RTOL relative elsewhere; where the
    # phase of an x > 0 cell overflows, the views raise a ValueError that
    # names x and t
    for (x, t), want in _REPLACED_KERNEL_CELLS.items():
        if math.isnan(want[0]):
            blk = _block(math.sqrt(x), 0.0)
            assert blk.eps_sq == x
            for view in (_cell, lambda x, t: propagator(blk, t), lambda x, t: evolve_mode(blk, t)):
                with pytest.raises(ValueError, match=re.escape(f"x={x!r}, t={t!r}")):
                    view(x, t)
            continue
        got = _cell(x, t)
        for k, (g, w) in enumerate(zip(got, want)):
            if not math.isfinite(w):
                assert g == w
            else:
                assert abs(g - w) <= (C_ATOL if k == 0 else S_RTOL * abs(w))
    assert sum(math.isnan(w[0]) for w in _REPLACED_KERNEL_CELLS.values()) == 1


def test_trajectory_arrays_returns_times_by_modes():
    # one run of each sign, unbroken rows first; times form a column and a
    # run's modes a contiguous row, a scalar time included
    x = np.array([0.5, -0.2, 1.0])
    for t, times in ((np.array([0.1, 0.2]), 2), (0.1, 1)):
        for theta in ThetaKind:
            order, runs = mode_columns(x, x, x, x, False, t, theta)
            assert order.tolist() == [0, 2, 1]
            assert [run[:2] for run in runs] == [(1, False), (-1, False)]
            for run, modes in zip(runs, (2, 1)):
                q = trajectory_arrays(run, t)
                assert [v.shape for v in q] == [(times, modes)] * 3
                assert all(v.flags.c_contiguous for v in q)


# Relative gate of a broken block's propagator entries against 40-digit
# cosh and sinh of the rounded |eps| t = 300 and 650, where sigma > 0 and
# the matrix is scaled back by exp(sigma): 3 eps, against 1.1 eps measured
# here and 1.55 eps worst over 600 random broken blocks at |eps| t 151-700.
PROPAGATOR_GROWTH_RTOL = 3.0 * np.finfo(float).eps


def test_rescaled_growth_matches_direct_propagator():
    # deep in the hyperbolic regime (|eps| t = 300 > threshold) the
    # rescaled amplitudes must stay parallel to the literal ones
    blk = _block(0.0, 2.0)  # eps_sq = -4
    t = 150.0
    state = evolve_mode(blk, t)
    assert state.log_scale == pytest.approx(300.0)
    direct = propagator(blk, t) @ np.array([1.0, 0.0], dtype=complex)
    direct /= np.linalg.norm(direct)
    assert_allclose(state.vector(), direct, atol=1e-12)
    # and the propagator's own entries are the true, unscaled ones
    for blk in (_block(0.0, 2.0), _block(0.6, 2.0)):
        rt = math.sqrt(-blk.eps_sq)
        for target in (300.0, 650.0):
            t = target / rt
            got = propagator(blk, t)
            with mpmath.workdps(40):
                st = mpmath.mpf(rt * t)
                c, s = mpmath.cosh(st), mpmath.sinh(st) / rt
                want = np.array([[complex(c * (i == j) - 1j * s * complex(blk.matrix()[i, j]))
                                  for j in range(2)] for i in range(2)])
            nonzero = want != 0
            rel = np.abs(got - want)[nonzero] / np.abs(want[nonzero])
            assert rel.max() <= PROPAGATOR_GROWTH_RTOL


@pytest.mark.parametrize("hermitian", [False, True])
def test_evolve_mode_matches_propagator(hermitian):
    # the vectorized amplitude path and the literal matrix exponential
    # must agree in both anisotropy modes
    blk = _block(0.6, 1.1, hermitian)
    for t in (0.4, 2.3):
        state = evolve_mode(blk, t)
        direct = propagator(blk, t) @ np.array([1.0, 0.0], dtype=complex)
        direct /= np.linalg.norm(direct)
        phase = direct[0] / state.amp0
        assert_allclose(state.vector() * phase, direct, atol=1e-12)


def test_analytic_derivative_matches_finite_difference():
    # 100 random cells, both estimated parameters, relative error < 1e-6
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([8, 12, 16, 32, 64]))
        z = int(rng.integers(1, n // 2 + 1))
        params = ModelParams(
            N=n, Z=z, alpha=float(rng.uniform(0.0, 3.0)),
            gamma=float(rng.uniform(-1.0, 1.0)), h=float(rng.uniform(-3.0, 1.0)),
            anisotropy_mode=rng.choice([AnisotropyMode.NON_HERMITIAN,
                                        AnisotropyMode.HERMITIAN]))
        p = int(rng.integers(1, n // 2 + 1))
        t = float(rng.uniform(0.0, 5.0))
        theta = rng.choice([ThetaKind.FIELD_H, ThetaKind.ANISOTROPY_GAMMA])

        traj = evolve_mode_derivative(params, p, t, theta)
        d = np.array(traj.dstate)

        theta0 = params.h if theta is ThetaKind.FIELD_H else params.gamma
        step = 1e-6 * max(1.0, abs(theta0))

        def amps(v):
            from dataclasses import replace
            q = replace(params, h=v) if theta is ThetaKind.FIELD_H \
                else replace(params, gamma=v)
            tr = evolve_mode_derivative(q, p, t, theta)
            return tr.state.vector()

        d_full = (amps(theta0 + step) - amps(theta0 - step)) / (2 * step)
        d_half = (amps(theta0 + 0.5 * step) - amps(theta0 - 0.5 * step)) / step
        fd = (4.0 * d_half - d_full) / 3.0
        denom = max(np.linalg.norm(d), np.linalg.norm(fd), 1e-12)
        worst = max(worst, np.linalg.norm(d - fd) / denom)
    assert worst < 1e-6


def test_trajectory_arrays_matches_scalar_path():
    # the scale-free cross term (cr + i ci) / n against the complex scalar
    # amplitudes' cross / |phi|^2, on unbroken and broken blocks, for both
    # theta and both modes: n, cr and ci carry the factor d = 1 / C^2
    for mode in AnisotropyMode:
        params = ModelParams(N=16, Z=3, alpha=1.3, gamma=0.4, h=-0.8, anisotropy_mode=mode)
        blocks = build_blocks(params)
        a = np.array([b.a for b in blocks])
        b = np.array([b_.b for b_ in blocks])
        ji = np.array([b_.j_imag for b_ in blocks])
        x = np.array([b_.eps_sq for b_ in blocks])
        hermitian = mode is AnisotropyMode.HERMITIAN
        assert (x < 0).any() != hermitian
        for theta in ThetaKind:
            n, cr, ci = _grid(a, b, ji, x, hermitian, 1.3, theta)
            for i, blk in enumerate(blocks):
                traj = evolve_mode_derivative(params, blk.p, 1.3, theta)
                (amp0, amp2), (d0, d1) = traj.state.vector(), traj.dstate
                cross = (amp0 * d1 - amp2 * d0) / (abs(amp0) ** 2 + abs(amp2) ** 2)
                assert cr[i] / n[i] == pytest.approx(cross.real, rel=1e-13, abs=1e-15)
                assert ci[i] / n[i] == pytest.approx(cross.imag, rel=1e-13, abs=1e-15)


def _mp_cell_qfi(a, b, ji, x, hermitian, t, theta):
    """4 |phi_0 dphi_1 - phi_1 dphi_0|^2 / n^2 of one cell at the working
    precision, from the complex amplitudes of x, a, b and j_imag as rounded."""
    a, b, ji, x, t = (mpmath.mpf(v) for v in (a, b, ji, x, t))
    m = -b if hermitian else b
    if theta is ThetaKind.FIELD_H:
        xp, u, v = 2 * a, -1, 0
    else:
        xp, u, v = (2 * b * ji, 0, -ji) if hermitian else (-2 * b * ji, 0, ji)
    r = mpmath.sqrt(mpmath.mpc(x))
    c, s = mpmath.cos(r * t), mpmath.sin(r * t) / r
    c_x, s_x = -t * s / 2, (t * c - s) / (2 * x)
    phi0, phi1 = c + 1j * a * s, -1j * m * s
    d0 = xp * (c_x + 1j * a * s_x) - 1j * s * u
    d1 = -1j * xp * m * s_x - 1j * s * v
    n = abs(phi0) ** 2 + abs(phi1) ** 2
    return float(4 * abs(phi0 * d1 - phi1 * d0) ** 2 / n ** 2)


# Relative gate of the per-cell QFI below against 50 digits, 10x the worst
# error of W built as S C_x - C S_x from _cell: 5.5e-13, at
# sqrt(x) t = 374, where the rounded phase sets it in any form.  The
# tangent form of trajectory_arrays measures 5.5e-13 there too, 2.4e-14
# in the cells near tan poles and 3.8e-16 at |eps| t = 700-3000.
CELL_QFI_RTOL = 5.5e-12


def _mp_qfi_grid(a, b, ji, x, hermitian, t, theta):
    """_mp_cell_qfi at 50 digits on the (modes x times) grid of 1-D inputs."""
    with mpmath.workdps(50):
        return np.array([[_mp_cell_qfi(*p, hermitian, ti, theta) for ti in t.tolist()]
                         for p in zip(a.tolist(), b.tolist(), ji.tolist(), x.tolist())])


# Cells near a tan pole: psi = sqrt(x) t at (pi/2 + k pi)(1 + delta), where
# C = 0 and tau = S / C passes through infinity.
_POLE_K = (0, 1, 10, 100)
_POLE_DELTA = (0.0, -1e-15, 1e-15, -1e-12, 1e-12, -1e-9, 1e-9)
# Broken cells past the double range of cosh (about 710).
_HUGE_GROWTH = (700.0, 1000.0, 3000.0)


@pytest.mark.parametrize("mode", list(AnisotropyMode))
@pytest.mark.parametrize("theta", list(ThetaKind))
def test_cell_qfi_matches_mpmath(theta, mode):
    # trigonometric and hyperbolic cells, |eps| t up to 460 (past
    # RESCALE_EXPONENT, where the scalar views rescale), cells 1 % either
    # side of the DSERIES_Z edge in four modes, cells near tan poles and
    # broken cells where cosh overflows double
    params = ModelParams(N=32, Z=3, alpha=1.5, gamma=0.4, h=-0.8, anisotropy_mode=mode)
    _, _, ji, a, b, x = block_arrays(params)
    hermitian = mode is AnisotropyMode.HERMITIAN
    edge = np.sqrt(DSERIES_Z / np.abs(x[:4]))
    t = np.concatenate([np.geomspace(0.01, 2000.0, 32), 0.99 * edge, 1.01 * edge])
    n, cr, ci = _grid(a, b, ji, x, hermitian, t, theta)
    got = 4.0 * (cr * cr + ci * ci) / (n * n)
    z = np.abs(x[:, None] * t * t)
    growth = np.sqrt(np.maximum(-x, 0.0))[:, None] * t  # |eps| t of broken cells
    inside, outside = z < DSERIES_Z, z >= DSERIES_Z
    assert (inside & (z > 0.97 * DSERIES_Z)).sum() >= 4
    assert (outside & (z < 1.03 * DSERIES_Z)).sum() >= 4
    assert (outside & (x[:, None] > 0)).any()
    assert (outside & (x[:, None] < 0) & (growth <= RESCALE_EXPONENT)).any() != hermitian
    assert (growth > RESCALE_EXPONENT).any() != hermitian
    want = _mp_qfi_grid(a, b, ji, x, hermitian, t, theta)
    rel = np.abs(got - want) / want
    assert rel.max() <= CELL_QFI_RTOL

    # one mode at a time, each at its own times
    pole = [(i, np.array([(np.pi / 2 + k * np.pi) * (1.0 + dl) / np.sqrt(x[i])
                          for k in _POLE_K for dl in _POLE_DELTA]))
            for i in np.flatnonzero(x > 0)[::5]]
    huge = [(i, np.array(_HUGE_GROWTH) / np.sqrt(-x[i])) for i in np.flatnonzero(x < 0)]
    assert len(pole) >= 3 and (len(huge) >= 2) != hermitian
    for i, ti in pole + huge:
        row = (a[i:i + 1], b[i:i + 1], ji[i:i + 1], x[i:i + 1])
        n, cr, ci = _grid(*row, hermitian, ti, theta)
        got = 4.0 * (cr * cr + ci * ci) / (n * n)
        want = _mp_qfi_grid(*row, hermitian, ti, theta)
        assert np.isfinite(got).all() and (np.abs(got - want) <= CELL_QFI_RTOL * want).all()


def test_trajectory_arrays_mixed_chunk_stays_finite():
    # rows with x > 0, x < 0 and x = 0 in one curve, at t = 0 and out to a
    # broken cell at |eps| t = 1e4, where cosh and sinh overflow double:
    # every n >= 1 and every result finite, with no warning (pytest turns
    # warnings into errors).  At t = 1e-3 the rows with |x| < 1 can enter
    # the DSERIES_Z window, so the curve holds all five kinds of run.
    a = np.array([1.2, 0.3, 0.5, 0.0, -0.7])
    b = np.array([0.4, 1.1, 0.5, 0.9, 0.2])
    ji = np.array([0.3, -0.8, 0.6, 0.9, -0.1])
    x = a * a - b * b
    assert x[2] == 0.0 and (x < 0).sum() == 2 and (x > 0).sum() == 2
    t = np.array([0.0, 1e-3, 2.5, 40.0, 1e4 / math.sqrt(-x[1])])
    for theta in ThetaKind:
        runs = mode_columns(a, b, ji, x, False, t, theta)[1]
        assert [run[:2] for run in runs] == [
            (1, False), (-1, False), (1, True), (0, True), (-1, True)]
        n, cr, ci = _grid(a, b, ji, x, False, t, theta)
        assert np.isfinite(n).all() and np.isfinite(cr).all() and np.isfinite(ci).all()
        assert (n >= 1.0).all()
        assert (n[:, 0] == 1.0).all() and (cr[:, 0] == 0.0).all() and (ci[:, 0] == 0.0).all()
        # x = 0: C = 1 and S = t, so d = 1 and W = -t^3 / 3
        xp, u, v = (2 * a[2], -1.0, 0.0) if theta is ThetaKind.FIELD_H else \
            (-2 * b[2] * ji[2], 0.0, ji[2])
        assert_allclose(n[2], 1.0 + (a[2] ** 2 + b[2] ** 2) * t * t, rtol=1e-15)
        assert_allclose(cr[2], (a[2] * v + b[2] * u) * t * t, rtol=1e-15)
        w, vt = -xp * b[2] * t ** 3 / 3.0, v * t  # the two terms of ci, which may cancel
        assert (np.abs(ci[2] - (w - vt)) <= 1e-15 * (np.abs(w) + np.abs(vt))).all()


# Modes with |x| down to the smallest subnormal, where T^2 = x t^2 leaves
# the normal range and kappa = (a^2 + m^2) / |x| can overflow.
_TINY_X = np.array([5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1e-17, -1e-17, 0.0])


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("theta", list(ThetaKind))
def test_trajectory_arrays_tiny_x_rows(theta, hermitian):
    # a and b scale with sqrt|x|, so (a^2 + m^2) / |x| and h / x are of
    # order one, and the times run out to 1e200.  The rows in tau form
    # (|x| <= 1e-310 and x = 0) overflow once tau^2 = t^2 does, past
    # t = 1.3e154; every other row stays finite.  Each cell must match the
    # scalar view's per-mode QFI wherever that is finite, broken cells
    # up to |eps| t = 1e3 (past that the view's C_x and S_x terms cancel).
    x = _TINY_X
    t = np.geomspace(0.02, 1e200, 41)
    s = np.sqrt(np.abs(x))
    s[x == 0.0] = 1e-150
    a = np.where(x < 0, 0.75, 1.25) * s
    b = np.where(x < 0, 1.25, 0.75) * s
    ji = np.full(x.size, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        n, cr, ci = _grid(a, b, ji, x, hermitian, t, theta)
        got = 4.0 * (cr * cr + ci * ci) / (n * n)
    finite = np.isfinite(n) & np.isfinite(cr) & np.isfinite(ci)
    assert finite[np.abs(x) >= 1e-300].all()
    compared = 0
    for i, j in np.ndindex(got.shape):
        if x[i] < 0 and math.sqrt(-x[i]) * t[j] > 1e3:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            amp0, amp2, d0, d1, _ = (np.complex128(q) for q in _mode_amplitudes(
                a[i], b[i], ji[i], x[i], hermitian, t[j], theta))
            want = 4.0 * abs(amp0 * d1 - amp2 * d0) ** 2 / (abs(amp0) ** 2 + abs(amp2) ** 2) ** 2
        if np.isfinite(want):
            compared += 1
            assert finite[i, j] and abs(got[i, j] - want) <= CELL_QFI_RTOL * want
    assert compared >= 20 * x.size
    # a and b of order one, far from a^2 -+ b^2 = x: every row stays
    # finite while h t^3 can, here up to t = 1.4e99
    late = t[t < 1e100]
    with np.errstate(over="ignore", invalid="ignore"):  # h / x overflows; the window holds
        q = _grid(np.full(x.size, 1.25), np.full(x.size, 0.75), ji, x, hermitian, late, theta)
    assert all(np.isfinite(v).all() for v in q)


@pytest.mark.parametrize("hermitian", [False, True])
def test_evolve_mode_initial_condition(hermitian):
    # t = 0 leaves the pair vacuum (1, 0) exactly, unscaled, on the
    # single-block view and on the row view of the array path alike
    state = evolve_mode(_block(0.7, 0.4, hermitian), 0.0)
    assert state.vector().tolist() == [1.0 + 0.0j, 0.0 + 0.0j]
    assert state.prenorm == 1.0 and state.log_scale == 0.0
    mode = AnisotropyMode.HERMITIAN if hermitian else AnisotropyMode.NON_HERMITIAN
    params = ModelParams(N=16, Z=3, alpha=1.3, gamma=0.4, h=-0.8, anisotropy_mode=mode)
    for theta in (ThetaKind.FIELD_H, ThetaKind.ANISOTROPY_GAMMA):
        traj = evolve_mode_derivative(params, 3, 0.0, theta)
        assert traj.state.vector().tolist() == [1.0 + 0.0j, 0.0 + 0.0j]
        assert traj.state.log_scale == 0.0
        assert traj.dstate == (0.0, 0.0)


def test_mode_index_validation():
    params = ModelParams(N=8, Z=1, alpha=1.0, gamma=0.3, h=-0.7)
    with pytest.raises(ValueError):
        evolve_mode_derivative(params, 0, 1.0, ThetaKind.FIELD_H)
    with pytest.raises(ValueError):
        evolve_mode_derivative(params, 5, 1.0, ThetaKind.FIELD_H)
