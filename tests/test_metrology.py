"""QFI invariances, the dynamical pipeline, and the stationary closed-form oracle."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ixysense.blocks import block_arrays
from ixysense import metrology
from ixysense.dynamics import _cell, evolve_mode_derivative, mode_columns, trajectory_arrays
from ixysense.errors import NumericalError
from ixysense.metrology import (
    dynamical_qfi,
    mode_qfi,
    qfi_curve,
    qfi_ratio_time_avg,
    stationary_qfi,
)
from ixysense.model import AnisotropyMode, ModelParams, ThetaKind, coupling_profile, grid_coupling

# Dual-route frozen value: the dense spin-basis oracle and the momentum
# pipeline agree on this cell to 1e-10; the digits below are the pinned
# momentum-side result.
DYNAMICAL_ORACLE_CELL = ModelParams(N=8, Z=1, alpha=1.5, gamma=0.3, h=-0.7)
DYNAMICAL_ORACLE_VALUE = 0.5186037668316041


def stationary_closed_form(params: ModelParams, theta: ThetaKind) -> float:
    """Per-mode stationary QFI from first-order eigenvector perturbation.

    For the selected eigenvector of M = [[-a,-b],[b,a]] (lowest real
    eigenvalue when eps_sq > 0, largest imaginary when eps_sq < 0):

        unbroken:  F_h = b^2 / (a^2 eps_sq),     F_gamma = J_I^2 / eps_sq
        broken:    F_h = 1 / |eps_sq|,           F_gamma = a^2 J_I^2 / (b^2 |eps_sq|)

    Independent of the finite-difference pipeline; used as its oracle.
    """
    _, _, ji, a, b, eps_sq = block_arrays(params)
    per = np.empty_like(eps_sq)
    unb = eps_sq > 0
    brk = ~unb
    if theta is ThetaKind.FIELD_H:
        per[unb] = b[unb] ** 2 / (a[unb] ** 2 * eps_sq[unb])
        per[brk] = 1.0 / np.abs(eps_sq[brk])
    else:
        per[unb] = ji[unb] ** 2 / eps_sq[unb]
        per[brk] = a[brk] ** 2 * ji[brk] ** 2 / (b[brk] ** 2 * np.abs(eps_sq[brk]))
    return float(math.fsum(per))


def test_mode_qfi_frozen_value():
    # orthogonal derivative: F = 4 |c|^2
    c = 0.3 + 0.4j
    assert mode_qfi([1.0, 0.0], [0.0, c]) == pytest.approx(1.0, rel=1e-14)


def test_mode_qfi_gauge_invariance():
    rng = np.random.default_rng(41)
    for _ in range(50):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        dphi = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        if abs(c) < 0.1:
            c += 0.5
        base = mode_qfi(phi, dphi)
        moved = mode_qfi(c * phi, c * dphi + w * phi)
        assert moved == pytest.approx(base, rel=1e-10, abs=1e-10)


def test_mode_qfi_zero_norm_raises():
    with pytest.raises(NumericalError, match="state norm underflow in mode_qfi"):
        mode_qfi([0.0, 0.0], [1.0, 0.0])


def test_qfi_additive_over_modes():
    params = ModelParams(N=24, Z=4, alpha=1.1, gamma=0.35, h=-0.8)
    t = 1.7
    for theta in (ThetaKind.FIELD_H, ThetaKind.ANISOTROPY_GAMMA):
        total = float(qfi_curve(params, [t], theta)[0])
        per = []
        for p in range(1, params.N // 2 + 1):
            traj = evolve_mode_derivative(params, p, t, theta)
            per.append(mode_qfi(traj.state.vector(), np.array(traj.dstate)))
        assert total == pytest.approx(math.fsum(per), rel=1e-10)


def test_dynamical_qfi_frozen_oracle_cell():
    s = dynamical_qfi(DYNAMICAL_ORACLE_CELL, 1.0, ThetaKind.FIELD_H)
    assert s.value == pytest.approx(DYNAMICAL_ORACLE_VALUE, rel=1e-12)


def test_qfi_zero_at_t_zero():
    params = ModelParams(N=16, Z=2, alpha=1.0, gamma=0.3, h=-0.7)
    assert float(qfi_curve(params, [0.0], ThetaKind.FIELD_H)[0]) == 0.0


def test_qfi_nonnegative_random_cells():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.choice([8, 16, 32]))
        params = ModelParams(N=n, Z=int(rng.integers(1, n // 2 + 1)),
                             alpha=float(rng.uniform(0, 3)),
                             gamma=float(rng.uniform(-1, 1)),
                             h=float(rng.uniform(-3, 1)))
        t = rng.uniform(0.0, 20.0, size=4)
        theta = rng.choice([ThetaKind.FIELD_H, ThetaKind.ANISOTROPY_GAMMA])
        assert (qfi_curve(params, t, theta) >= 0.0).all()


def test_qfi_curve_negative_time_raises():
    params = ModelParams(N=8, Z=1, alpha=1.0, gamma=0.3, h=-0.7)
    with pytest.raises(ValueError):
        qfi_curve(params, [-1.0], ThetaKind.FIELD_H)


def test_qfi_curve_rejects_2d_times():
    # the kernel would flatten a 2-D grid of times into one row, so the
    # one public entry rejects it and names the shape
    params = ModelParams(N=8, Z=1, alpha=1.0, gamma=0.3, h=-0.7)
    with pytest.raises(ValueError, match=re.escape("(1, 2)")):
        qfi_curve(params, [[1.0, 2.0]], ThetaKind.FIELD_H)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_qfi_curve_non_finite_time_raises(bad):
    params = ModelParams(N=8, Z=1, alpha=1.0, gamma=0.3, h=-0.7)
    with pytest.raises(ValueError, match="finite"):
        qfi_curve(params, [1.0, bad], ThetaKind.FIELD_H)


def test_qfi_curve_non_finite_total_raises(monkeypatch):
    # an overflowed cross term must end in NumericalError, not NaN totals
    def overflowed(*args):
        n, cr, ci = trajectory_arrays(*args)
        ci[0, 0] = np.inf
        return n, cr, ci

    monkeypatch.setattr(metrology, "trajectory_arrays", overflowed)
    params = ModelParams(N=8, Z=1, alpha=1.0, gamma=0.3, h=-0.7)
    with pytest.raises(NumericalError, match="h=-0.7"):
        qfi_curve(params, [1.0, 2.0], ThetaKind.FIELD_H)


def _mode_columns(params):
    """a, b, J^I and eps_sq of every block."""
    _, _, j_imag, a, b, eps_sq = block_arrays(params)
    return a, b, j_imag, eps_sq


def _full_grid_per_mode(params, t_grid, theta_kind):
    """Per-mode QFI of each run of mode_columns over the whole grid, one
    trajectory_arrays call per run, as (times x modes) arrays in run order."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN
    runs = mode_columns(*_mode_columns(params), hermitian, t_grid, theta_kind)[1]
    return [4.0 * (cr * cr + ci * ci) / (n * n)
            for n, cr, ci in (trajectory_arrays(run, t_grid) for run in runs)]


def _full_grid_qfi_curve(params, t_grid, theta_kind):
    """Each run's full-grid per-mode QFI summed along its mode axis, in run order."""
    total = np.zeros(np.size(t_grid))
    for per_mode in _full_grid_per_mode(params, t_grid, theta_kind):
        total += np.add.reduce(per_mode, axis=1)
    return total


def _reference_qfi_curve(params, t_grid, theta_kind):
    """QFI from the complex amplitudes and their derivative, on the whole grid.

    phi = (C + i a S, -i m S) and dphi as complex arrays built from C,
    S, C_x and S_x of the scalar views' _cell, cell by cell, reduced with
    4 |phi_0 dphi_1 - phi_1 dphi_0|^2 / n^2: the cross-check for the real
    closed form of trajectory_arrays.
    """
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN
    a, b, ji, x = _mode_columns(params)
    c, s, dc, ds, _ = (q.astype(float) for q in np.frompyfunc(_cell, 2, 5)(x[:, None], t))
    a, b, ji = a[:, None], b[:, None], ji[:, None]
    m = -b if hermitian else b
    amp0 = c + 1j * (a * s)
    amp2 = -1j * (m * s)
    if theta_kind is ThetaKind.FIELD_H:
        xp = 2.0 * a
        d0 = xp * (dc + 1j * (a * ds)) + 1j * s
        d1 = xp * (-1j * (m * ds))
    else:
        xp = (2.0 if hermitian else -2.0) * b * ji
        mp = -ji if hermitian else ji
        d0 = xp * (dc + 1j * (a * ds))
        d1 = xp * (-1j * (m * ds)) - 1j * (s * mp)
    n = amp0.real ** 2 + amp0.imag ** 2 + amp2.real ** 2 + amp2.imag ** 2
    cross = amp0 * d1 - amp2 * d0
    return np.add.reduce(4.0 * (cross.real ** 2 + cross.imag ** 2) / (n * n), axis=0)


# t = 0 and tiny times, then out to t = 1000, where the broken
# blocks of h = -0.8 reach |eps| t = 230 and the reference's _cell rescales
_STREAM_TIMES = np.concatenate([[0.0, 1e-9, 1e-6, 1e-3], np.geomspace(0.01, 1000.0, 296)])
_SHUFFLED_TIMES = np.random.default_rng(20261019).permutation(_STREAM_TIMES)
_FIELDS = (-0.8, -2.0)
# Each puts one block of the N = 2000 chain at its exceptional point, so
# x ~ 0 there (-1.0e-17, 0 and 6.9e-18 at blocks 76, 77 and 79) and its
# chunk mixes x < 0 and x > 0 rows.
_EP_FIELDS = (-0.7877690321080538, -0.7841862617414519, -0.7769694172198554)

# Relative gate of the closed form against the complex-amplitude reference,
# about 7x the worst drift measured on the grids below: 1.4e-15 on the
# exceptional-point grid, 9.5e-16 on the others.  The closed form takes
# tau = S / C and d = 1 / C^2 from one tangent per cell and W from
# (tau - t d) / (2 x); the reference takes C, S, C_x and S_x
# from _cell and W from C_x and S_x, so cells just outside DSERIES_Z, where
# both cancel, can differ by ~1e-10.  Near the exceptional point
# (N = 32768, Z = 5, h = -0.6, theta = gamma, t = 2.21) a 50-digit sum put
# the closed form 1.5e-15 and the reference 2.5e-15 off.
CLOSED_FORM_RTOL = 1e-14


@pytest.mark.parametrize("mode", list(AnisotropyMode))
@pytest.mark.parametrize("theta", list(ThetaKind))
def test_qfi_curve_matches_complex_reference(theta, mode):
    inputs = [(-0.8, _STREAM_TIMES), (-2.0, _STREAM_TIMES)]
    if mode is AnisotropyMode.NON_HERMITIAN:
        # x = 0 at block 77 and, from t = 0.01 on, 31 of the 1000 rows in
        # tau form, where at t = 1e-9 every row is (the Hermitian chain
        # has no such row on this grid)
        inputs.append((_EP_FIELDS[1], _STREAM_TIMES[4:]))
    for h, times in inputs:
        params = ModelParams(N=2000, Z=3, alpha=1.5, gamma=0.4, h=h, anisotropy_mode=mode)
        got = qfi_curve(params, times, theta)
        want = _reference_qfi_curve(params, times, theta)
        # the pair vacuum at t = 0 carries no information in either form
        assert times[0] != 0.0 or got[0] == want[0] == 0.0
        assert_allclose(got, want, rtol=CLOSED_FORM_RTOL, atol=0)


@pytest.mark.parametrize("mode", list(AnisotropyMode))
@pytest.mark.parametrize("theta", list(ThetaKind))
# chunks: the trajectory_arrays calls of the first field's curve, non-Hermitian
# and Hermitian.  With t = 1e-9 in the grid every mode is a near row.
@pytest.mark.parametrize("n,times,budget,chunks,fields", [
    (2000, _STREAM_TIMES, 2 ** 14, (19, 19), _FIELDS),    # runs of 859 and 141 by 19 and 116
    (2000, _SHUFFLED_TIMES, 2 ** 14, (19, 19), _FIELDS),  # the same times, shuffled
    (2000, [200.0], 2 ** 14, (2, 1), _FIELDS),            # one time: one chunk a run
    (64, _STREAM_TIMES[::3], 64, (54, 59), _FIELDS),      # runs of 5-32 modes by 2-12 times
    (16, _STREAM_TIMES[:129], 64, (18, 17), _FIELDS),     # 129 times in blocks of 8-64
    # every mode can enter the DSERIES_Z window at t = 1e-9, but only
    # cells of the first few blocks of times do
    (16, _STREAM_TIMES[1:129], 64, (17, 16), _FIELDS),
    (2000, _STREAM_TIMES[4:], 2 ** 14, (21, 19), _EP_FIELDS),  # x < 0, x ~ 0 and x > 0
], ids=["chunks", "shuffled", "one-time", "run-chunks", "time-blocks",
        "window-first-block", "mixed-sign"])
def test_qfi_curve_matches_full_grid_reference(monkeypatch, n, times, budget, chunks, fields,
                                               theta, mode):
    # each run is walked in chunks of L = min(run, budget) modes by
    # max(1, budget // L) times.  Every run here fits in one chunk's modes,
    # so however its times are blocked the totals are the full-grid totals
    # bit for bit, from per-mode columns built once per curve
    monkeypatch.setattr(metrology, "CHUNK_CELLS", budget)
    calls, built = [], []

    def counted(*args):
        r = trajectory_arrays(*args)
        calls.append(r[0].shape)
        return r

    def counted_columns(*args):
        built.append(mode_columns(*args))
        return built[-1]

    monkeypatch.setattr(metrology, "trajectory_arrays", counted)
    monkeypatch.setattr(metrology, "mode_columns", counted_columns)
    for k, h in enumerate(fields):
        params = ModelParams(N=n, Z=3, alpha=1.5, gamma=0.4, h=h, anisotropy_mode=mode)
        calls.clear()
        built.clear()
        got = qfi_curve(params, times, theta)
        assert len(built) == 1
        sizes = [run[-1].size for run in built[0][1]]
        assert sum(sizes) == n // 2 and max(sizes) <= budget
        walk = []
        for size in sizes:
            steps = max(1, budget // size)
            walk += [(len(times[t0:t0 + steps]), size) for t0 in range(0, len(times), steps)]
        assert calls == walk
        assert k or len(calls) == chunks[mode is AnisotropyMode.HERMITIAN]
        assert np.array_equal(got, _full_grid_qfi_curve(params, times, theta))


# Relative gate of qfi_curve against math.fsum of the same per-mode values:
# 3.8e-16 worst measured on the cells below (4.0e-16 with 300 times); a
# sequential sum in mode order measured 9.6e-15 to 1.8e-14 here.
PAIRWISE_SUM_RTOL = 1e-15


@pytest.mark.parametrize("theta", list(ThetaKind))
@pytest.mark.parametrize("h", [-1.5, -0.8])
def test_qfi_curve_sums_the_modes_to_fsum(h, theta):
    # at N = 65536 the unbroken run is longer than one chunk; h = -0.8 is
    # broken, with near rows from t = 0.01 on
    params = ModelParams(N=65536, Z=3, alpha=1.5, gamma=0.4, h=h)
    times = np.geomspace(0.01, 1000.0, 8)
    per_mode = _full_grid_per_mode(params, times, theta)
    sizes = [q.shape[1] for q in per_mode]
    assert max(sizes) > metrology.CHUNK_CELLS and sum(sizes) == 32768
    assert (len(per_mode) == 4) == (h == -0.8)
    exact = np.array([math.fsum(row) for row in np.concatenate(per_mode, axis=1)])
    assert (np.abs(qfi_curve(params, times, theta) - exact) <= PAIRWISE_SUM_RTOL * exact).all()


def _window_modes(params, t):
    """The modes of the near runs of mode_columns, in block order: those
    that can enter the DSERIES_Z window in t."""
    order, runs = mode_columns(*_mode_columns(params), False, t, ThetaKind.FIELD_H)
    near = np.empty(order.size, dtype=bool)
    near[order] = np.concatenate([np.full(run[-1].size, run[1]) for run in runs])
    return near


def test_leading_zero_time_keeps_the_window_mask():
    # the window bound comes from the smallest nonzero time, so t = 0 marks
    # no extra mode, x = 0 rows stay window rows, and the QFI at the other
    # times keeps its bits
    grid = _STREAM_TIMES[4:]
    with_zero = np.concatenate([[0.0], grid])
    for h in (-0.8, _EP_FIELDS[1]):  # the second puts x = 0 at block 77
        params = ModelParams(N=2000, Z=3, alpha=1.5, gamma=0.4, h=h)
        x = block_arrays(params)[-1]
        near = _window_modes(params, with_zero)
        assert np.array_equal(near, _window_modes(params, grid))
        assert 0 < near.sum() < x.size and near[x == 0.0].all()
        for theta in ThetaKind:
            got = qfi_curve(params, with_zero, theta)
            assert np.array_equal(got, _full_grid_qfi_curve(params, with_zero, theta))
            assert got[0] == 0.0 and np.array_equal(got[1:], qfi_curve(params, grid, theta))
    assert (x == 0.0).any()
    # at t = 0 alone only the x = 0 row is a window row
    zeros = np.zeros(2)
    order, runs = mode_columns(zeros, zeros, zeros, np.array([0.0, 1.0]), False, zeros,
                               ThetaKind.FIELD_H)
    assert order.tolist() == [1, 0] and [run[:2] for run in runs] == [(1, False), (0, True)]


@pytest.mark.parametrize("theta", list(ThetaKind))
@pytest.mark.parametrize("z,alpha,h", [(4, 0.8, -0.7), (4, 1.5, -3.0)])
def test_hermitian_qfi_grows_as_its_late_time_limit(z, alpha, h, theta):
    # A Hermitian block evolves the vacuum with a phase omega t, omega^2 = x =
    # a^2 + b^2, so d/dtheta carries a secular t x'/(2x) (-i M) psi and
    # F(t)/t^2 -> A = sum x'^2 Var(M) / x^2 with Var(M) = x - a^2 = b^2; the
    # O(1/t) remainder oscillates and averages out over the grid.  Measured
    # worst: 1.9e-9 (theta = gamma at h = -3.0).
    params = ModelParams(N=1024, Z=z, alpha=alpha, gamma=0.3, h=h,
                         anisotropy_mode=AnisotropyMode.HERMITIAN)
    _, _, j_imag, a, b, _ = block_arrays(params)
    x = a * a + b * b
    x_prime = 2.0 * a if theta is ThetaKind.FIELD_H else 2.0 * b * j_imag
    limit = math.fsum(x_prime * x_prime * b * b / (x * x))
    t = np.linspace(1e7, 1e7 + 1e3, 1001)
    assert np.mean(qfi_curve(params, t, theta) / t ** 2) == pytest.approx(limit, rel=1e-8)


def _late_time_limit(a, b, x, x_prime, t):
    """L = x'^2 b^2 t^2 / (x^2 n^2) of unbroken blocks (x > 0), n = cos^2 psi
    + kappa sin^2 psi, psi = sqrt(x) t, kappa = (a^2 + b^2) / x: the leading
    late-time QFI of each block (kappa = 1, n = 1 for a Hermitian one)."""
    psi = np.sqrt(x) * t
    norm = np.cos(psi) ** 2 + (a * a + b * b) / x * np.sin(psi) ** 2
    return (x_prime * b * t / (x * norm)) ** 2


@pytest.mark.parametrize("theta", list(ThetaKind))
@pytest.mark.parametrize("t", [1e5, 1e7])
def test_unbroken_modes_approach_their_late_time_limits(t, theta):
    # An unbroken non-Hermitian block (x = a^2 - b^2 > 0, omega = sqrt x) has
    # F = 4 (cr^2 + ci^2) / n^2 with ci = -x' b t / (2x) + Q, where Q and cr
    # stay bounded, so F -> L = x'^2 b^2 t^2 / (x^2 n^2), n = cos^2 psi +
    # kappa sin^2 psi, psi = omega t, kappa = (a^2 + b^2) / x.  theta = h:
    # F / L - 1 = -sin(2 psi) / (omega t) + O(1 / t^2).  theta = gamma: L
    # vanishes with b while Q does not, so the gate is absolute, linear in t:
    # |F - L| <= (a J^I / x)^2 (4 + a^2 / x + 4 b^2 t / omega).  Both hold
    # with k = 1 up to O(1 / t^2) and rounding; measured worst k over
    # criterion 3's cells: 1.0000065 (theta = h), 0.9984 (theta = gamma).
    k = 1.001
    times = np.array([t])
    for z, alpha, h in ((1, 1.5, -0.7), (4, 0.8, -0.7), (512, 1.5, -0.7),
                        (1, 1.5, -1.5), (2, 1.0, -1.5), (4, 1.5, -3.0)):
        _, _, j_imag, a, b, x = block_arrays(
            ModelParams(N=1024, Z=z, alpha=alpha, gamma=0.3, h=h))
        up = x > 0.0
        j_imag, a, b, x = j_imag[up], a[up], b[up], x[up]
        order, (run,) = mode_columns(a, b, j_imag, x, False, times, theta)
        assert np.array_equal(order, np.arange(x.size))  # one unbroken run, in block order
        n, cr, ci = trajectory_arrays(run, times)  # one row: the time
        f = 4.0 * (cr * cr + ci * ci)[0] / (n * n)[0]
        omega = np.sqrt(x)
        x_prime = 2.0 * a if theta is ThetaKind.FIELD_H else -2.0 * b * j_imag
        limit = _late_time_limit(a, b, x, x_prime, t)
        if theta is ThetaKind.FIELD_H:
            assert np.all(np.abs(f / limit - 1.0) <= k / (omega * t))
        else:
            bound = (a * j_imag / x) ** 2 * (4.0 + a * a / x + 4.0 * b * b * t / omega)
            assert np.all(np.abs(f - limit) <= k * bound)


@pytest.mark.parametrize("h", [-1.5, -0.7])
def test_benchmark_ratio_is_the_ratio_of_late_time_limits(h):
    # Criterion 5's cells: the trapezoid mean of F_nH / F_H on [200, 1000]
    # against the same mean of sum L_nH / sum L_H over the unbroken modes.
    # Measured worst: 1.52e-7 at h = -1.5, where every mode is unbroken, and
    # 3.03e-4 at h = -0.7.  That residue is the O(1 / (omega t)) remainder of
    # the unbroken modes next to the dome's edge, where omega falls to 0.011:
    # adding their first-order term -L sin(2 psi) / (omega t) leaves 5.7e-5.
    # With no broken mode the mean tends to A_nH / A_H, the period means of
    # the t^2 coefficients: A = sum x'^2 b^2 / x^2 (1 + kappa) / (2 kappa^1.5)
    # (measured worst 5.46e-6).  Gates: twice the measured worst.
    grid = np.linspace(200.0, 1000.0, 801)
    for z, alpha in ((1, 1.5), (2, 1.5), (4, 1.5), (8, 1.5), (4, 5.0), (512, 1.5)):
        params = ModelParams(N=1024, Z=z, alpha=alpha, gamma=0.3, h=h)
        sums, coefficients = [], []
        for mode in (AnisotropyMode.NON_HERMITIAN, AnisotropyMode.HERMITIAN):
            _, _, _, a, b, x = block_arrays(replace(params, anisotropy_mode=mode))
            up = x > 0.0
            assert up.all() or h == -0.7
            a, b, x = a[up], b[up], x[up]
            sums.append(_late_time_limit(a, b, x, 2.0 * a, grid[:, None]).sum(axis=1))
            kappa = (a * a + b * b) / x
            coefficients.append(math.fsum((2.0 * a * b / x) ** 2 * (1.0 + kappa)
                                          / (2.0 * kappa ** 1.5)))
        ratio = sums[0] / sums[1]
        limit = float(np.sum(np.diff(grid) * (ratio[1:] + ratio[:-1]) / 2.0) / 800.0)
        mean = qfi_ratio_time_avg(params, ThetaKind.FIELD_H).mean_ratio
        if h == -1.5:
            assert mean == pytest.approx(limit, rel=3e-7)
            assert mean == pytest.approx(coefficients[0] / coefficients[1], rel=1.1e-5)
        else:
            assert mean == pytest.approx(limit, rel=6e-4)


def test_qfi_curve_memory_bounded():
    # beyond the O(N) block arrays and mode columns the working set is
    # O(CHUNK_CELLS), not O(N/2 x T).  With 300 times the traced peak was
    # 2.1 MiB at N=2^14 and 4.8 MiB at N=2^16, where those arrays and the
    # J(phi) memo set it; one pass over the full grid peaks at 1.26 GB at
    # N=2^16, about 4 kB per mode.
    grid = np.geomspace(0.02, 1000.0, 300)
    sizes = (2 ** 14, 2 ** 16)
    peaks = []
    for n in sizes:
        params = ModelParams(N=n, Z=2, alpha=1.5, gamma=0.3, h=-0.85)
        tracemalloc.start()
        try:
            qfi_curve(params, grid, ThetaKind.FIELD_H)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * 2 ** 20
    # 116 B per added mode measured: the memo, block and mode columns, not a row of times
    assert (peaks[1] - peaks[0]) / ((sizes[1] - sizes[0]) // 2) < 128


def test_qfi_curve_memory_bounded_in_time():
    # a grid longer than CHUNK_CELLS is walked in blocks of times, so the
    # working set is the O(T) totals plus one chunk; the mode-only split
    # needed 97 B per time (18.5 MiB at N=8 with 2e5 times)
    grid = np.linspace(0.0, 100.0, 200_000)
    params = ModelParams(N=8, Z=2, alpha=1.5, gamma=0.3, h=-0.85)
    tracemalloc.start()
    try:
        qfi_curve(params, grid, ThetaKind.FIELD_H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.size < 40


STATIONARY_CELLS = [
    # (Z, alpha, gamma, h): both phases, both parameter targets
    (2, 1.0, 0.5, -1.5),    # unbroken, below the dome
    (2, 1.0, 0.5, -1.01),   # broken, inside the dome
    (1, 1.0, 0.5, -0.7),    # broken
    (4, 0.8, 0.5, -1.2),    # mixed-distance unbroken
    (2, 5.0, 0.5, -0.95),   # broken, short-range-like weights
    (3, 1.5, 0.0, -1.5),    # gamma = 0 limit
]


@pytest.mark.parametrize("theta", [ThetaKind.FIELD_H, ThetaKind.ANISOTROPY_GAMMA])
@pytest.mark.parametrize("z,alpha,gamma,h", STATIONARY_CELLS)
def test_stationary_qfi_matches_closed_form(z, alpha, gamma, h, theta):
    params = ModelParams(N=256, Z=z, alpha=alpha, gamma=gamma, h=h)
    exact = stationary_closed_form(params, theta)
    sample = stationary_qfi(params, theta)
    assert sample.meta["straddled_modes"] == 0
    assert sample.meta["defective_modes"] == 0
    # worst measured 4.2e-10 (Z = 4, theta = h)
    assert sample.value == pytest.approx(exact, rel=2e-9, abs=1e-12)


@pytest.mark.parametrize("theta", [ThetaKind.FIELD_H, ThetaKind.ANISOTROPY_GAMMA])
@pytest.mark.parametrize("n", [1024, 2048, 4096, 8192])
@pytest.mark.parametrize("z,alpha,gamma,h", [
    (2, 1.0, 0.5, -1.5),    # unbroken, smallest |x| 0.25
    (4, 0.8, 0.5, -1.2),    # unbroken, smallest |x| 0.04
    (2, 2.5, 0.5, -1.0),    # criterion 7's critical cell: x and its
                            # theta-derivative vanish together at phi = 0
])
def test_stationary_qfi_matches_closed_form_at_run_sizes(z, alpha, gamma, h, n, theta):
    # the sizes that stationary-scaling runs; broken cells are left out, as
    # at these N some mode sits next to the zero of x and the stencil's
    # truncation error there, not its rounding, sets the difference
    params = ModelParams(N=n, Z=z, alpha=alpha, gamma=gamma, h=h)
    sample = stationary_qfi(params, theta)
    assert sample.meta["straddled_modes"] == 0
    assert sample.meta["defective_modes"] == 0
    # worst measured 4.4e-10 (Z = 4, theta = h)
    assert sample.value == pytest.approx(stationary_closed_form(params, theta), rel=1e-9)


@pytest.mark.parametrize("z,alpha,c", [(1, 1.0, -2.7500), (2, 1.0, -4.0466),
                                       (4, 1.0, -6.6157), (8, 1.2, -10.7870)])
def test_hermitian_critical_field_size_law(z, alpha, c):
    # At h = -1, J(0) = 1 makes a ~ -(sum r^2 J_r / 2) phi^2 and b ~ gamma B phi,
    # B = sum r J_r, so x = a^2 + b^2 has a double zero at phi = 0 and
    # F_h = b^2 / x^2 per mode reads 1 / (gamma B phi)^2 there.  Summed over
    # the odd angles (2p - 1) pi / N that gives lead = N^2 / (8 gamma^2 B^2),
    # and the next order is c_Z / N.  N (F / lead - 1) was measured within
    # 5.4e-5 of the four-digit c_Z (Z = 2, mostly c_Z's rounding) and within
    # 1.8e-5 of itself across N = 2^10-2^14; the gate is 1e-4.
    gamma = 0.5
    weights = coupling_profile(alpha, z).weights
    b = float(np.arange(1, z + 1) @ weights)
    for n in (1 << k for k in range(10, 15)):
        params = ModelParams(N=n, Z=z, alpha=alpha, gamma=gamma, h=-1.0,
                             anisotropy_mode=AnisotropyMode.HERMITIAN)
        lead = n * n / (8.0 * gamma * gamma * b * b)
        f = stationary_qfi(params, ThetaKind.FIELD_H).value
        assert abs(n * (f / lead - 1.0) - c) <= 1e-4


def test_stationary_qfi_stencil_shape(monkeypatch):
    # five stencil points, each one block_arrays and one probe_vectors call
    # that returns (m, 2) vectors: the shape perfbench's tracer counts
    block_arrays_, probe_vectors_ = metrology.block_arrays, metrology.probe_vectors
    arrays, vectors = [], []

    def counted_block_arrays(params):
        arrays.append(params)
        return block_arrays_(params)

    def counted_probe_vectors(*args):
        v, defective = probe_vectors_(*args)
        vectors.append((v.shape, v.dtype, defective.shape))
        return v, defective

    monkeypatch.setattr(metrology, "block_arrays", counted_block_arrays)
    monkeypatch.setattr(metrology, "probe_vectors", counted_probe_vectors)
    for theta in ThetaKind:
        arrays.clear()
        vectors.clear()
        stationary_qfi(ModelParams(N=64, Z=2, alpha=1.0, gamma=0.3, h=-1.5), theta)
        assert len(arrays) == 5
        assert vectors == [((32, 2), np.complex128, (32,))] * 5


def test_stationary_qfi_straddle_flagged():
    # eps_sq = (a - b)(a + b) of mode 3 vanishes at h0 = -Re J + gamma Im J;
    # h sits 3e-7 above it, inside the default step 1e-6 max(1, |h|), so
    # the stencil straddles that mode's own zero
    base = ModelParams(N=64, Z=2, alpha=1.0, gamma=0.5, h=0.0)
    _, j_real, j_imag, _, _, _ = block_arrays(base)
    h0 = -j_real[2] + base.gamma * j_imag[2]
    sample = stationary_qfi(replace(base, h=h0 + 3e-7), ThetaKind.FIELD_H)
    assert sample.meta["straddled_modes"] == 1
    assert math.isfinite(sample.value)


def test_ratio_gamma_zero_is_identically_one():
    params = ModelParams(N=32, Z=2, alpha=1.0, gamma=0.0, h=-0.7)
    r = qfi_ratio_time_avg(params, ThetaKind.FIELD_H, t0=1.0, t1=5.0, n_grid=11)
    assert r.mean_ratio == 1.0
    assert r.dropped == 0
    assert_allclose(r.ratio, 1.0, atol=0)
    assert_allclose(r.qfi_nh, r.qfi_h, atol=0)


def test_ratio_arrays_consistent():
    params = ModelParams(N=64, Z=2, alpha=1.5, gamma=0.3, h=-1.5)
    r = qfi_ratio_time_avg(params, ThetaKind.FIELD_H, t0=5.0, t1=25.0, n_grid=51)
    assert r.t.size + r.dropped == 51
    assert_allclose(r.ratio, r.qfi_nh / r.qfi_h, rtol=1e-14)
    assert r.mean_ratio > 0
    assert math.isfinite(r.mean_ratio)


def test_ratio_evaluates_j_once_for_both_chains():
    # the Hermitian benchmark differs only in anisotropy, so it shares J(phi)
    params = ModelParams(N=64, Z=3, alpha=1.5, gamma=0.3, h=-0.7)
    grid_coupling.cache_clear()
    qfi_ratio_time_avg(params, ThetaKind.FIELD_H, t0=5.0, t1=25.0, n_grid=11)
    assert grid_coupling.cache_info().misses == 1


def test_ratio_window_validation():
    params = ModelParams(N=16, Z=1, alpha=1.0, gamma=0.3, h=-0.7)
    with pytest.raises(ValueError):
        qfi_ratio_time_avg(params, ThetaKind.FIELD_H, t0=5.0, t1=5.0)
    with pytest.raises(ValueError):
        qfi_ratio_time_avg(params, ThetaKind.FIELD_H, t0=1.0, t1=2.0, n_grid=1)


def test_hermitian_benchmark_differs_for_nonzero_gamma():
    params = ModelParams(N=64, Z=1, alpha=1.0, gamma=0.3, h=-1.5)
    herm = replace(params, anisotropy_mode=AnisotropyMode.HERMITIAN)
    f_nh = float(qfi_curve(params, [3.0], ThetaKind.FIELD_H)[0])
    f_h = float(qfi_curve(herm, [3.0], ThetaKind.FIELD_H)[0])
    assert f_nh != pytest.approx(f_h, rel=1e-3)
