"""Power-law fits, the phase-boundary locator, and the sweep drivers."""

import math
import os
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar as scipy_minimize_scalar

from ixysense import analysis
from ixysense.analysis import (
    EP_SCAN_ANGLES,
    LONGTIME_GRID,
    STATIONARY_DH_LIST,
    STATIONARY_N_LIST,
    TRANSIENT_GRID,
    ScalingAnchor,
    find_exceptional_point,
    fit_power_law,
    resolve_anchor,
    run_cells,
    sweep_size_scaling,
    sweep_stationary_scaling,
    sweep_time_scaling,
)
from ixysense.errors import NumericalError
from ixysense.metrology import dynamical_qfi, stationary_qfi
from ixysense.model import (AnisotropyMode, ModelParams, ThetaKind, coupling_profile,
                            grid_coupling, momentum_coupling)


def test_fit_power_law_exact():
    xs = np.geomspace(1.0, 100.0, 12)
    fit = fit_power_law(xs, 3.7 * xs ** 2.5, (1.0, 100.0))
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert 10 ** fit.intercept == pytest.approx(3.7, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    assert fit.n_points == 12
    assert fit.n_excluded == 0


def test_fit_power_law_window_and_exclusions():
    xs = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 5.0, 6.0])
    ys = 2.0 * xs
    ys[5] = -1.0  # non-positive, dropped
    ys[6] = math.nan  # non-finite values inside the window, dropped
    ys[7] = math.inf
    ys[8] = -math.inf
    fit = fit_power_law(xs, ys, window=(1.0, 16.0))
    assert fit.n_points == 4  # 1,2,4,8 survive; 0.5 out of window, 16 negative
    assert fit.n_excluded == 5
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.window == (1.0, 16.0)
    # with an unbounded window, non-finite abscissas are dropped too
    xs[6:] = (math.nan, math.inf, 7.0)
    fit = fit_power_law(xs, ys, window=(0.0, math.inf))
    assert fit.n_points == 5  # 0.5,1,2,4,8
    assert fit.n_excluded == 4
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.window == (0.0, math.inf)


def test_fit_power_law_too_few_points():
    with pytest.raises(NumericalError, match="need >= 3 usable points .* got 2"):
        fit_power_law([1.0, 2.0], [1.0, 2.0], (1.0, 2.0))
    with pytest.raises(NumericalError, match="all abscissas coincide"):
        fit_power_law([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], (1.0, 1.0))


def test_find_exceptional_point_closed_form():
    # Z=1: max_phi cos(phi) + gamma sin(phi) = sqrt(1 + gamma^2)
    params = ModelParams(N=1024, Z=1, alpha=1.0, gamma=0.5, h=-1.0)
    res = find_exceptional_point(params)
    assert abs(res.h_e - (-math.sqrt(1.25))) <= 1e-14
    assert res.iterations > 0


def _count_search_angles(monkeypatch):
    """The number of angles of each J evaluation of find_exceptional_point:
    its coarse grid's, then each direct sum's."""
    angles = []

    def grid(N, Z, alpha):
        angles.append(N // 2)
        return grid_coupling(N, Z, alpha)

    def direct(profile, phi):
        angles.append(np.size(phi))
        return momentum_coupling(profile, phi)

    monkeypatch.setattr(analysis, "grid_coupling", grid)
    monkeypatch.setattr(analysis, "momentum_coupling", direct)
    return angles


def test_exceptional_point_iterations_count_the_evaluated_angles(monkeypatch):
    # coarse grid, refinement midpoints and polish: every angle at which the
    # search evaluates J; the count grows with the range (m >= 4Z + 4).  The
    # coarse grid is one FFT, the refinement and polish are direct sums
    angles = _count_search_angles(monkeypatch)
    counts = []
    for z, want in ((1, 85), (8, 139), (64, 577), (512, 4152)):
        angles.clear()
        grid_coupling.cache_clear()
        res = find_exceptional_point(ModelParams(N=1024, Z=z, alpha=1.0, gamma=0.5, h=-1.0))
        assert grid_coupling.cache_info().misses == 1
        assert angles[0] == max(8, 1 << (4 * z + 3).bit_length())
        assert res.iterations == sum(angles) == want
        counts.append(res.iterations)
    assert counts == sorted(set(counts))


# Absolute gate of find_exceptional_point against a 30-digit -max_phi g;
# the measured worst over the grid below is 6.7e-16.
EP_REFERENCE_ATOL = 1e-14


def _reference_edge(alpha: float, Z: int, gamma: float, phi0: float, step: float):
    """-max_phi (J^R + gamma |J^I|) at 30 digits, and its angle.

    The weights are rebuilt from alpha at 30 digits, J and dJ/dphi are sums
    over powers of exp(i phi), and the maximum is the root of g' that a
    secant search finds from the scan cell around phi0.
    """
    with mpmath.workdps(30):
        w = [mpmath.mpf(r) ** -mpmath.mpf(alpha) for r in range(1, Z + 1)]
        kac = mpmath.fsum(w)
        w = [x / kac for x in w]
        rw = [r * x for r, x in enumerate(w, 1)]

        def transform(weights, phi):  # sum_r weights[r - 1] exp(i r phi)
            z, zr, total = mpmath.expj(phi), mpmath.mpc(1), mpmath.mpc(0)
            for x in weights:
                zr *= z
                total += x * zr
            return total

        sign = 1 if transform(w, mpmath.mpf(phi0)).imag > 0 else -1

        def g(phi):
            j = transform(w, phi)
            return j.real + gamma * sign * j.imag

        def dg(phi):  # dJ/dphi = i transform(rw, phi)
            t = transform(rw, phi)
            return -t.imag + gamma * sign * t.real

        phi = mpmath.findroot(dg, (mpmath.mpf(phi0 - step / 2), mpmath.mpf(phi0 + step / 2)))
        return -g(phi), float(phi)


def test_find_exceptional_point_matches_high_precision():
    step = math.pi / EP_SCAN_ANGLES
    worst = 0.0
    for Z in (1, 2, 7, 64, 512):
        for alpha in (0.5, 2.0):
            angles, j = grid_coupling(2 * EP_SCAN_ANGLES, Z, alpha)
            for gamma in (0.1, 0.5, 0.9):
                phi0 = float(angles[np.argmax(j.real + gamma * np.abs(j.imag))])
                exact, phi = _reference_edge(alpha, Z, gamma, phi0, step)
                assert abs(phi - phi0) <= step  # the same maximum as the scan
                params = ModelParams(N=2 * Z + 2, Z=Z, alpha=alpha, gamma=gamma, h=-1.0)
                err = abs(find_exceptional_point(params).h_e - float(exact))
                worst = max(worst, err)
    print(f"worst |h_e - 30-digit reference| = {worst:.2e}")
    assert worst <= EP_REFERENCE_ATOL


def test_ep_scan_bins_sit_at_their_labelled_angles():
    # the scan takes J on the odd-angle grid and the polish reads bin k at
    # angles[k]; at Z = 2 EP_SCAN_ANGLES a scan FFT grown past 4
    # EP_SCAN_ANGLES points put these bins 0.39 and 0.67 away from J there
    profile = coupling_profile(2.0, 2 * EP_SCAN_ANGLES)
    angles, scan = grid_coupling(2 * EP_SCAN_ANGLES, 2 * EP_SCAN_ANGLES, 2.0)
    for k in (21845, 65535):
        assert abs(scan[k] - momentum_coupling(profile, float(angles[k]))) < 1e-10


def _full_scan_polish(params):
    """The reference locator's polish inputs: -g and the bounds one grid step
    either side of the argmax of g on all EP_SCAN_ANGLES odd angles (one
    FFT), and that grid maximum."""
    gamma = abs(params.gamma)
    profile = coupling_profile(params.alpha, params.Z)
    angles, j = grid_coupling(2 * EP_SCAN_ANGLES, params.Z, params.alpha)
    g_scan = j.real + gamma * np.abs(j.imag)
    k = int(np.argmax(g_scan))
    step = math.pi / EP_SCAN_ANGLES

    def minus_g(phi):
        j = momentum_coupling(profile, phi)
        return -(j.real + gamma * abs(j.imag))

    bounds = (max(angles[k] - step, 1e-300), min(angles[k] + step, math.pi))
    return minus_g, bounds, float(g_scan[k])


def _scipy_polish(fun, bounds, xatol=1e-13, maxiter=300) -> float:
    """scipy's bounded minimum of fun, the polish's reference."""
    return float(scipy_minimize_scalar(fun, method="bounded", bounds=bounds,
                                       options={"xatol": xatol, "maxiter": maxiter}).fun)


def _full_scan_edge(params):
    """Reference locator, returning (h_e, max g on its grid): the full scan,
    then scipy's bounded polish."""
    minus_g, bounds, g_max = _full_scan_polish(params)
    return min(-g_max, _scipy_polish(minus_g, bounds)), g_max


def _assert_matches_full_scan(params, atol=EP_REFERENCE_ATOL):
    he = find_exceptional_point(params).h_e
    reference, g_max = _full_scan_edge(params)
    assert math.isfinite(he)
    assert abs(he - reference) <= atol
    # certified: no cell holding the maximum was pruned, so h_e never
    # lies above the scan grid's own edge
    assert he <= -g_max + atol


def _full_scan_cases():
    """(Z, alpha, gamma): 24 random cells, and alpha = 0 Dirichlet kernels."""
    rng = np.random.default_rng(21)
    cases = [(int(rng.integers(1, 201)), float(rng.uniform(0.0, 3.0)),
              float(rng.uniform(0.05, 2.0))) for _ in range(24)]
    # alpha = 0 is a Dirichlet kernel: many near-equal side lobes
    return cases + [(Z, 0.0, gamma) for Z in (64, 512) for gamma in (0.1, 0.9, 1.7)]


def test_find_exceptional_point_matches_the_full_scan():
    cases = _full_scan_cases()
    # two near-equal maxima, the best coarse angle in the lower one's basin:
    # a search that drops every cell below the best value seen misses these
    # by 1e-4 and 2e-3
    cases += [(11, 2.0, 1.980451127819549), (11, 1.75, 3.08922305764411)]
    for Z, alpha, gamma in cases:
        _assert_matches_full_scan(ModelParams(N=2 * Z + 2, Z=Z, alpha=alpha, gamma=gamma, h=-1.0))


def test_minimize_scalar_is_a_golden_section_search():
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    # on the full-scan cells' -g it ends at most 1 ulp above scipy's bounded
    # minimum (measured: 1 ulp above in 2 cells, 1-2 ulp below in 9), inside
    # the bounds, after exactly the evaluations that shrink them below xatol
    for Z, alpha, gamma in _full_scan_cases():
        minus_g, bounds, _ = _full_scan_polish(
            ModelParams(N=2 * Z + 2, Z=Z, alpha=alpha, gamma=gamma, h=-1.0))
        res = analysis.minimize_scalar(minus_g, bounds=bounds, xatol=1e-13, maxiter=300)
        ref = _scipy_polish(minus_g, bounds)
        assert res.fun - ref <= math.ulp(ref) and abs(res.fun - ref) <= 2 * math.ulp(ref)
        assert bounds[0] <= res.x <= bounds[1]
        assert res.nfev == 2 + math.ceil(math.log((bounds[1] - bounds[0]) / 1e-13)
                                         / math.log(golden))

    def polish(fun, bounds, xatol=1e-13, maxiter=300):
        return analysis.minimize_scalar(fun, bounds=bounds, xatol=xatol, maxiter=maxiter)

    # a minimum at either bound, a kink, a constant, and the maxiter cap
    assert 0.5 <= polish(lambda x: x, (0.5, 2.0)).x <= 0.5 + 1e-13
    assert 2.0 - 1e-13 <= polish(lambda x: -x, (0.5, 2.0)).x <= 2.0
    assert abs(polish(lambda x: abs(math.sin(x)), (-1.0, 2.5)).x) <= 1e-13
    assert polish(lambda x: 1.0, (0.0, 1.0)).fun == 1.0
    assert polish(lambda x: (x - 0.3) ** 2, (-1.0, 1.0), xatol=1e-5, maxiter=5).nfev == 5


def test_find_exceptional_point_edge_cells_and_z_at_half_n():
    # gamma <= 1e-3 puts the maximum next to phi = 0, inside the reflected
    # edge half-cell of the coarse grid; Z = N/2 is the longest range allowed
    for Z, alpha, gamma in ((1, 1.0, 1e-3), (3, 1.0, 1e-3), (5, 0.5, 1e-9), (50, 0.5, 0.4)):
        angles, j = grid_coupling(2 * EP_SCAN_ANGLES, Z, alpha)
        phi0 = float(angles[np.argmax(j.real + gamma * np.abs(j.imag))])
        exact, _ = _reference_edge(alpha, Z, gamma, phi0, math.pi / EP_SCAN_ANGLES)
        params = ModelParams(N=max(4, 2 * Z), Z=Z, alpha=alpha, gamma=gamma, h=-1.0)
        assert abs(find_exceptional_point(params).h_e - float(exact)) <= EP_REFERENCE_ATOL


def test_find_exceptional_point_capped_and_extreme_inputs():
    # Z >= EP_SCAN_ANGLES / 4 caps the coarse grid at the full scan grid
    _assert_matches_full_scan(ModelParams(N=40000, Z=20000, alpha=1.0, gamma=0.5, h=-1.0))
    # the curvature bound overflows at Z = 5 (every cell kept: the capped
    # grid) but not at Z = 1; either way the search ends with a finite h_e
    for Z in (1, 5):
        for gamma in (1e308, sys.float_info.max):
            _assert_matches_full_scan(ModelParams(N=64, Z=Z, alpha=1.0, gamma=gamma, h=-1.0),
                                      atol=EP_REFERENCE_ATOL * gamma)


def test_find_exceptional_point_work_grows_with_z_not_the_scan_grid(monkeypatch):
    evaluated = _count_search_angles(monkeypatch)
    for Z in (1, 8):
        evaluated.clear()
        find_exceptional_point(ModelParams(N=64, Z=Z, alpha=1.0, gamma=0.5, h=-1.0))
        assert sum(evaluated) < EP_SCAN_ANGLES / 64


def test_find_exceptional_point_needs_a_broken_mode():
    # the Hermitian chain and gamma = 0 have a real spectrum at every h
    params = ModelParams(N=1024, Z=1, alpha=1.0, gamma=0.5, h=-1.0)
    hermitian = replace(params, anisotropy_mode=AnisotropyMode.HERMITIAN)
    with pytest.raises(NumericalError, match="anisotropy=hermitian, gamma=0.5"):
        find_exceptional_point(hermitian)
    with pytest.raises(NumericalError, match="anisotropy=non-hermitian, gamma=0.0"):
        find_exceptional_point(replace(params, gamma=0.0))


def test_resolve_anchor():
    params = ModelParams(N=1024, Z=1, alpha=1.0, gamma=0.5, h=-1.0)
    assert resolve_anchor(params, ScalingAnchor.CRITICAL_POINT) == -1.0
    he = resolve_anchor(params, ScalingAnchor.EXCEPTIONAL_POINT)
    assert he == find_exceptional_point(params).h_e


def test_default_grids_shape():
    assert len(TRANSIENT_GRID) == 60
    assert len(LONGTIME_GRID) == 60
    assert TRANSIENT_GRID[0] == pytest.approx(0.02)
    assert TRANSIENT_GRID[-1] == pytest.approx(1.0)
    assert LONGTIME_GRID[0] == pytest.approx(200.0)
    assert LONGTIME_GRID[-1] == pytest.approx(1000.0)
    assert STATIONARY_N_LIST == (1024, 2048, 4096, 8192)
    assert STATIONARY_DH_LIST[0] == 0.0
    assert all(dh < 0 for dh in STATIONARY_DH_LIST[1:])


def test_sweep_time_scaling_structure():
    params = ModelParams(N=64, Z=1, alpha=1.0, gamma=0.3, h=-3.0)
    res = sweep_time_scaling(params, ThetaKind.FIELD_H)
    assert np.array_equal(res.t, np.concatenate([TRANSIENT_GRID, LONGTIME_GRID]))
    assert res.qfi.shape == (120,)
    # deep unbroken late-time growth is quadratic
    assert res.longtime_fit.slope == pytest.approx(2.0, abs=0.1)
    assert res.transient_fit.window == (pytest.approx(0.02), pytest.approx(1.0))


def test_sweep_size_scaling_structure():
    params = ModelParams(N=64, Z=2, alpha=1.5, gamma=0.3, h=-3.0)
    res = sweep_size_scaling(params, ThetaKind.FIELD_H, t_eval=10.0,
                             N_list=(64, 128, 256))
    assert res.N.tolist() == [64, 128, 256]
    for n, value in zip(res.N, res.qfi):
        p = replace(params, N=int(n))
        assert value == dynamical_qfi(p, 10.0, ThetaKind.FIELD_H).value
    assert math.isfinite(res.fit.slope)
    # a fixed pre-revival time probes the extensive regime
    assert res.fit.slope == pytest.approx(1.0, abs=0.2)


def test_sweep_size_scaling_threads_deterministic():
    params = ModelParams(N=64, Z=2, alpha=1.5, gamma=0.3, h=-0.7)
    one = sweep_size_scaling(params, ThetaKind.FIELD_H, t_eval=5.0,
                             N_list=(64, 128, 256), threads=1)
    four = sweep_size_scaling(params, ThetaKind.FIELD_H, t_eval=5.0,
                              N_list=(64, 128, 256), threads=4)
    assert one.qfi.tolist() == four.qfi.tolist()
    assert one.fit.slope == four.fit.slope


def test_sweep_stationary_scaling_structure():
    # cells run size-major, so J(phi) is evaluated once per size, and each
    # row regroups exactly the per-cell values of its offset
    params = ModelParams(N=256, Z=1, alpha=1.0, gamma=0.3, h=-1.0)
    grid_coupling.cache_clear()
    res = sweep_stationary_scaling(params, ThetaKind.ANISOTROPY_GAMMA,
                                   dh_list=(0.0, -0.3, 0.05), N_list=(256, 512, 1024),
                                   anchor=ScalingAnchor.CRITICAL_POINT)
    assert grid_coupling.cache_info().misses == 3
    assert res.anchor_value == -1.0
    assert [r.dh for r in res.rows] == [0.0, -0.3, 0.05]
    for row in res.rows:
        assert row.N.tolist() == [256, 512, 1024]
        assert math.isfinite(row.fit.slope)
        samples = [stationary_qfi(replace(params, N=n, h=-1.0 + row.dh),
                                  ThetaKind.ANISOTROPY_GAMMA) for n in (256, 512, 1024)]
        assert row.qfi.tolist() == [s.value for s in samples]
        assert row.straddled_modes == sum(s.meta["straddled_modes"] for s in samples)


def test_run_cells_order_and_threads(two_cpu_pools):
    cells = list(range(20))
    fn = lambda c: c * c
    assert run_cells(fn, cells, threads=1) == run_cells(fn, cells, threads=5)
    assert two_cpu_pools == [2]


def test_run_cells_caps_its_pool_at_the_usable_cpus(monkeypatch):
    # a huge threads value starts no more workers than cells or CPUs; the
    # recorder maps in order, so no thread is started at all
    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", Recorder)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    cells = list(range(50))
    assert run_cells(lambda c: c * c, cells, threads=10 ** 6) == [c * c for c in cells]
    assert pools == ([] if cpus == 1 else [min(cpus, len(cells))])
    assert run_cells(lambda c: c, [7], threads=10 ** 6) == [7]
    assert len(pools) <= 1
