"""Mode propagators and evolved amplitudes with analytic parameter derivatives.

Every block satisfies M^2 = eps_sq * I, so the propagator collapses to

    exp(-i M t) = C(x, t) I - i S(x, t) M,        x = eps_sq,
    C(x, t) = cos(sqrt(x) t),   S(x, t) = sin(sqrt(x) t) / sqrt(x).

C and S are entire functions of x: trigonometric for x > 0, hyperbolic
for x < 0 (cos(i y) = cosh y), with C = 1 and S = t at x = 0.

The array path needs only C^2, S^2 and C S, which are linear in
cos 2 psi and sin 2 psi (psi = sqrt(x) t): the bare tangent T = tan psi
of each cell (tanh |eps| t for x < 0) fixes them up to a common factor
that cancels in the Fisher information, so nothing there grows like
exp(|eps| t).  mode_columns sorts a curve's modes into runs of one kind
and forms their columns once, with every factor of 1 / sqrt|x| folded
into them (the few rows that can meet the DSERIES_Z window divide T by
sqrt|x| per cell instead), and trajectory_arrays evaluates a chunk of one
run against a column of the curve's times: one tangent and a few
multiplies per cell, for either parameter.

The scalar views (propagator, evolve_mode, evolve_mode_derivative) need
the true amplitudes.  _cell gives C and S of one (x, t) from libm: cos
and sin for x > 0, cosh and sinh for x < 0.  Parameter derivatives
follow from the chain rule,

    dU/dtheta = (dx/dtheta) [C_x I - i S_x M] - i S dM/dtheta,
    C_x = -t S / 2,   S_x = (t C - S) / (2 x),

with a series for S_x inside DSERIES_Z.  Once |eps| t exceeds
RESCALE_EXPONENT a broken block's amplitudes and their derivatives are
scaled by exp(-|eps| t); the common factor cancels in any Fisher
information and is reported through log_scale.  The views share only
x, t and _theta_rates with the array path, so they check it; no run
path calls _cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AnisotropyMode, ModelParams, ThetaKind
from .blocks import ModeBlock, ModeState, block_arrays

# Series window for W and S_x, whose closed forms cancel near x = 0.
DSERIES_Z = 1e-6
# Hyperbolic growth beyond exp(150) is factored out of the scalar views' amplitudes.
RESCALE_EXPONENT = 150.0

_EYE2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class ModeTrajectory:
    """Unnormalized evolved amplitudes of one block and their theta-derivative.

    state holds the unnormalized phi = U(t) (1, 0); dstate is the
    analytic derivative of those amplitudes.  Both carry the same inert
    factor exp(-state.log_scale) when the block grows hyperbolically.
    """

    state: ModeState
    dstate: tuple[complex, complex]


def _cell(x, t):
    """C, S, C_x, S_x and the rescale exponent sigma of one (x, t).

    Broken cells past RESCALE_EXPONENT are scaled by exp(-sigma),
    sigma = |eps| t.  Raises ValueError for t < 0, and where the phase
    sqrt(x) t of an x > 0 cell overflows: cos and sin of it have no value.
    """
    x, t = float(x), float(t)  # numpy scalars would warn where x t t overflows
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    r = math.sqrt(abs(x))
    psi = r * t
    sig = 0.0
    if x > 0.0:
        if math.isinf(psi):
            raise ValueError(f"the phase sqrt(x) t overflows at x={x!r}, t={t!r}")
        c, s = math.cos(psi), math.sin(psi) / r
    elif x < 0.0 and psi > RESCALE_EXPONENT:
        # growing cells: exp(-|eps| t) is factored out
        damp = math.exp(-2.0 * psi)
        c, s, sig = 0.5 * (1.0 + damp), (1.0 - damp) / (2.0 * r), psi
    elif x < 0.0:
        c, s = math.cosh(psi), math.sinh(psi) / r
    else:
        c, s = 1.0, t
    z = x * t * t
    if x == 0.0 or abs(z) < DSERIES_Z:
        ds = -(t * t * t) / 6.0 * (1.0 - z / 10.0 * (1.0 - z / 28.0 * (
            1.0 - z / 54.0 * (1.0 - z / 88.0 * (1.0 - z / 130.0)))))
    else:
        # divide before halving: 2 x overflows once |x| passes half the float range
        ds = (t * c - s) / x * 0.5
    return c, s, -0.5 * t * s, ds, sig


def propagator(block: ModeBlock, t: float) -> np.ndarray:
    """The 2x2 matrix exp(-i M t) of one block.

    Raises ValueError for t < 0, for an unbroken block (eps_sq > 0)
    where its phase sqrt(eps_sq) t overflows to inf, and for a broken
    block where an entry overflows, as exp(|eps| t) alone does past
    |eps| t ~ 709.78.
    """
    c, s, _, _, sig = _cell(block.eps_sq, t)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        u = np.exp(sig) * (complex(c) * _EYE2 - 1j * complex(s) * block.matrix())
    if not np.isfinite(u).all():
        raise ValueError(f"the entries overflow at x={float(block.eps_sq)!r}, t={float(t)!r}")
    return u


def _theta_rates(a, b, j_imag, hermitian, theta_kind):
    """dx/dtheta and the column dM/dtheta (1, 0) = (u, v) of each block.

    theta = h:      dx/dtheta = 2a,            (u, v) = (-1, 0)
    theta = gamma:  dx/dtheta = -+ 2 b J^I,    (u, v) = (0, +-J^I)
    (upper signs non-Hermitian, lower Hermitian).
    """
    if theta_kind is ThetaKind.FIELD_H:
        return 2.0 * a, -1.0, 0.0
    if theta_kind is ThetaKind.ANISOTROPY_GAMMA:
        if hermitian:
            return 2.0 * b * j_imag, 0.0, -j_imag
        return -2.0 * b * j_imag, 0.0, j_imag
    raise ValueError(f"unknown theta_kind: {theta_kind!r}")


def _tangents(r, sign, t):
    """T, S = T^2 and d = 1 + sign S of a run whose x all have one sign.

    r = sqrt|x| is a row of modes and t a column of times.  x > 0: one tan
    pass, T = tan(r t) and d = 1 + S = sec^2.  x < 0: with
    psi = |eps| t = r t, e = expm1(-2 psi) and g = exp(-2 psi),

        T = tanh psi = -e / (1 + g),   d = sech^2 psi = 4 g / (1 + g)^2,

    neither of which cancels or overflows at any |eps| t.  x = 0: T = t, d = 1.
    """
    if sign < 0:
        e = np.multiply(-2.0 * r, t)
        d = np.exp(e)
        tan = np.expm1(e, out=e)
        q = np.subtract(-1.0, d)  # -(1 + g)
        tan /= q
        d /= q
        d /= q
        d *= 4.0
        return tan, np.multiply(tan, tan), d
    tan = np.multiply(r, t)
    if sign == 0:
        return tan, np.multiply(tan, tan), np.ones(tan.shape)
    np.tan(tan, out=tan)
    sq = np.multiply(tan, tan)
    return tan, sq, np.add(sq, 1.0)


def mode_columns(a, b, j_imag, x, hermitian, t, theta_kind):
    """The per-mode columns of trajectory_arrays for one curve at the times t.

    a, b, j_imag and x hold one value per mode, and t the curve's times.
    A stable partition of a, b, j_imag and x, before any column is built,
    sorts the modes into runs of one kind: unbroken (x > 0), broken
    (x < 0), then the near rows, which can enter the DSERIES_Z window at
    a nonzero time in t, as unbroken, x = 0 and broken runs.  Returns
    (order, runs): sorted mode i is input mode order[i], and each nonempty
    run is (sign of x, near, x, r, h / x, h, kappa, rho, beta, v / r),
    columns over its slice of the sorted modes: r = sqrt|x|,
    h = (dx/dtheta) m / 2, kappa = (a^2 + m^2) / |x|,
    rho = (a v + m u) / |x| and beta = (h / x - v) / r (v = 0 for theta = h).

    A chunk multiplies kappa and rho by T^2 and beta and v / r by T,
    which gives (a^2 + m^2) tau^2, (a v + m u) tau^2, (h / x - v) tau
    and v tau with tau = T / r (trajectory_arrays).  The near rows are
    in tau form: the chunk carries tau itself, against the columns
    a^2 + m^2, a v + m u, h / x - v and v, so no column divides by a
    small |x| (where |x| t^2 is subnormal, T^2 would lose its digits
    and kappa could overflow).  At x = 0, r = 1, h / x = h and tau = t.
    No other row's columns overflow where x = a^2 -+ b^2 as block_arrays
    rounds it, since |x| is then 0 or about eps (a^2 + b^2) or more.
    """
    a, b, j_imag, x = (np.asarray(k, dtype=float).reshape(-1) for k in (a, b, j_imag, x))
    t = np.asarray(t, dtype=float)
    t_min = np.abs(t).min(initial=np.inf, where=t != 0.0)
    # |x t t| does not decrease with |t| in floating point either, so a mode
    # enters the window at a nonzero time in t only if it does at t_min; an
    # infinite z, or 0 * inf with no nonzero time, compares as large
    with np.errstate(over="ignore", invalid="ignore"):
        near = (x == 0.0) | (np.abs(x * t_min * t_min) < DSERIES_Z)
    # run k holds the rows of sign 1 - k % 3 (a NaN x as x > 0), near for k >= 3
    key = near * np.int8(3) + (x <= 0.0) + (x < 0.0)
    order = np.argsort(key, kind="stable")
    ends = np.bincount(key, minlength=6).cumsum().tolist()
    a, b, j_imag, x = (k[order] for k in (a, b, j_imag, x))
    m = -b if hermitian else b  # lower-left block entry M_10
    xp, u, v = _theta_rates(a, b, j_imag, hermitian, theta_kind)
    h = 0.5 * xp * m
    ax = np.abs(x)
    ax[ends[2]:] = 1.0  # the near rows, in tau form, divide by 1
    kappa, rho = (a * a + m * m) / ax, (a * v + m * u) / ax
    del a, b, j_imag, m, xp  # freed before the last columns, which set the memory peak
    x1 = np.where(x == 0.0, 1.0, x)
    hx = h / x1
    r = np.sqrt(np.abs(x1, out=x1))
    rt = np.sqrt(ax, out=ax)
    columns = x, r, hx, h, kappa, rho, (hx - v) / rt, v / rt
    runs = [(1 - k % 3, k >= 3, *[c[lo:hi] for c in columns])
            for k, (lo, hi) in enumerate(zip([0] + ends, ends)) if lo < hi]
    return order, runs


def trajectory_arrays(run, t, modes=slice(None)):
    """Norm and 2x2 cross term of each evolved block on a (times x modes) grid.

    run is one run of mode_columns at times that include t, modes a slice
    of its modes (all by default), and t is reshaped into a column.  The
    results are C-ordered (times, modes) arrays: each pass runs along modes.

    The evolved amplitudes phi = U(t)(1, 0) = (C + i a S, -i m S), with
    m = M_10 (b non-Hermitian, -b Hermitian), have the theta-derivative

        dphi = (dx/dtheta) (C_x + i a S_x, -i m S_x) - i S (u, v)

    with dx/dtheta and (u, v) = dM/dtheta (1, 0) from _theta_rates.  The
    norm n = |phi|^2 and the cross term phi_0 dphi_1 - phi_1 dphi_0 =
    cr + i ci are quadratic in C and S:

        n  = C^2 + (a^2 + m^2) S^2
        cr = (a v + m u) S^2
        ci = (dx/dtheta) m W - v C S,      W = S C_x - C S_x.

    C^2 = (1 + cos 2 psi) / 2, S^2 = (1 - cos 2 psi) / (2 x) and
    C S = sin 2 psi / (2 sqrt(x)), psi = sqrt(x) t, so times
    d = 1 / C^2 = 1 + x tau^2 they are 1, tau^2 and tau, with
    tau = tan(psi) / sqrt(x) = T / sqrt|x| and T = tan psi for x > 0,
    tanh |eps| t for x < 0 (_tangents).  Each result is returned times
    d, from T, T^2 and d with the factors of 1 / sqrt|x| in the columns
    kappa, rho, beta and v / sqrt|x| of mode_columns:

        n  = 1 + kappa T^2 >= 1,   cr = rho T^2,
        ci = (dx/dtheta) m d W - v tau = beta T - (h / x) t d,

    as d W = (tau - t d) / (2 x) and h = (dx/dtheta) m / 2.  Inside
    DSERIES_Z, ci is d h times the series of 2 W, less v tau.  The near
    runs of mode_columns, the only ones that can meet the window, carry
    tau in place of T, with tau = t and d = 1 at x = 0: one pass over
    them forms tau and the window's cells.  d cancels in the per-mode QFI
    4 (cr^2 + ci^2) / n^2, so no cell is rescaled.
    """
    sign, near, *columns = run
    x, r, hx, h, kappa, rho, beta, vr = [c[modes] for c in columns]
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    tan, sq, d = _tangents(r, sign, t)
    if near:
        tan /= r
        np.multiply(tan, tan, out=sq)
        with np.errstate(over="ignore"):  # an infinite z lies outside the window
            z = x * t * t
        j, k = np.nonzero(np.abs(z) < DSERIES_Z)
        z, tz = z[j, k], t[j, 0]
        # h t^3 before the series: t^3 alone overflows once t passes 5.6e102
        w = h[k] * tz * tz * tz * ((-2.0 / 3.0) * (1.0 - z / 5.0 * (1.0 - z / 10.5 * (
            1.0 - z / 18.0)))) * d[j, k] - tan[j, k] * vr[k]
    ci = np.multiply(t, d)
    ci *= hx  # x = 0 rows lie wholly in the window
    n = np.multiply(sq, kappa, out=d)
    n += 1.0
    cr = np.multiply(sq, rho, out=sq)
    np.subtract(np.multiply(tan, beta, out=tan), ci, out=ci)
    if near:
        ci[j, k] = w
    return n, cr, ci


def _mode_amplitudes(a, b, j_imag, x, hermitian, t, theta_kind):
    """Complex amplitudes of one block, their theta-derivative and sigma.

    Built from C, S, C_x and S_x, not from tau: a check of trajectory_arrays.
    On a broken block the C_x and S_x terms grow like t and cancel in the
    cross term only to about eps |eps| t relative, so the two are compared
    only up to |eps| t = 1e3.
    """
    c, s, dc, ds, sig = _cell(x, t)
    m = -b if hermitian else b
    xp, u, v = _theta_rates(a, b, j_imag, hermitian, theta_kind)
    amp0 = complex(c, a * s)
    amp2 = complex(0.0, -(m * s))
    d0 = complex(xp * dc, xp * (a * ds) - s * u)
    d1 = complex(0.0, -(xp * (m * ds)) - s * v)
    return amp0, amp2, d0, d1, sig


def evolve_mode(block: ModeBlock, t: float) -> ModeState:
    """Normalized evolved state of one block from the pair vacuum."""
    amp0, amp2, _, _, sig = _mode_amplitudes(
        block.a, block.b, block.j_imag, block.eps_sq, block.hermitian, t,
        ThetaKind.FIELD_H)
    n = math.sqrt(amp0.real ** 2 + amp0.imag ** 2 + amp2.real ** 2 + amp2.imag ** 2)
    return ModeState(amp0 / n, amp2 / n, prenorm=n, log_scale=sig)


def evolve_mode_derivative(params: ModelParams, p: int, t: float,
                           theta_kind: ThetaKind) -> ModeTrajectory:
    """Unnormalized amplitudes of block p and their analytic theta-derivative.

    A view onto row p - 1 of block_arrays, evolved by _cell
    independently of trajectory_arrays.
    """
    n_blocks = params.N // 2
    if not 1 <= p <= n_blocks:
        raise ValueError(f"p must be in 1..{n_blocks}, got {p}")
    _, _, j_imag, a, b, x = (col[p - 1] for col in block_arrays(params))
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN
    amp0, amp2, d0, d1, sig = _mode_amplitudes(a, b, j_imag, x, hermitian, t, theta_kind)
    return ModeTrajectory(state=ModeState(amp0, amp2, log_scale=sig), dstate=(d0, d1))
