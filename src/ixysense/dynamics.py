"""Mode propagators and evolved amplitudes with analytic parameter derivatives.

Every block satisfies M^2 = eps_sq * I, so the propagator collapses to

    exp(-i M t) = C(x, t) I - i S(x, t) M,        x = eps_sq,
    C(x, t) = cos(sqrt(x) t),   S(x, t) = sin(sqrt(x) t) / sqrt(x).

C and S are entire functions of x: trigonometric for x > 0, hyperbolic
for x < 0 (cos(i y) = cosh y), with C = 1 and S = t at x = 0; the closed
forms need no series near x = 0.  The trigonometric branch takes both
from one half-angle tangent u = tan(sqrt(x) t / 2),

    C = (1 - u)(1 + u) / (1 + u^2),   S = 2 u / ((1 + u^2) sqrt(x)),

within 1 eps absolute in C and 2 eps relative in S of the rounded phase.
Parameter derivatives follow from the chain rule,

    dU/dtheta = (dx/dtheta) [C_x I - i S_x M] - i S dM/dtheta,
    C_x = -t S / 2,   S_x = (t C - S) / (2 x),

with a series for S_x inside DSERIES_Z.  The array path forms neither:
det U = 1 gives C^2 + x S^2 = exp(-2 sigma) (sigma as below), so
W = S C_x - C S_x = (C S - t exp(-2 sigma)) / (2 x), or
-(t^3/3)(1 - z/5 + 2z^2/105 - z^3/945) with z = x t^2 near x = 0, and
trajectory_arrays needs no _kernel_derivs.

Broken blocks (x < 0) grow like exp(|eps| t).  Once |eps| t exceeds
RESCALE_EXPONENT both the amplitudes and their derivatives are scaled by
exp(-|eps| t); the common factor cancels in any Fisher information and
is reported through log_scale.

The array functions take modes and times each as a scalar or a 1-D
array and return (modes x times) grids of shape x.shape + t.shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AnisotropyMode, ModelParams, ThetaKind
from .blocks import ModeBlock, ModeState, block_arrays

# Series window for W and S_x, whose closed forms cancel near x = 0.
DSERIES_Z = 1e-6
# Hyperbolic growth beyond exp(150) is factored out of the amplitudes.
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


def _mode_grid(x, t):
    """x as a column of modes, t as a row of times, and the result shape.

    x and t are each a scalar or a 1-D array; the result has shape
    x.shape + t.shape.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if x.ndim > 1 or t.ndim > 1:
        raise ValueError(f"modes {x.shape} and times {t.shape} must each be a scalar or 1-D")
    return x.reshape(-1, 1), t.reshape(1, -1), x.shape + t.shape


def _window(x, t):
    """Cells (rows, cols) with |z| < DSERIES_Z, z = x t^2, with their z and t.

    |x t t| does not decrease with |t| in floating point either, so only
    modes inside the window at the smallest |t| are checked per cell.
    """
    t_min = np.abs(t).min(initial=np.inf)
    with np.errstate(over="ignore"):  # an infinite z only lies outside the window
        rows = np.flatnonzero(np.abs(x[:, 0] * t_min * t_min) < DSERIES_Z)
        if not rows.size:  # the usual chunk: no mode near x = 0
            return rows, rows, np.empty(0), np.empty(0)
        z = x[rows] * t * t
    i, j = np.nonzero(np.abs(z) < DSERIES_Z)
    return rows[i], j, z[i, j], t[0, j]


def _kernels(x, t):
    """C, S and the rescale exponent sigma on the (modes x times) grid of x, t.

    Every row is first evaluated on the trigonometric branch from one
    half-angle tangent u = tan(sqrt(x) t / 2),

        C = (1 - u)(1 + u) / (1 + u^2),   S = (u / (1 + u^2)) (2 / sqrt(x)),

    one vectorized tan in place of a cos and a sin per cell.  Against
    40-digit cos and sin of the phase sqrt(x) t as rounded, C is within
    1 eps absolute and S within 2 eps relative (libm cos and sin: 0.5
    and 1), down to x t^2 -> 0.  u^2 cannot overflow, as |tan| of any
    double is below about 1e19, and (1 - u)(1 + u) is not formed as
    1 - u^2, which cancels near C = 0.  Rows with x < 0 are then
    overwritten on the hyperbolic branch, with the cells past
    RESCALE_EXPONENT scaled by exp(-sigma), and x = 0 rows take S = t.
    """
    x, t, shape = _mode_grid(x, t)
    rt = np.sqrt(np.abs(x))
    u = (0.5 * rt) * t
    np.tan(u, out=u)
    c = np.subtract(1.0, u)
    s = np.add(1.0, u)
    c *= s
    np.multiply(u, u, out=s)
    s += 1.0
    c /= s
    np.divide(u, s, out=s)
    s *= np.divide(2.0, rt, out=np.zeros(rt.shape), where=x != 0.0)
    s[x[:, 0] == 0.0] = t  # u = 0 there, so C = 1 already
    sig = np.zeros(u.shape)

    neg = np.flatnonzero(x[:, 0] < 0.0)
    if neg.size:
        rt_n = rt[neg]
        st_n = rt_n * t
        tame = st_n <= RESCALE_EXPONENT
        c_n = np.cosh(st_n, out=np.empty(st_n.shape), where=tame)
        s_n = np.sinh(st_n, out=np.empty(st_n.shape), where=tame)
        np.divide(s_n, rt_n, out=s_n, where=tame)
        late = ~tame
        if late.any():
            # growing cells: exp(-|eps| t) is factored out
            st_l = st_n[late]
            damp = np.exp(-2.0 * st_l)
            c_n[late] = 0.5 * (1.0 + damp)
            s_n[late] = (1.0 - damp) / (2.0 * np.broadcast_to(rt_n, st_n.shape)[late])
            sig[neg] = np.where(late, st_n, 0.0)
        c[neg] = c_n
        s[neg] = s_n
    return c.reshape(shape), s.reshape(shape), sig.reshape(shape)


def _kernel_derivs(x, t, c, s):
    """dC/dx and dS/dx given already-evaluated (possibly rescaled) C, S."""
    x, t, shape = _mode_grid(x, t)
    c = np.reshape(c, (x.size, t.size))
    s = np.reshape(s, (x.size, t.size))
    dc = -0.5 * t * s
    # divide before halving: 2 x overflows once |x| passes half the float
    # range; x = 0 rows lie wholly in the series window
    ds = t * c - s
    ds /= np.where(x != 0.0, x, 1.0)
    ds *= 0.5
    i, j, z, tz = _window(x, t)
    ds[i, j] = -tz ** 3 / 6.0 * (1.0 - z / 10.0 * (1.0 - z / 28.0 * (
        1.0 - z / 54.0 * (1.0 - z / 88.0 * (1.0 - z / 130.0)))))
    return dc.reshape(shape), ds.reshape(shape)


def propagator(block: ModeBlock, t: float) -> np.ndarray:
    """The 2x2 matrix exp(-i M t) of one block."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    c, s, sig = _kernels(block.eps_sq, t)
    # exp(sigma) overflows, with a RuntimeWarning, where the entries do
    return np.exp(sig) * (complex(c) * _EYE2 - 1j * complex(s) * block.matrix())


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


def trajectory_arrays(a, b, j_imag, x, hermitian, t, theta_kind):
    """Norm and 2x2 cross term of each evolved block on a (modes x times) grid.

    a, b, j_imag and x hold one value per mode and t one per time, each
    a scalar or a 1-D array; the results have shape x.shape + t.shape.

    The evolved amplitudes phi = U(t)(1, 0) = (C + i a S, -i m S), with
    m = M_10 (b non-Hermitian, -b Hermitian), have the theta-derivative

        dphi = (dx/dtheta) (C_x + i a S_x, -i m S_x) - i S (u, v)

    with dx/dtheta and (u, v) = dM/dtheta (1, 0) from _theta_rates.  The
    norm n = |phi|^2 and the cross term phi_0 dphi_1 - phi_1 dphi_0 =
    cr + i ci are then real polynomials in C, S, C_x and S_x:

        n  = C^2 + (a^2 + m^2) S^2
        cr = (a v + m u) S^2
        ci = (dx/dtheta) m W - v C S,      W = S C_x - C S_x,

    with W = (C S - t exp(-2 sigma)) / (2 x), or its series inside DSERIES_Z,
    so no _kernel_derivs call forms C_x and S_x.  They are written in place
    over the kernel arrays and returned as (n, cr, ci, sigma).  n, cr and ci
    share the inert factor exp(-2 sigma), which cancels in 4 (cr^2 + ci^2) / n^2.
    """
    x, t, shape = _mode_grid(x, t)
    a, b, j_imag = (np.reshape(np.asarray(k, dtype=float), (-1, 1)) for k in (a, b, j_imag))
    m = -b if hermitian else b  # lower-left block entry M_10
    xp, u, v = _theta_rates(a, b, j_imag, hermitian, theta_kind)
    c, s, sig = _kernels(x.ravel(), t.ravel())  # on the (modes x times) grid
    cs = np.multiply(c, s)
    # 2 x W = C S - t e^{-2 sigma}, where sigma > 0 only on rows with x < 0,
    # in place when theta = h, which needs no C S after it (v = 0)
    tail = t * np.exp(-2.0 * sig) if (x < 0.0).any() and sig.any() else t
    ci = np.subtract(cs, tail, out=cs if theta_kind is ThetaKind.FIELD_H else None)
    ci /= np.where(x != 0.0, x, 1.0)  # before halving, as 2 x can overflow
    i, j, z, tz = _window(x, t)  # x = 0 rows lie wholly inside
    ci[i, j] = (-2.0 / 3.0) * tz ** 3 * (1.0 - z / 5.0 * (1.0 - z / 10.5 * (1.0 - z / 18.0)))
    ci *= 0.5 * xp * m
    if theta_kind is ThetaKind.ANISOTROPY_GAMMA:
        ci -= np.multiply(cs, v, out=cs)
    s2 = np.multiply(s, s, out=s)
    cr = np.multiply(s2, a * v + m * u)
    n = np.multiply(c, c, out=c)
    n += np.multiply(s2, a * a + m * m, out=s2)
    return tuple(k.reshape(shape) for k in (n, cr, ci, sig))


def _mode_amplitudes(a, b, j_imag, x, hermitian, t, theta_kind):
    """Complex amplitudes of one block, their theta-derivative and sigma.

    trajectory_arrays' scalar form, but with C_x, S_x: a check of its fused W.
    """
    c, s, sig = (float(k) for k in _kernels(x, t))
    dc, ds = (float(k) for k in _kernel_derivs(x, t, c, s))
    m = -b if hermitian else b
    xp, u, v = _theta_rates(a, b, j_imag, hermitian, theta_kind)
    amp0 = complex(c, a * s)
    amp2 = complex(0.0, -(m * s))
    d0 = complex(xp * dc, xp * (a * ds) - s * u)
    d1 = complex(0.0, -(xp * (m * ds)) - s * v)
    return amp0, amp2, d0, d1, sig


def evolve_mode(block: ModeBlock, t: float) -> ModeState:
    """Normalized evolved state of one block from the pair vacuum."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    amp0, amp2, _, _, sig = _mode_amplitudes(
        block.a, block.b, block.j_imag, block.eps_sq, block.hermitian, t,
        ThetaKind.FIELD_H)
    n = math.sqrt(amp0.real ** 2 + amp0.imag ** 2 + amp2.real ** 2 + amp2.imag ** 2)
    return ModeState(amp0 / n, amp2 / n, prenorm=n, log_scale=sig)


def evolve_mode_derivative(params: ModelParams, p: int, t: float,
                           theta_kind: ThetaKind) -> ModeTrajectory:
    """Unnormalized amplitudes of block p and their analytic theta-derivative.

    A view onto row p - 1 of block_arrays, evolved by the kernels of
    trajectory_arrays.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    n_blocks = params.N // 2
    if not 1 <= p <= n_blocks:
        raise ValueError(f"p must be in 1..{n_blocks}, got {p}")
    _, _, j_imag, a, b, x = (col[p - 1] for col in block_arrays(params))
    hermitian = params.anisotropy_mode is AnisotropyMode.HERMITIAN
    amp0, amp2, d0, d1, sig = _mode_amplitudes(a, b, j_imag, x, hermitian, t, theta_kind)
    return ModeTrajectory(state=ModeState(amp0, amp2, log_scale=sig), dstate=(d0, d1))
