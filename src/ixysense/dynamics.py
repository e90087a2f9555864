"""Mode propagators and evolved amplitudes with analytic parameter derivatives.

Every block satisfies M^2 = eps_sq * I, so the propagator collapses to

    exp(-i M t) = C(x, t) I - i S(x, t) M,        x = eps_sq,
    C(x, t) = cos(sqrt(x) t),   S(x, t) = sin(sqrt(x) t) / sqrt(x).

C and S are entire functions of x: trigonometric for x > 0, hyperbolic
for x < 0 (cos(i y) = cosh y), smooth across x = 0 where a Taylor branch
takes over.  Parameter derivatives follow from the chain rule,

    dU/dtheta = (dx/dtheta) [C_x I - i S_x M] - i S dM/dtheta,
    C_x = -t S / 2,   S_x = (t C - S) / (2 x),

with series fallbacks for the kernels near x = 0.

Broken blocks (x < 0) grow like exp(|eps| t).  Once |eps| t exceeds
RESCALE_EXPONENT both the amplitudes and their derivatives are scaled by
exp(-|eps| t); the common factor cancels in any Fisher information and
is reported through log_scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AnisotropyMode, ModelParams, ThetaKind
from .blocks import ModeBlock, ModeState, block_arrays

# Taylor window for C and S: |x| t^2 below this.
SERIES_Z = 1e-8
# Wider window for S_x: the closed form (tC - S)/(2x) cancels near x = 0.
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
    theta_kind: ThetaKind


def _mode_grid(x, t):
    """x as a column of modes, t as a row of times, and their broadcast shape.

    x may vary only along axes before those along which t varies, as with
    x[:, None] against t[None, :]; either one may be a scalar.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape, t.shape)
    x_axes = [i for i, n in enumerate(x.shape[::-1]) if n != 1]
    t_axes = [i for i, n in enumerate(t.shape[::-1]) if n != 1]
    if x_axes and t_axes and min(x_axes) <= max(t_axes):
        raise ValueError(f"x {x.shape} must vary along axes before those of t {t.shape}")
    return x.reshape(-1, 1), t.reshape(1, -1), shape


def _window(x, t, bound):
    """Cells (rows, cols) with |z| < bound, z = x t^2, with their z and t.

    |x t t| does not decrease with |t| in floating point either, so only
    modes inside the window at the smallest |t| are checked per cell.
    """
    t_min = np.abs(t).min(initial=np.inf)
    rows = np.flatnonzero(np.abs(x[:, 0] * t_min * t_min) < bound)
    z = x[rows] * t * t
    i, j = np.nonzero(np.abs(z) < bound)
    return rows[i], j, z[i, j], t[0, j]


def _kernels(x, t, rescale=True):
    """C, S and the rescale exponent sigma on the (modes x times) grid of x, t.

    The trigonometric or hyperbolic branch is chosen once per mode and
    written for whole rows; the cells past RESCALE_EXPONENT and the
    Taylor cells near x t^2 = 0 are then patched, so every cell keeps
    its own elementwise formula.
    """
    x, t, shape = _mode_grid(x, t)
    limit = RESCALE_EXPONENT if rescale else np.inf
    rt = np.sqrt(np.abs(x))
    st = rt * t
    c = np.empty(st.shape)
    s = np.empty(st.shape)
    sig = np.zeros(st.shape)

    pos = x > 0.0
    np.cos(st, out=c, where=pos)
    np.sin(st, out=s, where=pos)
    np.divide(s, rt, out=s, where=pos)

    neg = x < 0.0
    late = neg & (st > limit)
    tame = neg & ~late
    np.cosh(st, out=c, where=tame)
    np.sinh(st, out=s, where=tame)
    np.divide(s, rt, out=s, where=tame)
    if late.any():
        # growing cells: exp(-|eps| t) is factored out
        st_l = st[late]
        damp = np.exp(-2.0 * st_l)
        c[late] = 0.5 * (1.0 + damp)
        s[late] = (1.0 - damp) / (2.0 * np.broadcast_to(rt, st.shape)[late])
        sig[late] = st_l

    i, j, z, tz = _window(x, t, SERIES_Z)
    c[i, j] = 1.0 - 0.5 * z * (1.0 - z / 12.0 * (1.0 - z / 30.0))
    s[i, j] = tz * (1.0 - z / 6.0 * (1.0 - z / 20.0 * (1.0 - z / 42.0)))
    return c.reshape(shape), s.reshape(shape), sig.reshape(shape)


def _kernel_derivs(x, t, c, s):
    """dC/dx and dS/dx given already-evaluated (possibly rescaled) C, S."""
    x, t, shape = _mode_grid(x, t)
    c = np.reshape(c, (x.size, t.size))
    s = np.reshape(s, (x.size, t.size))
    dc = -0.5 * t * s
    # divide before halving: 2 x overflows once |x| passes half the float range
    nonzero = x != 0.0
    ds = np.divide(t * c - s, x, out=np.empty(c.shape), where=nonzero)
    np.multiply(ds, 0.5, out=ds, where=nonzero)
    i, j, z, tz = _window(x, t, DSERIES_Z)
    ds[i, j] = -tz ** 3 / 6.0 * (1.0 - z / 10.0 * (1.0 - z / 28.0 * (
        1.0 - z / 54.0 * (1.0 - z / 88.0 * (1.0 - z / 130.0)))))
    return dc.reshape(shape), ds.reshape(shape)


def propagator(block: ModeBlock, t: float) -> np.ndarray:
    """The 2x2 matrix exp(-i M t) of one block."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    c, s, _ = _kernels(block.eps_sq, t, rescale=False)
    return complex(c) * _EYE2 - 1j * complex(s) * block.matrix()


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

    a, b, j_imag and x hold one value per mode and t one per time, with
    the mode axes before the time axes (x[:, None] against t[None, :]);
    either side may be a scalar.

    The evolved amplitudes phi = U(t)(1, 0) = (C + i a S, -i m S), with
    m = M_10 (b non-Hermitian, -b Hermitian), have the theta-derivative

        dphi = (dx/dtheta) (C_x + i a S_x, -i m S_x) - i S (u, v)

    with dx/dtheta and (u, v) = dM/dtheta (1, 0) from _theta_rates.  The
    norm n = |phi|^2 and the cross term phi_0 dphi_1 - phi_1 dphi_0 =
    cr + i ci are then real polynomials in C, S, C_x and S_x:

        n  = C^2 + (a^2 + m^2) S^2
        cr = (a v + m u) S^2
        ci = (dx/dtheta) m W - v C S,      W = S C_x - C S_x.

    They are written in place over the kernel arrays, and returned as
    (n, cr, ci, sigma).  n, cr and ci share the inert factor
    exp(-2 sigma), which cancels in 4 (cr^2 + ci^2) / n^2.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    j_imag = np.asarray(j_imag, dtype=float)
    m = -b if hermitian else b  # lower-left block entry M_10
    xp, u, v = _theta_rates(a, b, j_imag, hermitian, theta_kind)
    c, s, sig = _kernels(x, t)
    ci, cr = _kernel_derivs(x, t, c, s)  # C_x and S_x, overwritten below
    np.multiply(ci, s, out=ci)
    np.multiply(cr, c, out=cr)
    np.subtract(ci, cr, out=ci)  # W
    np.multiply(ci, xp * m, out=ci)
    if theta_kind is ThetaKind.ANISOTROPY_GAMMA:  # v = 0 for theta = h
        np.multiply(c, s, out=cr)
        np.multiply(cr, v, out=cr)
        np.subtract(ci, cr, out=ci)
    s2 = np.multiply(s, s, out=s)
    np.multiply(s2, a * v + m * u, out=cr)
    n = np.multiply(c, c, out=c)
    n += np.multiply(s2, a * a + m * m, out=s2)
    return n, cr, ci, sig


def _mode_amplitudes(a, b, j_imag, x, hermitian, t, theta_kind):
    """Complex amplitudes of one block, their theta-derivative and sigma.

    The scalar form of trajectory_arrays, built from the same kernels.
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
    return ModeTrajectory(state=ModeState(amp0, amp2, log_scale=sig), dstate=(d0, d1),
                          theta_kind=theta_kind)
