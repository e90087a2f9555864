"""Quantum Fisher information metrology for the long-range iXY spin chain."""

from .errors import ConfigError, FitError, NumericalError, UnderflowError
from .model import (
    AnisotropyMode,
    CouplingProfile,
    ModelParams,
    ThetaKind,
    coupling_profile,
    critical_field_pi,
    critical_field_zero,
    kac_factor,
    mode_angles,
    momentum_coupling,
)
from .blocks import (
    ModeBlock,
    PhaseLabel,
    TOL_PHASE,
    build_blocks,
    classify_phase,
)
from .dynamics import evolve_mode, evolve_mode_derivative, propagator
from .metrology import (
    QfiSample,
    RatioResult,
    dynamical_qfi,
    mode_qfi,
    qfi_curve,
    qfi_ratio_time_avg,
    stationary_qfi,
)
from .analysis import (
    EPResult,
    PowerFit,
    ScalingAnchor,
    SizeScalingResult,
    StationaryRow,
    StationaryScalingResult,
    TimeScalingResult,
    find_exceptional_point,
    fit_power_law,
    resolve_anchor,
    sweep_size_scaling,
    sweep_stationary_scaling,
    sweep_time_scaling,
)
from .dense import build_spin_hamiltonian, dense_evolve_qfi

__version__ = "0.1.0"
