"""Quantum Fisher information metrology for the long-range iXY spin chain."""

from .metrology import qfi_curve  # perfbench's tests check its tracer rebinds it here too

__version__ = "0.1.0"
