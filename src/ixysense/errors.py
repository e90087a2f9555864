"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid run configuration (bad key, bad value, malformed file)."""


class NumericalError(Exception):
    """A computation could not produce a trustworthy result."""


class FitError(NumericalError):
    """Not enough usable points to fit."""


class UnderflowError(NumericalError):
    """Evolved amplitudes collapsed below the double-precision floor."""
