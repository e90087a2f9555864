"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid run configuration (bad key, bad value, malformed file)."""


class NumericalError(Exception):
    """A computation could not produce a trustworthy result."""
