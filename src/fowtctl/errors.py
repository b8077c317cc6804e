"""Exception types shared across the library."""


class FowtctlError(Exception):
    """Base class for all library errors."""


class ParameterError(FowtctlError, ValueError):
    """A physical or control parameter violates its constraints."""


class GainSingularityError(FowtctlError, ZeroDivisionError):
    """A gain formula divides by a vanishing sensitivity or lever arm."""


class ConfigError(FowtctlError, ValueError):
    """A run configuration file is missing keys or references."""
