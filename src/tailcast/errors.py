"""Exception types raised across the package.

Everything derives from ValueError/RuntimeError so callers that do not care
about the fine distinctions can catch the built-ins.
"""

import reprlib


class NonFiniteInput(ValueError):
    """An input array contains NaN or infinity."""


class Unsupported(ValueError):
    """The requested operation is not available for this configuration."""


class DomainError(ValueError):
    """A scalar argument lies outside the mathematical domain; ``key``, when
    given, names the field it came from."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class InsufficientData(ValueError):
    """Too few observations to run the estimator."""


class DegenerateData(ValueError):
    """All observations identical; scale estimation impossible."""


class InvalidGrid(ValueError):
    """A time grid has non-positive step or inconsistent bounds."""


class GridMisaligned(ValueError):
    """A time point does not sit on the sampling lattice."""


class NonStationaryCoefficients(ValueError):
    """Autoregressive coefficients admit a characteristic root inside the unit disc."""


class LengthMismatch(ValueError):
    """Paired arrays differ in length."""


class NoValidShifts(ValueError):
    """The observation window admits no learning samples for this design."""


class IndexOutOfRange(IndexError):
    """A row index is outside 0..N-1."""


class MissingBootstrap(ValueError):
    """A penalized functional needs a bootstrap draw that was not supplied."""


class SingularCovariance(ValueError):
    """The covariance matrix is not positive definite."""


class DivergedToNonFinite(RuntimeError):
    """Descent produced a non-finite iterate.

    Carries the last finite iterate in ``last_iterate``.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class ConfigError(ValueError):
    """A run configuration is malformed; ``key`` names the offending entry.
    The message quotes the key through ``reprlib``, so that a key read from
    the config itself (an unknown one) prints cut short."""

    def __init__(self, key, message):
        super().__init__(f"config key {reprlib.repr(key)}: {message}")
        self.key = key
