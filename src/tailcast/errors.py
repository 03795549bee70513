"""Exception types raised across the package: one per decision a caller makes.

- ``ConfigError``: the run configuration is at fault; the CLI exits 2 and
  names the offending ``key``.
- ``DomainError``: an argument, array or setting is outside what the
  operation accepts; the harness turns one that carries a ``key`` into a
  ``ConfigError`` naming that key.
- ``NonFiniteInput``: an input holds NaN or infinity; ``solve_lockstep``
  names the ``chain`` it came from.
- ``DivergedToNonFinite``: descent left the finite numbers; ``run_fit``
  keeps its ``last_iterate``.

Each derives from ValueError or RuntimeError, which the CLI turns into exit 1.
"""

import reprlib


class NonFiniteInput(ValueError):
    """An input array contains NaN or infinity."""


class DomainError(ValueError):
    """An argument lies outside what the operation accepts; ``key``, when
    given, names the field it came from."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


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
