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

``check_fields`` is the one type rule of the config dataclasses, here since
every module with one imports this module: each ``__post_init__`` calls it
first, so a value passed in Python and one read from JSON meet one rule,
the one the field's type hint states.
"""

import dataclasses
import functools
import numbers
import reprlib
import typing


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


# what a value of each plain type hint must be, for an error message
_DESCRIBED = {int: "an integer", float: "a real number", bool: "a boolean", str: "a string",
              tuple: "a list of real numbers"}


def checked(key, hint, value):
    """``value`` in the form the type ``hint`` gives it, else DomainError
    naming ``key``. ``int`` takes a ``numbers.Integral`` and ``float`` a
    ``numbers.Real`` within the float range (a bool is neither); ``tuple`` a
    list or tuple of real numbers, stored as floats; ``Literal[...]`` one of
    its strings; ``Optional[X]`` None or an X; any other class, or Union of
    classes, an instance."""
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]: None, or what X takes
        (x,) = set(args) - {type(None)}
        return value if value is None else checked(key, x, value)
    literal = typing.get_origin(hint) is typing.Literal
    try:
        if hint is tuple:
            if isinstance(value, (list, tuple)):
                return tuple(checked(key, float, v) for v in value)
        elif hint in (int, float):
            kind = numbers.Integral if hint is int else numbers.Real
            if isinstance(value, kind) and not isinstance(value, bool):
                return hint(value)
        elif literal:
            if isinstance(value, str) and value in args:
                return value
        elif isinstance(value, args or hint):  # bool, str, a class or a Union of classes
            return value
        fault = f", got {reprlib.repr(value)}"
    except OverflowError:  # an integer beyond the float range
        fault = " within the float range"
    what = (f"one of {args}" if literal else _DESCRIBED.get(hint)
            or "a " + " or ".join(c.__name__ for c in args or (hint,)))
    raise DomainError(f"{key} must be {what}{fault}", key=key)


@functools.cache
def field_hints(cls) -> dict:
    """The type hint of each field of dataclass ``cls`` by name, resolved once (do not mutate)."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def check_fields(obj) -> None:
    """Store each field of the frozen dataclass ``obj`` as ``checked`` reads it by its hint."""
    for name, hint in field_hints(type(obj)).items():
        object.__setattr__(obj, name, checked(name, hint, getattr(obj, name)))
