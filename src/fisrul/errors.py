"""Exception types shared across the package, and the one check of each kind of value."""

import json
import math
import sys
from contextlib import contextmanager
from numbers import Integral, Real


class ConfigError(ValueError):
    """A bad setting, flag or input document: exit code 2 on the command line."""


class LoadError(RuntimeError):
    """A dataset file could not be parsed; the message names the file (and line)."""


def integer(value, name: str, low=None):
    """``value`` if it is an integer (no bool) of at least ``low``, else ConfigError."""
    if type(value) is bool or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if low is not None and not value >= low:
        raise ConfigError(f"{name} must be at least {low}, got {value}")
    return value


def number(value, name: str):
    """``value`` if it is a finite real number (no bool), else ConfigError.  An
    integer past the float range is not finite; no numpy scalar warns."""
    if type(value) is bool or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not (-sys.float_info.max <= value <= sys.float_info.max
            if isinstance(value, Integral) else math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def read_json(path):
    """The JSON document in ``path``, or a ConfigError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # too many digits or levels
            raise ConfigError(f"{path}: not a JSON document: {exc}") from None


def cell(text: str, error: type, path, lineno: int, column: str | None = None) -> float:
    """``text`` as a finite float, else an ``error`` naming ``path:lineno`` (and column)."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
        kind = "non-finite value"
    except ValueError:
        kind = "not a number"
    where = f"{path}:{lineno}" if column is None else f"{path}:{lineno}: column {column!r}"
    raise error(f"{where}: {kind}: {text!r}")


@contextmanager
def located(where):
    """Re-raise the block's ValueError with ``where: `` in front (a ConfigError stays one)."""
    try:
        yield
    except ValueError as exc:
        raise (ConfigError if isinstance(exc, ConfigError) else ValueError)(
            f"{where}: {exc}") from None
