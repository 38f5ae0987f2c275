"""Exception hierarchy for the toolkit.

Two families matter to callers: :class:`InputError` covers bad or
inconsistent data (the CLI maps it to exit code 2), :class:`ConfigError`
covers invalid settings and parameters (exit code 3).  The readers
:func:`as_real`, :func:`as_index`, :func:`as_reals`, :func:`as_items` and
:func:`as_instance` turn a Python argument that is not a number, not a
sequence or not of its type into such an error that names it;
:func:`count_read` words how many items a bounded read found.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Iterable, Sized
from itertools import islice


class RotamertError(Exception):
    """Base class for every error raised by this package."""


class InputError(RotamertError):
    """Malformed or inconsistent input data."""


class ConfigError(RotamertError):
    """Invalid configuration, parameters, or dimensions."""


class MalformedLine(InputError):
    """An N-best line does not follow the ``id ||| tokens ||| feats ||| total`` shape."""


class InconsistentFeatureCount(InputError):
    """A hypothesis carries a different number of features than the rest."""


class NonNumericFeature(InputError):
    """A feature or total field failed to parse as a finite number."""


class LengthMismatch(InputError):
    """Parallel files disagree on the number of lines."""


class NoReferences(InputError):
    """A sentence ended up with zero usable references."""


class IdMismatch(InputError):
    """Sentence ids of the N-best lists and references do not line up densely."""


class EmptyCorpus(InputError):
    """No sentences (or no hypotheses for a sentence) were provided."""


class DimensionMismatch(ConfigError):
    """A weight vector or coordinate system does not match the feature dimension."""


class InvalidRotation(ConfigError):
    """A rotation is not two distinct in-range integer dimensions and a finite
    real alpha, or tilts an axis twice; or a system's provenance is not rotations."""


class InvalidGrid(ConfigError):
    """A grid specification violates its step or ordering constraints."""


class GridEmpty(ConfigError):
    """A search grid contains no points."""


class SpecInvalid(ConfigError):
    """A synthetic corpus specification is out of range."""


def as_real(value, what: str, error: type[RotamertError] = ConfigError) -> float:
    """``value`` as a float if it is a real number and not a bool; else ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a real number, got {value!r}")
    return float(value)


def as_index(value, what: str, error: type[RotamertError] = ConfigError) -> int:
    """``value`` by ``operator.index`` if it is an integer and not a bool; else ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def as_reals(values, dim: int, what: str) -> tuple[float, ...]:
    """``values`` as ``dim`` floats, read by :func:`as_items` (at most ``dim + 1`` of an
    iterable without ``len``), each a real number as :func:`as_real` reads one."""
    items = as_items(values, what, limit=dim + 1)
    if len(items) != dim:
        raise DimensionMismatch(f"{count_read(items, values, dim)} {what} for {dim} features")
    reals = tuple(float(v) for v in items if isinstance(v, numbers.Real) and not isinstance(v, bool))
    if len(reals) != dim:
        raise ConfigError(f"{what} must be real numbers, got {' '.join(map(repr, items))}")
    return reals


def as_items(values, what: str, kind: type = object, limit: int | None = None) -> tuple:
    """``values`` as a tuple, if it is an iterable of ``kind`` items and not a string; else a
    :class:`ConfigError` naming ``what``.  Given a ``limit``, an iterable without ``len``
    is read for at most that many items, so an endless one ends."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ConfigError(f"{what} must be an iterable that is not a string, got {type(values).__name__}")
    items = tuple(values if limit is None or isinstance(values, Sized) else islice(values, limit))
    for item in items:
        if not isinstance(item, kind):
            raise ConfigError(f"{what} must hold only {kind.__name__} items, got {type(item).__name__}")
    return items


def count_read(items: tuple, values, dim: int) -> int | str:
    """How many ``items`` :func:`as_items` read from ``values`` with ``limit=dim + 1``, for a
    message: ``more than dim`` if that read stopped an iterable without ``len`` early."""
    return f"more than {dim}" if len(items) > dim and not isinstance(values, Sized) else len(items)


def as_instance(value, kind: type, what: str):
    """``value`` if it is a ``kind``; else a :class:`ConfigError` naming ``what`` and the type given."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value
