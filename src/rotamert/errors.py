"""Exception hierarchy for the toolkit.

Two families matter to callers: :class:`InputError` covers bad or
inconsistent data (the CLI maps it to exit code 2), :class:`ConfigError`
covers invalid settings and parameters (exit code 3).
"""

from __future__ import annotations


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
    """A rotation names identical, out-of-range, or already-rotated dimensions."""


class InvalidGrid(ConfigError):
    """A grid specification violates its step or ordering constraints."""


class GridEmpty(ConfigError):
    """A search grid contains no points."""


class SpecInvalid(ConfigError):
    """A synthetic corpus specification is out of range."""
