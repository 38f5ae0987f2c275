"""Minimum-error-rate tuning of N-best feature weights.

The pipeline: parse N-best lists and references into a
:class:`~rotamert.corpus.TuningCorpus`, reduce hypotheses to additive
BLEU statistics, minimize corpus error with coordinate descent whose
inner step is an exact line search over the piecewise-constant error
surface, and optionally search a grid of rotated first axes, keeping
the rotation with the best tuning-set score.
"""

import os as _os

# rotamert calls no BLAS (scores are summed column by column, see
# PackedCorpus.project), so an OpenBLAS thread pool would only spin idle
# and burn CPU.  Load numpy with one thread unless the user chose a
# count, then restore the environment for user code and child processes.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(name in _os.environ for name in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .bleu import ErrorValue
from .corpus import (
    Hypothesis,
    SentenceEntry,
    TuningCorpus,
    build_corpus,
    parse_nbest,
    parse_references,
)
from .descent import KcdConfig, KcdTrace, StepRecord, kcd_optimize
from .envelope import PackedCorpus
from .rotation import (
    AlphaGrid,
    CoordinateSystem,
    Rotation,
    RssRecord,
    RssResult,
    rss_optimize,
)

__version__ = "0.1.0"

# The functions the README promises, then the types they take and return.
# Everything else is importable from its submodule.
__all__ = [
    "parse_nbest",
    "parse_references",
    "build_corpus",
    "kcd_optimize",
    "rss_optimize",
    "AlphaGrid",
    "CoordinateSystem",
    "ErrorValue",
    "Hypothesis",
    "KcdConfig",
    "KcdTrace",
    "PackedCorpus",
    "Rotation",
    "RssRecord",
    "RssResult",
    "SentenceEntry",
    "StepRecord",
    "TuningCorpus",
]
