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
# envelope._project), so an OpenBLAS thread pool would only spin idle
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
    format_nbest,
    format_references,
    nbest_map,
    parse_nbest,
    parse_references,
    reference_map,
    remap_sparse_ids,
)
from .descent import (
    KcdConfig,
    KcdTrace,
    StepRecord,
    kcd_optimize,
    uniform_weights,
)
from .envelope import (
    IntervalSweep,
    LineSearchResult,
    PackedCorpus,
    ScoreLine,
    SentenceEnvelope,
    line_search,
    project_lines,
    sweep_intervals,
    upper_envelope,
)
from .rotation import (
    AlphaGrid,
    CoordinateSystem,
    Rotation,
    RssRecord,
    RssResult,
    apply_rotation,
    identity_system,
    report_tsv,
    rss_optimize,
)
from .synthetic import (
    SynthSpec,
    adversarial_certificate,
    adversarial_instance,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaGrid",
    "CoordinateSystem",
    "ErrorValue",
    "Hypothesis",
    "IntervalSweep",
    "KcdConfig",
    "KcdTrace",
    "LineSearchResult",
    "PackedCorpus",
    "Rotation",
    "RssRecord",
    "RssResult",
    "ScoreLine",
    "SentenceEntry",
    "SentenceEnvelope",
    "StepRecord",
    "SynthSpec",
    "TuningCorpus",
    "adversarial_certificate",
    "adversarial_instance",
    "apply_rotation",
    "build_corpus",
    "format_nbest",
    "format_references",
    "generate",
    "identity_system",
    "kcd_optimize",
    "line_search",
    "nbest_map",
    "parse_nbest",
    "parse_references",
    "project_lines",
    "reference_map",
    "remap_sparse_ids",
    "report_tsv",
    "rss_optimize",
    "sweep_intervals",
    "uniform_weights",
    "upper_envelope",
]
