"""Minimum-error-rate tuning of N-best feature weights.

The pipeline: parse N-best lists and references into a
:class:`~rotamert.corpus.TuningCorpus`, reduce hypotheses to additive
BLEU statistics, minimize corpus error with coordinate descent whose
inner step is an exact line search over the piecewise-constant error
surface, and optionally search a grid of rotated first axes, keeping
the rotation with the best tuning-set score.
"""

import os as _os
from importlib import import_module as _import_module

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
else:
    import numpy as _numpy  # noqa: F401  (at package import, whoever set the count)

__version__ = "0.1.0"

# The functions the README promises, then the types they take and return,
# each with the submodule that defines it.  Everything else is importable
# from its submodule.
_EXPORTS = {
    "parse_nbest": "corpus",
    "parse_references": "corpus",
    "build_corpus": "corpus",
    "kcd_optimize": "descent",
    "rss_optimize": "rotation",
    "AlphaGrid": "rotation",
    "CoordinateSystem": "descent",
    "ErrorValue": "bleu",
    "Hypothesis": "corpus",
    "KcdConfig": "descent",
    "KcdTrace": "descent",
    "PackedCorpus": "envelope",
    "Rotation": "descent",
    "RssRecord": "rotation",
    "RssResult": "rotation",
    "SentenceEntry": "corpus",
    "StepRecord": "descent",
    "TuningCorpus": "corpus",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # An export loads its submodule on first use, so a process imports only
    # the modules it runs: ``rotamert score`` never compiles the tuning core.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
