"""Process start-up and package surface: one OpenBLAS thread, no pool
modules, no BLAS calls, and an ``__all__`` that names only what exists.

``rotamert/__init__.py`` loads numpy with a single OpenBLAS thread unless
the caller set a thread count, because the package never calls BLAS.
The thread and module checks run in fresh interpreters, since this one
has imported numpy and rotamert already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}

linux_multicore = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc/self/task and needs two usable CPUs",
)


def run_fresh(code, **env_vars):
    """Run ``code`` in a new interpreter with none of the BLAS thread variables
    except ``env_vars``; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env.update(env_vars, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


THREADS_AFTER_IMPORT = (
    "import os\n"
    "before = dict(os.environ)\n"
    "import rotamert\n"
    "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)\n"
)


@linux_multicore
def test_import_leaves_one_thread_and_the_environment_unchanged():
    assert run_fresh(THREADS_AFTER_IMPORT) == "1 True\n"


@linux_multicore
@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_the_caller_set_wins(name):
    assert run_fresh(THREADS_AFTER_IMPORT, **{name: "2"}) == "2 True\n"


def test_cli_import_loads_no_pool_modules():
    code = (
        "import sys\n"
        "import rotamert.cli\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    assert run_fresh(code) == "[]\n"


def blas_uses(source):
    """Line numbers and names of every BLAS-backed numpy use in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "linalg"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if "linalg" in a.name]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
            if any("linalg" in name for name in names):
                found.append((node.lineno, "linalg"))
    return sorted(found)


def test_blas_check_finds_each_kind_of_use():
    source = (
        "a @ b\n"
        "a @= b\n"
        "np.dot(a, b)\n"
        "a.dot(b)\n"
        "np.einsum('i,i', a, b)\n"
        "np.linalg.norm(a)\n"
        "import numpy.linalg\n"
        "from numpy import linalg\n"
        "from numpy.linalg import norm\n"
        "np.sum(a * b)\n"
    )
    assert [line for line, _ in blas_uses(source)] == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_package_makes_no_blas_call():
    # The one-thread cap is free only while nothing in the package uses BLAS.
    uses = {
        path.name: blas_uses(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "rotamert").glob("*.py"))
    }
    assert {name: found for name, found in uses.items() if found} == {}


# Names the package exported before statistics became int64 rows only.
REMOVED_EXPORTS = (
    "BleuStats",
    "aggregate",
    "corpus_bleu",
    "hypothesis_stats",
    "select_hypotheses",
    "selection_error",
    "sentence_bleu_stats",
)


def test_every_export_exists_and_no_removed_name_returns():
    import rotamert

    missing = [name for name in rotamert.__all__ if not hasattr(rotamert, name)]
    assert missing == []
    assert [name for name in REMOVED_EXPORTS if hasattr(rotamert, name)] == []
    assert not set(REMOVED_EXPORTS) & set(rotamert.__all__)
    # The names the README promises.
    for name in ("parse_nbest", "parse_references", "build_corpus", "kcd_optimize",
                 "rss_optimize", "remap_sparse_ids"):
        assert name in rotamert.__all__
