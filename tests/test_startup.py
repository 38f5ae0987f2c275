"""Process start-up and package surface: one OpenBLAS thread, only the
modules each command runs, no BLAS calls, no raise of a builtin
exception, no ``TypeError`` caught around a sequence read outside
``rotamert.errors``, an ``__all__`` that is exactly the documented names and
loads each submodule on first use, and README examples that run.

``rotamert/__init__.py`` loads numpy with a single OpenBLAS thread unless
the caller set a thread count, because the package never calls BLAS.
The thread and module checks run in fresh interpreters, since this one
has imported numpy and rotamert already.
"""

import ast
import builtins
import importlib
import os
import pkgutil
import subprocess
import sys
import warnings
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


# What each start-up loads of rotamert: a command only the modules it runs.
# No run loads a pool module (rss starts its pool only for --jobs above 1
# and a long grid) or the synthetic generator, which only synth uses.
BASE_MODULES = ("rotamert", "rotamert.bleu", "rotamert.cli", "rotamert.errors")
TUNING_MODULES = ("rotamert.corpus", "rotamert.descent", "rotamert.envelope")
POOL_MODULES = ("concurrent.futures", "multiprocessing")
STARTUPS = {
    "import": (None, BASE_MODULES),
    "score": (["score", "{hyp}", "{ref}"], BASE_MODULES),
    "mert": (["mert", "--nbest", "{nbest}", "--refs", "{ref}", "--out", "{out}"], BASE_MODULES + TUNING_MODULES),
    "rss": (
        ["rss", "--rotate", "0:1", "--nbest", "{nbest}", "--refs", "{ref}",
         "--open-nbest", "{nbest}", "--open-refs", "{ref}", "--out", "{out}"],
        BASE_MODULES + TUNING_MODULES + ("rotamert.rotation",),
    ),
    "synth": (
        ["synth", "--sentences", "2", "--hyps", "2", "--features", "2", "--out", "{out}"],
        BASE_MODULES + ("rotamert.corpus", "rotamert.synthetic"),
    ),
}


@pytest.mark.parametrize("name", STARTUPS)
def test_each_command_loads_only_the_modules_it_runs(name, tmp_path):
    argv, expected = STARTUPS[name]
    files = {"hyp": "a b c\n", "ref": "a b c\n", "nbest": "0 ||| a b c ||| 1 0.5 ||| 1.5\n0 ||| a c ||| 0.5 1 ||| 1.5\n"}
    paths = {key: tmp_path / key for key in files}
    for key, text in files.items():
        paths[key].write_text(text)
    paths["out"] = tmp_path / "out"
    argv = None if argv is None else [arg.format_map(paths) for arg in argv]
    code = (
        "import sys\n"
        "from contextlib import redirect_stdout\n"
        "from io import StringIO\n"
        "from rotamert.cli import main\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    with redirect_stdout(StringIO()):\n"
        "        assert main(argv) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'rotamert')\n"
        f"print(loaded, [m for m in {POOL_MODULES!r} if m in sys.modules])\n"
    )
    assert run_fresh(code) == f"{sorted(expected)} []\n"


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


BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, BaseException)
}


def _own_nodes(function):
    """The nodes of ``function``'s body outside any function or class defined in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def builtin_raises(source):
    """Line numbers and names of every ``raise`` of a builtin exception class in ``source``.

    The one exemption is the protocol of a module-level ``__getattr__``
    (PEP 562): an ``AttributeError`` raised directly in its body.
    """
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Attribute) and ast.unparse(exc.value) == "builtins":
                exc = ast.Name(exc.attr)
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                found.append((node, exc.id))
    protocol = {
        node
        for function in tree.body
        if isinstance(function, ast.FunctionDef) and function.name == "__getattr__"
        for node in _own_nodes(function)
    }
    return [(node.lineno, name) for node, name in found if not (node in protocol and name == "AttributeError")]


def test_builtin_raise_check_finds_each_kind_of_raise():
    source = (
        "raise TypeError\n"
        "raise ValueError('x') from None\n"
        "raise builtins.KeyError(1)\n"
        "raise ConfigError('x')\n"
        "raise error(f'{what} must be a real number')\n"
        "raise\n"
        "raise Exception\n"
    )
    assert builtin_raises(source) == [(1, "TypeError"), (2, "ValueError"), (3, "KeyError"), (7, "Exception")]
    # The AttributeError of a module-level __getattr__ is exempt; the same raise
    # anywhere else, and any other raise there, is found.
    source = (
        "def __getattr__(name):\n"
        "    if name == 'x':\n"
        "        raise AttributeError(name)\n"
        "    raise KeyError(name)\n"
        "def f(name):\n"
        "    raise AttributeError(name)\n"
        "class C:\n"
        "    def __getattr__(self, name):\n"
        "        raise AttributeError(name)\n"
        "def __getattr__(name):\n"
        "    def inner():\n"
        "        raise AttributeError(name)\n"
        "    raise builtins.AttributeError(name)\n"
    )
    assert sorted(builtin_raises(source)) == [
        (4, "KeyError"), (6, "AttributeError"), (9, "AttributeError"), (12, "AttributeError")
    ]


def type_error_handlers(source):
    """The enclosing function's name, or ``<module>``, of every ``except`` clause in
    ``source`` that catches ``TypeError``: by name, in a tuple, or through a base class."""
    catching = {"TypeError", "Exception", "BaseException"}
    tree = ast.parse(source)
    owner = {node: "<module>" for node in ast.walk(tree)}
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, function.name) for node in _own_nodes(function))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(k, ast.Name) and k.id in catching for k in kinds):
                found.append(owner[node])
    return sorted(found)


def test_type_error_handler_check_finds_each_kind_of_clause():
    source = (
        "try:\n    pass\nexcept TypeError:\n    pass\n"
        "def f():\n"
        "    try:\n        pass\n    except (ValueError, TypeError):\n        pass\n"
        "    try:\n        pass\n    except ValueError:\n        pass\n"
        "    def g():\n"
        "        try:\n            pass\n        except:\n            pass\n"
        "        try:\n            pass\n        except Exception:\n            pass\n"
    )
    assert type_error_handlers(source) == ["<module>", "f", "g", "g"]


def test_only_errors_turns_a_type_error_into_a_refusal():
    # Sequence arguments are read by errors.as_items alone. The clauses left
    # read no sequence: a C-speed string test, a feature tuple's sum and hash,
    # one item's parts, the bounded grid read and a flag value's conversion.
    found = {
        path.stem: type_error_handlers(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "rotamert").glob("*.py"))
        if path.stem != "errors"
    }
    assert {name: sites for name, sites in found.items() if sites} == {
        "cli": ["_convert"],
        "corpus": ["_all_strings", "build_corpus", "build_corpus"],
        "envelope": ["_pairs"],
        "rotation": ["_grid", "_grid"],
    }


def test_wrong_types_raise_only_rotamert_errors():
    # Every function of __all__, line_search, kcd_lockstep, LineSearchResult.at
    # and PackedCorpus.plan, each argument in turn replaced by a wrong-type value.
    import inspect

    import rotamert
    from rotamert.corpus import Hypothesis
    from rotamert.descent import CoordinateSystem, kcd_lockstep
    from rotamert.envelope import LineSearchResult, PackedCorpus, line_search
    from rotamert.errors import RotamertError

    nbest, refs = {0: [Hypothesis(0, 0, ("a", "b"), (1.0, 0.5))]}, {0: [("a", "b")]}
    corpus = rotamert.build_corpus(nbest, refs)
    packed = PackedCorpus.of(corpus)
    start, plan = LineSearchResult.at(packed, (1.0, 1.0)), packed.plan([(0, 1.0)])
    table = {
        rotamert.parse_nbest: dict(lines=["0 ||| a b ||| 1 0.5 ||| 1.5"]),
        rotamert.parse_references: dict(streams=[["a b"]]),
        rotamert.build_corpus: dict(nbest=nbest, refs=refs),
        rotamert.kcd_optimize: dict(corpus=packed),
        rotamert.rss_optimize: dict(
            closed_corpus=packed, open_corpus=packed, rotation_spec=((0, 1),), grid=[0.0]
        ),
        line_search: dict(packed=packed, starts=[start], plans=[plan]),
        kcd_lockstep: dict(corpus=packed, systems=[CoordinateSystem(2)]),
        LineSearchResult.at: dict(packed=packed, w=(1.0, 1.0)),
        packed.plan: dict(d=[(0, 1.0)]),
        PackedCorpus.of: dict(corpus=corpus),
    }
    functions = {name for name in rotamert.__all__ if inspect.isfunction(getattr(rotamert, name))}
    assert functions <= {function.__name__ for function in table}
    bad_values = {"5": 5, "None": None, "'x'": "x", "[5]": [5], "TuningCorpus": corpus, "PackedCorpus": packed}
    # What each argument may be: a pack where one is due, the labels that
    # only name a source in messages, a one-value grid and five jobs.
    accepted = {
        ("kcd_optimize", "corpus", "PackedCorpus"),
        ("kcd_lockstep", "corpus", "PackedCorpus"),
        ("rss_optimize", "closed_corpus", "PackedCorpus"),
        ("rss_optimize", "open_corpus", "PackedCorpus"),
        ("line_search", "packed", "PackedCorpus"),
        ("at", "packed", "PackedCorpus"),
        ("of", "corpus", "TuningCorpus"),
        ("rss_optimize", "grid", "[5]"),
        ("rss_optimize", "jobs", "5"),
    }
    # Each sequence argument, by the name errors.as_items gives it in a refusal.
    sequences = {
        ("parse_nbest", "lines"): "lines",
        ("parse_references", "streams"): "streams",
        ("build_corpus", "feature_names"): "feature_names",
        ("line_search", "starts"): "starts",
        ("line_search", "plans"): "plans",
        ("kcd_lockstep", "systems"): "systems",
        ("plan", "d"): "a direction",
        ("rss_optimize", "rotation_spec"): "rotation spec",
        ("kcd_optimize", "init_w"): "initial weights",
        ("kcd_lockstep", "init_w"): "initial weights",
        ("rss_optimize", "init_w"): "initial weights",
        ("at", "w"): "vector entries",
    }
    escaped, refusals = [], {}
    for function, good in table.items():
        for parameter in inspect.signature(function).parameters.values():
            if parameter.name in ("source", "sources"):
                continue
            for label, bad in bad_values.items():
                if (function.__name__, parameter.name, label) in accepted:
                    continue
                if bad is None and parameter.default is None:
                    continue
                try:
                    function(**{**good, parameter.name: bad})
                except RotamertError as exc:
                    if (function.__name__, parameter.name) in sequences and label in ("5", "'x'"):
                        refusals[function.__name__, parameter.name, label] = str(exc)
                    continue
                except Exception as exc:  # noqa: BLE001 - any other class is the failure
                    escaped.append((function.__name__, parameter.name, label, type(exc).__name__))
                else:
                    escaped.append((function.__name__, parameter.name, label, "accepted"))
    assert escaped == []
    assert refusals == {
        (name, parameter, label): f"{what} must be an iterable that is not a string, got {kind}"
        for (name, parameter), what in sequences.items()
        for label, kind in (("5", "int"), ("'x'", "str"))
    }


def test_package_raises_only_its_own_errors():
    # Every refusal is a RotamertError: the CLI maps each family to an exit code.
    found = {
        path.name: builtin_raises(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "rotamert").glob("*.py"))
    }
    assert {name: raises for name, raises in found.items() if raises} == {}


# The package's modules, each importing only modules before it.
MODULE_ORDER = ("errors", "bleu", "corpus", "envelope", "descent", "rotation", "synthetic", "cli")


def package_imports(source):
    """Line numbers and module names of every import from this package in
    ``source``: at top level, inside functions and under ``TYPE_CHECKING``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            root, _, module = (node.module or "").partition(".")
            if node.level:
                module = node.module
            elif root != "rotamert":
                continue
            found += [(node.lineno, module)] if module else [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                root, _, module = alias.name.partition(".")
                if root == "rotamert":
                    found.append((node.lineno, module.split(".")[0] or root))
    return sorted(found)


def test_each_module_imports_only_earlier_ones():
    source = (
        "from .corpus import TuningCorpus\n"
        "from . import bleu, errors\n"
        "import rotamert.envelope\n"
        "from rotamert.descent import kcd_optimize\n"
        "def f():\n"
        "    from .rotation import CoordinateSystem\n"
        "if TYPE_CHECKING:\n"
        "    from rotamert import cli\n"
        "import rotamert\n"
        "import numpy\n"
        "from numpy import rotamert\n"
    )
    assert package_imports(source) == [
        (1, "corpus"), (2, "bleu"), (2, "errors"), (3, "envelope"), (4, "descent"),
        (6, "rotation"), (8, "cli"), (9, "rotamert"),
    ]
    modules = sorted(path.stem for path in (SRC / "rotamert").glob("*.py"))
    assert sorted(MODULE_ORDER) == [name for name in modules if name != "__init__"]
    late = {}
    for index, name in enumerate(MODULE_ORDER):
        found = package_imports((SRC / "rotamert" / f"{name}.py").read_text(encoding="utf-8"))
        late[name] = [(line, module) for line, module in found if module not in MODULE_ORDER[:index]]
    assert {name: found for name, found in late.items() if found} == {}


def test_tuning_core_imports_corpus_for_type_hints_only():
    # The descent and the alpha grid run on packs, and PackedCorpus.of is
    # the one place a TuningCorpus becomes one: neither module imports
    # rotamert.corpus at all, not even for type hints.
    for name in ("descent", "rotation"):
        found = package_imports((SRC / "rotamert" / f"{name}.py").read_text(encoding="utf-8"))
        assert [(line, module) for line, module in found if module == "corpus"] == [], name


# The functions the README promises, then the types they take and return.
DOCUMENTED_EXPORTS = (
    "parse_nbest",
    "parse_references",
    "build_corpus",
    "kcd_optimize",
    "rss_optimize",
    "Hypothesis",
    "SentenceEntry",
    "TuningCorpus",
    "PackedCorpus",
    "KcdConfig",
    "KcdTrace",
    "StepRecord",
    "ErrorValue",
    "CoordinateSystem",
    "Rotation",
    "AlphaGrid",
    "RssResult",
    "RssRecord",
)

# Names the package once exported, or kept only for tests, that no longer
# exist in any module: the statistics objects replaced by int64 rows, the
# line-search adapters and corpus maps that only tests called, the
# builders of direction sets that a coordinate system of rotations
# replaced, the adversarial fixture's loaders (now in tests/instances.py)
# and the interval helpers that line_search no longer calls.
REMOVED_EXPORTS = (
    "corpus_dim",
    "_distance_to_zero",
    "_interval_bounds",
    "_intervals",
    "adversarial_certificate",
    "adversarial_instance",
    "apply_rotation",
    "identity_system",
    "BleuStats",
    "aggregate",
    "corpus_bleu",
    "hypothesis_stats",
    "select_hypotheses",
    "selection_error",
    "sentence_bleu_stats",
    "IntervalSweep",
    "ScoreLine",
    "SentenceEnvelope",
    "dot",
    "nbest_map",
    "project_lines",
    "reference_map",
    "sweep_intervals",
    "upper_envelope",
)

# Names the package once exported that stay importable from their submodule.
SUBMODULE_ONLY = (
    ("corpus", "format_nbest"),
    ("corpus", "format_references"),
    ("descent", "uniform_weights"),
    ("envelope", "LineSearchResult"),
    ("envelope", "line_search"),
    ("rotation", "report_tsv"),
    ("synthetic", "SynthSpec"),
    ("synthetic", "generate"),
)


def test_every_export_exists_and_no_removed_name_returns():
    import rotamert

    assert [name for name in rotamert.__all__ if not hasattr(rotamert, name)] == []
    # The list is exactly the documented one, so it cannot grow back silently.
    assert sorted(rotamert.__all__) == sorted(DOCUMENTED_EXPORTS)
    for info in pkgutil.iter_modules([str(SRC / "rotamert")]):
        module = importlib.import_module(f"rotamert.{info.name}")
        assert [name for name in REMOVED_EXPORTS if hasattr(module, name)] == [], info.name
    assert [name for name in REMOVED_EXPORTS if hasattr(rotamert, name)] == []
    for module, name in SUBMODULE_ONLY:
        assert hasattr(importlib.import_module(f"rotamert.{module}"), name), (module, name)
        assert not hasattr(rotamert, name), name


def test_lazy_exports_keep_the_api():
    # Each export loads its submodule on first use: a bare import loads none
    # of them, yet dir() lists every export and a star import binds each to
    # the object its submodule holds.
    code = (
        "import importlib, sys\n"
        "import rotamert\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'rotamert'))\n"
        "print(sorted(set(rotamert.__all__) - set(dir(rotamert))), hasattr(rotamert, 'nope'))\n"
        "names = {}\n"
        "exec('from rotamert import *', names)\n"
        "print(sorted(names.keys() - {'__builtins__'}) == sorted(rotamert.__all__))\n"
        "home = {name: importlib.import_module(value.__module__) for name, value in names.items() if name in rotamert.__all__}\n"
        "print(sorted(name for name, module in home.items() if getattr(module, name) is not names[name] or module is rotamert))\n"
        f"print([name for _, name in {SUBMODULE_ONLY!r} if hasattr(rotamert, name)])\n"
    )
    assert run_fresh(code) == "['rotamert']\n[] False\nTrue\n[]\n[]\n"


def test_the_package_ships_only_python_modules():
    # Fixtures are test data under tests/data: no run of the package reads them.
    package = SRC / "rotamert"
    files = [path for path in package.rglob("*") if path.is_file() and "__pycache__" not in path.parts]
    assert [str(path.relative_to(package)) for path in files if path.suffix != ".py"] == []
    assert "package-data" not in (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")


def test_readme_python_api_example_runs(tmp_path, monkeypatch, capsys):
    from rotamert.cli import main
    from rotamert.rotation import AlphaGrid

    monkeypatch.chdir(tmp_path)
    synth = ["synth", "--sentences", "10", "--hyps", "5", "--features", "3", "--out", "data"]
    assert main(synth) == 0
    capsys.readouterr()
    # The code block under the README's "## Python API" heading, verbatim.
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)  # the example leaves files to the GC
        exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    alpha, bleu = capsys.readouterr().out.split()
    assert float(alpha) in AlphaGrid().points()
    assert 0.0 <= float(bleu) <= 1.0


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    from rotamert.cli import main

    monkeypatch.chdir(tmp_path)
    # The first code block under the README's "## Quick start" heading, and
    # the paragraph after it, which names the files each command writes.
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    _, block, rest = section.split("```", 2)
    paragraph = rest.strip().split("\n\n", 1)[0]
    commands = [line.split() for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert [argv[:2] for argv in commands] == [
        ["rotamert", "synth"], ["rotamert", "mert"], ["rotamert", "rss"]
    ]
    writes = {"mert": ("weights.txt", "trace.tsv"), "rss": ("report.tsv", "weights.txt")}
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = Path(argv[argv.index("--out") + 1])
        for name in writes.get(argv[1], ()):
            assert f"`{name}`" in paragraph
            assert (out / name).is_file(), out / name
    capsys.readouterr()
