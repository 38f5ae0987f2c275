"""Command line front end.

Subcommands: ``score`` (corpus BLEU of a plain translation file),
``mert`` (coordinate-descent tuning on an N-best list), ``rss`` (the
rotation grid search), and ``synth`` (synthetic corpus generation).
``mert`` and ``rss`` read settings from a flat ``key = value`` config
file (``#`` starts a comment); any flag given on the command line wins
over the file.  Exit codes: 0 success, 2 bad input data, 3 bad
configuration.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from dataclasses import Field, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bleu import Vocabulary, format_bleu, reference_columns, row_bleu, stats_blocks
from .errors import ConfigError, InputError, LengthMismatch

# What the commands use of the modules that only some of them run, bound
# here by _bind when a command starts, so that each command loads only
# what it runs: score loads none of them.
_LATE_NAMES = {
    "corpus": ("format_nbest", "format_references", "read_nbest"),
    "envelope": ("PackedCorpus",),
    "descent": ("KcdConfig", "kcd_optimize"),
    "rotation": ("AlphaGrid", "format_alpha", "grid_systems", "report_tsv", "rss_optimize", "summary_rows"),
}


def _bind(*modules: str) -> None:
    """Import ``modules`` and bind here the names of :data:`_LATE_NAMES` they hold.

    A name already bound keeps its value, so a wrapper or a stand-in set
    on this module wins over the function it replaces.
    """
    for module in modules:
        source = importlib.import_module(f".{module}", __package__)
        for name in _LATE_NAMES[module]:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    # Reading one of the names from outside, as a wrapper does, binds its module's names.
    for module, names in _LATE_NAMES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, NUL in the path
        raise InputError(f"cannot read {path}: {exc}") from None


def _lines(text: str) -> list[str]:
    """``text``'s lines as a text-mode file iterates them: ``read_text`` made every line end
    ``\\n``, and ``str.splitlines`` would also split at form feeds, U+2028 and more."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the end of the last line, or an empty text
    return lines


def _parse_path_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_weights(text: str) -> tuple[float, ...]:
    """Inline comma/space-separated reals, or a path to a one-per-line file."""
    cleaned = text.replace(",", " ").split()
    try:
        return tuple(float(v) for v in cleaned)
    except ValueError:
        pass
    try:
        return tuple(float(v) for v in Path(text.strip()).read_text().split())
    except OSError:
        raise ConfigError(
            f"init weights {text!r} are neither numbers nor a readable file"
        ) from None
    except ValueError as exc:  # also UnicodeDecodeError
        raise ConfigError(f"weights file {text!r}: {exc}") from None


def _parse_rotations(text: str) -> tuple[tuple, ...]:
    """Items like ``0:1`` (gridded) or ``1:2=0.1`` (fixed), comma-separated."""
    items = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, alpha_text = chunk.partition("=")
        dims = head.split(":")
        if len(dims) != 2:
            raise ConfigError(f"rotation {chunk!r} is not of the form A:B[=alpha]")
        try:
            a, b = int(dims[0]), int(dims[1])
        except ValueError:
            raise ConfigError(f"rotation {chunk!r} has non-integer dimensions") from None
        if alpha_text:
            try:
                items.append((a, b, float(alpha_text)))
            except ValueError:
                raise ConfigError(f"rotation {chunk!r} has a non-numeric alpha") from None
        else:
            items.append((a, b))
    return tuple(items)


def _setting(default, convert, help: str, rss_only: bool = False, flag: str | None = None):
    """One tuning setting: its default, the converter of its text, and its flag.

    Config key ``x_y`` is flag ``--x-y`` unless ``flag`` names another.
    ``rss_only`` settings are ``rss`` flags; every key is valid in a
    config file, which ``mert`` and ``rss`` may share.
    """
    return field(
        default=default,
        metadata={"convert": convert, "help": help, "rss_only": rss_only, "flag": flag},
    )


@dataclass
class RunConfig:
    """Resolved settings for the tuning subcommands."""

    nbest: str | None = _setting(None, str, "closed (tuning) N-best file")
    refs: tuple[str, ...] = _setting(
        (), _parse_path_list, "comma-separated closed reference files"
    )
    open_nbest: str | None = _setting(None, str, "held-out N-best file", rss_only=True)
    open_refs: tuple[str, ...] = _setting(
        (), _parse_path_list, "comma-separated held-out reference files", rss_only=True
    )
    init_weights: tuple[float, ...] | None = _setting(
        None, _parse_weights, "starting weights: inline numbers or a file, one per line"
    )
    # The defaults of KcdConfig() and AlphaGrid() and the SWEEP_MODES, written
    # out so that reading flags loads no tuning module; a test pins them.
    epsilon: float = _setting(0.001, float, "stop once the error delta is this small")
    max_iter: int = _setting(25, int, "iteration cap")
    sweep_mode: str = _setting(
        "sequential", str, "order in which directions are searched: sequential, best-direction"
    )
    rotations: tuple[tuple, ...] = _setting(
        (),
        _parse_rotations,
        "rotations, e.g. '0:1' (gridded) or '0:1,1:2=0.1'",
        rss_only=True,
        flag="--rotate",
    )
    grid_start: float = _setting(-1.0, float, "first alpha", rss_only=True)
    grid_end: float = _setting(1.0, float, "last alpha", rss_only=True)
    grid_step: float = _setting(0.1, float, "alpha spacing", rss_only=True)
    out: str = _setting(".", str, "output directory")
    jobs: int = _setting(
        1,
        int,
        "most alpha-grid worker processes; they start only for a long enough grid (1 = serial)",
        rss_only=True,
    )


_SETTINGS = {spec.name: spec for spec in fields(RunConfig)}


def _flag(spec: Field) -> str:
    return spec.metadata["flag"] or "--" + spec.name.replace("_", "-")


def _convert(spec: Field, raw: str, label: str):
    try:
        return spec.metadata["convert"](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{label} {raw!r}: {exc}") from None


def load_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; ``#`` comments, blank lines ignored."""
    try:
        body = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, NUL in the path
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(_lines(body), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower().replace("-", "_")
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        entries[key] = value.strip()
    return entries


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overlaid by the config file, overlaid by explicit flags.

    Config values and flag values are text and go through the same
    converter; a value it rejects is a :class:`ConfigError`.
    """
    values = {}
    if args.config:
        for key, raw in load_config(args.config).items():
            values[key] = _convert(_SETTINGS[key], raw, f"config setting {key} =")
    for key, spec in _SETTINGS.items():
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = _convert(spec, raw, _flag(spec))
    return RunConfig(**values)


def _load_corpus(nbest_path: str | None, ref_paths: tuple[str, ...], label: str) -> PackedCorpus:
    """Read one split into id columns of one vocabulary, N-best file first, and pack them."""
    if not nbest_path:
        raise ConfigError(f"no {label} N-best file configured")
    if not ref_paths:
        raise ConfigError(f"no {label} reference files configured")
    vocabulary = Vocabulary()
    nbest = read_nbest(_lines(_read_text(nbest_path)), nbest_path, vocabulary)
    refs = reference_columns((_lines(_read_text(p)) for p in ref_paths), ref_paths, vocabulary)
    return PackedCorpus.pack(nbest, refs)


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_weights(out: Path, weights: tuple[float, ...]) -> None:
    """``weights.txt``: one weight per line, by ``repr`` so it reads back bit-exactly."""
    _write(out / "weights.txt", "".join(f"{w!r}\n" for w in weights))


def cmd_score(args: argparse.Namespace) -> int:
    # One file's text at a time becomes token ids; only the id columns are kept.
    vocabulary = Vocabulary()
    hyps = vocabulary.column(_lines(_read_text(args.hyp)), str.split)
    refs = reference_columns((_lines(_read_text(p)) for p in args.refs), args.refs, vocabulary)
    lines, sentences = len(hyps.lengths), len(refs[0].lengths)
    if lines != sentences:
        raise LengthMismatch(f"{args.hyp} has {lines} lines, references have {sentences}")
    total = np.zeros(10, dtype=np.int64)
    for rows in stats_blocks(hyps, np.ones(lines, dtype=np.int64), refs):
        total += rows.sum(axis=0)
    print(format_bleu(row_bleu(total.tolist()).bleu))
    return 0


def cmd_mert(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    _bind("corpus", "envelope", "descent")
    kcd_cfg = KcdConfig(cfg.epsilon, cfg.max_iter, cfg.sweep_mode)
    packed = _load_corpus(cfg.nbest, cfg.refs, "closed")
    weights, trace = kcd_optimize(packed, cfg.init_weights, None, kcd_cfg)
    out = Path(cfg.out)
    _write_weights(out, weights)
    _write(out / "trace.tsv", trace.to_tsv())
    print(format_bleu(trace.final_error.bleu))
    return 0


def cmd_rss(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    _bind("corpus", "envelope", "descent", "rotation")
    if not cfg.rotations:
        raise ConfigError("rss needs at least one rotation (e.g. --rotate 0:1)")
    cpus = os.cpu_count() or 1
    if not 1 <= cfg.jobs <= cpus:
        raise ConfigError(f"jobs must be between 1 and {cpus} (the CPU count), got {cfg.jobs}")
    kcd_cfg = KcdConfig(cfg.epsilon, cfg.max_iter, cfg.sweep_mode)
    grid = AlphaGrid(cfg.grid_start, cfg.grid_end, cfg.grid_step)
    # Every rotation and alpha is checked before a file is read, against the
    # largest dimension the spec names, so only their range waits for the data.
    largest = max(d for item in cfg.rotations for d in item[:2])
    grid_systems(1 + max(0, largest), cfg.rotations, grid)
    closed = _load_corpus(cfg.nbest, cfg.refs, "closed")
    opened = _load_corpus(cfg.open_nbest, cfg.open_refs, "open")
    result = rss_optimize(
        closed, opened, cfg.init_weights, cfg.rotations, grid, kcd_cfg, jobs=cfg.jobs
    )
    out = Path(cfg.out)
    _write(out / "report.tsv", report_tsv(result, closed.feature_names))
    _write_weights(out, result.selected.weights)
    print(f"selected alpha: {format_alpha(result.selected_alpha)}")
    print(summary_rows(result), end="")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    # Only synth needs these; the other commands start without loading them.
    import json

    from .synthetic import SynthSpec, generate

    _bind("corpus")

    pairs = []
    for chunk in args.pair or []:
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"pair {chunk!r} is not of the form i:j:rho")
        try:
            pairs.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ConfigError(f"pair {chunk!r} has non-numeric parts") from None
    spec = SynthSpec(
        sentences=args.sentences,
        hypotheses=args.hyps,
        features=args.features,
        correlated_pairs=tuple(pairs),
        vocab_size=args.vocab_size,
        ref_count=args.ref_count,
        seed=args.seed,
    )
    closed, opened = generate(spec)
    out = Path(args.out)
    for name, corpus in (("closed", closed), ("open", opened)):
        _write(out / f"{name}.nbest", format_nbest(corpus))
        for j, stream in enumerate(format_references(corpus)):
            _write(out / f"{name}.ref{j}", stream)
    header = json.dumps(asdict(spec), indent=2, sort_keys=True)
    _write(out / "synth.json", header + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotamert",
        description="N-best weight tuning by exact line search, "
        "with optional rotated search axes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="corpus BLEU of a translation file")
    p_score.add_argument("hyp", help="translations, one tokenized sentence per line")
    p_score.add_argument("refs", nargs="+", help="parallel reference files")
    p_score.set_defaults(func=cmd_score)

    def add_tuning_flags(p: argparse.ArgumentParser, rss: bool) -> None:
        p.add_argument("--config", help="flat key = value settings file")
        for spec in _SETTINGS.values():
            if rss or not spec.metadata["rss_only"]:
                p.add_argument(_flag(spec), dest=spec.name, help=spec.metadata["help"])

    p_mert = sub.add_parser("mert", help="tune weights on an N-best list")
    add_tuning_flags(p_mert, rss=False)
    p_mert.set_defaults(func=cmd_mert)

    p_rss = sub.add_parser("rss", help="grid-search a rotated first axis")
    add_tuning_flags(p_rss, rss=True)
    p_rss.set_defaults(func=cmd_rss)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus pair")
    p_synth.add_argument("--sentences", type=int, required=True)
    p_synth.add_argument("--hyps", type=int, required=True, help="hypotheses per sentence")
    p_synth.add_argument("--features", type=int, required=True)
    p_synth.add_argument(
        "--pair",
        action="append",
        help="correlated feature pair i:j:rho (repeatable)",
    )
    p_synth.add_argument("--vocab-size", dest="vocab_size", type=int, default=50)
    p_synth.add_argument("--ref-count", dest="ref_count", type=int, default=4)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", default=".", help="output directory")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3


if __name__ == "__main__":
    sys.exit(main())
