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
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bleu import row_bleu, stats_blocks
from .corpus import TuningCorpus, build_corpus, format_nbest, format_references, parse_nbest, parse_references
from .descent import DEFAULT_EPSILON, DEFAULT_MAX_ITER, KcdConfig, kcd_optimize
from .envelope import PackedCorpus
from .errors import ConfigError, InputError, LengthMismatch
from .rotation import AlphaGrid, format_alpha, report_tsv, rss_optimize, summary_rows
from .synthetic import SynthSpec, generate


@dataclass
class RunConfig:
    """Resolved settings for the tuning subcommands."""

    nbest: str | None = None
    refs: tuple[str, ...] = ()
    open_nbest: str | None = None
    open_refs: tuple[str, ...] = ()
    init_weights: tuple[float, ...] | None = None
    epsilon: float = DEFAULT_EPSILON
    max_iter: int = DEFAULT_MAX_ITER
    sweep_mode: str = "sequential"
    rotations: tuple[tuple, ...] = ()
    grid_start: float = -1.0
    grid_end: float = 1.0
    grid_step: float = 0.1
    out: str = "."
    jobs: int = 1
    seed: int = 0


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, NUL in the path
        raise InputError(f"cannot read {path}: {exc}") from None


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
    for chunk in text.replace(";", ",").split(","):
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


_CONVERTERS = {
    "nbest": str,
    "refs": _parse_path_list,
    "open_nbest": str,
    "open_refs": _parse_path_list,
    "init_weights": _parse_weights,
    "epsilon": float,
    "max_iter": int,
    "sweep_mode": str,
    "rotations": _parse_rotations,
    "grid_start": float,
    "grid_end": float,
    "grid_step": float,
    "out": str,
    "jobs": int,
    "seed": int,
}


def load_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; ``#`` comments, blank lines ignored."""
    try:
        body = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        entries[key] = value.strip()
    return entries


# Flags argparse leaves as raw strings that still need structure.
_CLI_STRING_KEYS = {"refs", "open_refs", "init_weights", "rotations"}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, raw in load_config(args.config).items():
            try:
                cfg = replace(cfg, **{key: _CONVERTERS[key](raw)})
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"config setting {key} = {raw!r}: {exc}") from None
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key in _CLI_STRING_KEYS:
            value = _CONVERTERS[key](value)
        cfg = replace(cfg, **{key: value})
    cpus = os.cpu_count() or 1
    if not 1 <= cfg.jobs <= cpus:
        raise ConfigError(f"jobs must be between 1 and {cpus} (the CPU count), got {cfg.jobs}")
    return cfg


def _load_corpus(nbest_path: str | None, ref_paths: tuple[str, ...], label: str) -> TuningCorpus:
    if not nbest_path:
        raise ConfigError(f"no {label} N-best file configured")
    if not ref_paths:
        raise ConfigError(f"no {label} reference files configured")
    by_id, names = parse_nbest(_read_text(nbest_path).splitlines(), source=nbest_path)
    refs = parse_references(
        [_read_text(p).splitlines() for p in ref_paths], sources=list(ref_paths)
    )
    return build_corpus(by_id, refs, names)


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path
        raise ConfigError(f"cannot write {path}: {exc}") from None


def cmd_score(args: argparse.Namespace) -> int:
    hyp_lines = _read_text(args.hyp).splitlines()
    refs = parse_references(
        [_read_text(p).splitlines() for p in args.refs], sources=list(args.refs)
    )
    if len(hyp_lines) != len(refs):
        raise LengthMismatch(
            f"{args.hyp} has {len(hyp_lines)} lines, references have {len(refs)}"
        )
    total = np.zeros(10, dtype=np.int64)
    for rows in stats_blocks(((line.split(),), refs[i]) for i, line in enumerate(hyp_lines)):
        total += rows.sum(axis=0)
    print(f"{row_bleu(total.tolist()).bleu * 100.0:.2f}")
    return 0


def cmd_mert(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    corpus = _load_corpus(cfg.nbest, cfg.refs, "closed")
    kcd_cfg = KcdConfig(cfg.epsilon, cfg.max_iter, cfg.sweep_mode)
    packed = PackedCorpus.scored(corpus)
    weights, trace = kcd_optimize(packed, cfg.init_weights, None, kcd_cfg, jobs=cfg.jobs)
    out = Path(cfg.out)
    _write(out / "weights.txt", "".join(f"{w!r}\n" for w in weights))
    _write(out / "trace.tsv", trace.to_tsv())
    final = packed.argmax_error(packed.project(weights))
    print(f"{final.bleu * 100.0:.2f}")
    return 0


def cmd_rss(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if not cfg.rotations:
        raise ConfigError("rss needs at least one rotation (e.g. --rotate 0:1)")
    closed = _load_corpus(cfg.nbest, cfg.refs, "closed")
    opened = _load_corpus(cfg.open_nbest, cfg.open_refs, "open")
    kcd_cfg = KcdConfig(cfg.epsilon, cfg.max_iter, cfg.sweep_mode)
    grid = AlphaGrid(cfg.grid_start, cfg.grid_end, cfg.grid_step)
    result = rss_optimize(
        closed, opened, cfg.init_weights, cfg.rotations, grid, kcd_cfg, jobs=cfg.jobs
    )
    out = Path(cfg.out)
    _write(out / "report.tsv", report_tsv(result, closed.feature_names))
    _write(
        out / "weights.txt", "".join(f"{w!r}\n" for w in result.selected.weights)
    )
    print(f"selected alpha: {format_alpha(result.selected_alpha)}")
    print(summary_rows(result), end="")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
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
    header = {
        "sentences": spec.sentences,
        "hypotheses": spec.hypotheses,
        "features": spec.features,
        "correlated_pairs": [list(p) for p in spec.correlated_pairs],
        "vocab_size": spec.vocab_size,
        "ref_count": spec.ref_count,
        "seed": spec.seed,
    }
    _write(out / "synth.json", json.dumps(header, indent=2, sort_keys=True) + "\n")
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

    def add_tuning_flags(p: argparse.ArgumentParser, with_open: bool) -> None:
        p.add_argument("--config", help="flat key = value settings file")
        p.add_argument("--nbest", help="closed (tuning) N-best file")
        p.add_argument("--refs", help="comma-separated closed reference files")
        if with_open:
            p.add_argument("--open-nbest", dest="open_nbest", help="held-out N-best file")
            p.add_argument(
                "--open-refs", dest="open_refs", help="comma-separated held-out reference files"
            )
        p.add_argument(
            "--init-weights",
            dest="init_weights",
            help="starting weights: inline numbers or a file, one per line",
        )
        p.add_argument("--epsilon", type=float, help="stop once the error delta is this small")
        p.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap")
        p.add_argument(
            "--sweep-mode",
            dest="sweep_mode",
            choices=["sequential", "best-direction"],
            help="order in which directions are searched",
        )
        p.add_argument("--out", help="output directory")
        p.add_argument("--jobs", type=int, help="parallel workers (1 = serial)")

    p_mert = sub.add_parser("mert", help="tune weights on an N-best list")
    add_tuning_flags(p_mert, with_open=False)
    p_mert.set_defaults(func=cmd_mert)

    p_rss = sub.add_parser("rss", help="grid-search a rotated first axis")
    add_tuning_flags(p_rss, with_open=True)
    p_rss.add_argument(
        "--rotate",
        dest="rotations",
        help="rotations, e.g. '0:1' (gridded) or '0:1,1:2=0.1'",
    )
    p_rss.add_argument("--grid-start", dest="grid_start", type=float, help="first alpha")
    p_rss.add_argument("--grid-end", dest="grid_end", type=float, help="last alpha")
    p_rss.add_argument("--grid-step", dest="grid_step", type=float, help="alpha spacing")
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
