"""Batch command-line front end.

Exit codes: 0 success, 1 verification failure, 2 validation error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .dataset import load_paper_study, renumber_selected, sequential_renumber_map
from .delphi import ThresholdStrategy, get_scale, screen
from .errors import DatasetError, ValidationError, _located
from .fahp import run_fahp
from .io import _known_keys, load_json, read_matrix, read_ratings, write_matrix, write_ratings
from .report import Report, _json, file_digest
from .tfn import ValidationMode
from .verify import checks_passed, format_text, run_study_checks, to_json_dict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emit", choices=["json", "csv", "md"], default=None,
                   help="report format (default: json; for pipeline, the config's emit)")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing in the report "
                        "(off by default so identical inputs give identical bytes)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdahp",
        description="Fuzzy Delphi screening and geometric-mean fuzzy AHP ranking.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--log-level", choices=["error", "warn", "info"], default="warn")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("screen", help="screen barriers from an expert rating panel")
    p.add_argument("--ratings", required=True, metavar="PATH")
    p.add_argument("--format", choices=["csv", "json"], default=None,
                   help="input format (default: by file extension)")
    p.add_argument("--scale", help="integer-rating scale (default: the file's, else delphi-10)")
    p.add_argument("--threshold", default="mean", metavar="mean|fixed:V")
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    _add_output_args(p)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("rank", help="rank criteria from a fuzzy pairwise matrix")
    p.add_argument("--matrix", required=True, metavar="PATH")
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument("--mode", choices=["strict", "lenient"], default=None,
                   help="validation mode (default: strict; a JSON file's own "
                        "mode applies unless overridden)")
    _add_output_args(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("pipeline", help="screen, renumber, and rank in one run")
    p.add_argument("--config", required=True, metavar="PATH", help="JSON pipeline config")
    _add_output_args(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("paper-verify",
                       help="reproduce the bundled study and compare against its printed values")
    p.add_argument("--emit", choices=["text", "json"], default="text")
    p.add_argument("--output", metavar="PATH", default=None)
    p.set_defaults(func=cmd_paper_verify)

    p = sub.add_parser("export", help="write the bundled study's input tables to files")
    p.add_argument("--dest", required=True, metavar="DIR")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_export)

    return parser


def _info(args: argparse.Namespace, msg: str) -> None:
    """Progress line on stderr, shown only under `--log-level info`."""
    if args.log_level == "info":
        print(f"INFO {msg}", file=sys.stderr)


def _write_out(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_report(
    args: argparse.Namespace, t0: float, inputs: dict, emit: str = "json",
    output: str | None = None, **results,
) -> int:
    """Digest every input file ({name: path}), build the report from `results`
    and write it; `--emit` and `--output` win over `emit` and `output`. A path's
    bytes that are not UTF-8 are shown as backslash escapes, such as `\\xff`."""
    report = Report.build(
        inputs={name: {"path": str(path).encode("utf-8", "surrogateescape")
                       .decode("utf-8", "backslashreplace"), "sha256": file_digest(path)}
                for name, path in inputs.items()},
        timing_ms=(time.perf_counter() - t0) * 1000 if args.timing else None,
        **results,
    )
    _write_out(report.emit(args.emit or emit), args.output or output)
    return EXIT_OK


def cmd_screen(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    scale = get_scale(args.scale) if args.scale is not None else None
    panel = read_ratings(args.ratings, args.format, scale, args.mode)
    result = _located(args.ratings, screen, panel, ThresholdStrategy.parse(args.threshold))
    _info(args, f"screened {len(result.rows)} barriers: {len(result.selected_ids)} selected")
    return _emit_report(args, t0, {"ratings": args.ratings}, screening=result)


def cmd_rank(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    matrix = read_matrix(args.matrix, args.format, args.mode)
    result = _located(args.matrix, run_fahp, matrix)
    _info(args, f"ranked {matrix.size} criteria; top is {result.rank_order[0]}")
    return _emit_report(args, t0, {"matrix": args.matrix}, ranking=result)


def _checked(message: str, ok):
    """A config parser that returns a value for which `ok(value)` holds, and raises
    `message`, formatted with the value, for any other."""
    def parse(value):
        if not ok(value):
            raise ValidationError(message.format(value))
        return value
    return parse


# Each pipeline-config option, in the order it is checked: its value when absent, and the
# parser of a given value. Besides these, a config holds the `ratings` and `matrix` inputs.
CONFIG_OPTIONS = {
    "tie_break": ("index", _checked("unsupported tie_break {!r}", lambda v: v == "index")),
    "renumber": ("sequential", _checked("renumber must be 'sequential' or 'none'",
                                        lambda v: v in ("sequential", "none"))),
    "emit": ("json", _checked("emit must be one of json, csv, md",
                              lambda v: v in ("json", "csv", "md"))),
    "output": (None, _checked("output must be a string, got {!r}",
                              lambda v: v is None or isinstance(v, str))),
    "threshold": (ThresholdStrategy.mean(), ThresholdStrategy.parse),
    "mode": (ValidationMode.STRICT, ValidationMode.parse),
    "scale": (None, get_scale),
}


def _load_pipeline_config(path: str) -> dict:
    """The config at `path`: `ratings` and `matrix` as `(path, format)` pairs, and every
    option of CONFIG_OPTIONS parsed, or its default; an error names `path`."""
    cfg = load_json(path, "config")
    _known_keys(path, "", cfg, ("ratings", "matrix", *CONFIG_OPTIONS))
    loaded = {}
    for key in ("ratings", "matrix"):
        src = cfg.get(key)
        if not isinstance(src, dict) or not src.get("path"):
            raise ValidationError(f"{path}: config needs {key}.path")
        _known_keys(path, f"{key}.", src, ("path", "format"))
        if not isinstance(src["path"], str):
            raise ValidationError(f"{path}: {key}.path must be a string, got {src['path']!r}")
        if src.get("format") not in (None, "csv", "json"):
            raise ValidationError(
                f"{path}: {key}.format must be 'csv' or 'json', got {src['format']!r}"
            )
        if src["path"].startswith("derive:"):
            raise ValidationError(
                f"{path}: {key}.path={src['path']!r} is not supported; a comparison "
                "matrix must be supplied as a file, it is never derived"
            )
        loaded[key] = (src["path"], src.get("format"))
    for key, (default, parse) in CONFIG_OPTIONS.items():
        loaded[key] = _located(path, parse, cfg[key]) if key in cfg else default
    return loaded


def cmd_pipeline(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _load_pipeline_config(args.config)
    (ratings_path, ratings_fmt), (matrix_path, matrix_fmt) = cfg["ratings"], cfg["matrix"]

    try:
        panel = read_ratings(ratings_path, ratings_fmt, cfg["scale"], cfg["mode"])
        screening = _located(ratings_path, screen, panel, cfg["threshold"])
    except ValidationError as exc:
        raise ValidationError(f"[screen] {exc}") from None
    _info(args, f"pipeline: {len(screening.selected_ids)} of {len(screening.rows)} "
                "barriers selected")

    if not screening.selected_ids:
        raise ValidationError(
            "[pipeline] screening selected no barriers; the ranking stage "
            "needs at least one criterion"
        )
    if cfg["renumber"] == "sequential":
        criteria = renumber_selected(
            screening, sequential_renumber_map(screening.selected_ids)
        )
    else:
        criteria = screening.selected_barriers

    try:
        matrix = read_matrix(matrix_path, matrix_fmt, cfg["mode"])
        expected_ids = [c.id for c in criteria]
        if matrix.ids != expected_ids:
            raise ValidationError(
                f"matrix criteria {matrix.ids} do not match the screened "
                f"criteria {expected_ids}"
            )
        ranking = _located(matrix_path, run_fahp, matrix)
    except ValidationError as exc:
        raise ValidationError(f"[rank] {exc}") from None

    inputs = {"config": args.config, "ratings": ratings_path, "matrix": matrix_path}
    return _emit_report(args, t0, inputs, cfg["emit"], cfg["output"],
                        screening=screening, ranking=ranking)


def cmd_paper_verify(args: argparse.Namespace) -> int:
    study = load_paper_study()
    checks = run_study_checks(study)
    if args.emit == "json":
        text = _json(to_json_dict(study, checks)) + "\n"
    else:
        text = format_text(study, checks)
    _write_out(text, args.output)
    return EXIT_OK if checks_passed(checks) else EXIT_VERIFY_FAILED


def cmd_export(args: argparse.Namespace) -> int:
    study = load_paper_study()
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    ratings_path = dest / f"delphi_ratings.{args.format}"
    matrix_path = dest / f"fahp_matrix.{args.format}"
    write_ratings(study.delphi_panel, ratings_path)
    write_matrix(study.fahp_matrix, matrix_path)
    sys.stdout.write(f"{ratings_path}\n{matrix_path}\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
