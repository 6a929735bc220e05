"""Batch command-line front end.

Exit codes: 0 success, 1 verification failure, 2 validation error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .dataset import load_paper_study, renumber_selected, sequential_renumber_map
from .delphi import ThresholdStrategy, get_scale, screen
from .errors import DatasetError, ValidationError
from .fahp import run_fahp
from .io import (
    load_json,
    read_matrix,
    read_ratings,
    write_matrix_csv,
    write_matrix_json,
    write_ratings_csv,
    write_ratings_json,
)
from .report import Report, file_digest
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


def cmd_screen(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    scale = get_scale(args.scale) if args.scale is not None else None
    panel = read_ratings(args.ratings, args.format, scale, ValidationMode.parse(args.mode))
    result = screen(panel, ThresholdStrategy.parse(args.threshold))
    _info(args, f"screened {len(result.rows)} barriers: {len(result.selected_ids)} selected")
    report = Report.build(
        inputs={"ratings": {"path": str(args.ratings), "sha256": file_digest(args.ratings)}},
        screening=result,
        timing_ms=(time.perf_counter() - t0) * 1000 if args.timing else None,
    )
    _write_out(report.emit(args.emit or "json"), args.output)
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    mode = ValidationMode.parse(args.mode) if args.mode else None
    matrix = read_matrix(args.matrix, args.format, mode)
    result = run_fahp(matrix)
    _info(args, f"ranked {matrix.size} criteria; top is {result.rank_order[0]}")
    report = Report.build(
        inputs={"matrix": {"path": str(args.matrix), "sha256": file_digest(args.matrix)}},
        ranking=result,
        timing_ms=(time.perf_counter() - t0) * 1000 if args.timing else None,
    )
    _write_out(report.emit(args.emit or "json"), args.output)
    return EXIT_OK


def _load_pipeline_config(path: str) -> dict:
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    for key in ("ratings", "matrix"):
        src = cfg.get(key)
        if not isinstance(src, dict) or not src.get("path"):
            raise ValidationError(f"{path}: config needs {key}.path")
        if str(src["path"]).startswith("derive:"):
            raise ValidationError(
                f"{path}: {key}.path={src['path']!r} is not supported; a comparison "
                "matrix must be supplied as a file, it is never derived"
            )
    if cfg.get("tie_break", "index") != "index":
        raise ValidationError(f"{path}: unsupported tie_break {cfg.get('tie_break')!r}")
    if cfg.get("renumber", "sequential") not in ("sequential", "none"):
        raise ValidationError(f"{path}: renumber must be 'sequential' or 'none'")
    if cfg.get("emit", "json") not in ("json", "csv", "md"):
        raise ValidationError(f"{path}: emit must be one of json, csv, md")
    return cfg


def cmd_pipeline(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _load_pipeline_config(args.config)
    try:
        mode = ValidationMode.parse(cfg.get("mode", "strict"))
        scale = get_scale(cfg.get("scale", "delphi-10"))
    except ValidationError as exc:
        raise ValidationError(f"{args.config}: {exc}") from None

    try:
        panel = read_ratings(cfg["ratings"]["path"], cfg["ratings"].get("format"), scale, mode)
        screening = screen(panel, ThresholdStrategy.parse(cfg.get("threshold", "mean")))
    except ValidationError as exc:
        raise ValidationError(f"[screen] {exc}") from None
    _info(args, f"pipeline: {len(screening.selected_ids)} of {len(screening.rows)} "
                "barriers selected")

    if not screening.selected_ids:
        raise ValidationError(
            "[pipeline] screening selected no barriers; the ranking stage "
            "needs at least one criterion"
        )
    if cfg.get("renumber", "sequential") == "sequential":
        criteria = renumber_selected(
            screening, sequential_renumber_map(screening.selected_ids)
        )
    else:
        criteria = screening.selected_barriers

    try:
        matrix = read_matrix(cfg["matrix"]["path"], cfg["matrix"].get("format"), mode)
        expected_ids = [c.id for c in criteria]
        if matrix.ids != expected_ids:
            raise ValidationError(
                f"matrix criteria {matrix.ids} do not match the screened "
                f"criteria {expected_ids}"
            )
        ranking = run_fahp(matrix)
    except ValidationError as exc:
        raise ValidationError(f"[rank] {exc}") from None

    report = Report.build(
        inputs={
            "config": {"path": str(args.config), "sha256": file_digest(args.config)},
            "ratings": {"path": str(cfg["ratings"]["path"]),
                        "sha256": file_digest(cfg["ratings"]["path"])},
            "matrix": {"path": str(cfg["matrix"]["path"]),
                       "sha256": file_digest(cfg["matrix"]["path"])},
        },
        screening=screening,
        ranking=ranking,
        timing_ms=(time.perf_counter() - t0) * 1000 if args.timing else None,
    )
    output = args.output or cfg.get("output")
    _write_out(report.emit(args.emit or cfg.get("emit", "json")), output)
    return EXIT_OK


def cmd_paper_verify(args: argparse.Namespace) -> int:
    study = load_paper_study()
    checks = run_study_checks(study)
    if args.emit == "json":
        text = json.dumps(to_json_dict(study, checks), indent=2, ensure_ascii=False) + "\n"
    else:
        text = format_text(study, checks)
    _write_out(text, args.output)
    return EXIT_OK if checks_passed(checks) else EXIT_VERIFY_FAILED


def cmd_export(args: argparse.Namespace) -> int:
    study = load_paper_study()
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        ratings_path = dest / "delphi_ratings.csv"
        matrix_path = dest / "fahp_matrix.csv"
        write_ratings_csv(study.delphi_panel, ratings_path)
        write_matrix_csv(study.fahp_matrix, matrix_path)
    else:
        ratings_path = dest / "delphi_ratings.json"
        matrix_path = dest / "fahp_matrix.json"
        write_ratings_json(study.delphi_panel, ratings_path)
        write_matrix_json(study.fahp_matrix, matrix_path)
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
