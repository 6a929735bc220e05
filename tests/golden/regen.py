"""Rewrite `cases.json`: run every golden case through the CLI and record its output.

    PYTHONPATH=src python tests/golden/regen.py

Each case runs in process, with the working directory set to a fresh copy of
`inputs/`, so report paths are relative and stable. Regenerate only for an
intended output change, and list every changed case as such; `tests/test_golden.py`
compares each case's exit code, stdout and stderr exactly.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

from helpers import run_cli  # noqa: E402

INPUTS = HERE / "inputs"
EMITS = ("json", "csv", "md")


def _files(subdir: str) -> list[str]:
    return sorted(p.relative_to(INPUTS).as_posix() for p in (INPUTS / subdir).iterdir())


def build_cases() -> list[list[str]]:
    """Every golden invocation, as argv lists."""
    cases = [
        ["paper-verify"],
        ["paper-verify", "--emit", "json"],
        ["export", "--dest", "exported/csv", "--format", "csv"],
        ["export", "--dest", "exported/json", "--format", "json"],
    ]
    full = ("study/delphi_ratings", "study/fahp_matrix", "batch/v1_ratings", "batch/v1_matrix")
    for stem in full:
        for fmt in ("csv", "json"):
            path = f"{stem}.{fmt}"
            if "ratings" in stem:
                cases += [["screen", "--ratings", path, "--mode", mode, "--emit", e]
                          for mode in ("strict", "lenient") for e in EMITS]
            else:
                cases += [["rank", "--matrix", path, *mode, "--emit", e]
                          for mode in ([], ["--mode", "strict"], ["--mode", "lenient"])
                          for e in EMITS]
    for path in _files("batch"):
        if not path.startswith("batch/v1_"):
            flag = "--ratings" if "ratings" in path else "--matrix"
            cases.append(["screen" if "ratings" in path else "rank", flag, path])
    for path in _files("configs"):
        cases += [["pipeline", "--config", path, *emit] for emit in ([], ["--emit", "csv"])]
    for path in _files("edge/ratings"):
        cases += [["screen", "--ratings", path, "--mode", mode] for mode in ("strict", "lenient")]
    for path in _files("edge/matrix"):
        cases += [["rank", "--matrix", path, *mode]
                  for mode in ([], ["--mode", "strict"], ["--mode", "lenient"])]
    cases += [["pipeline", "--config", path] for path in _files("edge/config")]
    study_csv, study_json = "study/delphi_ratings.csv", "study/delphi_ratings.json"
    cases += [
        ["screen", "--ratings", study_csv, "--threshold", "fixed:7", "--emit", "md"],
        ["screen", "--ratings", study_csv, "--threshold", "median"],
        ["screen", "--ratings", study_csv, "--scale", "delphi-7"],
        ["screen", "--ratings", study_json, "--scale", "delphi-10", "--emit", "csv"],
        ["screen", "--ratings", study_csv, "--format", "json"],
        ["screen", "--ratings", "study/delphi_ratings.txt"],
        ["screen", "--ratings", "edge/ratings/no_such_file.csv"],
        ["rank", "--matrix", "study/fahp_matrix.json", "--format", "csv"],
        ["screen", "--ratings", "edge/ratings/pipe_and_line_break.json", "--emit", "md"],
        ["rank", "--matrix", "edge/matrix/pipe_and_line_break.csv", "--emit", "md"],
        ["rank", "--matrix", "edge/matrix/line_break_breach.csv", "--mode", "lenient",
         "--emit", "md"],
        ["--log-level", "info", "screen", "--ratings", study_csv, "--emit", "csv"],
        ["--log-level", "info", "rank", "--matrix", "study/fahp_matrix.json", "--emit", "csv"],
        ["--log-level", "info", "pipeline", "--config", "configs/study_json_lenient.json"],
    ]
    return cases


def main() -> int:
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "inputs"
        shutil.copytree(INPUTS, work)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for argv in build_cases():
                code, out, err = run_cli(argv)
                records.append({"argv": argv, "exit": code,
                                "stdout": out.splitlines(keepends=True),
                                "stderr": err.splitlines(keepends=True)})
        finally:
            os.chdir(cwd)
    text = json.dumps(records, indent=1, ensure_ascii=False) + "\n"
    (HERE / "cases.json").write_text(text, encoding="utf-8")
    print(f"{len(records)} cases, {len(text)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
