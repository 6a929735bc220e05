"""The CLI as its own process: what `import fdahp.cli` loads, and `--log-level` output.

These run fresh interpreters: the test process's `sys.modules` already holds
whatever pytest imported, and `--log-level` output is checked on the real
stderr of a whole run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Stdlib modules that cost start-up time and that fdahp's commands do not need
# up front; `importlib.resources` is imported only to read the bundled study.
HEAVY = ["dataclasses", "inspect", "logging", "importlib.resources"]


def python(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # -S: without site, so no .pth file can pre-load one of them
    code = f"import sys, fdahp.cli; print(*[m for m in {HEAVY!r} if m in sys.modules])"
    proc = python("-S", "-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def fdahp(*argv):
    return python("-c", "import sys; from fdahp.cli import main; sys.exit(main())", *argv)


@pytest.mark.parametrize("command, info", [
    ("screen", "INFO screened 16 barriers: 11 selected\n"),
    ("rank", "INFO ranked 11 criteria; top is B10\n"),
    ("pipeline", "INFO pipeline: 11 of 16 barriers selected\n"),
])
def test_log_level_info_adds_one_stderr_line_and_leaves_stdout(
    tmp_path, exported, command, info
):
    ratings, matrix = str(exported / "delphi_ratings.csv"), str(exported / "fahp_matrix.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ratings": {"path": ratings}, "matrix": {"path": matrix},
                                  "mode": "lenient"}), encoding="utf-8")
    argv = {
        "screen": ["screen", "--ratings", ratings],
        "rank": ["rank", "--matrix", matrix, "--mode", "lenient"],
        "pipeline": ["pipeline", "--config", str(config)],
    }[command]
    runs = {level: fdahp(*(["--log-level", level] if level else []), *argv)
            for level in (None, "error", "warn", "info")}
    assert {level: (p.returncode, p.stderr) for level, p in runs.items()} == {
        None: (0, ""), "error": (0, ""), "warn": (0, ""), "info": (0, info),
    }
    assert len({p.stdout for p in runs.values()}) == 1
    assert json.loads(runs[None].stdout)["tool"]["name"] == "fdahp"
