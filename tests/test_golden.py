"""Golden outputs: every case in `golden/cases.json` must print exactly what it
recorded. Each runs `fdahp` in process, with the working directory set to a
copy of `golden/inputs`, so report paths are relative and stable. After an
intended output change, `golden/regen.py` rewrites the file."""
import json
import shutil
from pathlib import Path

import pytest

from helpers import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    dest = tmp_path_factory.mktemp("golden") / "inputs"
    shutil.copytree(INPUTS, dest)
    return dest


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_case(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    got = run_cli(case["argv"])
    assert got == (case["exit"], "".join(case["stdout"]), "".join(case["stderr"]))
    if case["argv"][0] == "export":  # the tables it writes are the committed study/ files
        dest = workdir / case["argv"][2]
        for path in dest.iterdir():
            assert path.read_bytes() == (INPUTS / "study" / path.name).read_bytes(), path.name


def test_every_input_file_has_a_case():
    named = {arg for case in CASES for arg in case["argv"]}
    files = {p.relative_to(INPUTS).as_posix() for p in INPUTS.rglob("*") if p.is_file()}
    assert files - named == set()
