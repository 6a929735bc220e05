"""Property test for the command line on arbitrary input bytes: every run ends
in a report (exit 0) or a printed error (exit 2 or 3), never in a traceback."""
import contextlib
import io
import json
import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp.cli import main  # noqa: E402

# (subcommand, its input option, the exported study file that seeds the bytes)
KINDS = {
    "ratings.csv": ("screen", "--ratings", "delphi_ratings.csv"),
    "ratings.json": ("screen", "--ratings", "delphi_ratings.json"),
    "matrix.csv": ("rank", "--matrix", "fahp_matrix.csv"),
    "matrix.json": ("rank", "--matrix", "fahp_matrix.json"),
    "config.json": ("pipeline", "--config", None),
}


@pytest.fixture(scope="module")
def seeds(exported):
    """Each kind's valid bytes: the study tables, and a lenient pipeline config."""
    config = {"ratings": {"path": str(exported / "delphi_ratings.csv")},
              "matrix": {"path": str(exported / "fahp_matrix.json")}, "mode": "lenient"}
    return {kind: (exported / name).read_bytes() if name else json.dumps(config).encode()
            for kind, (_, _, name) in KINDS.items()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bytes")


def _mutated(data: st.DataObject, seed: bytes) -> bytes:
    """Arbitrary bytes, or `seed` with a few short spans replaced by arbitrary bytes."""
    if data.draw(st.booleans()):
        return data.draw(st.binary(max_size=300))
    out = bytearray(seed)
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(out)))
        j = data.draw(st.integers(i, min(len(out), i + 8)))
        out[i:j] = data.draw(st.binary(max_size=8))
    return bytes(out)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), data=st.data())
def test_cli_on_arbitrary_bytes_exits_0_2_or_3(seeds, workdir, kind, data):
    command, option, _ = KINDS[kind]
    path = workdir / f"input.{kind}"
    path.write_bytes(_mutated(data, seeds[kind]))
    argv = [command, option, str(path), "--emit", data.draw(st.sampled_from(["json", "csv", "md"]))]
    if command != "pipeline":
        argv += data.draw(st.sampled_from([[], ["--mode", "strict"], ["--mode", "lenient"]]))
    cwd = os.getcwd()
    os.chdir(workdir)  # a mutated config's relative `output` lands here
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3)
