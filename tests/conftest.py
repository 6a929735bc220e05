import pytest

from fdahp import load_paper_study
from fdahp.cli import main


@pytest.fixture(scope="session")
def study():
    return load_paper_study()


@pytest.fixture(scope="session")
def exported(tmp_path_factory):
    """The bundled study's input tables, as `fdahp export` writes them (CSV and JSON)."""
    dest = tmp_path_factory.mktemp("study")
    assert main(["export", "--dest", str(dest), "--format", "csv"]) == 0
    assert main(["export", "--dest", str(dest), "--format", "json"]) == 0
    return dest
