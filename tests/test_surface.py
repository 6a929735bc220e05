"""The public surface: the pinned `fdahp.__all__`, every public class a tuple, an
exception or an enum, every name the benchmark imports, no definition that only a
test names, `build_matrix` as the one maker of a `PairwiseMatrix`,
`RatingPanel._checked` as the one maker of a `RatingPanel`, one geometric-mean
kernel, one garbage-collector pause, one JSON writer, one CSV table reader, and one
short traced run of the benchmark harness."""
import ast
import enum
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fdahp

PUBLIC = {
    "__version__",
    "TFN", "TriangularFuzzyNumber", "ValidationMode", "ValidationWarning",
    "tfn_multiply", "tfn_reciprocal", "geometric_mean",
    "aggregate_min_geo_max", "centroid_defuzzify",
    "Barrier", "LinguisticScale", "DELPHI_10", "get_scale", "RatingPanel",
    "ThresholdStrategy", "ScreeningResult", "aggregate_panel", "score_barriers",
    "compute_threshold", "screen",
    "PairwiseMatrix", "RankingResult", "build_matrix", "row_geometric_means",
    "fuzzy_weights", "crisp_weights", "rank", "run_fahp",
    "PaperStudy", "StudyAnomaly", "load_paper_study", "renumber_selected",
    "sequential_renumber_map",
    "Report",
    "FdahpError", "ValidationError", "DatasetError",
}

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fdahp"
BENCH_WORKER = ROOT / "bench" / "worker.py"


def test_all_is_the_pinned_surface():
    assert len(PUBLIC) == 38
    assert set(fdahp.__all__) == PUBLIC
    assert len(fdahp.__all__) == len(PUBLIC)
    for name in fdahp.__all__:
        assert hasattr(fdahp, name), name


def test_every_public_class_is_a_tuple_an_exception_or_an_enum():
    # records are (named) tuples: values that compare, copy and pickle by content
    classes = {name: getattr(fdahp, name) for name in fdahp.__all__
               if isinstance(getattr(fdahp, name), type)}
    assert "RatingPanel" in classes and len(classes) >= 15
    assert [name for name, cls in classes.items()
            if not issubclass(cls, (tuple, Exception, enum.Enum))] == []


def test_every_fdahp_name_the_benchmark_imports_resolves():
    # parsed, not run: the worker needs its own sibling modules on sys.path
    tree = ast.parse(BENCH_WORKER.read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fdahp"
        for alias in node.names
    ]
    assert ("fdahp.verify", "run_study_checks") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def _definitions(tree):
    """The name of each top-level function and class and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            namedtuple_base = any(
                isinstance(b, ast.Call) and getattr(b.func, "id", "") == "namedtuple"
                for b in node.bases
            )
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                if sub.name.startswith("__") and sub.name.endswith("__"):
                    continue  # called by the language, not by name
                if namedtuple_base and sub.name == "_make":
                    continue  # reached through namedtuple's own `_replace`
                yield f"{node.name}.{sub.name}"


def test_every_definition_is_named_outside_the_tests():
    # a name in src/ (re-exports in __init__.py aside) or bench/ counts; a test does not
    named = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defined = [f"{path.stem}.{name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(defined) > 100
    assert [d for d in defined if d.rsplit(".", 1)[1] not in named] == []


def test_only_build_matrix_makes_a_pairwise_matrix():
    # build_matrix validates what it returns; any other call would skip that
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if "PairwiseMatrix" in (getattr(node.func, "id", ""), getattr(node.func, "attr", "")):
                    callers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == ["fahp.build_matrix"]


def test_one_maker_of_a_rating_panel():
    # RatingPanel._checked checks every cell of a panel it makes; another
    # tuple.__new__(cls, ...) in the class could return cells it never checked
    tree = ast.parse((PACKAGE / "delphi.py").read_text(encoding="utf-8"))
    (panel,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RatingPanel"]
    makers = [
        method.name
        for method in panel.body if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__" and getattr(node.func.value, "id", "") == "tuple"
        and node.args and getattr(node.args[0], "id", "") == "cls"
    ]
    assert makers == ["_checked"]


def _rewraps_validation_error(handler: ast.ExceptHandler) -> bool:
    """`except ... ValidationError as exc` whose body raises a `ValidationError`
    whose message formats `{exc}`."""
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    if handler.name is None or not any(getattr(t, "id", "") == "ValidationError" for t in caught):
        return False
    return any(
        isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", "") == "ValidationError"
        and any(isinstance(v, ast.FormattedValue) and getattr(v.value, "id", "") == handler.name
                for s in ast.walk(node.exc) if isinstance(s, ast.JoinedStr) for v in s.values)
        for stmt in handler.body for node in ast.walk(stmt)
    )


def test_one_helper_prefixes_a_location():
    # errors._located prefixes "where: " to a ValidationError; every other
    # re-raise of one is pinned here with the reason it is written out by hand
    sites = sorted(
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in PACKAGE.glob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.ExceptHandler) and _rewraps_validation_error(node)
    )
    assert sites == [
        "cli.cmd_pipeline",  # "[screen] ...": a stage tag, with no colon
        "cli.cmd_pipeline",  # "[rank] ...": the same
        "errors._located",  # the helper itself
        "fahp.build_matrix",  # auto-fill: names the pair only on failure, not per memo miss
        "fahp.fuzzy_weights",  # adds a suffix, the row-mean total, not a prefix
        "io.read_matrix",  # JSON "{path} cells[k]": formatted only on failure, per record
        "io.read_ratings",  # JSON "{path} ratings[k]": the same
    ]


def test_one_geometric_mean_kernel():
    # tests/test_tfn.py holds tfn._geometric_mean to a bitwise reference; a second
    # log/exp kernel, or a memo of log values beside it, would escape that test
    sites = {
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in PACKAGE.glob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("log", "exp")
        and getattr(node.value, "id", "") == "math"
        or isinstance(node, ast.ImportFrom) and node.module == "math"
        and any(alias.name in ("log", "exp") for alias in node.names)
    }
    assert sites == {"tfn._geometric_mean"}


def test_one_gc_pause():
    # errors._nogc gives the collector back as the caller left it, on return and raise;
    # a gc switch elsewhere could leave it off. Each paused function is reviewed here.
    switches, paused = set(), set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "gc"
                        or isinstance(node, ast.ImportFrom) and node.module == "gc"):
                    switches.add(where)
                elif isinstance(node, ast.Name) and node.id == "_nogc":
                    paused.add(where)
    assert switches == {"errors._nogc"}
    assert paused == {  # each turns a whole input into a panel or a matrix
        "io.read_ratings", "io.read_matrix", "fahp.build_matrix",
    }


def test_one_json_writer():
    # report._column writes every JSON value of a report and of paper-verify; a second
    # writer could drift from its bytes. Each other json.dump(s) is reviewed here.
    sites = sorted(
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in PACKAGE.glob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
        and getattr(node.value, "id", "") == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json"
        and any(alias.name in ("dump", "dumps") for alias in node.names)
    )
    assert sites == [
        "io._write_json",  # the export files, whose bytes stay ASCII-escaped
        "io.load_json",  # the unpaired-surrogate check re-encodes the parsed input
        "report._column",  # its fallback: a lone None, bool, non-finite float or rare container
    ]


def test_one_csv_table_reader():
    # io._csv_rows opens, decodes and header-checks every CSV table read row by row, and
    # io._CSV_TEXT holds the decode arguments that it and the bulk route share
    readers, decodes = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            name = (getattr(top.targets[0], "id", "<module>") if isinstance(top, ast.Assign)
                    else getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "reader"
                        and getattr(node.value, "id", "") == "csv"
                        or isinstance(node, ast.ImportFrom) and node.module == "csv"):
                    readers.append(f"{path.stem}.{name}")
                elif isinstance(node, ast.Constant) and node.value == "utf-8-sig":
                    decodes.append(f"{path.stem}.{name}")
    assert readers == ["io._csv_rows"]
    assert decodes == ["io._CSV_TEXT"]


def test_traced_benchmark_run_is_correct_and_reports_every_layer():
    # traced only: bench/compare.py skips traced records, so this run never
    # enters a parent/change comparison
    pytest.importorskip("numpy")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study-batch", "--seed", "1",
         "--seconds", "0.3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = [m["name"] for m in spec["per_layer"]]
    assert len(layers) == 37
    assert set(layers) <= set(summary["metrics"])
