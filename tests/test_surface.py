"""The public surface: the pinned `fdahp.__all__`, and every name the benchmark imports."""
import ast
import importlib
from pathlib import Path

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

BENCH_WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def test_all_is_the_pinned_surface():
    assert len(PUBLIC) == 38
    assert set(fdahp.__all__) == PUBLIC
    assert len(fdahp.__all__) == len(PUBLIC)
    for name in fdahp.__all__:
        assert hasattr(fdahp, name), name


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
