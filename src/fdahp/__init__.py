"""fdahp: fuzzy Delphi screening and geometric-mean fuzzy AHP ranking.

Library layout:
  tfn      triangular fuzzy numbers and their arithmetic
  delphi   expert-panel screening (aggregate, defuzzify, threshold)
  fahp     pairwise-matrix validation and Buckley-style weighting/ranking
  dataset  the bundled reference study with its printed expected values
  io       CSV/JSON ingestion and export
  report   deterministic JSON/CSV/Markdown reports
  cli      batch front end (screen, rank, pipeline, paper-verify, export)
"""

__version__ = "0.1.0"

from .dataset import (
    PaperStudy,
    StudyAnomaly,
    load_paper_study,
    renumber_selected,
    sequential_renumber_map,
)
from .delphi import (
    DELPHI_10,
    Barrier,
    LinguisticScale,
    RatingPanel,
    ScreeningResult,
    ThresholdStrategy,
    aggregate_panel,
    compute_threshold,
    get_scale,
    score_barriers,
    screen,
)
from .errors import DatasetError, FdahpError, ValidationError
from .fahp import (
    PairwiseMatrix,
    RankingResult,
    build_matrix,
    crisp_weights,
    fuzzy_weights,
    rank,
    row_geometric_means,
    run_fahp,
)
from .report import Report
from .tfn import (
    TFN,
    TriangularFuzzyNumber,
    ValidationMode,
    ValidationWarning,
    aggregate_min_geo_max,
    centroid_defuzzify,
    geometric_mean,
    tfn_add,
    tfn_multiply,
    tfn_reciprocal,
)

__all__ = [
    "__version__",
    "TFN",
    "TriangularFuzzyNumber",
    "ValidationMode",
    "ValidationWarning",
    "tfn_add",
    "tfn_multiply",
    "tfn_reciprocal",
    "geometric_mean",
    "aggregate_min_geo_max",
    "centroid_defuzzify",
    "Barrier",
    "LinguisticScale",
    "DELPHI_10",
    "get_scale",
    "RatingPanel",
    "ThresholdStrategy",
    "ScreeningResult",
    "aggregate_panel",
    "score_barriers",
    "compute_threshold",
    "screen",
    "PairwiseMatrix",
    "RankingResult",
    "build_matrix",
    "row_geometric_means",
    "fuzzy_weights",
    "crisp_weights",
    "rank",
    "run_fahp",
    "PaperStudy",
    "StudyAnomaly",
    "load_paper_study",
    "renumber_selected",
    "sequential_renumber_map",
    "Report",
    "FdahpError",
    "ValidationError",
    "DatasetError",
]
