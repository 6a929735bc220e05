"""Bundled reference study: IoT adoption barriers in Bangladeshi manufacturing.

The package ships a verbatim machine-readable copy of the source study's
published tables: the 16-barrier x 4-expert Delphi rating panel, the expected
screening outcome, the 11x11 fuzzy pairwise comparison matrix (anomalies
included, exactly as printed), the expected intermediate and final weights,
and the mapping from the 16 screened barriers to the 11 renumbered ranking
criteria. The expected values are the study's printed digits and serve as the
regression oracle for the whole pipeline.
"""
from __future__ import annotations

import hashlib
import json
from typing import Mapping, NamedTuple, Sequence

from .delphi import Barrier, RatingPanel, ScreeningResult
from .errors import DatasetError, ValidationError
from .fahp import PairwiseMatrix, build_matrix
from .tfn import TFN, TriangularFuzzyNumber, ValidationMode

_RESOURCE = "iot_barriers_study.json"
_RESOURCE_SHA256 = "bb9f0054deac78ebebecf2fed04f04b23b32634b3968f291016243a210e9f19d"


class StudyAnomaly(NamedTuple):
    """A known irregularity in the study's printed tables, kept verbatim."""

    id: str
    location: str
    description: str


class ExpectedScreening(NamedTuple):
    """Printed screening outcome: crisp scores, decisions, threshold bracket."""

    scores: dict[str, float]
    decisions: dict[str, str]
    threshold_range: tuple[float, float]

    def selected_ids(self) -> list[str]:
        return [b for b, d in self.decisions.items() if d == "selected"]


class ExpectedRanking(NamedTuple):
    """Printed ranking-stage values: row means, totals, weights, ranks."""

    row_geometric_means: dict[str, TriangularFuzzyNumber]
    total: TriangularFuzzyNumber
    inverse_total: TriangularFuzzyNumber
    weights_normalized: dict[str, float]
    rank_order: list[str]


class PaperStudy(NamedTuple):
    """The full bundled study: inputs, expected outputs, and annotations."""

    key: str
    title: str
    delphi_panel: RatingPanel
    delphi_expected: ExpectedScreening
    fahp_matrix: PairwiseMatrix
    fahp_expected: ExpectedRanking
    renumber_map: dict[str, str]
    renumber_map_inferred: bool
    anomalies: tuple[StudyAnomaly, ...]


def _parse_study(doc: dict) -> PaperStudy:
    d = doc["delphi"]
    barriers = [Barrier(b["id"], b.get("name", "")) for b in d["barriers"]]
    rows = {bid: [TFN(*t) for t in triples] for bid, triples in d["ratings"].items()}
    panel = RatingPanel.from_rows(barriers, d["experts"], rows, ValidationMode.STRICT)

    exp = d["expected"]
    delphi_expected = ExpectedScreening(
        scores={k: float(v) for k, v in exp["scores"].items()},
        decisions=dict(exp["decisions"]),
        threshold_range=tuple(exp["threshold_range"]),  # type: ignore[arg-type]
    )

    f = doc["fahp"]
    criteria = [Barrier(c["id"], c.get("name", "")) for c in f["criteria"]]
    ids = [c.id for c in criteria]
    matrix = build_matrix(
        [(rid, cid, TFN(*f["matrix"][rid][cid])) for rid in ids for cid in ids],
        criteria, ValidationMode(f["mode"]),
    )

    fexp = f["expected"]
    fahp_expected = ExpectedRanking(
        row_geometric_means={k: TFN(*v) for k, v in fexp["row_geometric_means"].items()},
        total=TFN(*fexp["total"]),
        inverse_total=TFN(*fexp["inverse_total"]),
        weights_normalized={k: float(v) for k, v in fexp["weights_normalized"].items()},
        rank_order=list(fexp["rank_order"]),
    )

    return PaperStudy(
        key=doc["study"]["key"],
        title=doc["study"]["title"],
        delphi_panel=panel,
        delphi_expected=delphi_expected,
        fahp_matrix=matrix,
        fahp_expected=fahp_expected,
        renumber_map=dict(doc["renumber_map"]),
        renumber_map_inferred=bool(doc.get("renumber_map_inferred", False)),
        anomalies=tuple(StudyAnomaly(**a) for a in doc["anomalies"]),
    )


def _load_bytes() -> bytes:
    from importlib import resources  # only the bundled-study commands pay for this import

    try:
        return (resources.files("fdahp") / "data" / _RESOURCE).read_bytes()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise DatasetError(f"embedded study resource {_RESOURCE!r} is missing") from exc


def load_paper_study() -> PaperStudy:
    """Load the bundled study, verifying the resource checksum first."""
    raw = _load_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != _RESOURCE_SHA256:
        raise DatasetError(
            f"embedded study resource {_RESOURCE!r} is corrupted: "
            f"sha256 {digest} != expected {_RESOURCE_SHA256}"
        )
    try:
        doc = json.loads(raw.decode("utf-8"))
        return _parse_study(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"embedded study resource {_RESOURCE!r} failed to parse: {exc}") from exc


def renumber_selected(
    screening: ScreeningResult, mapping: Mapping[str, str]
) -> list[Barrier]:
    """Relabel the selected barriers through a renumbering map, order preserved.

    The map must cover exactly the selected set: extra or missing keys are
    errors, so a stale map cannot silently mislabel criteria.
    """
    selected = screening.selected_barriers
    selected_ids = {b.id for b in selected}
    if not selected:
        raise ValidationError("screening selected no barriers; nothing to renumber")
    missing = sorted(selected_ids - set(mapping))
    extra = sorted(set(mapping) - selected_ids)
    if missing or extra:
        raise ValidationError(
            f"renumber map must cover the selected set exactly "
            f"(missing: {missing}, extra: {extra})"
        )
    return [b._replace(id=mapping[b.id]) for b in selected]


def sequential_renumber_map(selected_ids: Sequence[str]) -> dict[str, str]:
    """Map selected ids, in order, onto B1..Bk."""
    return {old: f"B{k + 1}" for k, old in enumerate(selected_ids)}
