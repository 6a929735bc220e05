"""Report assembly and emission (JSON, CSV, Markdown).

Reports hold plain data only, so JSON round-trips are lossless. Machine
formats print numbers at 6 significant digits; Markdown uses 4 decimals.
Identical inputs always produce byte-identical output: keys are emitted in a
fixed order and timing is omitted (null) unless explicitly requested.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from . import __version__
from .delphi import ScreeningResult
from .fahp import RankingResult
from .tfn import ValidationWarning

TOOL_NAME = "fdahp"


def round6(x: float) -> float:
    """Round to 6 significant digits (idempotent, repr-stable)."""
    return float("%.6g" % x)


def _round_tfn(t) -> list[float]:
    return [round6(t.l), round6(t.m), round6(t.u)]


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def serialize_screening(s: ScreeningResult) -> dict[str, Any]:
    return {
        "threshold": round6(s.threshold),
        "strategy": str(s.strategy),
        "selected_count": len(s.selected_ids),
        "rejected_count": len(s.rejected_ids),
        "barriers": [
            {
                "id": r.barrier.id,
                "name": r.barrier.name,
                "aggregate": _round_tfn(r.aggregate),
                "score": round6(r.score),
                "decision": "selected" if r.selected else "rejected",
            }
            for r in s.rows
        ],
    }


def serialize_ranking(r: RankingResult) -> dict[str, Any]:
    return {
        "criteria": [
            {
                "id": c.id,
                "name": c.name,
                "row_geometric_mean": _round_tfn(r.row_means[i]),
                "fuzzy_weight": _round_tfn(r.weights[i]),
                "weight_crisp": round6(r.crisp[i]),
                "weight_normalized": round6(r.normalized[i]),
                "rank": r.ranks[i],
            }
            for i, c in enumerate(r.criteria)
        ],
        "total": _round_tfn(r.total),
        "inverse_total": _round_tfn(r.inverse),
        "rank_order": list(r.rank_order),
    }


def serialize_warnings(
    stage_warnings: list[tuple[str, list[ValidationWarning]]]
) -> list[dict[str, str]]:
    """Flatten per-stage warnings in stage order, one entry per recorded warning."""
    return [
        {"stage": stage, "code": w.code, "location": w.location, "message": w.message}
        for stage, warnings in stage_warnings
        for w in warnings
    ]


def _json(v: Any, indent: str = "") -> str:
    """`json.dumps(v, indent=2, ensure_ascii=False)` for `v` nested at `indent`."""
    return _column((v,), indent)[0]


def _column(col: Sequence, indent: str) -> list[str]:
    """`[_json(x, indent) for x in col]`, in one pass when all values are str, exact int
    or finite float (a mixed int and float column goes value by value: isfinite overflows
    on a huge int), or through one %-template when all are lists of one non-zero length
    or non-empty dicts of one str-key order; a single list's items are one column. Only a
    lone None, bool, non-finite float or empty or other container goes to `json.dumps`."""
    types = set(map(type, col))
    t = types.pop() if len(types) == 1 else None
    if t is str:
        return list(map(encode_basestring, col))
    if t is int or t is float and all(map(math.isfinite, col)):
        return list(map(repr, col))
    inner = indent + "  "
    if t is list and len(sizes := set(map(len, col))) == 1 and 0 not in sizes:
        if len(col) == 1:
            return [f"[\n{inner}" + f",\n{inner}".join(_column(col[0], inner)) + f"\n{indent}]"]
        tmpl = f"[\n{inner}%s" + f",\n{inner}%s" * (sizes.pop() - 1) + f"\n{indent}]"
        return list(map(tmpl.__mod__, zip(*[_column(c, inner) for c in zip(*col)])))
    if (t is dict and len(orders := set(map(tuple, col))) == 1 and (keys := orders.pop())
            and all(type(k) is str for k in keys)):
        fields = [f"{encode_basestring(k).replace('%', '%%')}: %s" for k in keys]
        tmpl = f"{{\n{inner}" + f",\n{inner}".join(fields) + f"\n{indent}}}"
        values = zip(*map(dict.values, col))
        return list(map(tmpl.__mod__, zip(*[_column(c, inner) for c in values])))
    if len(col) != 1:
        return [_json(x, indent) for x in col]
    (v,) = col
    # an indented json.dumps leaves cyclic garbage, so only a non-empty container gets one;
    # JSON text holds no raw newline, so re-indenting its lines is exact
    text = json.dumps(v, indent=2 if v and isinstance(v, (list, tuple, dict)) else None,
                      ensure_ascii=False)
    return [text.replace("\n", "\n" + indent)]


def _one_line(text: str) -> str:
    """`text` with each line break (CRLF, CR or LF) made one space."""
    return text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def _md_row(*cells: Any) -> str:
    """One Markdown table row; in each cell `|` is escaped and line breaks become spaces."""
    texts = [_one_line(str(c).replace("|", "\\|")) for c in cells]
    return f"| {' | '.join(texts)} |"


class Report(NamedTuple):
    """Plain-data report: what ran, on which inputs, with what outcome."""

    tool: dict[str, str]
    inputs: dict[str, dict[str, str]]
    screening: dict[str, Any] | None
    ranking: dict[str, Any] | None
    warnings: Sequence[dict[str, str]] = ()
    timing_ms: float | None = None

    @classmethod
    def build(
        cls,
        inputs: dict[str, dict[str, str]],
        screening: ScreeningResult | None = None,
        ranking: RankingResult | None = None,
        timing_ms: float | None = None,
    ) -> "Report":
        stage_warnings = []
        if screening is not None:
            stage_warnings.append(("screen", screening.warnings))
        if ranking is not None:
            stage_warnings.append(("rank", ranking.warnings))
        return cls(
            tool={"name": TOOL_NAME, "version": __version__},
            inputs=inputs,
            screening=serialize_screening(screening) if screening else None,
            ranking=serialize_ranking(ranking) if ranking else None,
            warnings=serialize_warnings(stage_warnings),
            timing_ms=round6(timing_ms) if timing_ms is not None else None,
        )

    def to_json(self) -> str:
        return _json(self._asdict()) + "\n"

    # ------------------------------------------------------------- csv / md

    def to_csv(self) -> str:
        """Single CSV with a `section` discriminator column."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["section", "id", "name", "l", "m", "u",
             "w_l", "w_m", "w_u", "crisp", "normalized", "rank", "decision"]
        )
        if self.screening:
            w.writerow(
                ["summary", "threshold", str(self.screening["strategy"]), "", "", "",
                 "", "", "", f"{self.screening['threshold']:.6g}", "", "", ""]
            )
            for b in self.screening["barriers"]:
                agg = b["aggregate"]
                w.writerow(
                    ["screening", b["id"], b["name"],
                     f"{agg[0]:.6g}", f"{agg[1]:.6g}", f"{agg[2]:.6g}",
                     "", "", "", f"{b['score']:.6g}", "", "", b["decision"]]
                )
        if self.ranking:
            for c in self.ranking["criteria"]:
                r, fw = c["row_geometric_mean"], c["fuzzy_weight"]
                w.writerow(
                    ["ranking", c["id"], c["name"],
                     f"{r[0]:.6g}", f"{r[1]:.6g}", f"{r[2]:.6g}",
                     f"{fw[0]:.6g}", f"{fw[1]:.6g}", f"{fw[2]:.6g}",
                     f"{c['weight_crisp']:.6g}", f"{c['weight_normalized']:.6g}",
                     c["rank"], ""]
                )
        for warning in self.warnings:
            w.writerow(
                ["warning", warning["stage"], warning["message"], "", "", "",
                 "", "", "", "", "", "", warning["code"]]
            )
        return buf.getvalue()

    def to_markdown(self) -> str:
        """Human-readable report; ranking table mirrors (criterion, weight, rank)."""
        lines = [f"# {TOOL_NAME} report", ""]
        if self.screening:
            s = self.screening
            lines += [
                "## Screening",
                "",
                f"Threshold: {s['threshold']:.4f} (strategy: {s['strategy']}); "
                f"{s['selected_count']} selected, {s['rejected_count']} rejected.",
                "",
                "| Barrier | Name | Score | Decision |",
                "| --- | --- | --- | --- |",
            ]
            for b in s["barriers"]:
                lines.append(_md_row(b["id"], b["name"], f"{b['score']:.4f}", b["decision"]))
            lines.append("")
        if self.ranking:
            lines += [
                "## Ranking",
                "",
                "| Criterion | Name | Weight | Rank |",
                "| --- | --- | --- | --- |",
            ]
            for c in self.ranking["criteria"]:
                lines.append(_md_row(c["id"], c["name"], f"{c['weight_normalized']:.4f}", c["rank"]))
            lines.append("")
        if self.warnings:
            lines += ["## Warnings", ""]
            for warning in self.warnings:
                lines.append(_one_line(
                    f"- `{warning['stage']}` [{warning['code']}] "
                    f"{warning['location']}: {warning['message']}"
                ))
            lines.append("")
        return "\n".join(lines)

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "md":
            return self.to_markdown()
        raise ValueError(f"unknown report format {fmt!r}")
