"""In-process operation loop, run as its own interpreter by `run.py`.

Usage: python bench/worker.py JOB.json

The job names the workload, its operations, how many seconds to measure and
whether to trace. The worker imports fdahp and nothing heavier (no NumPy), so
its peak resident memory is that of the operations. It runs one warm-up pass
over the operations, then a closed loop with one client for the given time,
and writes latencies, one emitted report per operation and, when traced,
the spans to the paths the job names.

With tracing on, whole passes over the operation list alternate between
untraced and traced, so the two halves see the same inputs. A traced
operation records a span around every call it makes into fdahp; after its
span closes it re-times single stages ("probes": panel construction, matrix
validation, the four ranking stages, the tfn kernels) on the objects it just
built, so per-stage figures come from the same inputs without slowing the
operation that is timed.
"""
from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

from fdahp import (
    TFN, RatingPanel, aggregate_min_geo_max, aggregate_panel, build_matrix, crisp_weights,
    fuzzy_weights, geometric_mean, load_paper_study, rank, renumber_selected,
    row_geometric_means, run_fahp, screen, sequential_renumber_map,
)
from fdahp.fahp import validate_cells
from fdahp.io import read_matrix, read_ratings
from fdahp.report import Report, file_digest
from fdahp.tfn import ValidationMode
from fdahp.verify import run_study_checks

from hostspeed import sample_ms
from spans import Tracer


def call(tr: Tracer | None, name: str, fn, *args):
    if tr is None:
        return fn(*args)
    with tr.span(name):
        return fn(*args)


def _emit(tr, report, fmt: str) -> str:
    return call(tr, f"report.emit.{fmt}", report.emit, fmt)


def op_batch(op: dict, loaded, tr):
    """Study-scale pipeline: ratings -> screen -> renumber -> matrix -> rank -> report."""
    panel = call(tr, "io.read_ratings", read_ratings, op["ratings"])
    screening = call(tr, "delphi.screen", screen, panel)
    mapping = call(tr, "dataset.sequential_renumber_map", sequential_renumber_map,
                   screening.selected_ids)
    criteria = call(tr, "dataset.renumber_selected", renumber_selected, screening, mapping)
    matrix = call(tr, "io.read_matrix", read_matrix, op["matrix"], None, ValidationMode.LENIENT)
    if matrix.ids != [c.id for c in criteria]:
        raise ValueError(f"matrix criteria {matrix.ids} do not match the survivors")
    ranking = call(tr, "fahp.run_fahp", run_fahp, matrix)
    inputs = {k: {"path": op[k], "sha256": call(tr, "report.file_digest", file_digest, op[k])}
              for k in ("ratings", "matrix")}
    report = call(tr, "report.build", Report.build, inputs, screening, ranking)
    return _emit(tr, report, op["emit"]), {"panel": panel, "screening": screening,
                                           "matrix": matrix, "from_file": True}


def op_matrix(op: dict, loaded, tr):
    """Library path at large n: sparse entries -> build_matrix -> rank -> JSON report."""
    criteria, entries = loaded
    matrix = call(tr, "fahp.build_matrix", build_matrix, entries, criteria, ValidationMode.LENIENT)
    ranking = call(tr, "fahp.run_fahp", run_fahp, matrix)
    report = call(tr, "report.build", Report.build, {"matrix": {"source": op["matrix"]}}, None, ranking)
    return _emit(tr, report, op["emit"]), {"matrix": matrix}


def op_panel(op: dict, loaded, tr):
    """Large panel: ratings CSV -> screen -> JSON report."""
    panel = call(tr, "io.read_ratings", read_ratings, op["ratings"])
    screening = call(tr, "delphi.screen", screen, panel)
    inputs = {"ratings": {"path": op["ratings"],
                          "sha256": call(tr, "report.file_digest", file_digest, op["ratings"])}}
    report = call(tr, "report.build", Report.build, inputs, screening)
    return _emit(tr, report, op["emit"]), {"panel": panel, "screening": screening}


def load_entries(path: str):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return doc["criteria"], [(r, c, TFN(*t)) for r, c, t in doc["entries"]]


OPS = {"batch": op_batch, "matrix": op_matrix, "panel": op_panel}


def probe(tr: Tracer, op: dict, files: dict, built: dict, text: str) -> None:
    """Re-time single stages on the objects one operation built, and count its work."""
    # matrix-large loads its entries before timing, so only the other workloads parse files.
    read = [] if op["command"] == "matrix" else [op[k] for k in ("ratings", "matrix") if k in op]
    if read:
        tr.count("io.rows", sum(files[f]["rows"] for f in read))
        tr.count("io.bytes", sum(files[f]["bytes"] for f in read))
    tr.count("report.bytes", len(text.encode("utf-8")))
    if "panel" in built:
        p = built["panel"]
        call(tr, "delphi.panel", RatingPanel, p.barriers, p.experts, p.ratings, p.mode)
        call(tr, "delphi.aggregate_panel", aggregate_panel, p)
        rows = [p.row(b) for b in p.barrier_ids]
        with tr.span("tfn.aggregate"):
            for row in rows:
                aggregate_min_geo_max(row)
        tr.count("delphi.ratings", len(p.barriers) * len(p.experts))
        s = built["screening"]
        tr.count("delphi.selected_ratio", len(s.selected_ids) / len(s.rows))
    if "matrix" in built:
        m = built["matrix"]
        n = m.size
        if built.get("from_file"):
            entries = [(r.id, c.id, m.cells[i][j]) for i, r in enumerate(m.criteria)
                       for j, c in enumerate(m.criteria)]
            call(tr, "fahp.build_matrix", build_matrix, entries, m.criteria, m.mode)
        call(tr, "fahp.validate_cells", validate_cells, m.criteria, m.cells, m.mode)
        r = call(tr, "fahp.row_geometric_means", row_geometric_means, m)
        w, _, _ = call(tr, "fahp.fuzzy_weights", fuzzy_weights, r)
        _, normalized = call(tr, "fahp.crisp_weights", crisp_weights, w)
        call(tr, "fahp.rank", rank, normalized)
        vectors = [[getattr(t, k) for t in row] for row in m.cells for k in "lmu"]
        with tr.span("tfn.geometric_mean"):
            for v in vectors:
                geometric_mean(v)
        tr.count("fahp.cells", n * n)
        tr.count("fahp.warnings", len(m.warnings))
        tr.count("fahp.violation_ratio", len(m.warnings) / (n * (n - 1) / 2))


def peak_rss_kb() -> int:
    """High-water RSS of this process image. getrusage's ru_maxrss would also
    count the parent's RSS at the time it spawned this interpreter."""
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


def run_ops(job: dict) -> dict:
    ops, files = job["ops"], job["files"]
    # matrix-large hands build_matrix entries already in memory, so load them untimed.
    loaded = [load_entries(op["matrix"]) if op["command"] == "matrix" else None for op in ops]
    tr = Tracer() if job["trace"] else None
    outputs: dict[int, str] = {}
    errors: dict[int, str] = {}
    # Warm-up pass: fills lazy caches and gives the reference output per operation.
    for k, op in enumerate(ops):
        try:
            outputs[k] = OPS[op["command"]](op, loaded[k], None)[0]
        except Exception:
            errors[k] = traceback.format_exc()
    lat, speed, starts, traced, index, failed = [], [], [], [], [], []
    seconds, min_ops, stretch = job["seconds"], job["min_ops"], job["max_stretch"]
    start = perf_counter()
    i = 0
    while (elapsed := perf_counter() - start) < seconds or (i < min_ops and elapsed < stretch * seconds):
        k = i % len(ops)
        op, fn = ops[k], OPS[ops[k]["command"]]
        op_tr = tr if tr is not None and (i // len(ops)) % 2 == 1 else None
        speed.append(sample_ms())
        t0 = perf_counter()
        starts.append(t0)
        try:
            if op_tr is None:
                text, built = fn(op, loaded[k], None)
            else:
                op_tr.op = i
                with op_tr.span("op"):
                    text, built = fn(op, loaded[k], op_tr)
        except Exception:
            t1 = perf_counter()
            errors.setdefault(k, traceback.format_exc())
            bad = True
        else:
            t1 = perf_counter()
            bad = text != outputs.get(k)
            if op_tr is not None:
                probe(op_tr, op, files, built, text)
        lat.append((t1 - t0) * 1e3)
        traced.append(op_tr is not None)
        index.append(k)
        failed.append(bad)
        i += 1
    if tr is not None:
        tr.write(Path(job["spans"]))
    return {"lat_ms": lat, "speed_ms": speed, "start_s": starts, "traced": traced,
            "index": index, "failed": failed,
            "outputs": {str(k): v for k, v in outputs.items()},
            "errors": {str(k): v for k, v in errors.items()},
            "maxrss_kb": peak_rss_kb()}


def run_study_probe(job: dict) -> dict:
    """Time the bundled-study load and its reproduction checks, in process."""
    tr = Tracer()
    deadline = perf_counter() + job["seconds"]
    i = 0
    while perf_counter() < deadline or i < 3:
        tr.op = f"study{i}"
        study = call(tr, "dataset.load_paper_study", load_paper_study)
        checks = call(tr, "verify.run_study_checks", run_study_checks, study)
        if not all(c.ok for c in checks):
            raise SystemExit(f"bundled study checks failed: {[c.name for c in checks if not c.ok]}")
        i += 1
    tr.write(Path(job["spans"]))
    return {"ops": i}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run_study_probe(job) if job["command"] == "study-probe" else run_ops(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
