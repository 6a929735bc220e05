"""fdahp benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage (from anywhere; paths resolve against the repository root):

    python3 bench/run.py --workload study-cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Each run generates the workload's inputs from the seed, warms the bytecode
cache, measures set-up time, runs a closed loop with one client (the next
operation starts when the previous one has finished) for the given seconds,
checks every distinct output against an independent NumPy reference, prints
every metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json; `--trace 1` the per-layer metrics.
Every run also leaves a record with its environment under
.perfbench/results/, which `bench/compare.py` reads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, time_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".perfbench")  # relative to ROOT, so report paths do not depend on the checkout
WORKLOADS = ("study-cli", "study-batch", "matrix-large", "panel-large")

# What a user's `fdahp` console script runs.
CLI_MAIN = "import sys; from fdahp.cli import main; sys.exit(main())"
# The same, traced: `-c CLI_TRACED SPANS.json ARGS...` also writes a span for
# the import of fdahp.cli and one for the in-process `main(ARGS)` call.
CLI_TRACED = """import sys, time
t0 = time.perf_counter()
from fdahp.cli import main
t1 = time.perf_counter()
code = main(sys.argv[2:])
t2 = time.perf_counter()
import json
with open(sys.argv[1], "w") as f:
    json.dump([["cli.import", t0, t1], ["cli.main." + sys.argv[2], t1, t2]], f)
sys.exit(code)
"""
# Operations a run holds at least, so that ten lie beyond its 90th percentile,
# unless that would take more than MAX_STRETCH times the measured seconds.
MIN_OPS, MAX_STRETCH = 100, 2
# Modules each workload needs before its first operation can be issued.
SETUP_IMPORTS = {"study-cli": "fdahp.cli", "study-batch": "fdahp.io, fdahp.report, fdahp.dataset",
                 "matrix-large": "fdahp.fahp, fdahp.report", "panel-large": "fdahp.io, fdahp.report"}
# Fresh interpreters per set-up measurement, half before and half after the
# timed phase so that they span the run; their median is `setup_s`.
SETUP_SAMPLES = 24
# Fresh interpreters per start-up probe of a traced study-cli run.
PROBE_SAMPLES = 9
# Imports every stdlib module fdahp.cli loads, then times `import fdahp.cli`
# alone, from the warm cache or, with "cold", from an empty one (compiling).
IMPORT_PROBE = """import sys, time
import __future__, argparse, csv, dataclasses, enum, hashlib, importlib.resources, io, json
import logging, math, pathlib, typing
if sys.argv[1] == "cold":
    sys.pycache_prefix, sys.dont_write_bytecode = sys.argv[2], True
t = time.perf_counter()
import fdahp.cli
print(json.dumps([t, time.perf_counter()]))
"""

sys.path.insert(0, str(BENCH))
from hostspeed import REFERENCE_MS, normalize, sample_ms  # noqa: E402
from spans import Tracer, summarise  # noqa: E402
import gen  # noqa: E402


def child_env() -> dict[str, str]:
    """Environment of every measured interpreter: a warm, benchmark-owned bytecode cache."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / WORK / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict, out=subprocess.DEVNULL, err=subprocess.DEVNULL):
    """Run a child to completion: (start, end, exit code, peak RSS in KiB).

    The kernel folds the parent's RSS at spawn time into the child's peak, so
    this process stays small (no NumPy) until every CLI child has run.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage.ru_maxrss


def environment(seed: int) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pycache": f"PYTHONPYCACHEPREFIX={WORK / 'pycache'}, warmed before timing; "
                   "PYTHONDONTWRITEBYTECODE unset for benchmark children",
        "seed": seed,
    }


def export_study(env):
    def export(dest: Path, fmt: str) -> None:
        argv = [sys.executable, "-c", CLI_MAIN, "export", "--dest", str(dest), "--format", fmt]
        if spawn(argv, env)[2] != 0:
            raise RuntimeError(f"fdahp export --format {fmt} failed")
    return export


# ------------------------------------------------------------------ loops

def run_cli_ops(ops: list[dict], seconds: float, env: dict, tmp: Path, tr: Tracer | None) -> dict:
    """Closed loop over `fdahp` CLI invocations; traced passes alternate with plain ones."""
    out_path, err_path, spans_path = tmp / "out", tmp / "err", tmp / "spans.json"

    def invoke(op: dict, traced: bool):
        argv = ([sys.executable, "-c", CLI_TRACED, str(spans_path)] if traced
                else [sys.executable, "-c", CLI_MAIN]) + op["argv"]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0, t1, code, rss = spawn(argv, env, out, err)
        return t0, t1, code, rss, out_path.read_text(encoding="utf-8")

    outputs, errors = {}, {}
    for k, op in enumerate(ops):  # warm-up pass, also the reference output per operation
        *_, code, _, text = invoke(op, False)
        if code == 0:
            outputs[k] = text
        else:
            errors[k] = f"exit {code}: {err_path.read_text(encoding='utf-8')}"
    lat, speed, starts, traced, index, failed, rss = [], [], [], [], [], [], []
    start = perf_counter()
    i = 0
    while running(start, seconds, i):
        k = i % len(ops)
        is_traced = tr is not None and (i // len(ops)) % 2 == 1
        speed.append(sample_ms())
        t0, t1, code, peak, text = invoke(ops[k], is_traced)
        starts.append(t0)
        if code != 0:
            errors.setdefault(k, f"exit {code}: {err_path.read_text(encoding='utf-8')}")
        if is_traced:
            tr.op = i
            op_span = tr.add("op", t0, t1)
            if code == 0:  # a failed child may not have written its spans
                tr.adopt(json.loads(spans_path.read_text(encoding="utf-8")), op_span)
        else:
            rss.append(peak)
        lat.append((t1 - t0) * 1e3)
        traced.append(is_traced)
        index.append(k)
        failed.append(code != 0 or text != outputs.get(k))
        i += 1
    return {"lat_ms": lat, "speed_ms": speed, "start_s": starts, "traced": traced,
            "index": index, "failed": failed,
            "outputs": {str(k): v for k, v in outputs.items()},
            "errors": {str(k): v for k, v in errors.items()}, "maxrss_kb": max(rss, default=0)}


def running(start: float, seconds: float, done: int) -> bool:
    elapsed = perf_counter() - start
    return elapsed < seconds or (done < MIN_OPS and elapsed < MAX_STRETCH * seconds)


def run_worker(job: dict, env: dict, tmp: Path) -> dict:
    job = {**job, "result": str(tmp / "result.json")}
    (tmp / "job.json").write_text(json.dumps(job), encoding="utf-8")
    with open(tmp / "worker.err", "wb") as err:
        code = spawn([sys.executable, str(BENCH / "worker.py"), str(tmp / "job.json")], env,
                     err=err)[2]
    if code != 0:
        raise RuntimeError(f"worker exited {code}:\n" + (tmp / "worker.err").read_text())
    return json.loads((tmp / "result.json").read_text(encoding="utf-8"))


def setup_seconds(workload: str, env: dict, samples: int) -> list[tuple[float, float, float]]:
    """(wall seconds, host-speed sample in ms, start) of fresh interpreters that
    import what the workload needs, then exit."""
    argv = [sys.executable, "-c", f"import {SETUP_IMPORTS[workload]}"]
    out = []
    for _ in range(samples):
        speed = sample_ms()
        t0, t1, code, _ = spawn(argv, env)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        out.append((t1 - t0, speed, t0))
    return out


def startup_probes(env: dict, tmp: Path) -> Tracer:
    """Interpreter floor, and warm versus cold import of fdahp.cli, in fresh interpreters."""
    tr = Tracer()
    cold = tmp / "cold-pycache"
    cold.mkdir(parents=True, exist_ok=True)
    for k in range(PROBE_SAMPLES):
        tr.op = f"startup{k}"
        t0, t1, *_ = spawn([sys.executable, "-c", "pass"], env)
        tr.add("cli.interp", t0, t1)
        for mode in ("warm", "cold"):
            with open(tmp / "probe.out", "wb") as out:
                code = spawn([sys.executable, "-c", IMPORT_PROBE, mode, str(cold)], env, out)[2]
            if code != 0:
                raise RuntimeError(f"{mode} import probe exited {code}")
            tr.add(f"cli.import_{mode}", *json.loads((tmp / "probe.out").read_text()))
    return tr


# ---------------------------------------------------------------- results

def check_run(manifest: dict, result: dict) -> tuple[int, list[str]]:
    """Failed operations and error messages; NumPy is loaded only now, after timing."""
    import check

    ops = manifest["ops"]
    messages = [f"operation {k} ({ops[int(k)]['command']}): {e}" for k, e in result["errors"].items()]
    bad = set(int(k) for k in result["errors"])
    for k, text in result["outputs"].items():
        errs = check.check_output(ops[int(k)], text)
        if errs:
            bad.add(int(k))
            messages.append(f"operation {k} ({ops[int(k)]['command']} {ops[int(k)]['emit']}): "
                            + "; ".join(errs[:5]))
    repeats = sum(1 for k, f in zip(result["index"], result["failed"]) if f and k not in bad)
    if repeats:
        messages.append(f"{repeats} operations emitted output differing from their first run")
    failed = sum(1 for k, f in zip(result["index"], result["failed"]) if f or k in bad)
    manifest["properties"] = check.input_properties(ops)
    return failed, messages


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    env = child_env()
    work = WORK / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = gen.generate(workload, seed, work, export_study(env))
    ops = manifest["ops"]
    spawn([sys.executable, "-c", f"import {SETUP_IMPORTS[workload]}"], env)  # warms the cache
    setup = [] if trace else setup_seconds(workload, env, SETUP_SAMPLES // 2)
    tr = Tracer() if trace else None
    if workload == "study-cli":
        probe_tr = None
        if trace:
            probe_tr = startup_probes(env, work)
            run_worker({"command": "study-probe", "seconds": 0.1 * seconds,
                        "spans": str(work / "study-probe.jsonl")}, env, work)
            probe_tr = Tracer.merge(probe_tr, Tracer.read(work / "study-probe.jsonl"))
        result = run_cli_ops(ops, 0.8 * seconds if trace else seconds, env, work, tr)
        if trace:
            tr = Tracer.merge(tr, probe_tr)
    else:
        spans = work / "spans.jsonl"
        result = run_worker({"command": "ops", "ops": ops, "files": manifest["files"],
                             "seconds": seconds, "trace": trace, "spans": str(spans),
                             "min_ops": MIN_OPS, "max_stretch": MAX_STRETCH}, env, work)
        if trace:
            tr = Tracer.read(spans)
    if not trace:
        setup += setup_seconds(workload, env, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    failed, messages = check_run(manifest, result)
    attempted = len(result["lat_ms"])
    norm = normalize(result["lat_ms"], result["speed_ms"], result["start_s"])
    plain = [ms for ms, t in zip(norm, result["traced"]) if not t]
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "env": environment(seed),
              "inputs": {k: manifest[k] for k in ("params", "files", "properties")},
              "operations": {"attempted": attempted, "failed": failed, "distinct": len(ops)},
              "errors": messages[:20]}
    if trace:
        traced = [ms for ms, t in zip(norm, result["traced"]) if t]
        layers, self_ms = summarise(tr)
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: layers.get(n, 0.0) for n in names}
        record["self_ms"] = self_ms
        record["samples"] = {"traced_ops": len(traced), "untraced_ops": len(plain)}
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tr.write(WORK / "traces" / f"{workload}-seed{seed}.jsonl")
    else:
        raw = result["lat_ms"]
        setup_raw = [s for s, _, _ in setup]
        metrics = {
            "latency_ms.p50": statistics.median(plain),
            "latency_ms.p90": p90(plain),
            "ops_per_s": len(plain) / (sum(plain) / 1e3),
            "setup_s": statistics.median(normalize(setup_raw, [p for _, p, _ in setup],
                                                   [t for _, _, t in setup])),
            "peak_rss_mb": result["maxrss_kb"] / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        record["samples"] = {"ops": len(plain), "beyond_p90": sum(ms > metrics["latency_ms.p90"]
                                                                  for ms in plain),
                             "setup": len(setup)}
        record["raw"] = {"latency_ms.p50": statistics.median(raw), "latency_ms.p90": p90(raw),
                         "ops_per_s": len(raw) / (sum(raw) / 1e3),
                         "setup_s": statistics.median(setup_raw),
                         "hostspeed_ms.p50": statistics.median(result["speed_ms"])}
    record["metrics"] = metrics
    return record


def report(record: dict, units: dict[str, str]) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {int(record['trace'])}  "
          f"closed loop, 1 client, {record['seconds']:g} s")
    print("env: " + "  ".join(f"{k}={env[k]}" for k in
                              ("git_sha", "python", "nproc", "PYTHONDONTWRITEBYTECODE", "pycache")))
    files = record["inputs"]["files"]
    props = "  ".join(f"{k}={v:.4g}" for k, v in record["inputs"]["properties"].items())
    print(f"inputs: {len(files)} files, {sum(f['rows'] for f in files.values())} rows, "
          f"{sum(f['bytes'] for f in files.values())} bytes  {props}")
    print("samples: " + "  ".join(f"{k}={v}" for k, v in record["samples"].items()))
    raw = record.get("raw", {})
    for name, value in record["metrics"].items():
        extra = f"   (raw wall {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<32} {value:14.6g} {units[name]}{extra}")
    if "hostspeed_ms.p50" in raw:
        print(f"  host-speed routine median {raw['hostspeed_ms.p50']:.4g} ms "
              f"(reference {REFERENCE_MS} ms); times above are scaled by reference / routine")
    for message in record["errors"]:
        print(f"error: {message}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fdahp" / "__init__.py").is_file():
        print(f"error: no fdahp sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        record = measure(workload, args.seed, seconds, bool(args.trace), spec)
        report(record, units)
        name = f"{workload}-seed{args.seed}-trace{args.trace}-{time_ns()}.json"
        (WORK / "results" / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
        ops = record["operations"]
        summary["attempted"] += ops["attempted"]
        summary["failed"] += ops["failed"]
        summary["correct"] &= ops["failed"] == 0 and ops["attempted"] > 0
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        summary["metrics"].update({prefix + k: {"value": v, "unit": units[k]}
                                   for k, v in record["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
