"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root (``src/`` is found next to ``bench/``)::

    python3 bench/run.py                      # every workload, write bench/out/bench-*.json
    python3 bench/run.py --workload serve-mix --seed 3 --seconds 25 --trace 0
    python3 bench/run.py check A.json B.json  # do two sets of runs agree?

One run of one workload starts :data:`REPEATS` fresh child processes
(``bench/workloads.py``), one at a time, each measuring for an equal
share of ``--seconds``.  With ``--trace 0`` it reports the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` one child runs
the traced pass and the per-layer metrics are reported.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output was
wrong, 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("paper-ecgrid", "large-1000", "figure-sweep", "serve-mix")

#: Fresh child processes per untraced run; ``setup_s`` is their median.
REPEATS = 3
#: How long a child may take to reach its first timed operation (~1 s
#: normally).
SETUP_LIMIT_S = 20.0
#: How long a child may run past its window before it is killed.  A
#: child finishes the operation it started, and none takes more than a
#: few seconds, so a child still running this long is hung.  With these
#: limits a hung run still ends well inside three minutes.
OVERRUN_LIMIT_S = 15.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered) / 100.0, 9)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest nearest-rank percentile with at least ten samples
    beyond it, as ``(percentile, value)``.  None when that percentile
    would be below the median (fewer than 20 samples)."""
    n = len(values)
    if n < 20:
        return None
    q = 100.0 * (n - 10) / n
    return q, percentile(values, q)


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median, as ``statistics.quantiles``
    computes the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(**extra: Any) -> Dict[str, Any]:
    """Where a set of numbers came from: code, interpreter, machine."""
    rev = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                        text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ecgrid_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("ECGRID_")},
        **extra,
    }


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def run_child(args: Dict[str, Any]) -> Dict[str, Any]:
    """Start one child, collect its records, stop it and everything it
    started.  Returns ``{"records", "spawn", "killed", "exit"}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "workloads.py"), json.dumps(args)],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True, start_new_session=True,
    )
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def read() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    records: List[Dict[str, Any]] = []
    deadline = spawn + SETUP_LIMIT_S
    killed = False
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            killed = True
            break
        if line is None:
            break
        record = json.loads(line)
        record["arrived"] = time.monotonic()
        records.append(record)
        if record["type"] == "setup":
            deadline = record["t"] + args["seconds"] + OVERRUN_LIMIT_S
    stop_group(proc)
    reader.join(timeout=10)
    return {"records": records, "spawn": spawn, "killed": killed, "exit": proc.returncode}


def stop_group(proc: subprocess.Popen) -> None:
    """Kill the child's process group (its pool workers and server too)
    if anything is left, and wait until every member has exited."""
    try:
        proc.wait(timeout=1 if proc.poll() is None else None)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(600):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RuntimeError(f"process group {proc.pid} did not exit")


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def setup_times(children: List[Dict[str, Any]]) -> List[Tuple[Dict[str, Any], float]]:
    """(child, seconds from its spawn to its first timed operation)."""
    out = []
    for child in children:
        setup = next((r["t"] for r in child["records"] if r["type"] == "setup"), None)
        if setup is not None:
            out.append((child, setup - child["spawn"]))
    return out


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(children: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run: the bounded ones
    BENCHMARK.json names, then sample counts, the tail percentiles (see
    :func:`tail`) and the metrics README.md explains are not bounded."""
    ops = [r for c in children for r in c["records"] if r["type"] == "op" and r["ok"]]
    latency = {kind: [op["latency_s"] for op in ops if op["kind"] == kind]
               for kind in ("miss", "hit", "dup")}
    runs = [s for op in ops if op["kind"] == "miss" for s in op["runs_s"]]
    setups = []
    windows = []
    for child, setup in setup_times(children):
        setups.append(setup)
        done = [r["arrived"] for r in child["records"] if r["type"] == "op"]
        windows.append(max(done, default=0.0) - child["spawn"] - setup)
    peaks = [max((r["peak_rss_mb"] for r in c["records"] if "peak_rss_mb" in r), default=0.0)
             for c in children]
    metrics = {
        "run_wall_s": median(runs),
        "job_miss_p50_ms": 1000.0 * median(latency["miss"]),
        "setup_s": median(setups),
        "peak_rss_mb": median(peaks),
        "runs": len(runs),
        "job_misses": len(latency["miss"]),
        "job_miss_p90_ms": 1000.0 * percentile(latency["miss"], 90) if latency["miss"] else 0.0,
        "jobs_per_s": len(ops) / sum(windows) if sum(windows) > 0 else 0.0,
    }
    if latency["hit"]:
        metrics["job_hits"] = len(latency["hit"])
        metrics["job_hit_p50_ms"] = 1000.0 * median(latency["hit"])
        metrics["job_hit_p95_ms"] = 1000.0 * percentile(latency["hit"], 95)
    if latency["dup"]:
        metrics["job_dup_p50_ms"] = 1000.0 * median(latency["dup"])
    for kind in ("miss", "hit"):
        high = tail(latency[kind])
        if high is not None:
            metrics[f"job_{kind}_tail_pct"] = high[0]
            metrics[f"job_{kind}_tail_ms"] = 1000.0 * high[1]
    return metrics


def collect_checks(children: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The child-side oracles plus the cross-repeat one."""
    checks = [r for c in children for r in c["records"] if r["type"] == "check"]
    for i, child in enumerate(children):
        finished = any(r["type"] == "done" for r in child["records"])
        checks.append({"name": "child finished cleanly", "ok": finished and child["exit"] == 0,
                       "detail": f"child {i}: exit {child['exit']}, killed {child['killed']}"})
    shared = {r["digest"] for c in children for r in c["records"]
              if r["type"] == "op" and r["input"] == 0 and r["kind"] == "miss" and r["ok"]}
    checks.append({"name": "input 0 digest identical across repeats", "ok": len(shared) == 1,
                   "detail": f"{len(shared)} distinct digest(s)"})
    return checks


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload; see the module docstring."""
    repeats = 1 if trace else REPEATS
    children = []
    for repeat in range(repeats):
        children.append(run_child({
            "workload": workload, "seed": seed, "repeat": repeat, "repeats": repeats,
            "seconds": seconds / repeats, "trace": int(trace),
        }))
    checks = collect_checks(children)
    ops = [r for c in children for r in c["records"] if r["type"] == "op"]
    requests = [r for c in children for r in c["records"] if r["type"] == "requests"]
    attempted = len(ops) + len(checks) + sum(r["attempted"] for r in requests)
    failed = (sum(1 for op in ops if not op["ok"]) + sum(1 for c in checks if not c["ok"])
              + sum(r["failed"] for r in requests))
    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": all(c["ok"] for c in checks) and all(op["ok"] for op in ops),
        "attempted": attempted, "failed": failed, "checks": checks,
        "killed_children": sum(1 for c in children if c["killed"]),
        "samples": {"ops": ops, "setup_s": [s for _, s in setup_times(children)]},
    }
    if not ops:
        result["correct"] = False
        result["metrics"] = {}
        return result
    if trace:
        layers = next((r for c in children for r in c["records"] if r["type"] == "layers"), None)
        result["metrics"] = dict(layers["metrics"]) if layers else {}
        if workload == "serve-mix":
            traced = [op for op in ops if op["traced"]]
            result["metrics"].update(serve_layer_shares(traced, requests[-1:]))
        result["layers"] = layers["snapshot"] if layers else {}
        result["spans"] = layers["spans"] if layers else []
    else:
        result["metrics"] = end_to_end(children)
        result["metrics"]["failed_frac"] = failed / attempted
    return result


def serve_layer_shares(ops: List[Dict[str, Any]], requests: List[Dict[str, Any]]) -> Dict[str, float]:
    """Where served-job latency went, as shares of its sum."""
    total = sum(op["latency_s"] for op in ops) or 1.0
    return {
        "serve.submit_frac": sum(op["submit_s"] for op in ops) / total,
        "serve.queue_frac": sum(max(0.0, op["queue_s"]) for op in ops) / total,
        "serve.run_frac": sum(max(0.0, op["run_s"]) for op in ops) / total,
        "serve.fetch_frac": sum(op["fetch_s"] for op in ops) / total,
        "serve.dedup_hits": sum(1 for op in ops if op["deduped"]),
        "serve.cache_hits": sum(1 for op in ops if op["cache_hit"]),
        "serve.rejected": sum(r["failed"] for r in requests),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def result_line(result: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The final output line: exactly the metrics BENCHMARK.json names.
    A per-layer metric of a layer the workload never enters reads 0."""
    metrics = {}
    for m in spec["per_layer"] if result["trace"] else spec["end_to_end"]:
        value = result["metrics"].get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def unit_of(name: str, units: Dict[str, str]) -> str:
    """A metric's unit: from BENCHMARK.json, else from its name."""
    if name in units:
        return units[name]
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_frac", "frac"),
                         ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_result(result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} seed {result['seed']} ({mode}, {result['seconds']:g} s)")
    for name, value in result["metrics"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>14} {unit_of(name, units)}")
    bad = [c for c in result["checks"] if not c["ok"]]
    print(f"  checks: {len(result['checks']) - len(bad)}/{len(result['checks'])} passed"
          + "".join(f"\n    FAILED {c['name']}: {c['detail']}" for c in bad))
    print(f"  attempted {result['attempted']}, failed {result['failed']}")


def write_json(path: Path, payload: Dict[str, Any]) -> None:
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=str))


def save_run(result: Dict[str, Any], header: Dict[str, Any]) -> None:
    tag = f"{result['workload']}-s{result['seed']}-t{int(result['trace'])}"
    spans = result.pop("spans", None)
    write_json(OUT / f"run-{tag}.json", {"provenance": header, **result})
    if spans is not None:
        write_json(OUT / f"trace-{result['workload']}.json", {"provenance": header, "spans": spans})


# ----------------------------------------------------------------------
# check A.json B.json
# ----------------------------------------------------------------------
def check_sets(a_path: Path, b_path: Path, spec: Dict[str, Any]) -> bool:
    """Print each side's median and quartiles per (workload, metric) and
    whether the two sets agree within the BENCHMARK.json bounds."""
    sets = [json.loads(Path(p).read_text()) for p in (a_path, b_path)]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    agree = True
    for workload in WORKLOADS:
        print(f"== {workload}")
        runs = [[r for r in s["runs"] if r["workload"] == workload and not r["trace"]]
                for s in sets]
        # The bounded metrics first, then those printed without a bound.
        extras = sorted({n for side in runs for r in side for n in r["metrics"]} - set(bounds))
        for name in list(bounds) + extras:
            sides = [[r["metrics"][name] for r in side if name in r["metrics"]] for side in runs]
            if any(len(v) < 2 for v in sides):
                print(f"  {name:<18} too few runs")
                agree &= name not in bounds
                continue
            meds = [statistics.median(v) for v in sides]
            if not meds[0] or not meds[1]:
                continue
            quarts = [statistics.quantiles(v, n=4) for v in sides]
            spreads = [spread(v) for v in sides]
            change = meds[1] / meds[0] - 1.0
            line = (f"  {name:<18} A {meds[0]:.5g} [{quarts[0][0]:.5g}, {quarts[0][2]:.5g}]"
                    f"  B {meds[1]:.5g} [{quarts[1][0]:.5g}, {quarts[1][2]:.5g}]"
                    f"  change {change:+.1%} spread {spreads[0]:.1%}/{spreads[1]:.1%}")
            if name not in bounds:
                print(line + "  no bound")
                continue
            bound = bounds[name]
            ok = abs(change) <= bound and (name == "setup_s" or max(spreads) <= bound)
            agree &= ok
            print(line + f"  bound {bound:.0%}  {'agree' if ok else 'DISAGREE'}")
    print("sets agree" if agree else "sets DISAGREE")
    return agree


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if argv[:1] == ["check"]:
        if len(argv) != 3:
            print("usage: run.py check A.json B.json", file=sys.stderr)
            return 2
        return 0 if check_sets(Path(argv[1]), Path(argv[2]), spec) else 1
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload without --workload (seeds S, S+1, ...)")
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    if args.workload:
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
        header = provenance(seed=args.seed, repeats=1 if args.trace else REPEATS,
                            seconds=args.seconds, bench_wall_s=time.monotonic() - t0)
        print_result(result, spec)
        save_run(result, header)
        print(json.dumps(result_line(result, spec)))
        return 0 if result["correct"] else 1
    runs = []
    path = OUT / f"bench-{time.strftime('%Y%m%d-%H%M%S')}.json"
    for workload in WORKLOADS:
        for seed in [args.seed + i for i in range(args.runs)] + [None]:
            result = run_once(workload, args.seed if seed is None else seed,
                              args.seconds, seed is None)
            print_result(result, spec)
            header = provenance(seed=args.seed, runs=args.runs, repeats=REPEATS,
                                seconds=args.seconds, bench_wall_s=time.monotonic() - t0)
            if seed is None:
                write_json(OUT / f"trace-{workload}.json",
                           {"provenance": header, "spans": result.pop("spans", [])})
            runs.append(result)
            write_json(path, {"provenance": header, "runs": runs})
    print(f"wrote {path.relative_to(ROOT)} in {header['bench_wall_s']:.0f} s")
    correct = all(r["correct"] for r in runs)
    summary = {"correct": correct, "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "metrics": {}}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
