"""The benchmark's four workloads, run in a fresh child process.

``bench/run.py`` starts this file once per repeat, one child at a time,
with a JSON argument (workload, seed, repeat, repeats, seconds, trace).
The child reports on standard output, one JSON object per line:

- ``{"type": "setup", "t": ...}`` -- monotonic time just before its
  first timed operation;
- ``{"type": "op", ...}`` -- one finished job (``kind`` is ``miss``,
  ``hit`` or ``dup``) with its latency, the walls of the simulations it
  ran (``runs_s``) and its result digest;
- ``{"type": "requests", ...}`` -- HTTP requests made and failed;
- ``{"type": "check", "name": ..., "ok": ..., "detail": ...}`` -- one
  correctness oracle;
- ``{"type": "layers", ...}`` -- the traced pass's per-layer numbers;
- ``{"type": "done", "peak_rss_mb": ...}``.

Every workload replays a seeded job plan (see :func:`job_plan`).  On
paper-ecgrid, large-1000 and figure-sweep every job simulates a fresh
input (a miss).  serve-mix adds repeats of inputs the child has already
finished, which the server answers from its result cache (hits), and
fresh inputs submitted twice at once (dups).  A child stops starting
jobs ``seconds`` after its first one.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.api as api
from repro.api import ExperimentConfig, SweepRunner, SweepSpec, result_to_dict

from layers import Layers, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"

#: The paper's section 4 scenario at the scale ``pytest benchmarks/``
#: regenerates every figure from (``benchmarks/conftest.py``): host
#: density, per-host load and the lifetime shape (sleeping, paging,
#: gateway handoff, die-off inside the horizon) are kept.
PAPER_SCALE = 0.2

#: 1000 hosts on a 3162 m square keeps the paper's 100 hosts per km^2.
#: The first three simulated seconds hold the staggered HELLO start,
#: the first elections, grid paging and route discoveries of all 1000
#: hosts; past that the event count grows with the traffic regime, not
#: the population (see README.md).
LARGE = dict(protocol="ecgrid", n_hosts=1000, width_m=3162.0, height_m=3162.0,
             n_flows=20, sim_time_s=3.0)

#: Figure 4's grid (speed 1 m/s, no pause) for the two grid protocols
#: over four seeds, through a two-worker pool.  GAF is left out: its
#: route-discovery storm takes 3-19 s on about half of all seeds (see
#: README.md).
FIG4_BASE = dict(max_speed_mps=1.0, pause_time_s=0.0)
FIG4_PROTOCOLS = ["grid", "ecgrid"]
FIG4_SEEDS = 4
FIG4_SCALE = 0.12
SWEEP_WORKERS = 2
#: Per-layer metrics only the figure-sweep traced pass produces.
SWEEP_EXTRAS = ("sweep.points", "sweep.retried", "sweep.pool_utilization")

#: Jobs in one repeat's plan; a repeat stops earlier when its window
#: closes.
PLAN_LENGTH = 400
#: The plan is drawn in shuffled blocks of this many jobs, so every
#: block holds exactly the shares below.
BLOCK = 20
#: serve-mix: 55 % of jobs repeat an input the child has finished
#: (hits), 5 % submit one fresh input from two connections at once
#: (in-flight dedup), the rest are misses.  The other workloads run
#: fresh inputs only.
SERVE_HIT_SHARE = 0.55
DUP_SHARE = 0.05
#: serve-mix inputs: every (protocol, scale) pair in turn, shuffled per
#: cycle; a miss takes 0.04-0.9 s.  A dup always uses the largest
#: scale, so its job is still running when the second submit arrives.
SERVE_VARIANTS = [(p, s) for p in ("grid", "ecgrid") for s in (0.1, 0.15, 0.2)]
#: Misses per repeat whose served result is compared with a direct run.
DIRECT_CHECKS = 5


def emit(record: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(record, default=str) + "\n")
    sys.stdout.flush()


def digest(record: Dict[str, Any]) -> str:
    """Hash of a ``result_to_dict`` record, wall time excluded."""
    body = {k: v for k, v in record.items() if k != "wall_time_s"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def check(name: str, ok: bool, detail: str = "") -> None:
    emit({"type": "check", "name": name, "ok": bool(ok), "detail": detail})


def conserved(record: Dict[str, Any]) -> bool:
    """Packet accounting: nothing is delivered or dropped twice."""
    return record["delivered"] + record["dropped"] <= record["sent"]


class Window:
    """Starts at the first timed operation; closes ``seconds`` later."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start: Optional[float] = None

    def begin(self) -> None:
        if self.start is None:
            self.start = time.monotonic()
            emit({"type": "setup", "t": self.start})

    def open(self) -> bool:
        return self.start is None or time.monotonic() - self.start < self.seconds


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def job_plan(seed: int, repeat: int, hit_share: float = 0.0,
             dup_share: float = 0.0) -> List[Dict[str, Any]]:
    """The seeded job plan of one repeat.

    Entries are ``{"kind": "miss" | "dup", "input": n, "variant": v}``
    for a fresh input and ``{"kind": "hit", "ref": i}`` for a repeat of
    entry ``i``; ``variant`` picks a serve-mix input class.  Entry 0 is
    input 0 in every repeat, so the repeats can be checked against each
    other; the other fresh inputs of two repeats differ.
    """
    rng = random.Random(f"jobs:{seed}:{repeat}")
    hits, dups = round(BLOCK * hit_share), round(BLOCK * dup_share)
    block = ["hit"] * hits + ["dup"] * dups + ["miss"] * (BLOCK - hits - dups)
    kinds = ["miss"]
    while len(kinds) < PLAN_LENGTH:
        kinds += rng.sample(block, BLOCK)
    variants: List[int] = []
    plan: List[Dict[str, Any]] = []
    fresh: List[int] = []
    for i, kind in enumerate(kinds[:PLAN_LENGTH]):
        if kind == "hit":
            plan.append({"kind": kind, "ref": fresh[rng.randrange(len(fresh))]})
            continue
        if i == 0:
            plan.append({"kind": kind, "input": 0, "variant": seed % len(SERVE_VARIANTS)})
        else:
            if not variants:
                variants = rng.sample(range(len(SERVE_VARIANTS)), len(SERVE_VARIANTS))
            index = (repeat + 1) * PLAN_LENGTH + i
            plan.append({"kind": kind, "input": index, "variant": variants.pop()})
        fresh.append(i)
    return plan


def sim_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def paper_config(seed: int, index: int) -> ExperimentConfig:
    return ExperimentConfig(protocol="ecgrid", seed=sim_seed(seed, index)).scaled(PAPER_SCALE)


def large_config(seed: int, index: int) -> ExperimentConfig:
    return ExperimentConfig(seed=sim_seed(seed, index), **LARGE)


def fig4_spec(seed: int, index: int) -> SweepSpec:
    first = sim_seed(seed, FIG4_SEEDS * index)
    return SweepSpec(
        name="fig4",
        base=ExperimentConfig(**FIG4_BASE),
        axes={"protocol": list(FIG4_PROTOCOLS), "seed": list(range(first, first + FIG4_SEEDS))},
        scale=FIG4_SCALE,
    )


def serve_config(seed: int, entry: Dict[str, Any]) -> Dict[str, Any]:
    """The config of a fresh serve-mix plan entry."""
    protocol, scale = SERVE_VARIANTS[entry["variant"]]
    if entry["kind"] == "dup":
        scale = SERVE_VARIANTS[-1][1]
    config = ExperimentConfig(protocol=protocol, seed=sim_seed(seed, entry["input"]))
    return config.scaled(scale).to_dict()


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``bench/out`` (the checkout's only
    writable place); the caller removes it."""
    OUT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT)


def op_record(kind: str, entry: int, index: int, latency: float, records: List[Dict[str, Any]],
              runs_s: List[float], ok: bool, **extra: Any) -> Dict[str, Any]:
    return {
        "type": "op",
        "kind": kind,
        "entry": entry,
        "input": index,
        "latency_s": latency,
        "runs_s": runs_s,
        "events": sum(r["events_executed"] for r in records),
        "frames": sum(r["medium"]["frames_sent"] for r in records),
        "digest": digest({"points": [digest(r) for r in records]}),
        "ok": ok and all(conserved(r) for r in records),
        "peak_rss_mb": peak_rss_mb(),
        **extra,
    }


def emit_layers(snap: Dict[str, Any], spans: List[Dict[str, Any]],
                pairs: List[Tuple[float, float]], **extra: Any) -> None:
    """The traced pass's per-layer metrics; ``pairs`` holds (untraced,
    traced) seconds of the same work, for the tracing overhead."""
    metrics = layer_metrics(snap)
    untraced = sum(u for u, _ in pairs)
    traced = sum(t for _, t in pairs)
    metrics["bench.trace_overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    metrics.update(extra)
    emit({"type": "layers", "metrics": metrics, "snapshot": snap, "spans": spans})


# ----------------------------------------------------------------------
# Kernel workloads: paper-ecgrid, large-1000
# ----------------------------------------------------------------------
def timed_run(config: ExperimentConfig) -> Tuple[float, Any]:
    """Wall of one ``run_experiment`` call, and its result."""
    t0 = time.perf_counter()
    result = api.run_experiment(config)
    return time.perf_counter() - t0, result


def kernel(args: Dict[str, Any], make: Callable[[int, int], ExperimentConfig]) -> None:
    """Each job is one ``run_experiment`` call on a fresh input."""
    seed = args["seed"]
    window = Window(args["seconds"])
    layers = Layers() if args["trace"] else None
    pairs: List[Tuple[float, float]] = []
    for i, entry in enumerate(job_plan(seed, args["repeat"])):
        if not window.open():
            break
        config = make(seed, entry["input"])
        window.begin()
        wall, result = timed_run(config)
        record = result_to_dict(result)
        if layers is not None:
            # Traced pass: the same input again under the wrappers.
            with layers:
                traced_wall, traced = timed_run(config)
            check("traced digest equals untraced",
                  digest(result_to_dict(traced)) == digest(record), f"input {entry['input']}")
            pairs.append((wall, traced_wall))
        emit(op_record("miss", i, entry["input"], wall, [record], [wall], True))
    if layers is not None:
        emit_layers(layers.snapshot(), layers.spans, pairs)
    emit({"type": "done", "peak_rss_mb": peak_rss_mb()})


# ----------------------------------------------------------------------
# figure-sweep
# ----------------------------------------------------------------------
def figure_sweep(args: Dict[str, Any]) -> None:
    """Each job is one pooled sweep of :func:`fig4_spec` on fresh seeds."""
    seed = args["seed"]
    window = Window(args["seconds"])
    layers = Layers() if args["trace"] else None
    pairs: List[Tuple[float, float]] = []
    busy = capacity = 0.0
    points = retried = 0
    for i, entry in enumerate(job_plan(seed, args["repeat"])):
        if not window.open():
            break
        index = entry["input"]
        spec = fig4_spec(seed, index)
        window.begin()
        t0 = time.perf_counter()
        swept = SweepRunner(workers=SWEEP_WORKERS, cache=None).run(spec)
        latency = time.perf_counter() - t0
        records = [result_to_dict(o.result) for o in swept.outcomes]
        loops = [r["wall_time_s"] for r in records]
        busy += sum(loops)
        capacity += SWEEP_WORKERS * latency
        points += len(records)
        retried += swept.retried
        op = op_record(
            "miss", i, index, latency, records, loops, not swept.retried,
            utilization=sum(loops) / (SWEEP_WORKERS * latency),
            points=[{"protocol": r["config"]["protocol"], "seed": r["config"]["seed"],
                     "loop_s": r["wall_time_s"], "frames": r["medium"]["frames_sent"],
                     "events": r["events_executed"]} for r in records],
        )
        if i == 0:
            # One point against its serial run, outside the pool.
            _, serial = timed_run(swept.outcomes[0].point.config)
            check("sweep point equals its serial run",
                  digest(result_to_dict(serial)) == digest(records[0]),
                  swept.outcomes[0].point.key())
        if layers is not None:
            # Traced pass: the same grid serially and uncached, so every
            # point runs under the wrappers in this process.
            with layers:
                serial_run = SweepRunner(workers=0, cache=None).run(spec)
            again = [result_to_dict(o.result) for o in serial_run.outcomes]
            check("traced digest equals untraced",
                  [digest(r) for r in again] == [digest(r) for r in records], f"sweep {index}")
            pairs.append((sum(loops), sum(r["wall_time_s"] for r in again)))
        emit(op)
    if layers is not None:
        utilization = busy / capacity if capacity else 0.0
        emit_layers(layers.snapshot(), layers.spans, pairs,
                    **dict(zip(SWEEP_EXTRAS, (points, retried, utilization))))
    emit({"type": "done", "peak_rss_mb": peak_rss_mb()})


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
class ServerProcess:
    """``bench/serve_host.py`` in a child process, with a fresh cache."""

    def __init__(self, trace_path: Optional[Path]) -> None:
        self.cache_dir = scratch_dir("serve-cache-")
        cmd = [sys.executable, str(BENCH_DIR / "serve_host.py"), "--cache-dir", self.cache_dir]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line[1])

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=120)
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class Client:
    """Closed-loop HTTP client; every request opens a new connection
    because the server answers ``connection: close``."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.requests = 0
        self.failed_requests = 0
        self._lock = threading.Lock()

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"content-type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            status = response.status
        finally:
            conn.close()
        with self._lock:
            self.requests += 1
            if not 200 <= status < 300:
                self.failed_requests += 1
        return status, data

    def job(self, config: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one run job, follow its SSE stream to ``end``, fetch
        the result.  Returns the timings, views and result bytes."""
        body = json.dumps({"kind": "run", "payload": config, "tenant": "bench"}).encode()
        t0 = time.perf_counter()
        status, data = self.request("POST", "/v1/jobs", body)
        t1 = time.perf_counter()
        out: Dict[str, Any] = {"submit_s": t1 - t0, "ok": status == 201}
        if status != 201:
            out["latency_s"] = t1 - t0
            out["error"] = data.decode("utf-8", "replace")[:200]
            return out
        view = json.loads(data)
        job_id = view["job_id"]
        status, stream = self.request("GET", f"/v1/jobs/{job_id}/events")
        end = None
        for block in stream.decode("utf-8").split("\n\n"):
            lines = block.splitlines()
            if "event: end" in lines:
                end = json.loads("".join(l[6:] for l in lines if l.startswith("data: ")))
        t2 = time.perf_counter()
        status, result = self.request("GET", f"/v1/jobs/{job_id}/result")
        t3 = time.perf_counter()
        out.update(latency_s=t3 - t0, fetch_s=t3 - t2, job_id=job_id, view=view, end=end,
                   result=result, ok=out["ok"] and status == 200 and end is not None
                   and end["state"] == "done")
        return out


def serve_stream(port: int, seed: int, plan: List[Dict[str, Any]],
                 window: Window) -> Tuple[List[Dict[str, Any]], Client]:
    """Replay ``plan`` in order on one connection until the window
    closes; a dup entry is also submitted from a second connection, the
    two released together.  Returns one record per job."""
    client = Client(port)
    records: List[Dict[str, Any]] = []

    def job(i: int) -> None:
        entry = plan[i]
        ref = entry.get("ref", i)
        config = serve_config(seed, plan[ref])
        out = client.job(config)
        out.update(kind=entry["kind"], ref=ref, entry=i, input=plan[ref]["input"], config=config)
        records.append(out)

    window.begin()
    for i, entry in enumerate(plan):
        if not window.open():
            break
        if entry["kind"] == "dup":
            barrier = threading.Barrier(2, timeout=120)

            def twin() -> None:
                barrier.wait()
                job(i)

            thread = threading.Thread(target=twin)
            thread.start()
            barrier.wait()
            job(i)
            thread.join()
        else:
            job(i)
    return records, client


def serve_checks(records: List[Dict[str, Any]], health: Dict[str, Any]) -> None:
    """The served-path oracles over one server's job records."""
    first: Dict[int, bytes] = {}
    for r in records:
        if r["kind"] != "hit" and r.get("result") is not None:
            first.setdefault(r["ref"], r["result"])
    bad = [r["entry"] for r in records if r["kind"] == "hit" and r.get("result") != first.get(r["ref"])]
    check("hit responses byte-equal the first response", not bad, f"entries {bad[:5]}")
    dups: Dict[int, List[Dict[str, Any]]] = {}
    for r in records:
        if r["kind"] == "dup":
            dups.setdefault(r["entry"], []).append(r)
    bad = [i for i, pair in dups.items()
           if len(pair) != 2 or pair[0].get("job_id") != pair[1].get("job_id")
           or sorted(bool(p.get("view", {}).get("deduped")) for p in pair) != [False, True]]
    check("simultaneous fresh submits share one job", not bad, f"entries {bad[:5]}")
    hits = sum(1 for r in records if r["kind"] == "hit")
    fresh = sum(1 for r in records if r["kind"] == "miss") + len(dups)
    cache = health.get("cache", {})
    # A fresh job misses at submit and again when it runs; a hit is
    # answered at submit; a deduplicated submit never reads the cache.
    check("healthz cache counters match the plan",
          cache.get("hits") == hits and cache.get("misses") == 2 * fresh,
          f"healthz {cache}, planned hits {hits}, misses {2 * fresh}")
    jobs = health.get("jobs", {})
    check("healthz job counts match the plan",
          jobs.get("done") == hits + fresh and jobs.get("total") == hits + fresh,
          f"healthz {jobs}, planned {hits + fresh}")


def serve_pass(seed: int, repeat: int, seconds: float,
               trace: bool) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """One server lifetime: start, replay, check, stop.  Returns the job
    records and, for a traced server, its layer snapshot with spans."""
    plan = job_plan(seed, repeat, SERVE_HIT_SHARE, DUP_SHARE)
    trace_path = OUT / f"serve-layers-{repeat}-{int(trace)}.json" if trace else None
    server = ServerProcess(trace_path)
    try:
        jobs, client = serve_stream(server.port, seed, plan, Window(seconds))
        status, health = client.request("GET", "/healthz")
    finally:
        server.stop()
    serve_checks(jobs, json.loads(health) if status == 200 else {})
    snap = None
    if trace_path is not None:
        snap = json.loads(trace_path.read_text())
        trace_path.unlink()
    for r in jobs:
        record = json.loads(r["result"]) if r["ok"] else None
        end = r.get("end") or {}
        run_s = (end.get("finished_s") or 0.0) - (end.get("started_s") or 0.0)
        op = op_record(
            r["kind"], r["entry"], r["input"], r["latency_s"], [record] if record else [],
            [run_s] if r["kind"] == "miss" else [], r["ok"],
            traced=trace, submit_s=r["submit_s"], fetch_s=r.get("fetch_s", 0.0),
            queue_s=(end.get("started_s") or 0.0) - (end.get("created_s") or 0.0), run_s=run_s,
            cache_hit=bool(end.get("cache_hit")), deduped=bool(r.get("view", {}).get("deduped")),
        )
        r["digest"] = op["digest"]
        emit(op)
    emit({"type": "requests", "attempted": client.requests, "failed": client.failed_requests})
    # Served results against direct runs of the same configs.
    misses = [r for r in jobs if r["kind"] == "miss" and r["ok"]]
    for r in random.Random(f"direct:{seed}:{repeat}").sample(misses, min(DIRECT_CHECKS, len(misses))):
        _, direct = timed_run(ExperimentConfig.from_dict(r["config"]))
        check("served result equals a direct run",
              digest({"points": [digest(result_to_dict(direct))]}) == r["digest"],
              f"entry {r['entry']}")
    return jobs, snap


def serve_mix(args: Dict[str, Any]) -> None:
    if not args["trace"]:
        serve_pass(args["seed"], args["repeat"], args["seconds"], False)
    else:
        # Same plan twice: a plain server, then a traced one.
        half = args["seconds"] / 2
        plain, _ = serve_pass(args["seed"], 0, half, False)
        traced, snap = serve_pass(args["seed"], 0, half, True)
        digests = {(r["kind"], r["entry"]): r["digest"] for r in plain if r["ok"]}
        common = [r for r in traced if r["ok"] and (r["kind"], r["entry"]) in digests]
        check("traced digest equals untraced",
              all(digests[r["kind"], r["entry"]] == r["digest"] for r in common),
              f"{len(common)} common jobs")
        plain_run = {r["entry"]: (r["end"] or {}) for r in plain if r["kind"] == "miss" and r["ok"]}
        pairs = []
        for r in traced:
            if r["kind"] == "miss" and r["ok"] and r["entry"] in plain_run:
                before, after = plain_run[r["entry"]], r["end"] or {}
                pairs.append((before["finished_s"] - before["started_s"],
                              after["finished_s"] - after["started_s"]))
        spans = snap.pop("spans")
        emit_layers(snap, spans, pairs)
    emit({"type": "done", "peak_rss_mb": peak_rss_mb()})


WORKLOADS: Dict[str, Callable[[Dict[str, Any]], None]] = {
    "paper-ecgrid": lambda args: kernel(args, paper_config),
    "large-1000": lambda args: kernel(args, large_config),
    "figure-sweep": figure_sweep,
    "serve-mix": serve_mix,
}


def main() -> None:
    args = json.loads(sys.argv[1])
    WORKLOADS[args["workload"]](args)


if __name__ == "__main__":
    main()
