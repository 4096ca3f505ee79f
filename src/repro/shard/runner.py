"""Drive N regions through synchronized windows and merge their metrics.

Two transports share one window protocol:

- **in-process** (``processes=False``): regions run round-robin in this
  process — the reference engine, used by tests.  Records still pickle
  across the bus, so the two transports see identical value semantics.
- **multiprocessing** (``processes=True``): one spawned worker per
  region, with the parent acting as the bus hub (collect every
  region's outboxes, route, redistribute — a natural barrier).

The window protocol, per boundary ``t = k * W``:

1. every region runs its calendar to ``t``;
2. every region releases hosts that crossed its band edge and drains
   its outboxes (frames / pages / handoffs produced during the
   window);
3. the hub routes each record to its destination band;
4. every region applies its inbox — handoffs adopt at ``t``, frames
   and pages replay at their original timestamps plus one window —
   then takes a synchronous barrier sample.

``n = 1`` degenerates to the plain kernel run in windowed form: no
taps, no ghosts, no bus traffic — the golden-trace harness pins that
this is bit-for-bit identical to :meth:`Network.run`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.geo.grid import GridMap
from repro.metrics.timeseries import TimeSeries
from repro.shard.region import Region, RegionReport, ShardMap

#: Sync-window clamp (seconds).  The window is the boundary lookahead:
#: cross-band effects arrive one window late, and a host may be
#: simulated by its old region for up to one window after crossing.
#: The 0.5 s cap was measured, not guessed: on the statistical-gate
#: scenario it recovers ~5 pp of ecgrid delivery versus a 1 s window
#: at indistinguishable wall cost (barriers are cheap next to event
#: dispatch).
WINDOW_MIN_S = 0.1
WINDOW_MAX_S = 0.5


def resolve_window(config: ExperimentConfig, window_s: Optional[float]) -> float:
    """The synchronization window for a scenario.

    A host should not outrun its band by more than a fraction of a
    grid cell between barriers, so the window tracks
    ``cell_side / max_speed``, clamped to [0.1 s, 0.5 s] (below 0.1 s
    barrier overhead dominates; above 0.5 s the boundary-latency
    distortion grows past what the statistical gate tolerates).
    """
    if window_s is not None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        return window_s
    if config.max_speed_mps <= 0:
        return WINDOW_MAX_S
    w = 0.25 * config.cell_side_m / config.max_speed_mps
    return min(WINDOW_MAX_S, max(WINDOW_MIN_S, w))


def _make_shard_map(config: ExperimentConfig, n_shards: int) -> ShardMap:
    grid = GridMap(config.width_m, config.height_m, config.cell_side_m)
    return ShardMap(grid.cols, grid.cell_side, n_shards)


def _route(
    outboxes: List[Dict[int, List[object]]], n: int
) -> List[List[object]]:
    """Hub step: per-destination inboxes, pickle-round-tripped so both
    transports hand regions value copies, never shared objects."""
    inboxes: List[List[object]] = [[] for _ in range(n)]
    for out in outboxes:
        for band, recs in out.items():
            if recs:
                inboxes[band].extend(pickle.loads(pickle.dumps(recs)))
    return inboxes


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
def _run_inprocess(
    config: ExperimentConfig, shard_map: ShardMap, window_s: float
) -> Tuple[List[RegionReport], float]:
    n = shard_map.n
    regions = [Region(config, i, shard_map, window_s) for i in range(n)]
    # Wall clock starts after construction, matching run_experiment's
    # "event loop alone" convention so speedups compare like for like.
    t0 = time.perf_counter()
    for region in regions:
        region.start()
    t, horizon = 0.0, config.sim_time_s
    while t < horizon:
        t = min(t + window_s, horizon)
        for region in regions:
            region.run_until(t)
        inboxes = _route([r.collect_outbox() for r in regions], n)
        for region, inbox in zip(regions, inboxes):
            region.deliver(inbox)
        for region in regions:
            region.sample()
    for region in regions:
        region.finish()
    wall = time.perf_counter() - t0
    reports = [r.export() for r in regions]
    for region in regions:
        region.net.close()
    return reports, wall


def _worker_main(conn, cfg_dict, index: int, n_shards: int, window_s: float):
    """One region in its own process; the parent is the bus hub."""
    config = ExperimentConfig.from_dict(cfg_dict)
    shard_map = _make_shard_map(config, n_shards)
    region = Region(config, index, shard_map, window_s)
    try:
        conn.send("ready")  # construction done; parent starts the clock
        conn.recv()  # go
        region.start()
        t, horizon = 0.0, config.sim_time_s
        while t < horizon:
            t = min(t + window_s, horizon)
            region.run_until(t)
            conn.send(region.collect_outbox())
            region.deliver(conn.recv())
            region.sample()
        region.finish()
        conn.send(region.export())
    finally:
        conn.close()


def _run_multiprocess(
    config: ExperimentConfig, shard_map: ShardMap, window_s: float
) -> Tuple[List[RegionReport], float]:
    n = shard_map.n
    ctx = multiprocessing.get_context("spawn")
    cfg_dict = config.to_dict()
    pipes, procs = [], []
    try:
        for i in range(n):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, cfg_dict, i, n, window_s),
                daemon=True,
            )
            proc.start()
            child.close()
            pipes.append(parent)
            procs.append(proc)
        for conn in pipes:
            assert conn.recv() == "ready"
        t0 = time.perf_counter()
        for conn in pipes:
            conn.send("go")
        t, horizon = 0.0, config.sim_time_s
        while t < horizon:
            t = min(t + window_s, horizon)
            inboxes = _route([conn.recv() for conn in pipes], n)
            for conn, inbox in zip(pipes, inboxes):
                conn.send(inbox)
        reports = [conn.recv() for conn in pipes]
        wall = time.perf_counter() - t0
        return reports, wall
    finally:
        for conn in pipes:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hang backstop
                proc.terminate()
                proc.join()


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def merge_reports(
    config: ExperimentConfig, reports: List[RegionReport], wall_time_s: float
):
    """Reduce per-region reports to one :class:`ExperimentResult`.

    Packet fates resolve globally: the earliest delivery of a uid
    wins (later copies count as duplicates), a delivery anywhere
    outranks any drop, and among drops the earliest reason wins.
    """
    from repro.experiments.runner import ExperimentResult

    sent: Dict[int, float] = {}
    delivered: Dict[int, Tuple[float, float, int]] = {}
    dropped: Dict[int, Tuple[float, str]] = {}
    duplicates = 0
    counters: Dict[str, int] = {}
    medium: Dict[str, int] = {}
    events = 0
    first_death: Optional[float] = None
    for rep in reports:
        sent.update(rep.sent)
        duplicates += rep.duplicates
        events += rep.events_executed
        if rep.first_death_s is not None:
            first_death = (
                rep.first_death_s
                if first_death is None
                else min(first_death, rep.first_death_s)
            )
        for key, val in rep.counters.items():
            counters[key] = counters.get(key, 0) + val
        for key, val in rep.medium.items():
            medium[key] = medium.get(key, 0) + val
        for uid, rec in rep.delivered.items():
            if uid not in delivered or rec[0] < delivered[uid][0]:
                if uid in delivered:
                    duplicates += 1
                delivered[uid] = rec
            else:
                duplicates += 1
        for uid, rec in rep.dropped.items():
            if uid not in dropped or rec[0] < dropped[uid][0]:
                dropped[uid] = rec
    for uid in delivered:
        dropped.pop(uid, None)

    # Alive/aen series from the synchronized barrier samples: regions
    # sample at identical boundary times, so pointwise sums over the
    # disjoint owned sets reconstruct the global population.
    by_t: Dict[float, List[float]] = {}
    for rep in reports:
        for t, alive, total, remaining, capacity in rep.samples:
            acc = by_t.setdefault(t, [0.0, 0.0, 0.0, 0.0])
            acc[0] += alive
            acc[1] += total
            acc[2] += remaining
            acc[3] += capacity
    alive_series = TimeSeries("alive_fraction")
    aen_series = TimeSeries("aen")
    all_dead: Optional[float] = None
    for t in sorted(by_t):
        alive, total, remaining, capacity = by_t[t]
        if total:
            alive_series.append(t, alive / total)
            if alive == 0 and all_dead is None:
                all_dead = t
        if capacity:
            aen_series.append(t, (capacity - remaining) / capacity)

    latencies = [rec[1] for rec in delivered.values()]
    hops = [rec[2] for rec in delivered.values()]
    t_cut = first_death if first_death is not None else config.sim_time_s
    issued_pre = [uid for uid, created in sent.items() if created <= t_cut]
    delivered_pre = sum(1 for uid in issued_pre if uid in delivered)
    drop_reasons: Dict[str, int] = {}
    for _, reason in dropped.values():
        drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
    sorted_lat = sorted(latencies)
    if sorted_lat:
        import math

        idx = min(
            len(sorted_lat) - 1,
            max(0, math.ceil(0.95 * len(sorted_lat)) - 1),
        )
        p95 = sorted_lat[idx]
    else:
        p95 = 0.0
    return ExperimentResult(
        config=config,
        alive_fraction=alive_series,
        aen=aen_series,
        sent=len(sent),
        delivered=len(delivered),
        delivery_rate=(len(delivered) / len(sent)) if sent else 1.0,
        delivery_rate_pre_death=(
            delivered_pre / len(issued_pre) if issued_pre else 1.0
        ),
        mean_latency_s=(sum(latencies) / len(latencies)) if latencies else 0.0,
        latency_p95_s=p95,
        mean_hops=(sum(hops) / len(hops)) if hops else 0.0,
        duplicates=duplicates,
        first_death_s=first_death,
        all_dead_s=all_dead,
        counters=dict(sorted(counters.items())),
        medium=medium,
        dropped=len(dropped),
        drop_reasons=dict(sorted(drop_reasons.items())),
        events_executed=events,
        wall_time_s=wall_time_s,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_sharded(
    config: ExperimentConfig,
    n_shards: int,
    window_s: Optional[float] = None,
    processes: Optional[bool] = None,
    instruments=(),
):
    """Run one scenario split into ``n_shards`` vertical bands.

    ``n_shards`` is clamped to the grid's column count.  With one
    shard the windowed loop is bit-for-bit identical to
    :func:`repro.experiments.runner.run_experiment` (``instruments``
    are honored there, so the golden-trace harness can pin it); with
    more, results are statistically equivalent — the tier-2 gate in
    ``tests/shard/test_statistical_gate.py`` holds the bands.

    ``processes`` selects the transport: None defaults to one process
    per region for n > 1 (``False`` forces the in-process reference
    engine — what the equivalence tests use).
    """
    config.validate()
    if config.faults is not None and config.faults.events:
        raise ValueError(
            "sharded runs do not support fault plans; "
            "use the single-kernel runner"
        )
    shard_map = _make_shard_map(config, n_shards)
    window = resolve_window(config, window_s)
    if shard_map.n == 1:
        return _run_single(config, window, instruments)
    if instruments:
        raise ValueError("instruments require the 1-shard (exact) path")
    if processes is None:
        processes = True
    if processes:
        reports, wall = _run_multiprocess(config, shard_map, window)
    else:
        reports, wall = _run_inprocess(config, shard_map, window)
    return merge_reports(config, reports, wall)


def _run_single(config: ExperimentConfig, window_s: float, instruments=()):
    """1-shard mode: the plain kernel driven window-by-window.

    The calendar pops the same total order on (time, priority, seq)
    regardless of how ``run(until=...)`` slices the horizon, so this
    dispatches bit-identically to one ``Network.run`` call; the
    instrument protocol below mirrors :meth:`Network.run` exactly.
    """
    from repro.experiments.runner import result_from_network

    shard_map = _make_shard_map(config, 1)
    region = Region(config, 0, shard_map, window_s)
    sim = region.net.sim
    region.start()
    for inst in instruments:
        sim.instrument(inst)
        begin = getattr(inst, "on_run_begin", None)
        if begin is not None:
            begin(sim)
    t0 = time.perf_counter()
    try:
        t, horizon = 0.0, config.sim_time_s
        while t < horizon:
            t = min(t + window_s, horizon)
            region.run_until(t)
            region.collect_outbox()
            region.sample()
    finally:
        wall = time.perf_counter() - t0
        for inst in instruments:
            end = getattr(inst, "on_run_end", None)
            if end is not None:
                end(sim, wall)
            sim.uninstrument(inst)
    region.finish()
    result = result_from_network(region.net, config, wall)
    region.net.close()
    return result
