"""Command-line interface: regenerate any paper figure or run ad-hoc
experiments.

Examples::

    ecgrid run --protocol ecgrid --hosts 60 --time 400
    ecgrid fig4 --speed 1 --scale 0.25
    ecgrid fig8 --speed 10 --scale 0.2 --workers 4
    ecgrid ablation-hello --scale 0.2
    ecgrid fig4 --seeds 4 --workers 4    # parallel seed replication
    ecgrid fig4 --paper                  # full paper-scale parameters (slow)
    ecgrid serve --port 8642             # HTTP job server (docs/serving.md)

Figure subcommands run through the sweep engine: ``--workers N``
simulates grid points on N processes (``0`` = inline serial), and
results are cached on disk by config hash (``--cache-dir``,
``--no-cache``) so re-running a figure only simulates what changed.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import (
    ELECTION_POLICIES,
    FIGURES,
    PROTOCOLS,
    ExperimentConfig,
    FigureData,
    ProtocolParams,
    ResultCache,
    SweepRunner,
    default_cache_dir,
    figure,
    run_experiment,
)


def _worker_count(text: str) -> int:
    """argparse type of a process count: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--speed", type=float, default=1.0, help="max roaming speed (m/s)")
    p.add_argument("--scale", type=float, default=0.25, help="scenario scale factor (0,1]")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--paper", action="store_true", help="force scale=1.0 (paper scale)")
    p.add_argument("--csv", metavar="FILE", help="also write the figure as CSV")
    p.add_argument("--json", metavar="FILE", help="also write the figure as JSON")
    p.add_argument(
        "--seeds", type=int, default=1,
        help="replicate over N seeds (seed..seed+N-1) and average curves",
    )
    p.add_argument(
        "--workers", type=_worker_count, default=0,
        help="simulate grid points on N processes (0 = inline serial)",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    p.add_argument(
        "--target-ci", type=float, default=None, metavar="REL",
        help="adaptive replication: add seeds per arm until every "
        "headline scalar's relative CI half-width is within REL "
        "(e.g. 0.05); overrides --seeds (see docs/sweeps.md)",
    )
    p.add_argument(
        "--max-seeds", type=int, default=16,
        help="adaptive replication cap per arm (with --target-ci)",
    )
    p.add_argument(
        "--min-seeds", type=int, default=3,
        help="adaptive replication pilot size (with --target-ci)",
    )


def _scale(args) -> float:
    return 1.0 if args.paper else args.scale


def _runner(args) -> SweepRunner:
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return SweepRunner(workers=args.workers, cache=cache)


def _figure(name: str, args) -> FigureData:
    runner = _runner(args)
    adaptive = {}
    if args.target_ci is not None:
        adaptive = dict(
            target_ci=args.target_ci,
            max_seeds=args.max_seeds,
            min_seeds=args.min_seeds,
        )
    fig = figure(
        name,
        speed=args.speed,
        scale=_scale(args),
        seed=args.seed,
        seeds=args.seeds,
        runner=runner,
        **adaptive,
    )
    cached = 0 if runner.cache is None else runner.cache.hits
    simulated = None if runner.cache is None else runner.cache.misses
    print(
        f"sweep: {simulated if simulated is not None else 'all'} point(s) "
        f"simulated, {cached} cached (workers={args.workers})"
    )
    if fig.precision is not None:
        print(fig.precision.summary())
    return fig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ecgrid",
        description="ECGRID (ICPP'03) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one ad-hoc experiment")
    run_p.add_argument("--protocol", choices=PROTOCOLS, default="ecgrid")
    run_p.add_argument("--hosts", type=int, default=100)
    run_p.add_argument("--time", type=float, default=2000.0)
    run_p.add_argument("--speed", type=float, default=1.0)
    run_p.add_argument("--pause", type=float, default=0.0)
    run_p.add_argument("--flows", type=int, default=10)
    run_p.add_argument("--rate", type=float, default=1.0)
    run_p.add_argument("--energy", type=float, default=500.0)
    run_p.add_argument("--area", type=float, default=1000.0)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument(
        "--election-policy", choices=sorted(ELECTION_POLICIES),
        default="paper",
        help="gateway-election policy (see docs/election.md)",
    )
    run_p.add_argument(
        "--partition", action="store_true",
        help="score the gateway partition (load balance, churn, "
        "coverage gaps) and print the report (see docs/election.md)",
    )
    run_p.add_argument(
        "--faults", metavar="FILE", default=None,
        help="JSON fault plan to inject into the run (see docs/faults.md)",
    )
    run_p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record protocol events and export them as schema-versioned "
        "JSONL to FILE (see docs/observability.md)",
    )
    run_p.add_argument(
        "--trace-filter", metavar="CATS", default=None,
        help="comma-separated trace categories to record "
        "(e.g. 'gateway,page'; default: all)",
    )
    run_p.add_argument(
        "--audit", action="store_true",
        help="run the online invariant auditors against the trace bus "
        "and print their report (nonzero exit on violations)",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="attach the kernel profiler and print its per-category report",
    )
    run_p.add_argument(
        "--cprofile", metavar="FILE", default=None,
        help="also collect a cProfile trace and dump pstats to FILE "
        "(implies --profile)",
    )

    for name in FIGURES:
        _add_common(sub.add_parser(name, help=f"regenerate {name}"))

    serve_p = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP job server "
        "(see docs/serving.md)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642)
    serve_p.add_argument(
        "--jobs", type=int, default=2,
        help="jobs simulating concurrently (executor threads)",
    )
    serve_p.add_argument(
        "--sweep-workers", type=_worker_count, default=0,
        help="process-pool width per sweep/figure job (0 = inline points)",
    )
    serve_p.add_argument(
        "--quota", type=int, default=4,
        help="max queued+running jobs per tenant before HTTP 429",
    )
    serve_p.add_argument(
        "--timeout", type=float, default=None,
        help="per-grid-point timeout in seconds (pooled sweeps only)",
    )
    serve_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    serve_p.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )

    watch_p = sub.add_parser(
        "watch", help="run a scenario printing ASCII map snapshots"
    )
    watch_p.add_argument("--protocol", choices=PROTOCOLS, default="ecgrid")
    watch_p.add_argument("--hosts", type=int, default=30)
    watch_p.add_argument("--area", type=float, default=600.0)
    watch_p.add_argument("--time", type=float, default=120.0)
    watch_p.add_argument("--every", type=float, default=20.0)
    watch_p.add_argument("--speed", type=float, default=1.0)
    watch_p.add_argument("--energy", type=float, default=100.0)
    watch_p.add_argument("--seed", type=int, default=1)

    args = parser.parse_args(argv)

    if args.command == "serve":
        from repro.serve import ServerConfig, serve

        return serve(
            ServerConfig(
                host=args.host,
                port=args.port,
                sweep_workers=args.sweep_workers,
                concurrency=args.jobs,
                max_active_per_tenant=args.quota,
                timeout_s=args.timeout,
                cache_dir=args.cache_dir,
                no_cache=args.no_cache,
            )
        )

    if args.command == "watch":
        from repro.api import build_network
        from repro.api import render_snapshot as render

        cfg = ExperimentConfig(
            protocol=args.protocol,
            n_hosts=args.hosts,
            width_m=args.area,
            height_m=args.area,
            max_speed_mps=args.speed,
            initial_energy_j=args.energy,
            sim_time_s=args.time,
            n_flows=max(2, args.hosts // 10),
            seed=args.seed,
        )
        network = build_network(cfg)
        network.start()
        t = 0.0
        while t < args.time:
            t = min(t + args.every, args.time)
            network.sim.run(until=t)
            print(render(network))
            print()
        log = network.packet_log
        print(f"delivery {log.delivery_rate() * 100:.1f}% "
              f"({log.delivered_count}/{log.sent_count})")
        return 0

    if args.command == "run":
        faults = None
        if args.faults:
            from repro.api import FaultPlan

            with open(args.faults) as fh:
                faults = FaultPlan.from_json(fh.read())
        cfg = ExperimentConfig(
            protocol=args.protocol,
            n_hosts=args.hosts,
            sim_time_s=args.time,
            max_speed_mps=args.speed,
            pause_time_s=args.pause,
            n_flows=args.flows,
            flow_rate_pps=args.rate,
            initial_energy_j=args.energy,
            width_m=args.area,
            height_m=args.area,
            seed=args.seed,
            faults=faults,
            params=ProtocolParams(election_policy=args.election_policy),
            evaluate_partition=args.partition,
        )
        instruments = ()
        profiler = None
        if args.profile or args.cprofile:
            from repro.perf import KernelProfiler

            profiler = KernelProfiler(cprofile=args.cprofile is not None)
            instruments = (profiler,)
        tracer = None
        auditors = []
        if args.trace or args.audit:
            from repro.obs import Tracer, audit_report, standard_auditors

            categories = None
            if args.trace_filter:
                categories = tuple(
                    c.strip() for c in args.trace_filter.split(",") if c.strip()
                )
            tracer = Tracer(categories=categories)
            if args.audit:
                auditors = standard_auditors()
                for auditor in auditors:
                    tracer.subscribe(auditor)
        result = run_experiment(cfg, instruments=instruments, tracer=tracer)
        print(result.summary())
        if result.partition:
            scores = ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(result.partition.items())
            )
            print(f"  partition {scores}")
        if tracer is not None and args.trace:
            tracer.export_jsonl(args.trace)
            print(
                f"wrote {sum(tracer.counts().values())} trace event(s) "
                f"to {args.trace}"
            )
        if auditors:
            for auditor in auditors:
                auditor.finish(cfg.sim_time_s)
            print()
            print(audit_report(auditors))
        if profiler is not None:
            print()
            print(profiler.report())
            if args.cprofile:
                profiler.dump_cprofile(args.cprofile)
                print(f"wrote cProfile stats to {args.cprofile}")
        if auditors and any(a.violations for a in auditors):
            return 3
        return 0

    fig = _figure(args.command, args)
    print(fig.to_text())
    if getattr(args, "csv", None):
        from repro.api import figure_to_csv

        with open(args.csv, "w") as fh:
            fh.write(figure_to_csv(fig))
        print(f"wrote {args.csv}")
    if getattr(args, "json", None):
        from repro.api import figure_to_json

        with open(args.json, "w") as fh:
            fh.write(figure_to_json(fig))
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
