"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig5 --quick
    python -m repro run all --quick --jobs 4
    python -m repro run all --no-cache
    python -m repro cache stats
    python -m repro info
    python -m repro diff --quick fig2 fig6
    python -m repro warm fig2 fig5 --quick --jobs 4
    python -m repro serve --port 8642 --warm fig5

``serve`` exposes the experiment registry and result cache as an async
HTTP/JSON service with single-flight coalescing, admission control and
a ``/metrics`` endpoint (see :mod:`repro.serve` and docs/serving.md);
``warm`` precomputes named experiments into the cache it serves from.

``diff`` is the differential kernel oracle: it runs each experiment on
both the fast and the reference simulation kernel (bypassing the result
cache) and exits non-zero unless traces and results are identical —
see :mod:`repro.sim.diff`.

Runs go through :mod:`repro.runner`: experiments decompose into
independent jobs executed on ``--jobs`` worker processes, and every job
result is cached content-addressed under ``.repro-cache/`` so repeated
invocations only pay for what changed.  Tables and progress go to
stdout/stderr exactly as before; ``--no-cache`` restores the
recompute-everything behavior.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__

__all__ = ["main", "build_parser"]


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, inline)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--refresh", action="store_true",
                        help="ignore cached results but store fresh ones")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job wall-clock limit (needs --jobs >= 2)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry crashed/timed-out/lost jobs up to N "
                             "times (needs --jobs >= 2; default: 0)")
    parser.add_argument("--backoff", type=float, default=1.0, metavar="S",
                        help="base retry backoff in seconds, doubled per "
                             "attempt with jitter (default: 1.0)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache root (default: .repro-cache or "
                             "$REPRO_CACHE_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Kandaswamy et al., 'Performance Implications "
                    "of Architectural and Software Techniques on "
                    "I/O-Intensive Applications' (ICPP 1998)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible tables and figures")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     help="experiment id (e.g. fig2, table4) or 'all'")
    run.add_argument("--quick", action="store_true",
                     help="scaled-down configuration (seconds, not minutes)")
    _add_runner_args(run)

    sub.add_parser("info", help="summarize the paper, apps and platforms")

    report = sub.add_parser(
        "report", help="run all experiments and write a markdown report")
    report.add_argument("-o", "--output", default="report.md",
                        help="output path (default: report.md)")
    report.add_argument("--quick", action="store_true",
                        help="scaled-down configurations")
    _add_runner_args(report)

    diff = sub.add_parser(
        "diff", help="run experiments on both kernels and compare traces")
    diff.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                      help="experiment ids (e.g. fig2 fig6) or 'all'")
    diff.add_argument("--quick", action="store_true",
                      help="scaled-down configurations")
    diff.add_argument("--max-report", type=int, default=10, metavar="N",
                      help="divergent positions to print per experiment "
                           "(default: 10)")

    serve = sub.add_parser(
        "serve", help="serve experiment results over HTTP (async, cached)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port, 0 for ephemeral (default: 8642)")
    serve.add_argument("-j", "--jobs", type=int, default=2, metavar="N",
                       help="simulation worker processes, forked once "
                            "(default: 2); 1 runs jobs in the server "
                            "process")
    serve.add_argument("--queue", type=int, default=64, metavar="N",
                       help="jobs allowed to wait for a worker "
                            "before 429 (default: 64)")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="concurrently admitted requests (default: 8)")
    serve.add_argument("--admission-queue", type=int, default=16,
                       metavar="N",
                       help="requests allowed to wait for admission "
                            "before 429 (default: 16)")
    serve.add_argument("--request-timeout", type=float, default=120.0,
                       metavar="S",
                       help="per-request wall-clock limit -> 504 "
                            "(default: 120)")
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job simulation limit (needs --jobs >= 2)")
    serve.add_argument("--no-cache", action="store_true",
                       help="compute every request, bypass the store")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache root (default: .repro-cache or "
                            "$REPRO_CACHE_DIR)")
    serve.add_argument("--warm", action="append", default=[],
                       metavar="EXP[,EXP...]",
                       help="warm these experiments (or 'all') through "
                            "the engine before listening; repeatable")
    serve.add_argument("--warm-full", action="store_true",
                       help="warm at full paper scale instead of --quick")

    warm = sub.add_parser(
        "warm", help="precompute experiments into the serving cache")
    warm.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                      help="experiment ids (e.g. fig2 fig5) or 'all'")
    warm.add_argument("--quick", action="store_true",
                      help="scaled-down configurations")
    warm.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                      help="worker processes; 1 runs inline (default: 1)")
    warm.add_argument("--timeout", type=float, default=None, metavar="S",
                      help="per-job wall-clock limit (needs --jobs >= 2)")
    warm.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="cache root (default: .repro-cache or "
                           "$REPRO_CACHE_DIR)")

    cache = sub.add_parser("cache", help="inspect or manage the result cache")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache root (default: .repro-cache or "
                            "$REPRO_CACHE_DIR)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry count, size, last run summary")
    cache_sub.add_parser("clear", help="delete every cached result")
    gc = cache_sub.add_parser("gc", help="LRU-evict down to a size budget")
    gc.add_argument("--max-mb", type=float, required=True,
                    help="keep at most this many MB of cached results")
    return parser


def _cmd_list() -> int:
    from repro.experiments import registry

    print("Reproducible artifacts (paper table/figure -> experiment id):")
    width = max(map(len, registry.EXPERIMENTS))
    for exp_id, exp in registry.EXPERIMENTS.items():
        print(f"  {exp_id:{width}s} {exp.title}")
    return 0


def _resolve(names: List[str]) -> List[str]:
    """Expand ``["all"]`` to every experiment id; ``KeyError`` if unknown."""
    from repro.experiments import registry

    if names == ["all"]:
        return registry.experiment_ids()
    for name in names:
        registry.get(name)
    return names


def _run_via_runner(targets: List[str], quick: bool, args):
    from repro.runner import ProgressTracker, ResultStore, run_experiments

    store = None if args.no_cache else ResultStore(args.cache_dir)
    progress = ProgressTracker(stream=sys.stderr)
    report = run_experiments(
        targets, quick=quick, jobs=args.jobs,
        use_cache=not args.no_cache, refresh=args.refresh,
        timeout_s=args.timeout, store=store, progress=progress,
        retries=args.retries, backoff_s=args.backoff)
    print(report.summary_text(), file=sys.stderr)
    return report


def _cmd_run(exp_id: str, quick: bool, args) -> int:
    try:
        targets = _resolve([exp_id])
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    report = _run_via_runner(targets, quick, args)
    failures = 0
    for target in targets:
        if target in report.errors:
            print(f"{target}: FAILED — {report.errors[target]}",
                  file=sys.stderr)
            failures += 1
            continue
        result = report.results[target]
        print(result.to_text())
        print(f"  ({report.exp_wall_s(target):.1f}s host time)")
        print()
        if not result.all_checks_pass:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing checks",
              file=sys.stderr)
        return 1
    return 0


def _cmd_info() -> int:
    from repro.apps import ALL_METADATA
    from repro.machine import paragon_large, paragon_small, sp2

    print(f"repro {__version__} — ICPP 1998 I/O-intensive applications "
          f"study, in simulation")
    print("\nApplications:")
    for key, meta in ALL_METADATA.items():
        print(f"  {meta.name:8s} ({key}): {meta.description}; "
              f"{meta.io_type} [{meta.platform}]")
    print("\nPlatforms:")
    for cfg in (paragon_small(), paragon_large(), sp2()):
        print(f"  {cfg.name}: {cfg.n_compute} compute + {cfg.n_io} I/O "
              f"nodes, {cfg.topology}, "
              f"{cfg.default_stripe_unit // 1024} KB stripe unit, "
              f"{cfg.cpu.mflops:.0f} sustained Mflops/node")
    print("\nSee DESIGN.md for the system inventory and EXPERIMENTS.md for "
          "paper-vs-measured results.")
    return 0


def _cmd_report(output: str, quick: bool, args) -> int:
    from repro.experiments import registry
    from repro.experiments.report import render_markdown

    report = _run_via_runner(registry.experiment_ids(), quick, args)
    text = render_markdown(report.results, quick=quick)
    with open(output, "w") as fh:
        fh.write(text)
    print(f"wrote {output} ({len(report.results)} artifacts)")
    if report.errors:
        print(f"failed to run: {', '.join(report.errors)}", file=sys.stderr)
        return 1
    failing = [eid for eid, r in report.results.items()
               if not r.all_checks_pass]
    if failing:
        print(f"failing checks in: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_diff(args) -> int:
    from repro.sim.diff import diff_experiment

    try:
        targets = _resolve(args.experiments)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    diverged = []
    for exp_id in targets:
        report = diff_experiment(exp_id, quick=args.quick,
                                 max_report=args.max_report)
        print(report.format())
        if not report.ok:
            diverged.append(exp_id)
    if diverged:
        print(f"kernel divergence in: {', '.join(diverged)}",
              file=sys.stderr)
        return 1
    print(f"{len(targets)} experiment(s) identical on both kernels")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.runner import PoolExecutor, ResultStore
    from repro.serve import (AdmissionController, MetricsRegistry, ServeApp,
                             ServeEngine, warm)

    metrics = MetricsRegistry()
    # --jobs worker processes, forked once on the first miss and kept:
    # each runs one crash-isolated job at a time (the simulations are
    # CPU-bound pure Python, so threads would serialize on the GIL).
    # --jobs 1 runs jobs on one thread of the server process instead.
    engine = ServeEngine(
        store=None if args.no_cache else ResultStore(args.cache_dir),
        executor=PoolExecutor(jobs=args.jobs, timeout_s=args.timeout),
        max_queue=args.queue,
        metrics=metrics)
    admission = AdmissionController(
        max_inflight=args.max_inflight, max_queue=args.admission_queue,
        metrics=metrics)
    app = ServeApp(engine=engine, admission=admission, metrics=metrics,
                   request_timeout_s=args.request_timeout)

    async def serve_forever() -> None:
        await app.start(args.host, args.port)
        print(f"repro serve listening on http://{args.host}:{app.port} "
              f"(jobs={args.jobs}, queue={args.queue}, "
              f"inflight={args.max_inflight})", file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        print("draining ...", file=sys.stderr)
        await app.shutdown()

    warm_ids = [t for spec in args.warm for t in spec.split(",") if t]
    try:
        if warm_ids:
            if "all" in warm_ids:
                from repro.experiments import registry
                warm_ids = registry.experiment_ids()
            report = warm(warm_ids, quick=not args.warm_full, engine=engine,
                          stream=sys.stderr)
            print(report.summary_text(), file=sys.stderr)
        asyncio.run(serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - non-signal platforms
        pass
    finally:
        engine.close()   # stops the worker processes on every exit path
    print("server stopped", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    from repro.runner import ResultStore

    store = ResultStore(args.cache_dir)
    if args.cache_command == "stats":
        count = store.count()
        size = store.size_bytes()
        print(f"cache root: {store.root}")
        print(f"entries: {count}  ({size / 1024:.1f} KB)")
        last = store.read_last_run()
        if last:
            print(f"last run: {last.get('jobs', 0)} job(s), "
                  f"{last.get('cached', 0)} cached / "
                  f"{last.get('computed', 0)} computed / "
                  f"{last.get('failed', 0)} failed "
                  f"({last.get('hit_rate', 0.0):.0%} hit rate, "
                  f"wall {last.get('wall_s', 0.0):.1f}s)")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
        return 0
    if args.cache_command == "gc":
        removed = store.evict(int(args.max_mb * 1024 * 1024))
        print(f"evicted {removed} entr(ies); "
              f"{store.size_bytes() / 1024:.1f} KB remain in {store.root}")
        return 0
    raise AssertionError("unreachable")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.quick, args)
    if args.command == "info":
        return _cmd_info()
    if args.command == "report":
        return _cmd_report(args.output, args.quick, args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "warm":
        from repro.serve.warm import main_warm

        return main_warm(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
