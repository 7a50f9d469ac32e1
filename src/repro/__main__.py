"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run       Execute a Datalog query on a built-in dataset under one strategy.
explain   Show the optimizer's decisions and the lowered physical plan;
          with ``--analyze``, execute it and annotate every operator with
          its counted metrics (EXPLAIN ANALYZE).
grid      Run one of the paper's workloads (Q1..Q8) under all six
          configurations and print the paper-style figure.
config    Show the fractional shares and the Algorithm-1 integral
          configuration for a query on a cluster size.
serve     Drive a concurrent mix of the paper's workloads through the
          multi-query serving layer and print throughput + latency.
workloads List the registered workloads.

Examples
--------
::

    python -m repro run "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)." \
        --dataset twitter --strategy HC_TJ --workers 16
    python -m repro explain "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)." \
        --dataset twitter --workers 16 --analyze --strategy RS_HJ
    python -m repro run "..." --faults plan.json --recovery retry
    python -m repro grid Q1 --workers 16 --scale unit
    python -m repro config Q2 --workers 15
    python -m repro serve --queries 64 --concurrency 8 --scale unit

Exit codes
----------
- 0 — success (including a ``degrade`` recovery that fell back and succeeded)
- 1 — generic execution failure
- 2 — usage error: bad arguments, unknown strategy/dataset/recovery spec,
  unreadable fault plan (argparse errors also exit 2)
- 3 — the query aborted on a (simulated) out-of-memory condition
- 4 — an injected fault exhausted its recovery policy (fault abort)
"""

from __future__ import annotations

import argparse
import sys

from .engine.faults import FaultPlan, FaultSession, resolve_policy
from .engine.kernels import KERNEL_BACKENDS, use_backend
from .engine.memory import MemoryBudget
from .engine.runtime import resolve_runtime
from .engine.service import QueryRequest, QueryService
from .experiments.harness import format_figure, run_workload
from .hypercube.config import optimize_config
from .hypercube.shares import fractional_shares
from .planner.api import run_query
from .planner.explain import explain, explain_analyze
from .query.catalog import cardinalities_for
from .query.parser import parse_query
from .storage.generators import freebase_database, twitter_database
from .workloads.registry import PAPER_ORDER, WORKLOADS, get_workload
from .workloads.traffic import latency_summary, zipf_mix


#: documented exit codes (see the module docstring)
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_OOM = 3
EXIT_FAULT = 4


def _dataset(name: str):
    """Build a built-in dataset by name (usage error for unknown names)."""
    if name == "twitter":
        return twitter_database()
    if name == "freebase":
        return freebase_database()
    raise ValueError(f"unknown dataset {name!r}; use 'twitter' or 'freebase'")


def _injection(args: argparse.Namespace) -> dict:
    """``--faults`` and ``--recovery`` as ``run_query`` keywords.  The
    recovery spec is checked even without a plan; the plan is loaded and
    checked against the ``--workers`` cluster it will run on."""
    policy = resolve_policy(args.recovery)
    if not args.faults:
        return {"faults": None, "recovery": policy}
    try:
        plan = FaultPlan.load(args.faults)
        if args.workers > 0:  # a bad cluster size is the cluster's error
            FaultSession(plan, policy, args.workers)  # checks the worker range
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot use fault plan {args.faults!r}: {error}") from None
    return {"faults": plan, "recovery": policy}


def _failure_code(result) -> int:
    """Map a FAILed ExecutionResult to its documented exit code."""
    if result.failure_report is not None:
        return EXIT_FAULT
    if result.stats.failure_kind == "oom":
        return EXIT_OOM
    return EXIT_FAIL


def _cmd_run(args: argparse.Namespace) -> int:
    """The ``run`` command: execute one query, print its counted metrics."""
    database = _dataset(args.dataset)
    result = run_query(
        args.query,
        database,
        strategy=args.strategy,
        workers=args.workers,
        memory_tuples=args.memory_tuples,
        runtime=args.runtime,
        **_injection(args),
    )
    stats = result.stats
    if result.cost_report is not None:
        print(result.cost_report.render())
        print()
    if result.failed:
        print(f"FAILED: {stats.failure}")
        return _failure_code(result)
    if result.cost_report is not None:
        print(f"strategy:        {stats.strategy} (chosen by the optimizer)")
    print(f"results:         {len(result.rows):,}")
    print(f"tuples shuffled: {stats.tuples_shuffled:,}")
    print(f"wall clock:      {stats.wall_clock:,.0f} work units")
    print(f"total CPU:       {stats.total_cpu:,.0f} work units")
    peak = max(stats.peak_memory.values(), default=0)
    print(f"peak memory:     {peak:,} tuples (fullest worker)")
    if result.hc_config is not None:
        print(f"hypercube:       {result.hc_config}")
    if stats.retries or stats.faults_injected:
        print(
            f"recovery:        {stats.faults_injected} fault(s) injected, "
            f"{stats.retries} round retr{'y' if stats.retries == 1 else 'ies'}, "
            f"{stats.recovery_cpu:,.0f} work units charged"
        )
    if result.failure_report is not None:
        print(f"degraded:        {result.failure_report.describe()}")
    print("phases:")
    for phase in stats.phases():
        print(
            f"  {phase:<24} wall {stats.phase_wall(phase):>12,.0f}  "
            f"cpu {stats.phase_cpu(phase):>12,.0f}"
        )
    if args.show_rows:
        for row in result.rows[: args.show_rows]:
            print("  ", row)
    return EXIT_OK


def _cmd_explain(args: argparse.Namespace) -> int:
    """The ``explain`` command; with ``--analyze`` it executes the plan.
    Its execution flags are checked either way, as ``run`` checks them,
    before any dataset is built (resolving a runtime forks nothing)."""
    resolve_policy(args.recovery)
    resolve_runtime(args.runtime)
    MemoryBudget(args.memory_tuples)
    if args.faults and not args.analyze:
        raise ValueError("--faults needs --analyze: explain injects faults "
                         "only into a plan it executes")
    database = _dataset(args.dataset)
    if args.analyze:
        analyzed = explain_analyze(
            args.query,
            database,
            strategy=args.strategy,
            workers=args.workers,
            memory_tuples=args.memory_tuples,
            runtime=args.runtime,
            **_injection(args),
        )
        if analyzed.result.cost_report is not None:
            print(analyzed.result.cost_report.render())
            print()
        print(analyzed.render())
        if analyzed.result.failed:
            return _failure_code(analyzed.result)
        return EXIT_OK
    explanation = explain(
        args.query,
        database,
        workers=args.workers,
        strategy=args.strategy,
        memory_tuples=args.memory_tuples,
    )
    print(explanation.render())
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    """The ``grid`` command: one workload under all six configurations."""
    grid = run_workload(
        args.workload,
        scale=args.scale,
        workers=args.workers,
        enforce_memory=not args.no_memory_budget,
        runtime=args.runtime,
    )
    print(format_figure(grid, f"{args.workload} ({args.scale}, p={args.workers})"))
    print(f"consistent: {grid.consistent()}  best: {grid.best_strategy()}")
    return EXIT_OK


def _cmd_config(args: argparse.Namespace) -> int:
    """The ``config`` command: shares + Algorithm-1 configuration."""
    if args.workload_or_query in WORKLOADS:
        workload = get_workload(args.workload_or_query)
        query = workload.query
        cards = dict(cardinalities_for(query, workload.dataset(args.scale)))
    else:
        query = parse_query(args.workload_or_query)
        cards = {atom.alias: args.cardinality for atom in query.atoms}
    shares = fractional_shares(query, cards, args.workers)
    config = optimize_config(query, cards, args.workers)
    print(f"query:             {query}")
    print(
        "fractional shares: "
        + ", ".join(f"{v.name}={s:.3f}" for v, s in shares.shares.items())
    )
    print(f"Algorithm 1:       {config}  (uses {config.workers_used} workers)")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: a concurrent traffic mix through the service."""
    import time

    names = (
        [name.strip() for name in args.workloads.split(",") if name.strip()]
        if args.workloads
        else list(PAPER_ORDER)
    )
    for name in names:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; use Q1..Q8")
    trace = zipf_mix(names, args.queries, exponent=args.zipf, seed=args.seed)
    databases: dict = {}
    service = QueryService(
        runtime=args.runtime,
        max_inflight=args.concurrency,
        memory_tuples=args.memory_tuples,
    )
    started = time.perf_counter()
    for name in trace:
        workload = get_workload(name)
        builder = (workload.name, args.scale)
        if builder not in databases:
            databases[builder] = workload.dataset(args.scale)
        service.submit(
            QueryRequest(
                query=workload.query,
                database=databases[builder],
                workers=args.workers,
                deadline_ticks=args.deadline_ticks,
                timeout_seconds=args.timeout,
                label=name,
            )
        )
    outcomes = service.run_until_complete()
    elapsed = time.perf_counter() - started
    stats = service.stats
    latency = latency_summary([o.wall_seconds for o in outcomes if o.ok])
    print(f"queries:     {len(outcomes)} over {sorted(set(trace))}")
    print("outcomes:    " + ", ".join(
        f"{status}={count}"
        for status, count in stats.outcome_counts().items()
        if count
    ))
    print(f"elapsed:     {elapsed:.2f}s  "
          f"throughput {sum(o.ok for o in outcomes) / elapsed:.1f} queries/s")
    print(f"latency:     p50 {latency['p50_seconds'] * 1000:.1f}ms  "
          f"p95 {latency['p95_seconds'] * 1000:.1f}ms  "
          f"p99 {latency['p99_seconds'] * 1000:.1f}ms")
    cached = stats.cache_hits + stats.cache_misses
    if cached:
        print(f"plan cache:  {stats.cache_hits}/{cached} hits "
              f"({100 * stats.cache_hits / cached:.0f}%)")
    print(f"scheduler:   {stats.ticks} ticks, {stats.rounds_executed} rounds, "
          f"peak in-flight {stats.peak_inflight}, "
          f"{stats.oom_retries} grant escalations")
    if args.show_outcomes:
        for outcome in outcomes:
            print(f"  #{outcome.query_id:<4} {outcome.label:<4} "
                  f"{outcome.status:<9} rows={len(outcome.rows):<8,} "
                  f"{outcome.wall_seconds * 1000:8.1f}ms  {outcome.detail}")
    if stats.failed:
        return EXIT_FAIL
    return EXIT_OK


def _cmd_workloads(args: argparse.Namespace) -> int:
    """The ``workloads`` command: list the paper's registered queries."""
    for name in PAPER_ORDER:
        workload = WORKLOADS[name]
        kind = "cyclic" if workload.cyclic else "acyclic"
        print(f"{name}: {len(workload.query.atoms)} atoms, {kind}, "
              f"paper best {workload.paper_best} — {workload.query}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Assemble the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HyperCube shuffle + Tributary join on a simulated cluster",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # the flags several commands share, each defined once
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("--runtime", default="serial",
                           help="worker runtime: 'serial', 'parallel[:N]' (threads), or 'parallel:N:proc' (processes)")
    execution.add_argument("--kernels", choices=KERNEL_BACKENDS, default=None,
                           help="kernel backend (default: $REPRO_KERNELS or numpy)")
    injection = argparse.ArgumentParser(add_help=False)
    injection.add_argument("--faults", default=None, metavar="PLAN.JSON",
                           help="JSON fault plan to inject (see engine/faults.py; "
                                "explain needs --analyze)")
    injection.add_argument("--recovery", default=None,
                           help="recovery policy: 'retry[:N]', 'degrade', or "
                                "'fail' (default: retry)")

    run_cmd = commands.add_parser(
        "run", help="execute one query", parents=[execution, injection]
    )
    run_cmd.add_argument("query", help="Datalog rule text")
    run_cmd.add_argument("--dataset", default="twitter",
                         choices=("twitter", "freebase"))
    run_cmd.add_argument("--strategy", default="HC_TJ",
                         help="RS/BR/HC x HJ/TJ grid name, SJ_HJ, or "
                              "'auto' for the cost-based optimizer")
    run_cmd.add_argument("--workers", type=int, default=16)
    run_cmd.add_argument("--show-rows", type=int, default=0,
                         help="print the first N result rows")
    run_cmd.add_argument("--memory-tuples", type=int, default=None,
                         help="per-worker tuple budget (default: unlimited)")
    run_cmd.set_defaults(func=_cmd_run)

    explain_cmd = commands.add_parser(
        "explain", help="show the plan; --analyze to execute and annotate it",
        parents=[execution, injection],
    )
    explain_cmd.add_argument("query", help="Datalog rule text")
    explain_cmd.add_argument("--dataset", default="twitter",
                             choices=("twitter", "freebase"))
    explain_cmd.add_argument("--workers", type=int, default=16)
    explain_cmd.add_argument("--strategy", default="HC_TJ",
                             help="RS/BR/HC x HJ/TJ grid name, SJ_HJ, or "
                                  "'auto' to print the per-strategy cost "
                                  "table and the optimizer's pick")
    explain_cmd.add_argument("--memory-tuples", type=int, default=None,
                             help="per-worker tuple budget the optimizer "
                                  "costs against (default: unlimited)")
    explain_cmd.add_argument("--analyze", action="store_true",
                             help="execute the plan and annotate each "
                                  "operator with its counted metrics")
    explain_cmd.set_defaults(func=_cmd_explain)

    grid_cmd = commands.add_parser(
        "grid", help="run a workload's 6-config grid", parents=[execution]
    )
    grid_cmd.add_argument("workload", choices=sorted(WORKLOADS))
    grid_cmd.add_argument("--workers", type=int, default=64)
    grid_cmd.add_argument("--scale", default="bench", choices=("unit", "bench"))
    grid_cmd.add_argument("--no-memory-budget", action="store_true")
    grid_cmd.set_defaults(func=_cmd_grid)

    config_cmd = commands.add_parser(
        "config", help="show shares + integral configuration"
    )
    config_cmd.add_argument(
        "workload_or_query", help="a workload name (Q1..Q8) or a Datalog rule"
    )
    config_cmd.add_argument("--workers", type=int, default=64)
    config_cmd.add_argument("--scale", default="bench", choices=("unit", "bench"))
    config_cmd.add_argument(
        "--cardinality", type=int, default=1_000_000,
        help="assumed relation size for ad-hoc queries",
    )
    config_cmd.set_defaults(func=_cmd_config)

    serve_cmd = commands.add_parser(
        "serve", help="run a concurrent workload mix through the serving layer",
        parents=[execution],
    )
    serve_cmd.add_argument("--queries", type=int, default=64,
                           help="how many queries to submit (default 64)")
    serve_cmd.add_argument("--concurrency", type=int, default=8,
                           help="max in-flight queries (default 8)")
    serve_cmd.add_argument("--workers", type=int, default=16)
    serve_cmd.add_argument("--scale", default="unit", choices=("unit", "bench"))
    serve_cmd.add_argument("--workloads", default=None,
                           help="comma-separated subset of Q1..Q8 in "
                                "popularity order (default: all eight)")
    serve_cmd.add_argument("--zipf", type=float, default=1.0,
                           help="Zipf popularity exponent (0 = uniform)")
    serve_cmd.add_argument("--seed", type=int, default=0,
                           help="traffic-trace seed")
    serve_cmd.add_argument("--memory-tuples", type=int, default=None,
                           help="service-wide per-worker tuple budget the "
                                "governor apportions (default: ungoverned)")
    serve_cmd.add_argument("--deadline-ticks", type=int, default=None,
                           help="per-query logical deadline in scheduler ticks")
    serve_cmd.add_argument("--timeout", type=float, default=None,
                           help="per-query wall-clock timeout in seconds")
    serve_cmd.add_argument("--show-outcomes", action="store_true",
                           help="print one line per query outcome")
    serve_cmd.set_defaults(func=_cmd_serve)

    list_cmd = commands.add_parser("workloads", help="list the paper's queries")
    list_cmd.set_defaults(func=_cmd_workloads)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns one of the documented exit codes.

    Configuration errors the argument parser cannot catch — an unknown
    strategy, dataset, or recovery spec, or an unreadable/invalid fault
    plan — surface as :class:`ValueError` from the layers below and exit
    with the usage code (2), matching argparse's own convention.  Every
    command runs under the ``--kernels`` backend it was given, if any.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with use_backend(getattr(args, "kernels", None)):
            return args.func(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
