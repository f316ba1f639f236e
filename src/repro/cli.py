"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze <app>`` — run the Section 5 chooser over a bundled application
  and print the level table (optionally a single ``--transaction`` at a
  single ``--level`` with failing obligations); ``--json`` emits the
  machine-readable report (schema in ``docs/PIPELINE.md``);
* ``certify <app>`` — the full cross-layer pipeline: static chooser, then
  exhaustive mixed-level schedule exploration at (and one level below) the
  recommended assignment, reconciled into per-type verdicts with
  replayable counterexample histories;
* ``explore <app>`` — exhaustively enumerate the schedules of one
  registered scenario under an explicit level assignment and report the
  pruning statistics and semantic violations;
* ``simulate <app>`` — run a generated workload under an isolation-level
  assignment (uniform ``--level`` or per-type ``--levels Txn=LEVEL``) with
  a random or exhaustive scheduling policy;
* ``replay "<history>"`` — replay a Berenson-style history (e.g.
  ``"w1[x=1] r2[x] c1 c2"``) under a per-transaction level assignment;
* ``lint [app ...]`` — static well-formedness checks plus the SDG
  dangerous-structure pass (``repro.core.lint``); exits 1 on any
  ``error``-severity finding;
* ``serve`` — run the long-lived analysis service (``repro.service``):
  an asyncio JSON-over-HTTP server with request batching, admission
  control and Prometheus telemetry; ``--fleet N`` puts a consistent-hash
  router in front of N worker processes (see ``docs/SERVICE.md``);
* ``submit <kind> <app> ...`` — send analyze/certify/lint jobs to a
  running service and render the results;
* ``compact`` — merge the persistent verdict store's segments into one
  (safe to run while a fleet is serving; see ``repro.core.persist``);
* ``apps`` — list the bundled applications;
* ``levels`` — list the supported isolation levels.

The bundled applications are the paper's: ``banking`` (Figure 1 /
Example 3), ``customers`` (Example 1), ``employees`` (Example 2),
``orders`` / ``orders-strict`` (Section 6, the two business rules), and
``tpcc`` (Section 7 future work).

Exit codes are uniform across subcommands: 0 success, 1 analysis verdict
failure (interference found, certification disagreement, lint errors),
2 usage or input errors (including every :class:`~repro.errors.ReproError`),
3 unexpected internal errors, and for ``submit`` additionally 4 connection
refused, 5 server busy (429), 6 deadline exceeded.  Errors print one
``repro: error: …`` line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.cache import VerdictCache, shared_cache
from repro.core.conditions import LEVEL_ORDER
from repro.core.report import analysis_stats_table, failure_details, level_table
from repro.errors import ReproError

#: Uniform exit codes (see module docstring and docs/SERVICE.md).
EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CONNECT = 4
EXIT_BUSY = 5
EXIT_DEADLINE = 6


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # pragma: no cover - metadata always present when installed
        from repro import __version__

        return __version__


def _app_registry() -> dict:
    from repro.apps import registry

    return registry()


def _load_app(name: str):
    registry = _app_registry()
    if name not in registry:
        raise SystemExit(
            f"unknown application {name!r}; choose from {', '.join(sorted(registry))}"
        )
    return registry[name]()


def cmd_apps(_args) -> int:
    for name, factory in sorted(_app_registry().items()):
        app = factory()
        print(f"{name:15s} {', '.join(app.transaction_names())}")
        if app.description:
            print(f"{'':15s} {app.description}")
    return 0


def cmd_levels(_args) -> int:
    for level in sorted(LEVEL_ORDER, key=LEVEL_ORDER.get):
        print(level)
    return 0


def _stats_registry():
    """A telemetry registry + obligation-latency histogram for ``--stats``."""
    from repro.service.telemetry import Registry

    registry = Registry()
    histogram = registry.histogram(
        "repro_obligation_seconds", "wall time per decided obligation"
    )
    return registry, histogram


def _telemetry_summary(histogram) -> str:
    snap = histogram.snapshot()
    return (
        f"obligation latency: {snap['count']} decided,"
        f" mean {snap['mean'] * 1000:.2f} ms,"
        f" p50 {snap['p50'] * 1000:.2f} ms, p99 {snap['p99'] * 1000:.2f} ms"
        " (service telemetry histogram)"
    )


def _storage_summary() -> str:
    from repro.engine.storage import STORAGE_STATS

    snap = STORAGE_STATS.snapshot()
    captures = snap["snapshot_captures"]
    capture_mean = snap["snapshot_capture_seconds"]["mean"]
    return (
        f"storage: {captures} snapshot captures,"
        f" mean {capture_mean * 1e6:.2f} us,"
        f" {snap['vacuum_passes']} vacuum passes,"
        f" {snap['vacuum_reclaimed']} versions reclaimed"
    )


def cmd_analyze(args) -> int:
    from repro.pipeline.jobs import JobSpec, run_job

    _load_app(args.app)  # fail early with the canonical unknown-app message
    histogram = None
    checker_hook = None
    if args.stats:
        _registry, histogram = _stats_registry()

        def checker_hook(checker, histogram=histogram):
            checker.latency_observer = histogram.observe

    cache = VerdictCache(enabled=False) if args.no_cache else shared_cache()
    spec = JobSpec(
        kind="analyze",
        app=args.app,
        budget=args.budget,
        seed=args.seed,
        ladder=args.ladder,
        snapshot=args.snapshot,
        use_sdg=not args.no_sdg,
        transaction=args.transaction or None,
        level=args.level or None,
    )
    job = run_job(
        spec,
        cache=cache,
        cache_dir=args.cache_dir,
        no_persist=args.no_persist or args.no_cache,
        checker_hook=checker_hook,
    )
    checker = job.artifacts["checker"]
    if spec.transaction is not None:
        if args.json:
            print(json.dumps(job.payload, indent=2))
            return job.exit_code
        result = job.report
        print(failure_details(result) if not result.ok else result.summary())
        if args.stats:
            print()
            print(analysis_stats_table(checker))
            print(_telemetry_summary(histogram))
            print(_storage_summary())
        return job.exit_code
    if args.json:
        print(json.dumps({**job.payload, **job.extras}, indent=2))
        return job.exit_code
    print(level_table(job.report))
    if args.snapshot:
        print()
        for check in job.report.snapshot_checks:
            print(check.summary())
    print()
    print(f"interference tiers used: {checker.stats}")
    if args.stats:
        print()
        print(analysis_stats_table(checker))
        print(_telemetry_summary(histogram))
        print(_storage_summary())
    return job.exit_code


def cmd_certify(args) -> int:
    from repro.pipeline.jobs import JobSpec, run_job

    _load_app(args.app)
    spec = JobSpec(
        kind="certify",
        app=args.app,
        budget=args.budget,
        seed=args.seed,
        ladder=args.ladder,
        use_sdg=not args.no_sdg,
        max_schedules=args.max_schedules,
        max_depth=args.max_depth,
    )
    job = run_job(spec, cache_dir=args.cache_dir, no_persist=args.no_persist)
    if args.json:
        print(json.dumps({**job.payload, "stats": job.extras["stats"]}, indent=2))
    else:
        print(job.report.render())
    return job.exit_code


def _parse_type_levels(assignments, known_types=None) -> dict:
    """Parse ``Txn=LEVEL`` overrides, rejecting unknown names outright.

    An unknown level would otherwise raise a ``KeyError`` deep inside the
    lock table; an unknown transaction name would be silently carried in
    the levels dict and never applied.  Both fail here with the list of
    valid choices instead.
    """
    levels = {}
    for assignment in assignments or []:
        name, sep, level = assignment.partition("=")
        if not sep:
            raise SystemExit(f"--levels expects Txn=LEVEL, got {assignment!r}")
        if level not in LEVEL_ORDER:
            raise SystemExit(
                f"--levels: unknown isolation level {level!r} for {name!r};"
                f" choose from {', '.join(sorted(LEVEL_ORDER, key=LEVEL_ORDER.get))}"
            )
        if known_types is not None and name not in known_types:
            raise SystemExit(
                f"--levels: unknown transaction type {name!r};"
                f" choose from {', '.join(sorted(known_types))}"
            )
        levels[name] = level
    return levels


def cmd_explore(args) -> int:
    from repro.pipeline.scenarios import scenarios_for
    from repro.sched.explore import explore
    from repro.sched.histories import history_string
    from repro.sched.semantic import check_semantic_correctness

    app = _load_app(args.app)
    # scenarios register under the application's own name ("tpcc-lite"),
    # which may differ from the CLI registry key ("tpcc")
    scenarios = {scenario.name: scenario for scenario in scenarios_for(app.name)}
    if not scenarios:
        raise SystemExit(f"no registered scenarios for application {args.app!r}")
    if args.scenario is None and len(scenarios) > 1 and not args.all:
        raise SystemExit(
            f"choose --scenario from {', '.join(sorted(scenarios))} (or pass --all)"
        )
    chosen = list(scenarios.values()) if (args.all or args.scenario is None) else [
        scenarios.get(args.scenario) or _unknown_scenario(args.scenario, scenarios)
    ]
    _validate_level(args.level)
    overrides = _parse_type_levels(args.levels, known_types=app.transaction_names())
    payload = []
    exit_code = 0
    for scenario in chosen:
        levels: dict = {}
        for spec in scenario.specs({}):
            levels[spec.txn_type.name] = args.level
        levels.update(overrides)
        result = explore(
            scenario.initial(),
            scenario.specs(levels),
            retry=not args.no_retry,
            max_schedules=args.max_schedules,
            max_depth=args.max_depth,
            pruning=not args.no_pruning,
            dpor=args.dpor,
        )
        violations = []
        for schedule in result.results:
            report = check_semantic_correctness(schedule, scenario.invariant, scenario.cumulative)
            if not report.correct:
                violations.append((report.summary(), history_string(schedule.history)))
        entry = {
            "scenario": scenario.name,
            "levels": levels,
            **result.to_dict(),
            "violations": len(violations),
            "witnesses": [
                {"summary": summary, "history": history}
                for summary, history in violations[:3]
            ],
        }
        payload.append(entry)
        if violations:
            exit_code = 1
        if not args.json:
            print(f"scenario {scenario.name!r} at {levels}:")
            print(
                f"  schedules: {result.schedules}  runs: {result.runs}"
                f"  pruned(sleep/state): {result.pruned_sleep}/{result.pruned_state}"
                f"  truncated: {result.truncated}"
            )
            print(
                f"  pruning: {result.mode}  races: {result.races}"
                f"  reversals: {result.reversals}"
            )
            print(f"  semantic violations: {len(violations)}")
            for summary, history in violations[:3]:
                print(f"    {summary}")
                if history:
                    print(f'      repro replay "{history}"')
    if args.json:
        print(json.dumps(payload, indent=2))
    return exit_code


def _unknown_scenario(name: str, scenarios: dict):
    raise SystemExit(f"unknown scenario {name!r}; choose from {', '.join(sorted(scenarios))}")


def _validate_level(level: str) -> None:
    if level not in LEVEL_ORDER:
        raise SystemExit(
            f"unknown isolation level {level!r};"
            f" choose from {', '.join(sorted(LEVEL_ORDER, key=LEVEL_ORDER.get))}"
        )


def cmd_simulate(args) -> int:
    from repro.workloads.generator import (
        WorkloadConfig,
        banking_initial,
        banking_workload,
        order_entry_initial,
        order_entry_workload,
        tpcc_workload,
    )
    from repro.workloads.runner import run_workload

    config = WorkloadConfig(size=args.size, hot_fraction=args.hot, seed=args.seed)
    _validate_level(args.level)
    overrides = _parse_type_levels(
        args.levels, known_types=_load_app(args.app).transaction_names()
    )
    if args.app == "banking":
        names = ("Withdraw_sav", "Withdraw_ch", "Deposit_sav", "Deposit_ch")
        levels = {n: overrides.get(n, args.level) for n in names}
        specs = banking_workload(config, levels=levels)
        initial = banking_initial()
    elif args.app == "tpcc":
        from repro.apps import tpcc as tpcc_app

        levels = {t.name: overrides.get(t.name, args.level) for t in tpcc_app.ALL_TYPES}
        specs = tpcc_workload(config, levels=levels)
        initial = tpcc_app.initial_state()
    elif args.app in ("orders", "orders-strict"):
        rule = "no_gap" if args.app == "orders" else "one_order"
        names = ("Mailing_List", "New_Order", "Delivery", "Audit")
        levels = {n: overrides.get(n, args.level) for n in names}
        specs = order_entry_workload(config, rule=rule, levels=levels)
        initial = order_entry_initial()
    else:
        raise SystemExit(f"no workload generator for {args.app!r}")
    if args.policy == "exhaustive":
        from repro.sched.explore import explore
        from repro.workloads.metrics import RunMetrics

        exploration = explore(
            initial.copy(),
            specs,
            retry=True,
            max_schedules=args.max_schedules,
            keep_results=True,
        )
        metrics = RunMetrics()
        for result in exploration.results:
            metrics.add(result)
        print("policy:     exhaustive")
        print(f"level(s):   {levels}")
        print(
            f"schedules:  {exploration.schedules} explored"
            f" ({exploration.runs} runs, pruned sleep/state:"
            f" {exploration.pruned_sleep}/{exploration.pruned_state},"
            f" truncated: {exploration.truncated})"
        )
        if exploration.results:
            print(f"throughput: {metrics.throughput:.1f} commits / 1000 steps")
            print(f"wait rate:  {metrics.wait_rate:.3f}")
            print(f"abort rate: {metrics.abort_rate:.3f}")
        return 0
    if args.guard:
        from repro.sched.monitor import AssertionGuard
        from repro.sched.simulator import Simulator, round_seeds

        from repro.workloads.metrics import RunMetrics

        metrics = RunMetrics()
        for round_seed in round_seeds(args.seed, args.rounds):
            guard = AssertionGuard()
            simulator = Simulator(
                initial.copy(), specs, seed=round_seed, retry=True,
                observers=[guard],
            )
            metrics.add(simulator.run())
        print("assertional concurrency control: ON")
    else:
        metrics = run_workload(initial, specs, rounds=args.rounds, seed=args.seed)
    print(f"level(s):   {levels if overrides else args.level}")
    print(f"throughput: {metrics.throughput:.1f} commits / 1000 steps")
    print(f"wait rate:  {metrics.wait_rate:.3f}")
    print(f"abort rate: {metrics.abort_rate:.3f}")
    print(f"deadlocks:  {metrics.deadlocks}")
    return 0


def cmd_lint(args) -> int:
    from repro.pipeline.jobs import JobSpec, run_job

    names = args.apps or sorted(_app_registry())
    for name in names:
        _load_app(name)  # canonical unknown-app rejection before any work
    jobs = [run_job(JobSpec(kind="lint", app=name)) for name in names]
    failed = any(job.exit_code for job in jobs)
    if args.json:
        print(json.dumps([job.payload for job in jobs], indent=2))
        return EXIT_VERDICT if failed else EXIT_OK
    for job in jobs:
        print(job.report.render())
    return EXIT_VERDICT if failed else EXIT_OK


def _appgen_knobs(args) -> str | None:
    """Canonical generator knob string from the shaping flags, or None.

    Round-trips through :meth:`AppGenConfig.from_knobs` so bad spans and
    unknown profile names fail here, as a usage error, not mid-corpus.
    """
    from repro.workloads.appgen import AppGenConfig, parse_span

    flags = (args.txns, args.accounts, args.balance, args.max_stmts, args.profile)
    if not any(value is not None for value in flags):
        return None
    values: dict = {}
    if args.txns is not None:
        lo, hi = parse_span(args.txns, what="--txns")
        values["min_transactions"], values["max_transactions"] = lo, hi
    if args.accounts is not None:
        values["accounts"] = args.accounts
    if args.balance is not None:
        values["max_balance"] = args.balance
    if args.max_stmts is not None:
        values["max_stmts"] = args.max_stmts
    if args.profile is not None:
        values["profile"] = args.profile
    knobs = AppGenConfig(seed=0, **values).knobs()
    AppGenConfig.from_knobs(0, knobs)  # validates bounds and profile name
    return knobs


def _add_appgen_flags(parser) -> None:
    """The generator shaping knobs shared by ``infer`` and ``fuzz``."""
    parser.add_argument(
        "--txns", metavar="N|LO..HI", default=None,
        help="transactions per generated application (inclusive span)",
    )
    parser.add_argument(
        "--accounts", type=int, default=None,
        help="records in the generated array (default 2)",
    )
    parser.add_argument(
        "--balance", type=int, default=None,
        help="maximum balance/amount in the generated domains (default 2)",
    )
    parser.add_argument(
        "--max-stmts", type=int, default=None,
        help="statement budget per generated application (default: unbounded)",
    )
    parser.add_argument(
        "--profile", default=None, metavar="NAME",
        help="shape-weight preset: uniform, write-heavy, read-heavy,"
        " transfer-heavy (default: legacy uniform draws)",
    )


def cmd_infer(args) -> int:
    from repro.pipeline.jobs import APPGEN_PREFIX, JobSpec, run_job

    knobs = _appgen_knobs(args)
    if args.app.startswith(APPGEN_PREFIX):
        from repro.workloads.appgen import parse_seed_range

        refs = [f"{APPGEN_PREFIX}{seed}" for seed in parse_seed_range(args.app)]
    else:
        _load_app(args.app)  # canonical unknown-app rejection before any work
        if knobs is not None:
            print(
                "repro: error: generator knobs only apply to appgen: references",
                file=sys.stderr,
            )
            return EXIT_USAGE
        refs = [args.app]
    jobs = []
    for ref in refs:
        spec = JobSpec(
            kind="infer", app=ref, budget=args.budget, seed=args.seed, profile=knobs
        )
        jobs.append(run_job(spec))
    exit_code = max(job.exit_code for job in jobs)
    if args.json:
        if len(jobs) == 1:
            print(json.dumps(jobs[0].payload, indent=2))
        else:
            print(json.dumps([job.payload for job in jobs], indent=2))
        return exit_code
    for position, job in enumerate(jobs):
        if position:
            print()
        print(job.report.render())
        print()
        if "declared_levels" in job.payload:
            print("inferred-vs-declared level assignment:")
            for name, declared in job.payload["declared_levels"].items():
                inferred = job.payload["levels"][name]
                marker = "==" if job.payload["matches"][name] else "!="
                print(f"  {name}: declared {declared} {marker} inferred {inferred}")
            verdict = "AGREE" if job.payload["agreement"] else "DISAGREE"
            print(f"agreement: {verdict}")
        else:
            print("chooser levels for the inferred annotations:")
            for name, level in job.payload["levels"].items():
                print(f"  {name}: {level}")
    return exit_code


def cmd_fuzz(args) -> int:
    from repro.fuzz.runner import FuzzRunner
    from repro.pipeline.jobs import APPGEN_PREFIX
    from repro.workloads.appgen import parse_seed_range

    if (args.app is None) == (args.seeds is None):
        print(
            "repro: error: give either an appgen:LO..HI reference or --seeds N",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.app is not None:
        if not args.app.startswith(APPGEN_PREFIX):
            print(
                f"repro: error: fuzz takes {APPGEN_PREFIX}<seed|LO..HI> references,"
                f" got {args.app!r}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        seeds = parse_seed_range(args.app)
    else:
        seeds = range(args.seeds)
    if args.force_level is not None:
        _validate_level(args.force_level)
    runner = FuzzRunner(
        seeds,
        _appgen_knobs(args),
        args.corpus_dir,
        budget=args.budget,
        pairs=args.pairs,
        probe_schedules=args.max_schedules,
        force_level=args.force_level,
        shrink=not args.no_shrink,
        progress=None if args.json else print,
    )
    if args.service:
        host, _sep, port = args.service.rpartition(":")
        try:
            port = int(port)
        except ValueError:
            print(
                f"repro: error: --service expects HOST:PORT, got {args.service!r}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        summary = runner.run_fleet(
            host or "127.0.0.1", port,
            inflight=args.inflight, deadline_ms=args.deadline_ms,
        )
    else:
        summary = runner.run()
    findings = runner.findings()
    if args.json:
        print(json.dumps({"summary": summary, "findings": findings}, indent=2))
    else:
        verdicts = summary["verdicts"]
        tightness = summary["tightness"]
        line = (
            f"fuzz: {summary['seeds']} seeds — explored {summary['explored']},"
            f" answered from ledger {summary['skipped']}"
            f" (warm rate {summary['skip_rate']:.0%})"
        )
        if summary["interrupted"]:
            line += " — INTERRUPTED (resume with the same command)"
        if summary.get("errors"):
            line += f" — {summary['errors']} remote errors"
        print(line)
        print(
            f"  verdicts: SOUND {verdicts['SOUND']}"
            f"  UNSOUND {verdicts['UNSOUND']}"
            f"  UNSTABLE {verdicts['UNSTABLE']}"
            f"  (tight {tightness['TIGHT']}, loose {tightness['LOOSE']},"
            f" open {summary['open']})"
        )
        for finding in findings:
            print(f"  [{finding['severity']}] {finding['rule']}: {finding['message']}")
            if finding.get("witness"):
                print(f"    witness: repro replay {finding['witness']!r}")
    return EXIT_VERDICT if summary["verdicts"]["UNSOUND"] else EXIT_OK


def cmd_serve(args) -> int:
    from repro.service.server import ServiceConfig, serve

    persist_interval = args.persist_interval
    if persist_interval is None:
        # fleet shards flush/refresh periodically so verdicts propagate
        # across workers; the single server keeps its flush-on-drain default
        persist_interval = 5.0 if (args.fleet and not args.no_persist) else 0.0
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        window=args.window_ms / 1000.0,
        max_pending=args.queue_limit,
        max_body=args.max_body,
        default_deadline_ms=args.deadline_ms,
        drain_timeout=args.drain_timeout,
        cache_dir=args.cache_dir,
        no_persist=args.no_persist,
        persist_interval=persist_interval,
    )
    if args.fleet:
        from repro.service.router import FleetConfig, serve_fleet

        return serve_fleet(FleetConfig(
            host=args.host,
            port=args.port,
            fleet=args.fleet,
            worker=config,
            max_inflight=args.max_inflight,
            max_body=args.max_body,
            drain_timeout=args.drain_timeout,
        ))
    return serve(config)


def cmd_compact(args) -> int:
    from repro.core.persist import DEFAULT_CACHE_DIR, PersistentStore

    directory = (
        args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    )
    store = PersistentStore(directory)
    count = store.segment_count()
    if count == 0:
        print(f"{directory}: no verdict segments to compact")
        return EXIT_OK
    summary = store.compact()
    if not summary["compacted"]:
        print(f"{directory}: skipped — another process holds the compaction claim")
        return EXIT_OK
    print(
        f"{directory}: compacted {summary['segments_in']} segments into 1"
        f" ({summary['entries']} entries)"
    )
    return EXIT_OK


def _submit_options(args) -> dict:
    options = {
        "budget": args.budget,
        "seed": args.seed,
        "ladder": args.ladder,
        "use_sdg": not args.no_sdg,
    }
    if args.kind == "analyze":
        options["snapshot"] = args.snapshot
        if args.transaction:
            options["transaction"] = args.transaction
        if args.level:
            options["level"] = args.level
    if args.kind == "certify":
        options["max_schedules"] = args.max_schedules
        if args.max_depth is not None:
            options["max_depth"] = args.max_depth
    if args.kind == "lint":
        # lint results depend on the app alone; a lean spec maximises the
        # service's chance to coalesce concurrent lint requests
        options = {}
    if args.kind == "infer":
        # inference depends only on budget, seed and generator knobs
        options = {"budget": args.budget, "seed": args.seed}
        if args.knobs:
            options["profile"] = args.knobs
    if args.kind == "fuzz":
        options = {
            "budget": args.budget,
            "pairs": args.pairs,
            "max_schedules": args.max_schedules,
        }
        if args.level:
            options["level"] = args.level  # the forced chooser override
        if args.knobs:
            options["profile"] = args.knobs
    return options


def cmd_submit(args) -> int:
    from repro.service.client import (
        ServiceBusyError,
        ServiceClient,
        ServiceConnectionError,
        ServiceError,
    )

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        response = client.submit(
            args.kind, args.apps, deadline_ms=args.deadline_ms, **_submit_options(args)
        )
    except ServiceBusyError as exc:
        print(f"repro: busy: {exc}", file=sys.stderr)
        return EXIT_BUSY
    except ServiceConnectionError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_CONNECT
    except ServiceError as exc:
        detail = exc.payload.get("error") if isinstance(exc.payload, dict) else exc
        print(f"repro: error: {detail}", file=sys.stderr)
        return EXIT_USAGE if exc.status == 400 else EXIT_INTERNAL
    entries = response.get("results", [])
    if args.result_only:
        if len(entries) != 1:
            print("repro: error: --result-only needs exactly one app", file=sys.stderr)
            return EXIT_USAGE
        entry = entries[0]
        if entry.get("timed_out"):
            print("repro: error: request deadline exceeded", file=sys.stderr)
            return EXIT_DEADLINE
        print(json.dumps(entry.get("result"), indent=2))
        return int(entry.get("exit_code", EXIT_INTERNAL))
    if args.json:
        print(json.dumps(response, indent=2))
    else:
        for entry in entries:
            if entry.get("timed_out"):
                print(f"{entry['kind']} {entry['app']}: TIMED OUT (partial response)")
                continue
            if "error" in entry:
                print(f"{entry['kind']} {entry['app']}: ERROR {entry['error']}")
                continue
            line = (
                f"{entry['kind']} {entry['app']}: exit {entry['exit_code']}"
                f" in {entry['seconds']:.3f}s"
            )
            if entry.get("coalesced"):
                line += " (coalesced)"
            print(line)
            result = entry.get("result") or {}
            for txn, level in sorted((result.get("levels") or {}).items()):
                print(f"  {txn:24s} {level}")
            if "agreement" in result:
                print(f"  agreement: {result['agreement']}")
            if "ok" in result:
                print(f"  ok: {result['ok']}")
            if "verdict" in result:
                line = f"  verdict: {result['verdict']}"
                if result.get("tightness"):
                    line += f" ({result['tightness']})"
                print(line)
    exit_code = EXIT_OK
    for entry in entries:
        if entry.get("timed_out"):
            exit_code = max(exit_code, EXIT_DEADLINE)
        elif "error" in entry:
            exit_code = max(exit_code, EXIT_INTERNAL)
        else:
            exit_code = max(exit_code, int(entry.get("exit_code", 0)))
    return exit_code


def cmd_replay(args) -> int:
    from repro.sched.histories import replay

    levels = {}
    for assignment in args.levels or []:
        txn, sep, level = assignment.partition("=")
        if not sep or not txn.isdigit():
            raise SystemExit(f"--levels expects N=LEVEL with numeric N, got {assignment!r}")
        _validate_level(level)
        levels[int(txn)] = level
    _validate_level(args.default_level)
    result = replay(args.history, levels, default_level=args.default_level)
    for step in result.steps:
        suffix = f" -> {step.value!r}" if step.value is not None else ""
        detail = f"  ({step.detail})" if step.detail else ""
        print(f"{step.token:20s} {step.status}{suffix}{detail}")
    print(f"final items: {result.final.items}")
    if result.final.arrays:
        print(f"final arrays: {result.final.arrays}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic correctness at weak isolation levels (ICDE 2000), mechanised.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {_version()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    apps = sub.add_parser("apps", help="list bundled applications")
    apps.set_defaults(func=cmd_apps)

    levels = sub.add_parser("levels", help="list isolation levels")
    levels.set_defaults(func=cmd_levels)

    analyze = sub.add_parser("analyze", help="run the Section 5 chooser")
    analyze.add_argument("app")
    analyze.add_argument("--transaction", help="check one transaction only")
    analyze.add_argument("--level", help="check at one level only (with --transaction)")
    analyze.add_argument("--budget", type=int, default=3000)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--ladder", choices=("ansi", "extended"), default="ansi")
    analyze.add_argument("--snapshot", action="store_true", help="include Theorem 5 analysis")
    analyze.add_argument(
        "--no-cache", action="store_true",
        help="disable the verdict cache (every obligation re-checked)",
    )
    analyze.add_argument(
        "--cache-dir", nargs="?", const=".repro-cache", default=None, metavar="DIR",
        help="persistent verdict cache directory (bare flag: .repro-cache;"
        " default: $REPRO_CACHE_DIR, else persistence stays off)",
    )
    analyze.add_argument(
        "--no-persist", action="store_true",
        help="never load or write the persistent verdict cache",
    )
    analyze.add_argument(
        "--no-sdg", action="store_true",
        help="disable SDG obligation pre-pruning (verdicts are identical;"
        " every obligation goes through the checker tiers)",
    )
    analyze.add_argument(
        "--stats", action="store_true",
        help="print the per-tier timing and cache hit/miss table",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report (schema: docs/PIPELINE.md)",
    )
    analyze.set_defaults(func=cmd_analyze)

    certify = sub.add_parser(
        "certify", help="static chooser + exhaustive dynamic certification"
    )
    certify.add_argument("app")
    certify.add_argument("--ladder", choices=("ansi", "extended"), default="ansi")
    certify.add_argument("--seed", type=int, default=0)
    certify.add_argument("--budget", type=int, default=3000)
    certify.add_argument(
        "--max-schedules", type=int, default=500,
        help="simulator-run budget per scenario exploration",
    )
    certify.add_argument(
        "--max-depth", type=int, default=None,
        help="scheduling-decision budget per explored run",
    )
    certify.add_argument(
        "--no-sdg", action="store_true",
        help="disable SDG obligation pre-pruning in the static layer",
    )
    certify.add_argument(
        "--cache-dir", nargs="?", const=".repro-cache", default=None, metavar="DIR",
        help="persistent verdict cache directory (bare flag: .repro-cache;"
        " default: $REPRO_CACHE_DIR, else persistence stays off)",
    )
    certify.add_argument(
        "--no-persist", action="store_true",
        help="never load or write the persistent verdict cache",
    )
    certify.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable certificate (schema: docs/PIPELINE.md)",
    )
    certify.set_defaults(func=cmd_certify)

    lint = sub.add_parser(
        "lint", help="static well-formedness + SDG dangerous-structure checks"
    )
    lint.add_argument(
        "apps", nargs="*",
        help="applications to lint (default: every bundled application)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit machine-readable findings (schema: docs/PIPELINE.md)",
    )
    lint.set_defaults(func=cmd_lint)

    infer = sub.add_parser(
        "infer", help="derive I/B/Q annotations statically and compare levels"
    )
    infer.add_argument(
        "app", help="bundled application name, appgen:<seed> or appgen:LO..HI"
    )
    infer.add_argument("--budget", type=int, default=3000)
    infer.add_argument("--seed", type=int, default=0)
    _add_appgen_flags(infer)
    infer.add_argument("--json", action="store_true")
    infer.set_defaults(func=cmd_infer)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz static level choices against exhaustive"
        " exploration (docs/FUZZING.md)",
    )
    fuzz.add_argument(
        "app", nargs="?", default=None,
        help="appgen:<seed> or appgen:LO..HI seed range (or use --seeds)",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="fuzz seeds 0..N (shorthand for appgen:0..N)",
    )
    fuzz.add_argument(
        "--corpus-dir", default=".repro-corpus", metavar="DIR",
        help="corpus ledger directory (default: .repro-corpus)",
    )
    fuzz.add_argument(
        "--resume", action="store_true",
        help="resume from the corpus ledger (always on; settled seeds are"
        " answered from the ledger — delete DIR for a fresh corpus)",
    )
    fuzz.add_argument("--budget", type=int, default=1500,
                      help="interference-checker budget for the chooser pass")
    fuzz.add_argument(
        "--pairs", type=int, default=3,
        help="probe instance sets explored per seed",
    )
    fuzz.add_argument(
        "--max-schedules", type=int, default=96,
        help="simulator-run budget per probe exploration",
    )
    fuzz.add_argument(
        "--force-level", default=None, metavar="LEVEL",
        help="override the chooser with one level everywhere (the weakened-"
        "chooser fixture; e.g. 'READ COMMITTED')",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip greedy witness shrinking on UNSOUND findings",
    )
    _add_appgen_flags(fuzz)
    fuzz.add_argument(
        "--service", default=None, metavar="HOST:PORT",
        help="fan unsettled seeds out across a running fleet (repro serve"
        " --fleet N) instead of exploring locally",
    )
    fuzz.add_argument(
        "--inflight", type=int, default=8,
        help="concurrent in-flight fuzz jobs with --service",
    )
    fuzz.add_argument(
        "--deadline-ms", type=int, default=None,
        help="server-side deadline per fuzz job with --service",
    )
    fuzz.add_argument(
        "--json", action="store_true",
        help="emit the run summary plus lint-style findings as JSON",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    explore = sub.add_parser(
        "explore", help="exhaustively enumerate one scenario's schedules"
    )
    explore.add_argument("app")
    explore.add_argument("--scenario", help="registered scenario name")
    explore.add_argument("--all", action="store_true", help="explore every scenario")
    explore.add_argument("--level", default="SERIALIZABLE", help="uniform level")
    explore.add_argument(
        "--levels", nargs="*", metavar="Txn=LEVEL",
        help="per-type level overrides (e.g. Withdraw_sav='READ COMMITTED')",
    )
    explore.add_argument("--max-schedules", type=int, default=500)
    explore.add_argument("--max-depth", type=int, default=None)
    explore.add_argument(
        "--dpor", choices=("optimal", "lite"), default="optimal",
        help="pruning algorithm: source-set race reversal (optimal) or the"
        " sleep-set + state-caching reference (lite)",
    )
    explore.add_argument(
        "--no-pruning", action="store_true",
        help="disable all pruning (full DFS)",
    )
    explore.add_argument("--no-retry", action="store_true", help="no abort-retry loop")
    explore.add_argument("--json", action="store_true")
    explore.set_defaults(func=cmd_explore)

    simulate = sub.add_parser("simulate", help="run a workload on the engine")
    simulate.add_argument("app")
    simulate.add_argument("--level", default="SERIALIZABLE")
    simulate.add_argument(
        "--levels", nargs="*", metavar="Txn=LEVEL",
        help="per-type level overrides for a mixed-level run"
        " (e.g. Deposit_sav='READ COMMITTED')",
    )
    simulate.add_argument("--size", type=int, default=10)
    simulate.add_argument("--hot", type=float, default=0.5)
    simulate.add_argument("--rounds", type=int, default=5)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--policy", choices=("random", "exhaustive"), default="random",
        help="scheduling policy: seeded random rounds or bounded exhaustive"
        " exploration",
    )
    simulate.add_argument(
        "--max-schedules", type=int, default=200,
        help="run budget with --policy exhaustive",
    )
    simulate.add_argument(
        "--guard", action="store_true",
        help="run under the assertional concurrency control (AssertionGuard)",
    )
    simulate.set_defaults(func=cmd_simulate)

    replay = sub.add_parser("replay", help="replay a history DSL script")
    replay.add_argument("history")
    replay.add_argument("--levels", nargs="*", metavar="N=LEVEL")
    replay.add_argument("--default-level", default="READ COMMITTED")
    replay.set_defaults(func=cmd_replay)

    serve = sub.add_parser(
        "serve", help="run the long-lived analysis service (docs/SERVICE.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8923,
        help="listen port (0 picks a free port, announced on stdout)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="job worker pool size (default 2)",
    )
    serve.add_argument(
        "--window-ms", type=float, default=5.0,
        help="batching window in milliseconds (0 dispatches immediately)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission cap: jobs admitted but unfinished before 429s",
    )
    serve.add_argument(
        "--max-body", type=int, default=1_000_000,
        help="maximum request body bytes before 413",
    )
    serve.add_argument(
        "--deadline-ms", type=int, default=None,
        help="default per-request deadline (requests may override)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight work on SIGTERM",
    )
    serve.add_argument(
        "--cache-dir", nargs="?", const=".repro-cache", default=None, metavar="DIR",
        help="persistent verdict store warmed at boot, flushed on drain"
        " (bare flag: .repro-cache; default: $REPRO_CACHE_DIR, else off)",
    )
    serve.add_argument(
        "--no-persist", action="store_true",
        help="never load or write the persistent verdict cache",
    )
    serve.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="run a sharded fleet: a consistent-hash router in front of"
        " N worker processes (0 = single-process service)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=32, metavar="N",
        help="router backpressure: in-flight forwarded requests per worker"
        " shard before 429 (with --fleet)",
    )
    serve.add_argument(
        "--persist-interval", type=float, default=None, metavar="SECONDS",
        help="flush/refresh the persistent verdict store every SECONDS"
        " (default: 5 for fleet workers with persistence on, else only"
        " at drain)",
    )
    serve.set_defaults(func=cmd_serve)

    compact = sub.add_parser(
        "compact", help="merge the persistent verdict store's segments into one"
    )
    compact.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="verdict store directory (default: $REPRO_CACHE_DIR, else"
        " .repro-cache)",
    )
    compact.set_defaults(func=cmd_compact)

    submit = sub.add_parser(
        "submit", help="send jobs to a running analysis service"
    )
    submit.add_argument("kind", choices=("analyze", "certify", "lint", "infer", "fuzz"))
    submit.add_argument(
        "apps", nargs="+",
        help="application name(s); infer/fuzz also accept appgen:<seed>",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8923)
    submit.add_argument(
        "--timeout", type=float, default=300.0, help="client socket timeout (seconds)"
    )
    submit.add_argument(
        "--deadline-ms", type=int, default=None,
        help="server-side deadline; late units come back with timed_out markers",
    )
    submit.add_argument("--budget", type=int, default=3000)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--ladder", choices=("ansi", "extended"), default="ansi")
    submit.add_argument("--snapshot", action="store_true")
    submit.add_argument("--transaction", help="analyze one transaction (with --level)")
    submit.add_argument("--level", help="analyze at one level (with --transaction)")
    submit.add_argument("--max-schedules", type=int, default=500)
    submit.add_argument("--max-depth", type=int, default=None)
    submit.add_argument("--no-sdg", action="store_true")
    submit.add_argument(
        "--pairs", type=int, default=3,
        help="probe instance sets per fuzz case (fuzz jobs only)",
    )
    submit.add_argument(
        "--knobs", default=None, metavar="KNOBS",
        help="generator knob string for appgen refs (infer/fuzz jobs;"
        " e.g. 'txns=3..5;accounts=2;balance=2;stmts=-;profile=-')",
    )
    submit.add_argument(
        "--json", action="store_true", help="print the full service response"
    )
    submit.add_argument(
        "--result-only", action="store_true",
        help="print only the result payload (byte-identical to the batch CLI's"
        " deterministic JSON; requires exactly one app)",
    )
    submit.set_defaults(func=cmd_submit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        return EXIT_OK
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - tracebacks are not a UI
        print(f"repro: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
