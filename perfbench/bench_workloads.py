"""The benchmark's three workloads: inputs, units, outputs and reference checks.

Each workload has the same four parts:

* ``setup()`` builds the inputs (this is what ``setup_s`` times, from a
  fresh interpreter);
* ``run(inputs, tracer)`` does the fixed work, one unit at a time in a
  closed loop, and returns one output row per unit plus workload totals;
* ``check(outputs, reference)`` compares the outputs with the checked-in
  reference and returns ``{unit key: [problems]}`` — pure, so the
  self-tests can feed it tampered references;
* ``shares(outputs)`` derives the verdict shares of the outputs.

The work is fixed: the seed is recorded but changes neither the units nor
their order.  Both would move cost far more than any bound allows: the BMC
sampling seed moves a cold ``analyze`` pass between 21 s and 29 s, the
per-case fuzz time has a coefficient of variation of about 0.9 across
appgen seeds 0-59, and the order of the ``analyze`` apps alone moves its
peak RSS between 384 MB and 437 MB.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil

HERE = pathlib.Path(__file__).resolve().parent
REFERENCES = HERE / "references"

SERIALIZABLE = "SERIALIZABLE"
SNAPSHOT = "SNAPSHOT"
#: The six isolation levels, weakest first (the extended ladder plus SNAPSHOT).
LEVELS = (
    "READ UNCOMMITTED", "READ COMMITTED", "READ COMMITTED FCW",
    "REPEATABLE READ", SNAPSHOT, SERIALIZABLE,
)
#: The extended Section 5 ladder the chooser climbs.
LADDER = tuple(level for level in LEVELS if level != SNAPSHOT)

#: (registry name, BMC budget).  tpcc at the default budget takes minutes.
ANALYZE_APPS = (
    ("banking", 3000), ("customers", 3000), ("employees", 3000),
    ("orders", 3000), ("orders-strict", 3000), ("tpcc", 24),
)
#: The BMC sampling seed of every analyze job (the CLI default).
ANALYZE_BMC_SEED = 0
EXPLORE_GROUPS = ("banking", "tpcc-lite", "mvcc-stress")
#: The fuzz corpus: appgen seeds 0-47 with two or three transaction types.
#: Smaller programs than the generator's default (three to five types) so
#: that a pass holds enough cases for a tail percentile (p79 of 48).
FUZZ_SEEDS = tuple(range(48))
FUZZ_KNOBS = "txns=2..3;accounts=2;balance=2;stmts=-;profile=-"

#: Small subsets for the self-tests, chosen so every layer boundary is hit.
SMOKE = {
    "analyze": ("banking", "customers", "orders"),
    "explore": (
        ("banking", "withdraw-race", "REPEATABLE READ"),
        ("banking", "withdraw-race", "SNAPSHOT"),
        ("tpcc-lite", "delivery-vs-new-order", "SERIALIZABLE"),
        ("mvcc-stress", "long-reader", "SNAPSHOT"),
    ),
    "fuzz": (1, 8),
}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCES / f"{workload}.json").read_text())


# ---------------------------------------------------------------------------
# analyze: the cold Section 5 chooser
# ---------------------------------------------------------------------------


def setup_analyze(smoke: bool = False) -> list:
    import repro.core.chooser  # noqa: F401  (the modules run_job imports lazily)
    import repro.core.parallel  # noqa: F401
    import repro.core.persist  # noqa: F401
    import repro.core.sdg  # noqa: F401
    from repro.apps import registry
    from repro.pipeline.jobs import JobSpec

    registry()
    apps = [(name, budget) for name, budget in ANALYZE_APPS if not smoke or name in SMOKE["analyze"]]
    specs = [
        JobSpec(
            kind="analyze", app=name, budget=budget, seed=ANALYZE_BMC_SEED,
            ladder="extended", snapshot=True,
        )
        for name, budget in apps
    ]
    for spec in specs:
        spec.validate()
    return specs


def _confidence(result) -> str:
    return "theorem" if result.trivially_correct else result.confidence


def run_analyze(specs: list, tracer) -> dict:
    """One ``run_job`` per app; each ``check_transaction_at`` call is a unit."""
    import repro.core.chooser as chooser
    from repro.pipeline.jobs import run_job

    current = [None]
    units: list = []
    apps: list = []

    def record(args, result):
        _app, txn, level = args[0], args[1], args[2]
        units.append({
            "unit": [current[0], txn.name, level],
            "ok": result.ok,
            "confidence": _confidence(result),
            "obligations": len(result.obligations),
            "failures": len(result.failures),
        })

    tracer.wrap_unit(
        chooser, "check_transaction_at",
        lambda args: f"{current[0]}/{args[1].name}@{args[2]}", after=record,
    )
    for spec in specs:
        current[0] = spec.app
        try:
            job = run_job(spec, workers=1, no_persist=True)
        except Exception as exc:  # a raising app is an error row, not a crash
            apps.append({"app": spec.app, "error": f"{type(exc).__name__}: {exc}"})
            continue
        with tracer.outside():
            chosen = [_confidence(choice.chosen_check) for choice in job.report.choices]
            apps.append({
                "app": spec.app,
                "levels": job.payload["levels"],
                "payload": digest(job.payload),
                "chosen_confidence": chosen,
            })
    return {"units": units, "apps": apps}


def expected_analyze_units(reference: dict, apps=None) -> dict:
    """Unit key -> expected verdict (``None`` where no source pins it).

    Below the chosen level every rung fails and the chosen rung holds;
    rungs above it are never checked.  SNAPSHOT verdicts are pinned only
    where the reference gives them.
    """
    expected = {}
    for app, entry in reference["apps"].items():
        if apps is not None and app not in apps:
            continue
        snapshot = entry.get("snapshot") or {}
        for txn, chosen in entry["levels"].items():
            for level in LADDER[: LADDER.index(chosen) + 1]:
                expected[(app, txn, level)] = level == chosen
            expected[(app, txn, SNAPSHOT)] = snapshot.get(txn)
    return expected


def check_analyze(outputs: dict, reference: dict) -> dict:
    apps = {row["app"] for row in outputs["apps"]}
    expected = expected_analyze_units(reference, apps)
    problems: dict = {}
    seen = set()
    for row in outputs["units"]:
        key = tuple(row["unit"])
        if key in seen:
            problems.setdefault(key, []).append("checked twice")
        seen.add(key)
        if key not in expected:
            problems.setdefault(key, []).append("not in the reference climb")
        elif expected[key] is not None and row["ok"] != expected[key]:
            problems.setdefault(key, []).append(
                f"verdict {'holds' if row['ok'] else 'fails'}, reference says"
                f" {'holds' if expected[key] else 'fails'}"
            )
    for key in expected:
        if key not in seen:
            problems.setdefault(key, []).append("never checked")
    for row in outputs["apps"]:
        if "error" in row:
            problems.setdefault((row["app"],), []).append(row["error"])
        elif row["levels"] != reference["apps"][row["app"]]["levels"]:
            problems.setdefault((row["app"],), []).append("level table differs")
    return problems


def analyze_shares(outputs: dict) -> dict:
    chosen = [c for row in outputs["apps"] for c in row.get("chosen_confidence", [])]
    proved = sum(c in ("proved", "theorem") for c in chosen)
    return {"proved_share": proved / len(chosen) if chosen else 0.0}


# ---------------------------------------------------------------------------
# explore: exhaustive optimal-DPOR exploration of every bundled scenario
# ---------------------------------------------------------------------------


def explore_units(smoke: bool = False) -> list:
    """``(group, scenario, level)`` keys with their scenario objects."""
    from repro.pipeline.scenarios import scenarios_for

    units = []
    for group in EXPLORE_GROUPS:
        for scenario in scenarios_for(group):
            for level in LEVELS:
                if smoke and (group, scenario.name, level) not in SMOKE["explore"]:
                    continue
                units.append((group, scenario, level))
    return units


def scenario_specs(scenario, level: str) -> list:
    """The scenario's instances, every transaction type at ``level``."""
    levels = {spec.txn_type.name: level for spec in scenario.specs({})}
    return scenario.specs(levels)


def setup_explore(smoke: bool = False) -> list:
    import repro.sched.explore  # noqa: F401  (imported here so setup_s counts it)
    import repro.sched.semantic  # noqa: F401

    return [
        (group, scenario, level, scenario.initial(), scenario_specs(scenario, level))
        for group, scenario, level in explore_units(smoke)
    ]


def _plain(value):
    return value if isinstance(value, (int, float, str, bool, type(None))) else repr(value)


def canonical_state(state) -> str:
    """A database state as a string equal for equal states.

    Tables are multisets, so their rows are sorted; written independently
    of the explorer's own state fingerprint.
    """
    items = sorted([str(name), _plain(value)] for name, value in state.items.items())
    arrays = sorted(
        [str(array), sorted(
            [index, sorted([repr(attr), _plain(value)] for attr, value in cells.items())]
            for index, cells in elements.items()
        )]
        for array, elements in state.arrays.items()
    )
    tables = sorted(
        [str(table), sorted(
            json.dumps(sorted([str(k), _plain(v)] for k, v in row.items())) for row in rows
        )]
        for table, rows in state.tables.items()
    )
    return json.dumps([items, arrays, tables])


def final_state_key(schedule) -> str:
    """Final database state plus the per-instance outcome census."""
    census = sorted([outcome.name, str(outcome.status)] for outcome in schedule.outcomes)
    return canonical_state(schedule.final) + " " + json.dumps(census)


def final_states(schedules) -> list:
    return sorted({final_state_key(schedule) for schedule in schedules})


def violation_summaries(schedules, scenario, check) -> list:
    """Sorted summaries of the schedules ``check`` finds semantically incorrect."""
    summaries = set()
    for schedule in schedules:
        report = check(schedule, scenario.invariant, scenario.cumulative)
        if not report.correct:
            summaries.add(report.summary())
    return sorted(summaries)


def run_explore(units: list, tracer) -> dict:
    """One exhaustive exploration per (scenario, level); semantic check per schedule."""
    from repro.sched import explore as explore_module
    from repro.sched import semantic

    rows = []
    for group, scenario, level, initial, specs in units:
        with tracer.unit(f"{group}/{scenario.name}@{level}"):
            result = explore_module.explore(initial, specs, workers=1)
            violations = violation_summaries(
                result.results, scenario, semantic.check_semantic_correctness
            )
        with tracer.outside():
            finals = final_states(result.results)
            rows.append({
                "unit": [group, scenario.name, level],
                "final_states": len(finals),
                "final_digest": digest(finals),
                "violations": violations,
                "runs": result.runs,
                "schedules": result.schedules,
                "truncated": result.truncated,
            })
    return {"units": rows}


def check_explore(outputs: dict, reference: dict) -> dict:
    """Final-state sets and violation summaries only: run counts are free to fall."""
    problems: dict = {}
    for row in outputs["units"]:
        key = tuple(row["unit"])
        truth = reference["units"].get("|".join(key))
        if truth is None:
            problems.setdefault(key, []).append("no reference")
            continue
        if row["truncated"]:
            problems.setdefault(key, []).append("exploration truncated")
        if row["final_digest"] != digest(truth["final_states"]):
            problems.setdefault(key, []).append(
                f"final states differ ({row['final_states']} reached,"
                f" {len(truth['final_states'])} in the reference)"
            )
        if row["violations"] != truth["violations"]:
            problems.setdefault(key, []).append("violation summaries differ")
    return problems


# ---------------------------------------------------------------------------
# fuzz: generate -> infer -> choose -> probe over a fixed appgen corpus
# ---------------------------------------------------------------------------


class FuzzInputs:
    """The corpus's generator configs and a runner on a fresh corpus directory."""

    def __init__(self, seeds: list, corpus_dir: pathlib.Path) -> None:
        from repro.fuzz.runner import FuzzRunner
        from repro.workloads.appgen import AppGenConfig

        self.configs = [AppGenConfig.from_knobs(seed, FUZZ_KNOBS) for seed in seeds]
        self.corpus_dir = corpus_dir
        shutil.rmtree(corpus_dir, ignore_errors=True)
        corpus_dir.mkdir(parents=True)
        self.runner = FuzzRunner(seeds, knobs=FUZZ_KNOBS, corpus_dir=str(corpus_dir))

    def close(self) -> None:
        shutil.rmtree(self.corpus_dir, ignore_errors=True)


def setup_fuzz(corpus_dir: pathlib.Path, smoke: bool = False) -> FuzzInputs:
    import repro.core.chooser  # noqa: F401  (the modules run_case imports lazily)
    import repro.core.infer  # noqa: F401
    import repro.fuzz.shrink  # noqa: F401
    import repro.sched.explore  # noqa: F401
    import repro.sched.histories  # noqa: F401
    import repro.sched.semantic  # noqa: F401
    return FuzzInputs(list(SMOKE["fuzz"] if smoke else FUZZ_SEEDS), corpus_dir)


def run_fuzz(inputs: FuzzInputs, tracer) -> dict:
    """The runner settles one appgen seed per unit, into one shared ledger."""
    import repro.core.chooser as chooser
    from repro.fuzz.ledger import CorpusLedger

    chosen: list = []
    tracer.tap(
        chooser, "choose_level",
        lambda _args, result: chosen.append(_confidence(result.chosen_check)),
    )
    runner = inputs.runner
    rows = []
    for config in inputs.configs:
        seed = config.seed
        runner.seeds = [seed]
        error = None
        with tracer.unit(f"appgen:{seed}"):
            try:
                runner.run()
            except Exception as exc:  # a raising case is an error row, not a crash
                error = f"{type(exc).__name__}: {exc}"
        with tracer.outside():
            row = next(
                (row for (s, _fp), row in runner.ledger.entries.items() if s == seed), None
            )
            rows.append({
                "unit": [seed],
                "knobs": config.knobs(),
                "error": error,
                "verdict": row and row["verdict"],
                "tightness": row and row["tightness"],
                "row": row and digest(row),
            })
    with tracer.outside():
        reloaded = CorpusLedger(str(inputs.corpus_dir))
        reloaded.load()
        ledger_ok = reloaded.canonical_bytes() == runner.ledger.canonical_bytes()
    return {"units": rows, "chosen_confidence": chosen, "ledger_reloads": ledger_ok}


def check_fuzz(outputs: dict, reference: dict) -> dict:
    """The SERIALIZABLE-control differential: no case may come back UNSOUND."""
    problems: dict = {}
    allowed = set(reference["allowed_verdicts"])
    for row in outputs["units"]:
        key = tuple(row["unit"])
        if row["error"]:
            problems.setdefault(key, []).append(row["error"])
        elif row["verdict"] is None:
            problems.setdefault(key, []).append("no ledger row")
        elif row["verdict"] not in allowed:
            problems.setdefault(key, []).append(f"verdict {row['verdict']}")
    if not outputs["ledger_reloads"]:
        problems.setdefault(("ledger",), []).append("reloaded ledger differs")
    return problems


def fuzz_shares(outputs: dict) -> dict:
    verdicts = [row["verdict"] for row in outputs["units"]]
    graded = [row["tightness"] for row in outputs["units"]
              if row["verdict"] == "SOUND" and row["tightness"]]
    chosen = outputs["chosen_confidence"]
    return {
        "proved_share": sum(c in ("proved", "theorem") for c in chosen) / len(chosen) if chosen else 0.0,
        "unstable_share": verdicts.count("UNSTABLE") / len(verdicts) if verdicts else 0.0,
        "tight_share": graded.count("TIGHT") / len(graded) if graded else 0.0,
    }


WORKLOADS = ("analyze", "explore", "fuzz")
