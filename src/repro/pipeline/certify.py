"""The cross-layer certification pipeline: static choice, dynamic proof.

``certify(app)`` runs the paper's two halves against each other:

1. the **static** Section 5 chooser picks the lowest level per transaction
   type whose theorem condition holds (:mod:`repro.core.chooser`);
2. the **dynamic** explorer (:mod:`repro.sched.explore`) then exhaustively
   enumerates the mixed-level schedules of each registered scenario at the
   recommended assignment, checking every completed schedule against the
   semantic criterion (:mod:`repro.sched.semantic`) with an
   :class:`~repro.sched.monitor.AssertionMonitor` attached;
3. each focus type is additionally probed **one level below** its chosen
   level — the theorems claim that level can fail, and the explorer tries
   to exhibit a schedule proving it;
4. the **static conflict graph** (:mod:`repro.core.sdg`) is reconciled as
   a third verdict source (:func:`reconcile_sdg`): its sound
   "statically safe" verdicts must never undercut the chooser (a
   disagreement breaks ``agreement`` and fails the run), and its
   dangerous structures are cross-checked against the Berenson
   phenomena the probes actually observed.

Per transaction type the two layers are reconciled into a verdict:

* ``agree`` — no violation at the chosen level, and either there is no
  level below or exploration below produced a violating schedule (the
  static choice is tight);
* ``static-too-conservative`` — no violation at the chosen level *or*
  one below: within the registered scenarios the lower level is also
  safe (the theorem condition was sufficient, not necessary);
* ``counterexample`` — exploration found a semantically incorrect
  schedule *at the chosen level*: the static claim is contradicted, and
  the report carries the replayable history;
* ``unexercised`` — no registered scenario focuses the type.

Violating schedules are rendered as history-DSL strings
(:func:`repro.sched.histories.history_string`) with their level
assignments, so ``repro replay "<history>" --levels N=LEVEL`` reproduces
the anomaly step by step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core import sdg
from repro.core.application import Application
from repro.core.chooser import ApplicationReport, analyze_application
from repro.core.conditions import ANSI_LADDER, EXTENDED_LADDER, LEVEL_ORDER, SERIALIZABLE
from repro.pipeline.context import RunContext
from repro.pipeline.scenarios import Scenario, scenarios_for
from repro.sched.anomalies import SDG_ANOMALY_NAMES, detect_all
from repro.sched.explore import explore
from repro.sched.histories import history_numbering, history_string
from repro.sched.monitor import AssertionMonitor
from repro.sched.semantic import check_semantic_correctness

#: Witnesses kept per probe (the rest are counted, not stored).
WITNESS_CAP = 2

LADDERS = {"ansi": ANSI_LADDER, "extended": EXTENDED_LADDER}


@dataclass
class Witness:
    """One semantically incorrect schedule, replayably rendered."""

    scenario: str
    summary: str  # the semantic checker's violation summary
    history: str | None  # DSL line, None when inexpressible
    levels: dict = field(default_factory=dict)  # DSL txn number -> level
    script: list = field(default_factory=list)  # realised scheduling decisions
    invalidations: int = 0  # monitor events observed during the run

    def replay_command(self) -> str | None:
        if self.history is None:
            return None
        assignments = " ".join(
            f'"{number}={level}"' for number, level in sorted(self.levels.items())
        )
        command = f'repro replay "{self.history}"'
        return f"{command} --levels {assignments}" if assignments else command

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "summary": self.summary,
            "history": self.history,
            "levels": {str(k): v for k, v in sorted(self.levels.items())},
            "script": list(self.script),
            "invalidations": self.invalidations,
            "replay_command": self.replay_command(),
        }


@dataclass
class DynamicProbe:
    """One exploration of a scenario under one level assignment."""

    scenario: str
    levels: dict  # type name -> level explored
    schedules: int = 0
    violations: int = 0
    witnesses: list = field(default_factory=list)
    exploration: dict = field(default_factory=dict)  # ExplorationResult.to_dict()
    anomalies: dict = field(default_factory=dict)  # detector name -> occurrences

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "levels": dict(self.levels),
            "schedules": self.schedules,
            "violations": self.violations,
            "witnesses": [witness.to_dict() for witness in self.witnesses],
            "exploration": dict(self.exploration),
            "anomalies": dict(self.anomalies),
        }


@dataclass
class TypeVerdict:
    """Static choice vs dynamic evidence for one transaction type."""

    transaction: str
    static_level: str
    verdict: str  # agree | static-too-conservative | counterexample | unexercised
    below_level: str | None = None
    chosen_probes: list = field(default_factory=list)
    below_probes: list = field(default_factory=list)

    @property
    def chosen_violations(self) -> int:
        return sum(probe.violations for probe in self.chosen_probes)

    @property
    def below_violations(self) -> int:
        return sum(probe.violations for probe in self.below_probes)

    def witnesses(self) -> list:
        found = []
        for probe in self.chosen_probes + self.below_probes:
            found.extend(probe.witnesses)
        return found

    def to_dict(self) -> dict:
        return {
            "transaction": self.transaction,
            "static_level": self.static_level,
            "below_level": self.below_level,
            "verdict": self.verdict,
            "chosen": [probe.to_dict() for probe in self.chosen_probes],
            "below": [probe.to_dict() for probe in self.below_probes],
        }


@dataclass
class CertificateReport:
    """The unified static + dynamic certificate for one application."""

    application: str
    ladder: tuple
    static: ApplicationReport
    verdicts: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    #: the third verdict layer: per-type SDG safe levels, dangerous
    #: structures (with dynamic corroboration), and any disagreement with
    #: the prover-backed chooser (see :func:`reconcile_sdg`)
    sdg: dict = field(default_factory=dict)

    @property
    def agreement(self) -> bool:
        """No dynamic counterexample and no SDG-vs-prover disagreement."""
        return (
            all(verdict.verdict != "counterexample" for verdict in self.verdicts)
            and not self.sdg.get("disagreements")
        )

    def verdict_for(self, name: str) -> TypeVerdict:
        for verdict in self.verdicts:
            if verdict.transaction == name:
                return verdict
        raise KeyError(name)

    def render(self) -> str:
        lines = [f"Certification for application {self.application!r}:"]
        width = max((len(v.transaction) for v in self.verdicts), default=12) + 2
        for v in self.verdicts:
            chosen = f"{v.chosen_violations} violations / {sum(p.schedules for p in v.chosen_probes)} schedules"
            if v.below_level is None:
                below = "(no level below)"
            else:
                below = (
                    f"{v.below_level}: {v.below_violations} violations /"
                    f" {sum(p.schedules for p in v.below_probes)} schedules"
                )
            lines.append(
                f"  {v.transaction:{width}s} static {v.static_level:22s}"
                f" at-chosen {chosen:28s} below {below:42s} -> {v.verdict}"
            )
        replayable = [
            (v, witness)
            for v in self.verdicts
            for witness in v.witnesses()
            if witness.history is not None
        ]
        if replayable:
            lines.append("witness histories (replayable):")
            seen = set()
            for v, witness in replayable:
                command = witness.replay_command()
                if command in seen:
                    continue
                seen.add(command)
                lines.append(f"  [{v.transaction} / {witness.scenario}] {witness.summary}")
                lines.append(f"    {command}")
        if self.sdg:
            lines.append("static conflict graph (SDG):")
            for entry in self.sdg.get("types", []):
                safe = entry["safe_level"] or "(none below SERIALIZABLE)"
                lines.append(
                    f"  {entry['transaction']:{width}s} SDG-safe from {safe}"
                )
            for structure in self.sdg.get("structures", []):
                mark = "corroborated" if structure.get("corroborated") else "not observed"
                lines.append(
                    f"  dangerous: {structure['kind']}"
                    f" [{'/'.join(structure['transactions'])}]"
                    f" below {structure['level']} ({mark} by exploration)"
                )
            for disagreement in self.sdg.get("disagreements", []):
                lines.append(f"  DISAGREEMENT: {disagreement['detail']}")
        lines.append(
            "overall: "
            + (
                "static, dynamic and SDG layers agree"
                if self.agreement
                else (
                    "SDG DISAGREES with the prover-backed chooser"
                    if self.sdg.get("disagreements")
                    else "DYNAMIC COUNTEREXAMPLE to a static claim"
                )
            )
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "application": self.application,
            "ladder": list(self.ladder),
            "agreement": self.agreement,
            "static": self.static.to_dict(),
            "verdicts": [verdict.to_dict() for verdict in self.verdicts],
            "sdg": dict(self.sdg),
            "stats": dict(self.stats),
        }


def classify(chosen_violations: int, below_level: str | None, below_violations: int) -> str:
    """The reconciliation rule (see module docstring)."""
    if chosen_violations:
        return "counterexample"
    if below_level is None or below_violations:
        return "agree"
    return "static-too-conservative"


def reconcile_sdg(app: Application, assignment: dict, ladder, probes) -> dict:
    """The third verdict layer: the conflict graph vs the chooser and probes.

    Only the *sound* direction counts as a disagreement: ``statically safe
    at L`` means every obligation the theorem enumerates at ``L`` has a
    disjoint footprint, so the prover-backed chooser must land at ``L`` or
    lower — a strictly higher choice is a bug in one of the layers.
    Dangerous structures are heuristic risk flags; a structure the probes
    did not reproduce is ordinary imprecision, but one whose matching
    Berenson phenomenon (:data:`repro.sched.anomalies.SDG_ANOMALY_NAMES`)
    showed up in a probe over the same transaction types is marked
    ``corroborated``.
    """
    graph = sdg.build_graph(app)
    rungs = list(ladder)
    if rungs[-1] != SERIALIZABLE:
        rungs.append(SERIALIZABLE)
    types = []
    disagreements = []
    for name in graph.nodes:
        safe = sdg.safe_levels(graph, name, rungs)
        safe_level = safe[0] if safe else None
        types.append({"transaction": name, "safe_level": safe_level})
        chosen = assignment.get(name)
        if (
            safe_level is not None
            and chosen is not None
            and LEVEL_ORDER[chosen] > LEVEL_ORDER[safe_level]
        ):
            disagreements.append(
                {
                    "transaction": name,
                    "sdg_safe_level": safe_level,
                    "chosen_level": chosen,
                    "detail": (
                        f"SDG certifies {name} safe at {safe_level} (disjoint"
                        f" footprints throughout) but the chooser picked"
                        f" {chosen}: one layer is wrong"
                    ),
                }
            )
    structures = []
    for structure in sdg.dangerous_structures(graph):
        phenomenon = SDG_ANOMALY_NAMES.get(structure.kind)
        corroborated = any(
            set(structure.transactions) <= set(probe.levels)
            and probe.anomalies.get(phenomenon, 0) > 0
            for probe in probes
        )
        entry = structure.to_dict()
        entry["phenomenon"] = phenomenon
        entry["corroborated"] = corroborated
        structures.append(entry)
    return {
        "types": types,
        "structures": structures,
        "disagreements": disagreements,
        "edges": len(graph.edges),
    }


def level_below(level: str, ladder) -> str | None:
    """The ladder level directly under ``level``, or None at the bottom."""
    levels = list(ladder)
    if levels[-1] != SERIALIZABLE:
        levels.append(SERIALIZABLE)
    try:
        index = levels.index(level)
    except ValueError:
        return None
    return levels[index - 1] if index > 0 else None


def run_probe(scenario: Scenario, type_levels: dict, context: RunContext) -> DynamicProbe:
    """Exhaustively explore one scenario under one level assignment."""
    probe = DynamicProbe(scenario=scenario.name, levels=dict(type_levels))
    result = explore(
        scenario.initial(),
        scenario.specs(type_levels),
        retry=True,
        max_schedules=context.max_schedules,
        max_depth=context.max_depth,
        pruning=True,
        observer_factory=AssertionMonitor,
    )
    probe.exploration = result.to_dict()
    probe.schedules = result.schedules
    for schedule in result.results:
        for name, occurrences in detect_all(schedule).items():
            if occurrences:
                probe.anomalies[name] = probe.anomalies.get(name, 0) + len(occurrences)
        report = check_semantic_correctness(schedule, scenario.invariant, scenario.cumulative)
        if report.correct:
            continue
        probe.violations += 1
        if len(probe.witnesses) >= WITNESS_CAP:
            continue
        numbering = history_numbering(schedule.history)
        levels = {}
        for outcome in schedule.outcomes:
            for txn_id in outcome.txn_ids:
                number = numbering.get(txn_id)
                if number is not None:
                    levels[number] = outcome.level
        monitors = [obs for obs in getattr(schedule, "observers", []) or []]
        invalidations = sum(len(getattr(m, "events", ())) for m in monitors)
        probe.witnesses.append(
            Witness(
                scenario=scenario.name,
                summary=report.summary(),
                history=history_string(schedule.history),
                levels=levels,
                script=list(schedule.script or []),
                invalidations=invalidations,
            )
        )
    return probe


def certify(
    app: Application | str,
    context: RunContext | None = None,
    ladder: str | tuple = "ansi",
    scenarios: list | None = None,
    include_snapshot: bool = False,
) -> CertificateReport:
    """Run the full static → dynamic certification pipeline for ``app``."""
    if isinstance(app, str):
        from repro.apps import registry

        app = registry()[app]()
    if context is None:
        context = RunContext()
    rungs = LADDERS[ladder] if isinstance(ladder, str) else tuple(ladder)
    if scenarios is None:
        scenarios = scenarios_for(app.name)

    started = time.perf_counter()
    store = context.store()
    if store is not None:
        store.load(context.cache)
    checker = context.checker(app.spec)
    try:
        static = analyze_application(
            app,
            checker,
            ladder=rungs,
            include_snapshot=include_snapshot,
        )
    finally:
        if store is not None:
            store.flush(context.cache)
    context.record(
        "static",
        seconds=round(time.perf_counter() - started, 3),
        tiers=dict(checker.stats),
        cache=context.cache.stats.snapshot(),
        **({"persist": store.snapshot()} if store is not None else {}),
    )
    assignment = static.levels()

    started = time.perf_counter()
    chosen_probes = {
        scenario.name: run_probe(scenario, assignment, context) for scenario in scenarios
    }
    report = CertificateReport(
        application=app.name, ladder=rungs, static=static, stats=context.stats
    )
    all_probes = list(chosen_probes.values())
    explored_runs = sum(p.exploration.get("runs", 0) for p in chosen_probes.values())
    for txn in app.transactions:
        chosen = assignment[txn.name]
        relevant = [s for s in scenarios if txn.name in s.focus]
        if not relevant:
            report.verdicts.append(
                TypeVerdict(
                    transaction=txn.name,
                    static_level=chosen,
                    verdict="unexercised",
                    below_level=level_below(chosen, rungs),
                )
            )
            continue
        verdict = TypeVerdict(
            transaction=txn.name,
            static_level=chosen,
            verdict="",
            below_level=level_below(chosen, rungs),
            chosen_probes=[chosen_probes[s.name] for s in relevant],
        )
        if verdict.below_level is not None:
            for scenario in relevant:
                lowered = dict(assignment)
                lowered[txn.name] = verdict.below_level
                verdict.below_probes.append(run_probe(scenario, lowered, context))
                all_probes.append(verdict.below_probes[-1])
                explored_runs += verdict.below_probes[-1].exploration.get("runs", 0)
        verdict.verdict = classify(
            verdict.chosen_violations, verdict.below_level, verdict.below_violations
        )
        report.verdicts.append(verdict)
    context.record(
        "dynamic",
        seconds=round(time.perf_counter() - started, 3),
        scenarios=len(scenarios),
        runs=explored_runs,
    )
    report.sdg = reconcile_sdg(app, assignment, rungs, all_probes)
    return report
