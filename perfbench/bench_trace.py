"""Spans and counters recorded from the benchmark's own files.

A :class:`Tracer` patches functions at the sites the program calls them
from (the module attribute or class attribute the caller looks up), so the
program itself carries no tracing code.  Every patch is undone by
:meth:`Tracer.restore`.

Two kinds of boundary are recorded:

* **spans** — one record per call: id, parent id, unit trace id, name,
  start and end.  Used where calls take milliseconds.
* **hot** boundaries — µs-scale calls (engine operations, deadlock cycle
  searches, prover queries, DPOR step signatures) are not recorded one by
  one but summed per (parent boundary, boundary) into calls, busy time and
  self time, so the tracing cost stays visible rather than dominant.

Busy time is inclusive and counts only the outermost call when a boundary
nests inside itself; self time is busy time minus the time of the child
boundaries, spans and hot ones alike.

The *unit* boundary is special: it opens a new trace id, and its
durations are the samples of the per-unit latency statistics.  Units are
recorded in the untraced run too; :meth:`Tracer.install_layers` adds the
layer boundaries only for the traced run.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import time

SPAN, HOT = "span", "hot"

#: (layer, boundary, "module[:Class]", attribute, kind).  The module is the
#: *call site's* namespace: a function imported with ``from m import f`` is
#: patched where it was imported, not where it is defined.  Several rows
#: may share one boundary name (the same function seen from two callers).
BOUNDARIES = (
    ("core.conditions", "check_transaction_at", "repro.core.chooser", "check_transaction_at", SPAN),
    ("core.conditions", "plan_level", "repro.core.conditions", "plan_read_uncommitted", SPAN),
    ("core.conditions", "plan_level", "repro.core.conditions", "plan_read_committed", SPAN),
    ("core.conditions", "plan_level", "repro.core.conditions", "_plan_fcw", SPAN),
    ("core.conditions", "plan_level", "repro.core.conditions", "plan_repeatable_read", SPAN),
    ("core.conditions", "plan_level", "repro.core.conditions", "plan_snapshot", SPAN),
    ("core.sdg", "prune_plan", "repro.core.sdg", "prune_plan", SPAN),
    ("core.interference", "check_statement", "repro.core.interference:InterferenceChecker", "check_statement", SPAN),
    ("core.interference", "check_rollback", "repro.core.interference:InterferenceChecker", "check_rollback", SPAN),
    ("core.interference", "check_unit", "repro.core.interference:InterferenceChecker", "check_unit", SPAN),
    ("core.prover", "is_valid", "repro.core.interference", "is_valid", HOT),
    ("core.prover", "is_valid", "repro.core.conditions", "is_valid", HOT),
    ("core.prover", "is_satisfiable", "repro.core.conditions", "is_satisfiable", HOT),
    ("core.prover", "holds", "repro.core.prover", "holds", HOT),
    ("core.infer", "infer_application", "repro.core.infer", "infer_application", SPAN),
    ("core.infer", "refine_candidates", "repro.core.infer", "refine_candidates", SPAN),
    ("sched.explore", "explore", "repro.sched.explore", "explore", SPAN),
    ("sched.dpor", "RaceAnalyzer.analyze", "repro.sched.dpor:RaceAnalyzer", "analyze", SPAN),
    ("sched.dpor", "online_signature", "repro.sched.dpor:RaceAnalyzer", "online_signature", HOT),
    ("sched.simulator", "Simulator.run", "repro.sched.simulator:Simulator", "run", SPAN),
    ("engine.manager", "ops.begin", "repro.engine.manager:Engine", "begin", HOT),
    ("engine.manager", "ops.commit", "repro.engine.manager:Engine", "commit", HOT),
    ("engine.manager", "ops.abort", "repro.engine.manager:Engine", "abort", HOT),
    ("engine.manager", "ops.read", "repro.engine.manager:Engine", "read_item", HOT),
    ("engine.manager", "ops.read", "repro.engine.manager:Engine", "read_field", HOT),
    ("engine.manager", "ops.read", "repro.engine.manager:Engine", "read_record", HOT),
    ("engine.manager", "ops.write", "repro.engine.manager:Engine", "write_item", HOT),
    ("engine.manager", "ops.write", "repro.engine.manager:Engine", "write_field", HOT),
    ("engine.manager", "ops.select", "repro.engine.manager:Engine", "select", HOT),
    ("engine.manager", "ops.insert", "repro.engine.manager:Engine", "insert", HOT),
    ("engine.manager", "ops.update", "repro.engine.manager:Engine", "update", HOT),
    ("engine.manager", "ops.delete", "repro.engine.manager:Engine", "delete", HOT),
    ("engine.deadlock", "find_cycle", "repro.engine.deadlock:WaitsForGraph", "find_cycle", HOT),
    ("sched.semantic", "check", "repro.sched.semantic", "check_semantic_correctness", SPAN),
    ("fuzz.runner", "run_case", "repro.fuzz.runner", "run_case", SPAN),
    ("fuzz.differential", "explore_probe", "repro.fuzz.differential", "explore_probe", SPAN),
    ("fuzz.ledger", "record", "repro.fuzz.ledger:CorpusLedger", "record", SPAN),
    ("fuzz.ledger", "load", "repro.fuzz.ledger:CorpusLedger", "load", SPAN),
    ("workloads.appgen", "generate_application", "repro.fuzz.runner", "generate_application", SPAN),
    ("workloads.appgen", "generate_application", "repro.fuzz.differential", "generate_application", SPAN),
)

UNIT = "unit"


def resolve(path: str):
    """The module or class named by ``"module[:Class]"``."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span and counter record of one benchmark pass."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: list = []  # [id, parent id, trace id, name, start, end]
        self.hot: dict = {}  # (parent name, name) -> [calls, busy, self]
        self.totals: dict = {}  # name -> [calls, busy, self]
        self.units: list = []  # (label, seconds), in run order
        self.counters: dict = {}  # name -> number, filled by observers
        self.outside_s = 0.0  # the benchmark's own checking time in a pass
        self._stack: list = []  # frames: [start, child time, span id, name]
        self._active: dict = {}  # name -> nesting depth
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._trace_id = 0
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self.clock(), 0.0, next(self._ids), name]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        return frame

    def _exit(self, frame: list, hot: bool) -> float:
        end = self.clock()
        stack = self._stack
        stack.pop()
        name = frame[3]
        depth = self._active[name] - 1
        self._active[name] = depth
        duration = end - frame[0]
        own = duration - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[2] += own
        if depth == 0:
            total[1] += duration
        if hot:
            key = (parent[3] if parent is not None else None, name)
            agg = self.hot.get(key)
            if agg is None:
                agg = self.hot[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
        else:
            self.spans.append(
                [frame[2], parent[2] if parent is not None else None,
                 self._trace_id, name, frame[0], end]
            )
        return duration

    @contextlib.contextmanager
    def unit(self, label: str):
        """One unit of work: a fresh trace id and one per-unit sample."""
        self._trace_id = next(self._trace_ids)
        frame = self._enter(UNIT)
        try:
            yield
        finally:
            self.units.append((label, self._exit(frame, hot=False)))

    @contextlib.contextmanager
    def outside(self):
        """Benchmark bookkeeping inside a pass, excluded from ``run_s``."""
        start = self.clock()
        try:
            yield
        finally:
            self.outside_s += self.clock() - start

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _wrapped(self, fn, name: str, hot: bool, before=None, after=None):
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, hot)
            if after is not None:
                after(token, args, result)
            return result

        return wrapper

    def wrap_unit(self, owner, attribute: str, label_of, after=None) -> None:
        """Make every call of ``owner.attribute`` one unit."""
        fn = owner.__dict__[attribute]

        def wrapper(*args, **kwargs):
            with self.unit(label_of(args)):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attribute, wrapper)

    def tap(self, owner, attribute: str, after) -> None:
        """Observe the results of ``owner.attribute`` without timing it."""
        fn = owner.__dict__[attribute]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        self._patch(owner, attribute, wrapper)

    def install_layers(self) -> None:
        """Patch every layer boundary in :data:`BOUNDARIES`."""
        observers = _observers(self)
        for _layer, name, where, attribute, kind in BOUNDARIES:
            owner = resolve(where)
            before, after = observers.get(attribute, (None, None))
            fn = owner.__dict__[attribute]
            self._patch(owner, attribute, self._wrapped(fn, name, kind == HOT, before, after))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading ------------------------------------------------------------

    def unit_seconds(self) -> list:
        return [seconds for _label, seconds in self.units]

    def dump(self) -> dict:
        """The span record, as written at the end of a traced pass."""
        return {
            "fields": ["id", "parent", "trace", "name", "start", "end"],
            "spans": self.spans,
            "hot": [
                {"parent": parent, "name": name, "calls": calls, "busy_s": busy, "self_s": own}
                for (parent, name), (calls, busy, own) in sorted(
                    self.hot.items(), key=lambda item: (str(item[0][0]), item[0][1])
                )
            ],
        }


_INTERFERENCE_STATS = ("disjoint", "symbolic", "bmc", "assumed", "cache_hits", "cache_misses")
_TIERS = ("disjoint", "symbolic", "bmc")


def _observers(tracer: Tracer) -> dict:
    """Attribute name -> (before, after) hooks reading the objects a wrapper sees."""
    count = tracer.count

    def checker_before(args):
        checker = args[0]
        return (
            [checker.stats.get(key, 0) for key in _INTERFERENCE_STATS],
            [checker.tier_times.get(key, 0.0) for key in _TIERS],
        )

    def checker_after(token, args, _result):
        checker = args[0]
        stats, times = token
        for key, old in zip(_INTERFERENCE_STATS, stats):
            count(f"interference.{key}", checker.stats.get(key, 0) - old)
        for key, old in zip(_TIERS, times):
            count(f"interference.{key}_s", checker.tier_times.get(key, 0.0) - old)

    def planned(_token, _args, result):
        specs = result[0] if isinstance(result, tuple) else result
        count("planned", len(specs))

    def explored(_token, _args, result):
        count("explore.runs", result.runs)
        count("explore.schedules", result.schedules)
        count("explore.races", result.races)
        count("explore.reversals", result.reversals)

    def inferred(_token, _args, result):
        _app, report = result
        count("infer.cegis_rounds", report.cegis_rounds)
        count("infer.cegis_schedules", report.cegis_schedules)
        count("infer.demoted", len(report.demoted))
        count("infer.candidates", len(report.demoted) + len(report.candidates))

    def probed(_token, args, _result):
        levels = args[2]
        count("probes")
        if levels and all(level == "SERIALIZABLE" for level in levels.values()):
            count("control_probes")

    checker_hooks = (checker_before, checker_after)
    return {
        "check_transaction_at": (None, lambda _t, _a, r: count("obligations", len(r.obligations))),
        "plan_read_uncommitted": (None, planned),
        "plan_read_committed": (None, planned),
        "_plan_fcw": (None, planned),
        "plan_repeatable_read": (None, planned),
        "plan_snapshot": (None, planned),
        "prune_plan": (None, lambda _t, _a, r: count("sdg_pruned", r)),
        "check_statement": checker_hooks,
        "check_rollback": checker_hooks,
        "check_unit": checker_hooks,
        "explore": (None, explored),
        "infer_application": (None, inferred),
        "find_cycle": (None, lambda _t, _a, r: count("cycles", r is not None)),
        "explore_probe": (None, probed),
    }


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


#: Boundaries whose self time is reported (the others are leaves or µs-scale).
_SELF_TIMED = {
    "check_transaction_at", "check_statement", "check_rollback", "check_unit",
    "infer_application", "refine_candidates", "explore", "Simulator.run", "check",
    "run_case", "explore_probe",
}


def layer_metrics(tracer: Tracer, prover: dict, storage: dict) -> dict:
    """The per-layer metrics of one traced pass, by name, as ``(value, unit)``.

    ``prover`` is :func:`repro.core.prover.prover_cache_stats` and
    ``storage`` the ``STORAGE_STATS`` snapshot, both read at the end of the
    pass; the process is fresh, so they cover exactly this pass.
    """
    metrics: dict = {}
    seen = set()
    for layer, name, _where, _attribute, _kind in BOUNDARIES:
        if name in seen:
            continue
        seen.add(name)
        calls, busy, own = tracer.totals.get(name, (0, 0.0, 0.0))
        metrics[f"{layer}.{name}.calls"] = (calls, "count")
        metrics[f"{layer}.{name}.busy_s"] = (busy, "s")
        if name in _SELF_TIMED:
            metrics[f"{layer}.{name}.self_s"] = (own, "s")
    c = tracer.counters.get
    metrics["core.conditions.obligations"] = (c("obligations", 0), "count")
    metrics["core.sdg.pruned_share"] = (_share(c("sdg_pruned", 0), c("planned", 0)), "share")
    for tier in ("disjoint", "symbolic", "bmc"):
        metrics[f"core.interference.{tier}.decided"] = (c(f"interference.{tier}", 0), "count")
        metrics[f"core.interference.{tier}_s"] = (c(f"interference.{tier}_s", 0.0), "s")
    metrics["core.interference.assumed"] = (c("interference.assumed", 0), "count")
    hits, misses = c("interference.cache_hits", 0), c("interference.cache_misses", 0)
    metrics["core.cache.hit_rate"] = (_share(hits, hits + misses), "share")
    queries = prover.get("query_hits", 0) + prover.get("query_misses", 0)
    metrics["core.prover.memo_hit_rate"] = (_share(prover.get("query_hits", 0), queries), "share")
    metrics["core.prover.cubes_fastpath"] = (
        prover.get("fastpath_sat", 0) + prover.get("fastpath_unsat", 0), "count"
    )
    metrics["core.prover.lp_calls"] = (prover.get("lp_calls", 0), "count")
    metrics["core.prover.degraded"] = (prover.get("lp_unavailable", 0), "count")
    metrics["core.infer.cegis_rounds"] = (c("infer.cegis_rounds", 0), "count")
    metrics["core.infer.cegis_schedules"] = (c("infer.cegis_schedules", 0), "count")
    metrics["core.infer.demoted_share"] = (
        _share(c("infer.demoted", 0), c("infer.candidates", 0)), "share"
    )
    runs = c("explore.runs", 0)
    metrics["sched.explore.runs"] = (runs, "count")
    metrics["sched.explore.useful_share"] = (_share(c("explore.schedules", 0), runs), "share")
    metrics["sched.explore.races"] = (c("explore.races", 0), "count")
    metrics["sched.explore.reversals"] = (c("explore.reversals", 0), "count")
    begins = tracer.totals.get("ops.begin", (0,))[0]
    aborts = tracer.totals.get("ops.abort", (0,))[0]
    metrics["engine.manager.abort_share"] = (_share(aborts, begins), "share")
    cycles_searched = tracer.totals.get("find_cycle", (0,))[0]
    metrics["engine.deadlock.cycle_share"] = (_share(c("cycles", 0), cycles_searched), "share")
    metrics["engine.storage.snapshot_captures"] = (storage.get("snapshot_captures", 0), "count")
    metrics["engine.storage.vacuum_passes"] = (storage.get("vacuum_passes", 0), "count")
    metrics["engine.storage.versions_reclaimed"] = (storage.get("vacuum_reclaimed", 0), "count")
    metrics["fuzz.differential.control_share"] = (
        _share(c("control_probes", 0), c("probes", 0)), "share"
    )
    return metrics
