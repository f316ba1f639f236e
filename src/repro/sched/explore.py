"""Systematic schedule exploration: source-set DPOR and DPOR-lite.

:class:`~repro.sched.policy.ExhaustivePolicy` drives a single run down one
branch of the scheduling tree; this module owns the backtracking.  Because
replay is deterministic, re-running a decision prefix reconstructs a node
exactly (the simulator is cheap; cloning engine state mid-run would not
be).  The explorer runs in one thread, so a result — run counts included —
is a function of its input.  Two pruning modes:

* ``dpor="optimal"`` — **source-set DPOR** (:mod:`repro.sched.dpor`): the
  backtrack loop is driven by race reversal instead of sibling
  enumeration.  After each run the analyzer derives level-aware access
  sets from the engine history, finds the immediate races, and enqueues —
  per race — one member of the source set at the decision depth of the
  earlier step.  A LIFO frontier of pending reversals replaces the
  per-branch recursion.  Sleep sets (below) still apply.  Cross-run
  visited-state dedup is *off* in this mode: cutting a run at a state
  first reached under a different prefix would silence the races its
  continuation must register at this run's own frames, losing reversals —
  the two prunings do not compose soundly.  Certification, fuzz probes
  and inference always explore this way.

* ``dpor="lite"`` — the original DPOR-lite: full sibling enumeration,
  pruned by sleep sets and by a **state-fingerprint** dedup (a run that
  reaches a previously-seen global state stops; every continuation has
  been or will be explored from the first visit).  Kept as a library-level
  reference for differential testing.

**Sleep sets** (after Godefroid) are shared by both modes: when branch
``i`` at a node has been fully explored, sibling branches carry ``i``'s
first-step signature asleep — any schedule that would merely commute ``i``
past independent steps is never re-explored.  Signatures come from the
engine history (:func:`repro.sched.policy.op_signature`).

State fingerprints are structural token tuples (no ``repr`` on the hot
path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.state import DbState
from repro.sched.dpor import RaceAnalyzer, accesses_conflict
from repro.sched.policy import DEPENDENT, ExhaustivePolicy
from repro.sched.simulator import InstanceSpec, Simulator

# ---------------------------------------------------------------------------
# state fingerprints
# ---------------------------------------------------------------------------


def _freeze(value):
    """Canonical hashable form of a value, structurally (no string
    formatting): dicts become attr-sorted tuples, lists/sets become
    tuples, scalars pass through."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(item) for item in value))
    return value


def _orderable(value):
    """A type-tagged sort key: lets mixed-type frozen values sort stably."""
    if isinstance(value, tuple):
        return (0, tuple(_orderable(item) for item in value))
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if value is None:
        return (4, 0)
    return (5, repr(value))


def _state_token(state: DbState) -> tuple:
    return (
        tuple(sorted((k, _freeze(v)) for k, v in state.items.items())),
        tuple(
            (array, tuple(sorted((index, _freeze(fields)) for index, fields in cells.items())))
            for array, cells in sorted(state.arrays.items())
        ),
        tuple(
            (table, tuple(sorted((_freeze(row) for row in rows), key=_orderable)))
            for table, rows in sorted(state.tables.items())
        ),
    )


def _overlay_token(overlay) -> tuple | None:
    if overlay is None:
        return None
    return (
        tuple(sorted((name, _freeze(v)) for name, v in overlay.items.items())),
        tuple(sorted((key, _freeze(attrs)) for key, attrs in overlay.records.items())),
        # op order of own inserts is observable (they trail snapshot rows)
        tuple(
            (table, tuple((rid, _freeze(image)) for rid, image in rows.items()))
            for table, rows in sorted(overlay.inserted.items())
        ),
        tuple((table, tuple(sorted(rids))) for table, rids in sorted(overlay.deleted.items())),
        tuple(
            (table, tuple(sorted((rid, _freeze(delta)) for rid, delta in rows.items())))
            for table, rows in sorted(overlay.updated.items())
        ),
        tuple(sorted(overlay.bumps.items())),
    )


def _txn_token(txn, store) -> tuple | None:
    if txn is None:
        return None
    return (
        txn.txn_id,
        txn.level,
        txn.status,
        tuple(sorted(txn.long_locks)),
        tuple(sorted(txn.write_set)),
        tuple(sorted((k, v) for k, v in txn.read_versions.items())),
        tuple(_freeze(entry) for entry in txn.stamped),
        tuple(sorted(txn.bump_counts.items())),
        # an active snapshot pins *historical* versions the global views
        # below don't cover: token the resolved snapshot view itself (the
        # old fingerprint tokened the deep-copied private state the same way)
        None
        if txn.snapshot is None
        else (
            txn.snapshot.xmax,
            tuple(sorted(txn.snapshot.xip)),
            _state_token(store.materialize(snap=txn.snapshot)),
        ),
        _overlay_token(txn.overlay),
    )


def _env_token(env: dict) -> tuple:
    # env keys are hash-consed Term refs (Param/Local/LogicalVar): sort by
    # class and name rather than repr
    return tuple(
        sorted(
            ((k.__class__.__name__, getattr(k, "name", repr(k))), _freeze(v))
            for k, v in env.items()
        )
    )


def state_fingerprint(simulator: Simulator) -> tuple:
    """A structural token of everything that determines the future.

    Two runs whose fingerprints collide behave identically from here on:
    the token covers the version chains (dirty view, committed view,
    per-chain commit stamps — which first-committer-wins compares against
    recorded read stamps — and the commit counters), the lock table
    (granule holders and predicate locks), waits-for edges, and each
    instance's full progress (interpreter position, workspace, transaction
    state including pinned snapshot views and write overlays).  Built from
    plain tuples — no ``repr``/hashing round-trips on the hot path.
    """
    engine = simulator.engine
    store = engine.store
    locks = engine.locks
    commit_stamps = []
    for name, chain in store.items.items():
        commit_stamps.append((("item", name), chain.last_commit_xid))
    for (array, index), chain in store.records.items():
        commit_stamps.append((("record", array, index), chain.last_commit_xid))
    for table, chains in store.tables.items():
        for rid, chain in chains.items():
            commit_stamps.append((("row", table, rid), chain.last_commit_xid))
    return (
        _state_token(store.current),
        _state_token(store.committed),
        tuple(sorted((k, v) for k, v in store.versions.items())),
        tuple(sorted(commit_stamps)),
        tuple(
            (key, tuple(sorted(holders.items())))
            for key, holders in sorted(locks._held.items())
            if holders
        ),
        tuple(
            sorted(
                (lock.txn_id, lock.table, lock.mode, lock.duration) for lock in locks._predicates
            )
        ),
        tuple(sorted(simulator.wfg.edges())),
        tuple(
            (
                rt.index,
                rt.status,
                rt.started,
                rt.at_commit,
                rt.blocked,
                rt.ops_done,
                rt.restarts,
                _env_token(rt.env),
                tuple(sorted(((k, _freeze(v)) for k, v in rt.obs.items()), key=_orderable)),
                _txn_token(rt.txn, store),
            )
            for rt in simulator._runtimes
        ),
    )


class _Visited:
    """Check-and-add map of visited state fingerprints (lite mode).

    Plain state caching composes unsoundly with sleep sets: a state first
    reached with sleep set ``S`` has only the futures outside ``S``
    explored, so cutting a later visit whose sleep set allows *more* can
    lose schedules (Godefroid).  Each fingerprint therefore stores the
    antichain of sleep-index sets it was visited with, and a new visit is
    pruned only when some stored visit slept on a subset of what the new
    one sleeps on — everything the new visit could do, that visit did.
    """

    def __init__(self) -> None:
        self._visits: dict = {}

    def seen(self, fingerprint, sleep: frozenset = frozenset()) -> bool:
        stored = self._visits.get(fingerprint)
        if stored is None:
            self._visits[fingerprint] = [sleep]
            return False
        if any(previous <= sleep for previous in stored):
            return True
        stored[:] = [previous for previous in stored if not sleep <= previous]
        stored.append(sleep)
        return False

    def __len__(self) -> int:
        return len(self._visits)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class ExplorationResult:
    """Outcome of one :func:`explore` call."""

    mode: str = "lite"  # optimal | lite | none (pruning disabled)
    runs: int = 0  # simulator runs launched (incl. pruned branches)
    schedules: int = 0  # runs that reached a quiescent end state
    pruned_sleep: int = 0  # branches cut because every child was asleep
    pruned_state: int = 0  # branches cut on a revisited state fingerprint
    races: int = 0  # immediate races detected (optimal mode)
    reversals: int = 0  # reversal candidates enqueued (optimal mode)
    truncated_depth: int = 0  # branches cut by the max_depth bound
    truncated: bool = False  # run budget exhausted before the tree was done
    results: list = field(default_factory=list)  # ScheduleResults (keep_results)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "runs": self.runs,
            "schedules": self.schedules,
            "pruned_sleep": self.pruned_sleep,
            "pruned_state": self.pruned_state,
            "races": self.races,
            "reversals": self.reversals,
            "truncated_depth": self.truncated_depth,
            "truncated": self.truncated,
        }


# ---------------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------------


class _Node:
    """One reached decision point, shared across runs (optimal mode)."""

    __slots__ = ("runnable", "sleep", "scheduled", "queued", "signatures")

    def __init__(self, runnable: tuple, sleep: dict, choice: int) -> None:
        # reversals only schedule *runnable* instances: a blocked one
        # would execute a lock re-attempt here, not its racing step, and
        # at all-blocked nodes the deadlock resolution is trigger-
        # independent (global cycle search, youngest-in-cycle victim)
        self.runnable = runnable
        self.sleep = dict(sleep)  # index -> signature asleep at entry
        self.scheduled = {choice}  # candidates launched (or taken inline)
        self.queued: set = set()  # candidates pending in the frontier
        self.signatures: dict = {}  # candidate -> first-step signature


_ROOT = object()  # frontier sentinel: the initial unconstrained run


class Explorer:
    """Depth-first exploration over one instance set, in one thread."""

    def __init__(
        self,
        initial: DbState,
        specs: Sequence[InstanceSpec],
        *,
        retry: bool = True,
        max_steps: int = 100_000,
        max_schedules: int | None = None,
        max_depth: int | None = None,
        pruning: bool = True,
        dpor: str = "optimal",
        observer_factory: Callable | None = None,
        on_schedule: Callable | None = None,
        keep_results: bool = True,
        engine_opts: dict | None = None,
    ) -> None:
        if dpor not in ("optimal", "lite"):
            raise ValueError(f"dpor must be 'optimal' or 'lite', not {dpor!r}")
        self.engine_opts = dict(engine_opts or {})
        self.initial = initial
        self.specs = list(specs)
        self.retry = retry
        self.max_steps = max_steps
        self.max_schedules = max_schedules
        self.max_depth = max_depth
        self.pruning = pruning
        self.dpor = dpor if pruning else "none"
        self.observer_factory = observer_factory
        self.on_schedule = on_schedule
        self.keep_results = keep_results
        # the visited-state dedup composes with sibling enumeration, not
        # with race reversal (see module docstring): lite only
        self.visited = _Visited() if pruning and self.dpor == "lite" else None
        self.result = ExplorationResult(mode=self.dpor)
        # optimal-mode state: the node registry and the reversal frontier
        self._nodes: dict = {}
        self._frontier: list = []
        self._analyzer = RaceAnalyzer(self.specs) if self.dpor == "optimal" else None

    # -- single runs --------------------------------------------------------
    def _take(self) -> bool:
        """Claim one run of the budget; False (and truncated) once spent."""
        if self.max_schedules is not None and self.result.runs >= self.max_schedules:
            self.result.truncated = True
            return False
        return True

    def _policy(self, prefix, entry_sleep) -> ExhaustivePolicy:
        return ExhaustivePolicy(
            prefix,
            entry_sleep,
            pruning=self.pruning,
            visited=self.visited,
            fingerprint=state_fingerprint if self.visited is not None else None,
            max_depth=self.max_depth,
            record_steps=self._analyzer is not None,
            signature_fn=self._analyzer.online_signature if self._analyzer else None,
            conflict=accesses_conflict if self._analyzer else None,
        )

    def _run(self, policy: ExhaustivePolicy):
        observers = None
        if self.observer_factory is not None:
            built = self.observer_factory()
            observers = built if isinstance(built, (list, tuple)) else [built]
        simulator = Simulator(
            self.initial.copy(),
            self.specs,
            retry=self.retry,
            max_steps=self.max_steps,
            policy=policy,
            observers=observers,
            engine_opts=self.engine_opts,
        )
        schedule_result = simulator.run()
        # let consumers (e.g. the certification pipeline) read per-run
        # observer state — monitors are born and die with their run
        schedule_result.observers = observers or []
        self.result.runs += 1
        if policy.stop_reason is None:
            self.result.schedules += 1
            if self.keep_results:
                self.result.results.append(schedule_result)
            if self.on_schedule is not None:
                self.on_schedule(schedule_result)
        elif policy.stop_reason == "sleep":
            self.result.pruned_sleep += 1
        elif policy.stop_reason == "state":
            self.result.pruned_state += 1
        elif policy.stop_reason == "depth":
            self.result.truncated_depth += 1
        return schedule_result

    # -- DPOR-lite DFS (sibling enumeration) --------------------------------
    def _dfs(self) -> None:
        """Exhaust the scheduling tree by sibling enumeration.

        ``path`` holds the frames of the current run's decisions; the
        deepest frame with an untried, awake sibling is re-opened by
        re-running the simulator with the extended prefix (deterministic
        replay reconstructs the node).
        """
        if not self._take():
            return
        policy = self._policy([], {})
        self._run(policy)
        path = list(policy.frames)
        while path:
            frame = path[-1]
            candidate = frame.next_candidate()
            if candidate is None:
                path.pop()
                continue
            if not self._take():
                return
            frame.choice = candidate
            prefix = [f.choice for f in path]
            if self.pruning:
                # descendants of the new branch start with the ancestors'
                # sleep entries plus the fully-explored siblings
                entry_sleep = dict(frame.sleep)
                entry_sleep.update(dict(frame.tried))
            else:
                entry_sleep = {}
            policy = self._policy(prefix, entry_sleep)
            self._run(policy)
            frame.tried.append((candidate, policy.candidate_signature or DEPENDENT))
            path.extend(policy.frames)

    # -- source-set DPOR (race-driven frontier) -----------------------------
    def _expand(self, item) -> None:
        """Run one frontier item and enqueue the reversals it uncovers."""
        if item is _ROOT:
            prefix: list = []
            entry_sleep: dict = {}
        else:
            key, candidate = item
            node = self._nodes[key]
            node.queued.discard(candidate)
            if candidate in node.scheduled or candidate in node.sleep:
                return  # covered since it was enqueued
            node.scheduled.add(candidate)
            # descendants start with the node's entry sleep plus the
            # signatures of the sibling branches explored before them
            entry_sleep = dict(node.sleep)
            entry_sleep.update(node.signatures)
            prefix = list(key) + [candidate]
        if not self._take():
            return
        policy = self._policy(prefix, entry_sleep)
        self._run(policy)
        self._integrate(policy, item)

    def _integrate(self, policy: ExhaustivePolicy, item) -> None:
        """Register the run's nodes and schedule its race reversals."""
        races = self._analyzer.analyze(policy.steps)
        decisions = list(policy.prefix) + [frame.choice for frame in policy.frames]
        if item is not _ROOT:
            key, candidate = item
            parent = self._nodes.get(key)
            if parent is not None:
                signature = policy.candidate_signature
                parent.signatures[candidate] = DEPENDENT if signature is None else signature
        offset = len(policy.prefix)
        for position, frame in enumerate(policy.frames):
            node_key = tuple(decisions[: offset + position])
            node = self._nodes.get(node_key)
            if node is None:
                node = _Node(frame.runnable, frame.sleep, frame.choice)
                self._nodes[node_key] = node
            else:
                node.scheduled.add(frame.choice)
            if frame.tried:
                node.signatures.setdefault(frame.choice, frame.tried[0][1])
        self.result.races += len(races)
        for race in races:
            if race.depth >= len(decisions):
                continue
            node = self._nodes.get(tuple(decisions[: race.depth]))
            if node is None:
                continue
            covered = node.scheduled | node.queued | set(node.sleep)
            if race.initials & covered:
                continue  # the reversed trace is already scheduled
            enabled = [i for i in node.runnable if i not in covered]
            if not enabled:
                continue
            if race.preferred in race.initials and race.preferred in enabled:
                chosen = [race.preferred]
            else:
                in_enabled = [i for i in sorted(race.initials) if i in enabled]
                # no initial is schedulable here (e.g. it was blocked at
                # this node): conservatively open every awake sibling
                chosen = in_enabled[:1] if in_enabled else enabled
            for index in chosen:
                node.queued.add(index)
                self._frontier.append((tuple(decisions[: race.depth]), index))
                self.result.reversals += 1

    # -- entry point --------------------------------------------------------
    def run(self) -> ExplorationResult:
        if self.dpor == "optimal":
            self._frontier = [_ROOT]
            while self._frontier and not self.result.truncated:
                self._expand(self._frontier.pop())
        else:
            self._dfs()
        return self.result


def explore(
    initial: DbState,
    specs: Sequence[InstanceSpec],
    *,
    retry: bool = True,
    max_steps: int = 100_000,
    max_schedules: int | None = None,
    max_depth: int | None = None,
    pruning: bool = True,
    dpor: str = "optimal",
    workers: int = 1,
    observer_factory: Callable | None = None,
    on_schedule: Callable | None = None,
    keep_results: bool = True,
    engine_opts: dict | None = None,
) -> ExplorationResult:
    """Explore the scheduling tree of ``specs`` over ``initial``.

    Returns an :class:`ExplorationResult`; completed schedules are kept in
    ``result.results`` (``keep_results``) and streamed to ``on_schedule``.
    ``max_schedules`` bounds the total number of simulator runs (pruned
    branches included); ``max_depth`` bounds decisions per run; ``pruning``
    toggles pruning entirely (full DFS when off), ``dpor`` selects the
    pruning algorithm — ``"optimal"`` (source-set DPOR with level-aware
    race reversal, the default) or ``"lite"`` (sleep sets + visited-state
    dedup, the differential reference).  ``observer_factory`` builds fresh
    per-run observers (e.g. an anomaly monitor).  ``engine_opts`` passes
    extra Engine keyword options to every run (e.g. ``{"vacuum": "off"}``
    to disable version GC).
    """
    # the explorer is single-threaded; the keyword stays because the frozen
    # perfbench harness calls ``explore(..., workers=1)``, and any other
    # count is refused rather than silently run serially
    if workers != 1:
        raise ValueError(
            f"the explorer runs in one thread; workers must be 1, not {workers!r}"
        )
    return Explorer(
        initial,
        specs,
        retry=retry,
        max_steps=max_steps,
        max_schedules=max_schedules,
        max_depth=max_depth,
        pruning=pruning,
        dpor=dpor,
        observer_factory=observer_factory,
        on_schedule=on_schedule,
        keep_results=keep_results,
        engine_opts=engine_opts,
    ).run()


def invariant_oracle(
    initial: DbState,
    specs: Sequence[InstanceSpec],
    predicates: dict,
    *,
    max_schedules: int | None = 64,
    max_steps: int = 20_000,
) -> dict:
    """Run the explorer as a CEGIS oracle for candidate invariants.

    ``predicates`` maps candidate names to ``final_state -> bool``
    callables.  Every completed schedule's final database state is checked
    against every still-standing predicate; a predicate that fails on any
    final state is *violated* — the schedule is a counterexample showing
    the instance set does not preserve the candidate.

    Returns ``{name: witness}`` for each violated predicate (``witness`` is
    the committed-transaction order of the falsifying schedule) plus the
    bookkeeping key ``"__schedules__"`` counting schedules examined.
    Violated predicates stop being evaluated immediately, so the oracle
    stays cheap once a candidate is doomed.
    """
    violations: dict = {}
    standing = dict(predicates)
    examined = [0]

    def check(schedule_result) -> None:
        examined[0] += 1
        final = schedule_result.final
        for name in list(standing):
            try:
                ok = standing[name](final)
            except Exception:
                ok = False
            if not ok:
                violations[name] = tuple(
                    getattr(outcome, "name", repr(outcome))
                    for outcome in schedule_result.committed
                )
                del standing[name]

    explore(
        initial,
        specs,
        max_schedules=max_schedules,
        max_steps=max_steps,
        on_schedule=check,
        keep_results=False,
    )
    violations["__schedules__"] = examined[0]
    return violations
