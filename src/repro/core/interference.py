"""The interference check — paper's triple (3) — in three tiers.

``S_k,l`` *interferes* with assertion ``P_i,j`` when
``{P_i,j ∧ P_k,l} S_k,l {P_i,j}`` is not a theorem.  The per-level theorems
reduce semantic correctness to a finite set of such checks.  Each check runs
through up to three tiers, from cheapest and exact to most general:

1. **Footprint disjointness** — the statement writes no resource the
   assertion depends on.  Exact, instantaneous, and in realistic
   applications discharges the bulk of the obligations (benchmarked in E1).

2. **Symbolic proof** — for the conventional (scalar/array) fragment the
   check becomes a validity query: ``P ∧ pre ⇒ P'`` where ``P'`` is the
   assertion after the write (alias-aware substitution,
   :mod:`repro.core.effects`).  Counterexamples are genuine interference
   witnesses at the formula level.

3. **Bounded model checking** — relational statements, quantified
   assertions, aggregates, buffers and rollback scenarios are checked by
   *simulating the scenario*: enumerate small initial databases and
   arguments (a :class:`repro.core.domains.DomainSpec`), trace the target
   transaction to every control point where the assertion is active — with
   the target's own local bindings — then run the candidate interfering
   statement/transaction and watch whether the assertion flips from true to
   false.  Exhaustive enumeration certifies non-interference *for the
   bounded domain*; sampling downgrades the confidence flag.

A verdict records which tier decided it and at what confidence, so reports
separate proved facts from bounded evidence — the honesty knob this
mechanisation adds over the paper's hand proofs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core import effects as fx
from repro.core.cache import FORMULA_SCOPE, FULL_SCOPE, VerdictCache, fingerprint_many
from repro.core.domains import DEFAULT_BUDGET, DomainSpec, iter_assignments, split_budget
from repro.core.formula import FALSE, Formula, TRUE, conj, disj, eq, implies
from repro.core.program import (
    Statement,
    TransactionType,
    Write,
    execute,
    operations,
    perform,
)
from repro.core.prover import Verdict, is_valid
from repro.core.resources import overlaps
from repro.core.sp import annotate_paths, fresh_logical
from repro.core.state import DbState, _multiset_minus, _row_multiset
from repro.core.terms import Field, Item, Term
from repro.errors import EvaluationError

#: Confidence levels of a verdict, strongest first.
PROVED = "proved"
BOUNDED = "bounded-exhaustive"
SAMPLED = "bounded-sampled"
ASSUMED = "assumed"

#: Kinds of critical assertions (what the theorems quantify over).
CONSISTENCY = "consistency"  # I_i — checked throughout execution
READ_POST = "read_post"  # postcondition of one read statement
RESULT = "result"  # Q_i — checked at completion
READ_STEP_POST = "read_step_post"  # SNAPSHOT model: after the read step


@dataclass(frozen=True)
class CriticalAssertion:
    """One assertion the per-level theorems require to be interference-free."""

    label: str
    formula: Formula
    kind: str
    read_stmt: Statement | None = None

    def __repr__(self) -> str:
        return f"<{self.kind} {self.label}>"


@dataclass
class Witness:
    """Concrete or symbolic evidence that interference can occur."""

    kind: str  # "symbolic" | "concrete" | "rollback"
    description: str
    state: DbState | None = None
    env: dict | None = None
    model: dict | None = None

    def __repr__(self) -> str:
        return f"<witness {self.kind}: {self.description}>"


@dataclass
class InterferenceVerdict:
    """Outcome of one interference check."""

    interferes: bool
    confidence: str
    method: str
    witness: Witness | None = None
    note: str = ""

    @property
    def safe(self) -> bool:
        """True when the check certifies non-interference."""
        return not self.interferes

    def __repr__(self) -> str:
        head = "INTERFERES" if self.interferes else "no-interference"
        return f"<{head} via {self.method} ({self.confidence})>"


# ---------------------------------------------------------------------------
# concrete tracing
# ---------------------------------------------------------------------------


@dataclass
class TraceEvent:
    """One database operation observed during a concrete trace.

    ``before`` and ``after`` are snapshots shared with the trace's ``states``
    list (and with each other for reads, which never mutate the database) —
    consumers must copy before mutating.  ``undo`` and ``delta`` lazily cache
    the event's inverse write recipe and changed-location set; both are pure
    functions of the immutable snapshots.
    """

    statement: Statement
    before: DbState
    after: DbState
    is_write: bool
    undo: tuple | None = None
    delta: frozenset | None = None


@dataclass
class Trace:
    """A traced transaction execution.

    ``envs[p]`` is the local environment when ``p`` database operations have
    completed (intervening local assignments included); ``envs[len(events)]``
    is the final environment.  ``states[p]`` mirrors the database.
    """

    events: list
    envs: list
    states: list
    _cumulative: list | None = None
    _undo_memo: dict | None = None

    @property
    def length(self) -> int:
        return len(self.events)

    def cumulative_writes(self) -> list:
        """``result[p]`` = locations written by the first ``p`` events.

        Cached on the trace; scenario filtering consults it once per
        activation position instead of re-unioning deltas per call.
        """
        if self._cumulative is None:
            acc: frozenset = frozenset()
            cumulative = [acc]
            for event in self.events:
                if event.is_write:
                    acc = acc | _event_delta(event)
                cumulative.append(acc)
            self._cumulative = cumulative
        return self._cumulative


def trace(txn: TransactionType, state: DbState, args: dict) -> Trace:
    """Execute a transaction concretely, snapshotting around every DB op.

    Snapshots are shared, not duplicated: the checkpoint state at position
    ``p`` *is* event ``p``'s ``before`` state, and a read event's ``after``
    is its ``before`` (reads never mutate the database).  Only writes pay
    for a second copy.  State copying dominated BMC cost before this
    sharing (benchmarked in E14).
    """
    events: list[TraceEvent] = []
    envs: list[dict] = []
    states: list[DbState] = []
    env = txn.initial_env(args, state)
    # one live snapshot, reused until the next write invalidates it: reads
    # never mutate the database, so every position between two writes shares
    # a single state object (which also lets identity-keyed evaluation memos
    # collapse those positions)
    snap: DbState | None = None
    ops = operations(txn.body, env)
    result = None
    while True:
        try:
            stmt, op, op_args = ops.send(result)
        except StopIteration:
            break
        envs.append(dict(env))
        if snap is None:
            snap = state.fork()
        states.append(snap)
        result = perform(state, op, op_args)
        if stmt.is_db_write:
            after = state.fork()
            events.append(TraceEvent(stmt, snap, after, True))
            snap = after
        else:
            events.append(TraceEvent(stmt, snap, snap, False))
    envs.append(dict(env))
    states.append(snap if snap is not None else state.fork())
    return Trace(events, envs, states)


def undo_states(events: Sequence[TraceEvent]) -> list:
    """States passed through while rolling back a traced prefix, in order."""
    if not events:
        return []
    current = events[-1].after.fork()
    states = []
    for event in reversed(events):
        if not event.is_write:
            continue
        _apply_undo(current, _event_undo(event))
        states.append(current.fork())
    return states


def _cached_undo_states(tr: Trace, k: int) -> list:
    """``undo_states`` of the trace's first ``k + 1`` events, cached.

    The rolled-back state sequence depends only on the trace prefix, not on
    the assertion being checked against it; rollback injection probes the
    same prefix once per (assertion, activation position), so the states are
    materialised once per trace.  Callers must not mutate them.
    """
    memo = tr._undo_memo
    if memo is None:
        memo = tr._undo_memo = {}
    states = memo.get(k)
    if states is None:
        states = undo_states(tr.events[: k + 1])
        memo[k] = states
    return states


#: Marker for "location absent before the write" in undo recipes.
_MISSING = object()


def _event_undo(event: TraceEvent) -> tuple:
    """The event's undo recipe, diffed once and cached on the event.

    Rollback scenarios replay the same event's inverse against many
    states; diffing the full snapshots each time was a top-three BMC
    cost.  The recipe is a pure function of the immutable
    ``before``/``after`` snapshots.
    """
    recipe = event.undo
    if recipe is None:
        recipe = _undo_recipe(event.before, event.after)
        event.undo = recipe
    return recipe


def _undo_recipe(before: DbState, after: DbState) -> tuple:
    """Compact inverse of the ``before -> after`` delta.

    Returns ``(items, fields, rows)``: item/field restorations (with
    :data:`_MISSING` for locations the write created) and per-table row
    multiset corrections.
    """
    if before is after:
        return ((), (), ())
    items = []
    for name in set(after.items) | set(before.items):
        if after.items.get(name) != before.items.get(name):
            items.append((name, before.items.get(name, _MISSING)))
    fields = []
    for array in set(after.arrays) | set(before.arrays):
        before_elems = before.arrays.get(array, {})
        after_elems = after.arrays.get(array, {})
        if before_elems is after_elems:  # shared through fork(): untouched
            continue
        indices = set(after_elems) | set(before_elems)
        for index in indices:
            old = before_elems.get(index, {})
            new = after_elems.get(index, {})
            if old is new:
                continue
            for attr in set(old) | set(new):
                if old.get(attr) != new.get(attr):
                    fields.append((array, index, attr, old.get(attr, _MISSING)))
    rows = []
    for table in set(after.tables) | set(before.tables):
        before_rows = before.tables.get(table, [])
        after_rows = after.tables.get(table, [])
        if before_rows is after_rows or before_rows == after_rows:
            continue
        added = _multiset_minus(
            _row_multiset(after_rows), _row_multiset(before_rows)
        )
        removed = _multiset_minus(
            _row_multiset(before_rows), _row_multiset(after_rows)
        )
        if added or removed:
            rows.append((table, tuple(added), tuple(removed)))
    return (tuple(items), tuple(fields), tuple(rows))


def _apply_undo(current: DbState, recipe: tuple) -> None:
    """Apply a cached undo recipe onto ``current``."""
    items, fields, rows = recipe
    for name, old in items:
        if old is _MISSING:
            current.items.pop(name, None)
        else:
            current.items[name] = old
    for array, index, attr, old in fields:
        if old is _MISSING:
            # Replace, don't mutate: the attrs dict may be shared by forks.
            elems = dict(current.arrays.get(array, ()))
            attrs = dict(elems.get(index, ()))
            attrs.pop(attr, None)
            elems[index] = attrs
            current.arrays[array] = elems
        else:
            current.write_field(array, index, attr, old)
    for table, added, removed in rows:
        for key in added:
            current.delete_rows(table, _once_matcher(dict(key)))
        for key in removed:
            current.insert_row(table, dict(key))


def _once_matcher(row: dict):
    """A predicate matching exactly one occurrence of ``row``."""
    done = {"hit": False}

    def predicate(candidate: dict) -> bool:
        if done["hit"] or candidate != row:
            return False
        done["hit"] = True
        return True

    return predicate


# ---------------------------------------------------------------------------
# static write targets (Theorem 5, condition 1)
# ---------------------------------------------------------------------------


def static_write_targets(txn: TransactionType) -> list:
    """Resolved conventional write targets of every Write in the body.

    Targets whose array index mentions locals are dropped (they cannot be
    compared statically), as are relational writes — both reduce the set of
    first-committer-wins excuses, which errs on the safe side.
    """
    out: list[Term] = []
    for stmt in txn.statements():
        if isinstance(stmt, Write):
            target = stmt.target
            if isinstance(target, Field):
                from repro.core.terms import Local

                if any(isinstance(atom, Local) for atom in target.index.atoms()):
                    continue
            out.append(target)
    return out


def fcw_excuse_formula(
    target: TransactionType,
    source: TransactionType,
    target_writes: list | None = None,
) -> Formula:
    """Theorem 5 condition 1 as a formula over the instances' parameters.

    ``target_writes`` restricts the target's side of the intersection —
    Theorem 3's variant of the excuse only covers items the target both
    read and wrote (the paper's remark: such a transaction has effectively
    held long read locks on them).
    """
    own = target_writes if target_writes is not None else static_write_targets(target)
    pairs = [(t, None) for t in own]
    source_targets = [(s, None) for s in static_write_targets(source)]
    return fx.write_sets_intersection_condition(pairs, source_targets)


#: The state write-target indices (parameter-only terms) evaluate against.
_EMPTY_STATE = DbState()


def _concrete_write_targets(
    txn: TransactionType, args_env: dict, restrict: list | None = None
) -> set | None:
    """Static write targets with indices evaluated under concrete arguments.

    ``restrict`` (when given) replaces the static target list — Theorem 3's
    read-then-written subset.
    """
    out: set = set()
    targets = restrict if restrict is not None else static_write_targets(txn)
    for target in targets:
        if isinstance(target, Item):
            out.add(("item", target.name))
        else:
            try:
                index = target.index.evaluate(_EMPTY_STATE, args_env)
            except EvaluationError:
                return None
            out.add(("field", target.array, index, target.attr))
    return out


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


class InterferenceChecker:
    """Runs interference checks through the three tiers.

    ``spec`` supplies the bounded-model-checking domains; without one only
    the disjointness and symbolic tiers run, and anything they cannot decide
    is *assumed* to interfere — the conservative default that keeps the
    level chooser sound.
    """

    def __init__(
        self,
        spec: DomainSpec | None = None,
        budget: int = DEFAULT_BUDGET,
        seed: int = 0,
        unroll: int = fx.DEFAULT_UNROLL,
        use_disjoint: bool = True,
        use_symbolic: bool = True,
        use_sdg: bool = True,
        cache: VerdictCache | None = None,
    ) -> None:
        self.spec = spec
        self.budget = budget
        self.seed = seed
        self.unroll = unroll
        #: ablation switches: disable the cheap tiers to measure what each
        #: contributes (benchmarked in E10); correctness is unaffected —
        #: disabled tiers simply push obligations to the next tier down
        self.use_disjoint = use_disjoint
        self.use_symbolic = use_symbolic
        #: SDG pre-pruning (see :func:`repro.core.sdg.prune_plan`): excuse
        #: footprint-disjoint obligations before dispatch.  Deliberately
        #: absent from the cache fingerprint — the pruned obligations are
        #: exactly the ones tier 1 would prove, so verdicts (and therefore
        #: cache entries) are identical either way
        self.use_sdg = use_sdg
        #: verdict cache — private per checker by default, so one analysis
        #: run shares verdicts across its levels and targets without leaking
        #: tier accounting into an unrelated run; pass
        #: :func:`repro.core.cache.shared_cache` to share process-wide
        self.cache = cache if cache is not None else VerdictCache()
        self.stats = {
            "disjoint": 0,
            "symbolic": 0,
            "bmc": 0,
            "assumed": 0,
            "sdg_pruned": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
        #: wall seconds spent inside each tier, accumulated per check
        self.tier_times = {"disjoint": 0.0, "symbolic": 0.0, "bmc": 0.0}
        #: optional callable(seconds) observing each *decided* obligation's
        #: wall time (cache hits are not observed); the CLI's ``--stats``
        #: wires a telemetry histogram here, the service its job metrics
        self.latency_observer = None
        self._config_key: str | None = None
        self._state_cache: tuple | None = None
        self._trace_memo: dict = {}
        self._eval_memo: dict = {}
        self._proj_key_memo: dict = {}
        self._args_key_memo: dict = {}
        self._unit_memo: dict = {}
        self._stmt_memo: dict = {}
        self._swt_memo: dict = {}
        self._overlap_memo: dict = {}
        self._space_memo: dict = {}
        self._combined_memo: dict = {}

    # -- cache keys ----------------------------------------------------------

    def _config_fingerprint(self) -> str:
        if self._config_key is None:
            self._config_key = fingerprint_many(
                self.budget, self.seed, self.unroll,
                self.use_disjoint, self.use_symbolic, self.spec,
            )
        return self._config_key

    def _keys(
        self,
        kind: str,
        assertion: CriticalAssertion,
        target: TransactionType,
        source: TransactionType,
        assumption: Formula,
        formula_extra: tuple = (),
        full_extra: tuple = (),
    ) -> tuple:
        """The two cache keys of one obligation.

        The *formula* key identifies everything the target-independent tiers
        (disjointness, symbolic) look at: assertion formula, source program,
        assumption, per-mode extras and the checker configuration.  The
        *full* key extends it with the target and the assertion's activation
        data (kind, read statement), which is what the BMC trace depends on.
        """
        formula_key = fingerprint_many(
            kind, assertion.formula, source, assumption,
            *formula_extra, self._config_fingerprint(),
        )
        full_key = fingerprint_many(
            formula_key, target, assertion.kind, assertion.read_stmt, *full_extra
        )
        return formula_key, full_key

    def _cached_check(self, keys: tuple | None, decide):
        """Run ``decide`` through the verdict cache.

        ``decide`` returns ``(verdict, scope)``; the verdict is stored under
        the formula- or full-scope key according to which tier decided it.
        """
        if keys is None or not self.cache.enabled:
            verdict, _scope = self._observed_decide(decide)
            return verdict
        formula_key, full_key = keys
        cached = self.cache.lookup(formula_key, full_key)
        if cached is not None:
            self.stats["cache_hits"] += 1
            return cached
        self.stats["cache_misses"] += 1
        verdict, scope = self._observed_decide(decide)
        self.cache.store(scope, formula_key if scope == FORMULA_SCOPE else full_key, verdict)
        return verdict

    def _observed_decide(self, decide):
        if self.latency_observer is None:
            return decide()
        start = time.perf_counter()
        try:
            return decide()
        finally:
            self.latency_observer(time.perf_counter() - start)

    def _cached_states(self, rng: random.Random) -> tuple:
        """Materialise the constraint-filtered state list once per checker.

        Evaluating an application's full consistency constraint (nested
        quantifiers and aggregates) dominates BMC cost; every obligation
        shares the same filtered state list, so it is computed only once.
        """
        if self._state_cache is None:
            space = self.spec.iter_states(self.budget, rng)
            self._state_cache = (list(space), space.exhaustive)
        return self._state_cache

    def _cached_trace(self, txn: TransactionType, state0: DbState, args: dict):
        """Trace a transaction from a cached state, memoised.

        Obligations share the same (state, argument) scenarios; traces are
        pure given those inputs, so they are computed once per checker.
        Keyed by state identity — valid because the cached state list is
        stable — and the transaction's name (renamed partner instances get
        distinct names only via the `!2` suffixed parameters, so the
        argument tuple disambiguates them).
        """
        key = (txn.name, self._args_key(args), id(state0))
        cached = self._trace_memo.get(key)
        if cached is not None:
            return cached
        result = trace(txn, state0.fork(), args)
        if len(self._trace_memo) < 200_000:
            self._trace_memo[key] = result
        return result

    def _memo_holds(self, formula, state, env) -> bool:
        """`_holds` memoised over trace-cached states.

        Scenario loops re-evaluate the same (assertion, state, env)
        combination for every partner argument assignment; formula
        evaluation (nested quantifiers, COUNT aggregates) dominates BMC
        cost, so this cache is the main lever.  The formula itself is part
        of the key (hash-consing makes hashing it an O(1) cached lookup and
        keeps it alive, so its entry can never alias another formula);
        states come from identity-stable caches.  Environments with
        unhashable values (none in practice — buffers are packed as
        tuples) fall back to direct evaluation.
        """
        return self._memo_holds_keyed(formula, state, env, self._env_key(formula, env))

    def _memo_holds_keyed(self, formula, state, env, env_key) -> bool:
        """:meth:`_memo_holds` with the environment key precomputed.

        The scenario loops already compute the assertion's env key for
        position deduplication; passing it through avoids a second
        projection probe per position.
        """
        if env_key is None:
            return _holds(formula, state, env)
        key = (formula, id(state), env_key)
        cached = self._eval_memo.get(key)
        if cached is None:
            cached = _holds(formula, state, env)
            if len(self._eval_memo) < 2_000_000:
                self._eval_memo[key] = cached
        return cached

    def _env_key(self, formula, env):
        """The formula's evaluation-relevant view of ``env``, memoised.

        Structural formulas read the environment only at their free atoms,
        so the key projects ``env`` onto them — a formula with no free
        parameters collapses to one entry per state no matter how many
        partner-argument environments probe it.  Opaque evaluators
        (:class:`~repro.core.formula.AbstractPred` trees) key on the whole
        environment.  Memoised per (formula, env) identity (entries keep
        strong references and are re-verified, so id reuse cannot alias);
        returns None when the environment holds unhashable values.
        """
        pkey = (id(formula), id(env))
        entry = self._proj_key_memo.get(pkey)
        if entry is not None and entry[0] is formula and entry[1] is env:
            return entry[2]
        try:
            if formula.projectable():
                atoms = formula.atom_set()
                env_key = frozenset(
                    (atom, env[atom]) for atom in atoms.intersection(env)
                )
            else:
                env_key = frozenset(env.items())
        except TypeError:
            env_key = None
        if len(self._proj_key_memo) < 1_000_000:
            self._proj_key_memo[pkey] = (formula, env, env_key)
        return env_key

    def _args_key(self, args: dict) -> tuple:
        """``tuple(sorted(args.items()))``, memoised by dict identity."""
        entry = self._args_key_memo.get(id(args))
        if entry is not None and entry[0] is args:
            return entry[1]
        key = tuple(sorted(args.items()))
        if len(self._args_key_memo) < 500_000:
            self._args_key_memo[id(args)] = (args, key)
        return key

    def _static_targets(self, txn: TransactionType) -> list:
        """:func:`static_write_targets`, memoised per transaction type."""
        entry = self._swt_memo.get(id(txn))
        if entry is not None and entry[0] is txn:
            return entry[1]
        targets = static_write_targets(txn)
        if len(self._swt_memo) < 10_000:
            self._swt_memo[id(txn)] = (txn, targets)
        return targets

    def _res_overlaps(self, res: frozenset, stmt: Statement) -> bool:
        """Whether ``stmt``'s written footprint overlaps ``res``, memoised.

        The rollback pruning asks this for the same (assertion-resources,
        statement) pair once per undo step per position; both operands are
        identity-stable (resources are cached on the interned formula), so
        the symbolic overlap test runs once per distinct pair.
        """
        key = (id(res), id(stmt))
        entry = self._overlap_memo.get(key)
        if entry is not None and entry[0] is res and entry[1] is stmt:
            return entry[2]
        result = overlaps(res, stmt.written_resources())
        if len(self._overlap_memo) < 100_000:
            self._overlap_memo[key] = (res, stmt, result)
        return result

    def _assignment_space(self, params: tuple, rng: random.Random) -> tuple:
        """Materialised ``(env, args)`` pairs for a parameter tuple.

        Exhaustive spaces enumerate deterministically (``itertools.product``,
        no rng draws), so their materialisation is cached: the env and args
        dicts become identity-stable across every scan of the run, which is
        what the identity-keyed projection/args/trace memos feed on.  Sampled
        spaces stay uncached so each scan keeps drawing fresh cases.
        Returns ``(pairs, exhaustive)``.
        """
        key = tuple(id(param) for param in params)
        entry = self._space_memo.get(key)
        if entry is not None and all(a is b for a, b in zip(entry[0], params)):
            return entry[1], True
        space = iter_assignments(list(params), self.spec, 512, rng)
        pairs = [
            (env, {param.name: value for param, value in env.items()})
            for env in space
        ]
        if not space.exhaustive:
            return pairs, False
        if len(self._space_memo) < 10_000:
            self._space_memo[key] = (params, pairs)
        return pairs, True

    def _combined_env(self, target_env: dict, source_env: dict) -> dict:
        """The merged scan environment, memoised by operand identity."""
        key = (id(target_env), id(source_env))
        entry = self._combined_memo.get(key)
        if entry is not None and entry[0] is target_env and entry[1] is source_env:
            return entry[2]
        combined = dict(target_env)
        combined.update(source_env)
        if len(self._combined_memo) < 500_000:
            self._combined_memo[key] = (target_env, source_env, combined)
        return combined

    def _memo_unit_final(self, source: TransactionType, state0: DbState, args: dict):
        """Final state of ``source`` run atomically from ``state0``, memoised.

        Unit-mode injection re-runs the same source from the same
        activation state for every assertion sharing the trace; the run is
        deterministic, so the final state is computed once.  Returns None
        when the run raises :class:`EvaluationError`.
        """
        key = (source.name, self._args_key(args), id(state0))
        if key in self._unit_memo:
            return self._unit_memo[key]
        final = state0.fork()
        try:
            source.run(final, args)
        except EvaluationError:
            final = None
        if len(self._unit_memo) < 200_000:
            self._unit_memo[key] = final
        return final

    def _memo_stmt_after(self, stmt: Statement, state: DbState, env: dict):
        """State after ``stmt`` executes on ``state`` under ``env``, memoised.

        Dirty-read scenarios inject the same source write into the same
        activation state once per assertion; execution is deterministic, so
        the result state is shared.  The entry keeps strong references and
        re-verifies identity, so id reuse cannot alias.  Returns None when
        execution raises :class:`EvaluationError`.
        """
        key = (id(stmt), id(state), id(env))
        entry = self._stmt_memo.get(key)
        if (
            entry is not None
            and entry[0] is stmt
            and entry[1] is state
            and entry[2] is env
        ):
            return entry[3]
        after = state.fork()
        try:
            execute((stmt,), after, dict(env))
        except EvaluationError:
            after = None
        if len(self._stmt_memo) < 200_000:
            self._stmt_memo[key] = (stmt, state, env, after)
        return after

    # -- public checks -------------------------------------------------------

    def check_statement(
        self,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        stmt: Statement,
        assumption: Formula = TRUE,
        dirty_reads: bool = True,
    ) -> InterferenceVerdict:
        """Theorem 1 obligation: one write statement vs one assertion.

        ``assumption`` is an application-level concurrency assumption over
        the two instances' parameters (e.g. concurrent ``New_Order``s are
        for distinct customers).  ``dirty_reads`` enables the ordering-B
        scenarios in which the target reads the source's uncommitted writes
        — legal at READ UNCOMMITTED, impossible at READ COMMITTED and above.
        """
        keys = None
        if self.cache.enabled:
            keys = self._keys(
                "statement", assertion, target, source, assumption,
                formula_extra=(stmt,), full_extra=(dirty_reads,),
            )
        return self._cached_check(
            keys,
            lambda: self._decide_statement(
                target, assertion, source, stmt, assumption, dirty_reads
            ),
        )

    def _decide_statement(
        self, target, assertion, source, stmt, assumption, dirty_reads
    ) -> tuple:
        start = time.perf_counter()
        if self.use_disjoint and not overlaps(
            assertion.formula.resources(), stmt.written_resources()
        ):
            self.stats["disjoint"] += 1
            self.tier_times["disjoint"] += time.perf_counter() - start
            return InterferenceVerdict(False, PROVED, "disjoint"), FORMULA_SCOPE
        self.tier_times["disjoint"] += time.perf_counter() - start
        start = time.perf_counter()
        if self.use_symbolic:
            symbolic = self._statement_symbolic(assertion.formula, source, stmt, assumption)
            if symbolic is not None:
                self.tier_times["symbolic"] += time.perf_counter() - start
                return symbolic, FORMULA_SCOPE
        self.tier_times["symbolic"] += time.perf_counter() - start
        start = time.perf_counter()
        verdict = self._bmc(
            target, assertion, source, mode="statement", stmt=stmt,
            assumption=assumption, dirty_reads=dirty_reads,
        )
        self.tier_times["bmc"] += time.perf_counter() - start
        return verdict, FULL_SCOPE

    def check_rollback(
        self,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        assumption: Formula = TRUE,
    ) -> InterferenceVerdict:
        """Theorem 1 obligation: the rollback (undo) writes of ``source``."""
        keys = None
        if self.cache.enabled:
            keys = self._keys("rollback", assertion, target, source, assumption)
        return self._cached_check(
            keys,
            lambda: self._decide_rollback(target, assertion, source, assumption),
        )

    def _decide_rollback(self, target, assertion, source, assumption) -> tuple:
        start = time.perf_counter()
        written = frozenset()
        for stmt in source.body:
            written |= stmt.written_resources()
        if self.use_disjoint and not overlaps(assertion.formula.resources(), written):
            self.stats["disjoint"] += 1
            self.tier_times["disjoint"] += time.perf_counter() - start
            return InterferenceVerdict(False, PROVED, "disjoint"), FORMULA_SCOPE
        self.tier_times["disjoint"] += time.perf_counter() - start
        start = time.perf_counter()
        if self.use_symbolic:
            symbolic = self._rollback_symbolic(assertion.formula, source, assumption)
            if symbolic is not None:
                self.tier_times["symbolic"] += time.perf_counter() - start
                return symbolic, FORMULA_SCOPE
        self.tier_times["symbolic"] += time.perf_counter() - start
        start = time.perf_counter()
        verdict = self._bmc(
            target, assertion, source, mode="rollback", assumption=assumption,
        )
        self.tier_times["bmc"] += time.perf_counter() - start
        return verdict, FULL_SCOPE

    def check_unit(
        self,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        fcw_excuse: bool = False,
        assumption: Formula = TRUE,
        fcw_targets: list | None = None,
    ) -> InterferenceVerdict:
        """Theorems 2/3/5 obligation: ``source`` as one atomic unit.

        With ``fcw_excuse``, instances whose write sets intersect are
        exempt: first-committer-wins aborts one of them.  Theorem 5 uses
        the target's full static write set; Theorem 3 passes
        ``fcw_targets`` — only the items the target read *and* wrote, the
        ones its commit effectively read-locked (the paper's remark after
        Theorem 3).
        """
        # the excuse formula is the only target-dependent input of the
        # symbolic tier, so it goes into the formula-scope key: obligations
        # with equal excuses (in particular FALSE, the no-excuse case) share
        # verdicts across targets
        excuse = (
            fcw_excuse_formula(target, source, fcw_targets) if fcw_excuse else FALSE
        )
        keys = None
        if self.cache.enabled:
            keys = self._keys(
                "unit", assertion, target, source, assumption,
                formula_extra=(excuse,), full_extra=(fcw_excuse, fcw_targets),
            )
        return self._cached_check(
            keys,
            lambda: self._decide_unit(
                target, assertion, source, excuse, fcw_excuse, assumption, fcw_targets
            ),
        )

    def _decide_unit(
        self, target, assertion, source, excuse, fcw_excuse, assumption, fcw_targets
    ) -> tuple:
        start = time.perf_counter()
        if self.use_disjoint and not overlaps(
            assertion.formula.resources(), source.written_resources()
        ):
            self.stats["disjoint"] += 1
            self.tier_times["disjoint"] += time.perf_counter() - start
            return InterferenceVerdict(False, PROVED, "disjoint"), FORMULA_SCOPE
        self.tier_times["disjoint"] += time.perf_counter() - start
        start = time.perf_counter()
        if self.use_symbolic:
            symbolic = self._transaction_symbolic(assertion.formula, source, excuse, assumption)
            if symbolic is not None:
                self.tier_times["symbolic"] += time.perf_counter() - start
                return symbolic, FORMULA_SCOPE
        self.tier_times["symbolic"] += time.perf_counter() - start
        start = time.perf_counter()
        verdict = self._bmc(
            target, assertion, source, mode="unit", fcw_excuse=fcw_excuse,
            assumption=assumption, fcw_targets=fcw_targets,
        )
        self.tier_times["bmc"] += time.perf_counter() - start
        return verdict, FULL_SCOPE

    # -- tier 2: symbolic ------------------------------------------------------

    def _statement_symbolic(
        self, assertion: Formula, source: TransactionType, stmt: Statement,
        assumption: Formula = TRUE,
    ) -> InterferenceVerdict | None:
        if not isinstance(stmt, Write):
            return None
        entry = conj(
            source.consistency,
            source.param_pre,
            *(eq(logical, term) for logical, term in source.snapshot),
        )
        paths = annotate_paths(source.body, entry, max_loop_unroll=1)
        obligations: list = []
        for path in paths:
            for point in path.points:
                if point.statement == stmt:
                    obligations.append((point.pre, point.exact))
        if not obligations:
            return None
        all_valid = True
        for pre, exact in obligations:
            after = fx.apply_single_write(assertion, stmt.target, stmt.value)
            if after is None:
                return None
            goal = implies(conj(assertion, pre, assumption), after)
            result = is_valid(goal)
            if result.verdict == Verdict.INVALID:
                self.stats["symbolic"] += 1
                return InterferenceVerdict(
                    True,
                    PROVED,
                    "symbolic",
                    witness=Witness("symbolic", f"{stmt!r} can falsify {assertion!r}", model=result.model),
                )
            if result.verdict != Verdict.VALID or not exact:
                all_valid = False
        if all_valid:
            self.stats["symbolic"] += 1
            return InterferenceVerdict(False, PROVED, "symbolic")
        return None

    def _rollback_symbolic(
        self, assertion: Formula, source: TransactionType, assumption: Formula = TRUE
    ) -> InterferenceVerdict | None:
        paths = fx.symbolic_paths(source, unroll=self.unroll)
        if paths is None:
            return None
        for path in paths:
            havoc = {
                written_target: fresh_logical(getattr(written_target, "var_sort", "int"))
                for written_target, _value in path.writes
            }
            if not havoc:
                continue
            after = fx.apply_store(assertion, havoc)
            if after is None:
                return None
            goal = implies(conj(assertion, path.condition, assumption), after)
            result = is_valid(goal)
            if result.verdict == Verdict.INVALID:
                self.stats["symbolic"] += 1
                return InterferenceVerdict(
                    True,
                    PROVED,
                    "rollback-symbolic",
                    witness=Witness("rollback", f"undo of {source.name} can falsify {assertion!r}", model=result.model),
                )
            if result.verdict != Verdict.VALID:
                return None
        self.stats["symbolic"] += 1
        return InterferenceVerdict(False, PROVED, "rollback-symbolic")

    def _transaction_symbolic(
        self, assertion: Formula, source: TransactionType, excuse: Formula,
        assumption: Formula = TRUE,
    ) -> InterferenceVerdict | None:
        paths = fx.symbolic_paths(source, unroll=self.unroll)
        if paths is None:
            return None
        for path in paths:
            after = fx.apply_store(assertion, path.store)
            if after is None:
                return None
            goal = implies(conj(assertion, path.condition, assumption), disj(excuse, after))
            result = is_valid(goal)
            if result.verdict == Verdict.INVALID:
                self.stats["symbolic"] += 1
                return InterferenceVerdict(
                    True,
                    PROVED,
                    "symbolic",
                    witness=Witness("symbolic", f"{source.name} as a unit can falsify {assertion!r}", model=result.model),
                )
            if result.verdict != Verdict.VALID:
                return None
        self.stats["symbolic"] += 1
        return InterferenceVerdict(False, PROVED, "symbolic")

    # -- tier 3: bounded model checking ---------------------------------------
    #
    # Scenario orderings.  Interference requires the source's offending
    # operation to execute while the target's assertion is active.  The
    # source may have started *before* the target reached that control
    # point, so two orderings are explored:
    #
    #   A. the target runs to an activation point, then the source acts
    #      (runs as a unit / runs far enough to execute the statement /
    #      runs and rolls back);
    #   B. (statement and rollback modes) the source runs a prefix first,
    #      the target executes to an activation point on the source-modified
    #      state — dirty reads, legal at READ UNCOMMITTED — and then the
    #      source's next write executes, or the source rolls back.
    #
    # Ordering B is what the paper's New_Order example needs: T2 inserts an
    # order and bumps MAXDATE, T1 reads the bumped MAXDATE, T2 rolls back —
    # invalidating T1's ``maxdate <= maximum_date``.
    #
    # Scenarios in which the target and the source wrote the same location
    # are skipped: long write locks (held at every level) make those
    # interleavings impossible.

    def _bmc(
        self,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        mode: str,
        stmt: Statement | None = None,
        fcw_excuse: bool = False,
        assumption: Formula = TRUE,
        dirty_reads: bool = True,
        fcw_targets: list | None = None,
    ) -> InterferenceVerdict:
        if self.spec is None:
            self.stats["assumed"] += 1
            return InterferenceVerdict(
                True, ASSUMED, "no-domain-spec",
                note="no bounded domains available; conservatively assumed to interfere",
            )
        rng = random.Random(self.seed)
        states, exhaustive = self._cached_states(rng)
        witness, cases, exhaustive = self._bmc_scan(
            states, rng, exhaustive, target, assertion, source, mode, stmt,
            fcw_excuse, assumption, dirty_reads, fcw_targets,
        )
        self.stats["bmc"] += 1
        if witness is not None:
            return InterferenceVerdict(True, PROVED, f"bmc-{mode}", witness=witness)
        confidence = BOUNDED if exhaustive else SAMPLED
        return InterferenceVerdict(
            False, confidence, f"bmc-{mode}", note=f"{cases} scenario cases examined"
        )

    def _bmc_scan(
        self,
        states: Sequence[DbState],
        rng: random.Random,
        exhaustive: bool,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        mode: str,
        stmt: Statement | None,
        fcw_excuse: bool,
        assumption: Formula,
        dirty_reads: bool,
        fcw_targets: list | None,
    ) -> tuple:
        """Scan the initial states; returns (witness, cases, exhaustive)."""
        counter = {"cases": 0}
        target_params = tuple(target.params)
        source_params = tuple(source.params)
        for state0 in states:
            target_space, t_exhaustive = self._assignment_space(target_params, rng)
            exhaustive = exhaustive and t_exhaustive
            for target_env, target_args in target_space:
                source_space, s_exhaustive = self._assignment_space(source_params, rng)
                exhaustive = exhaustive and s_exhaustive
                for source_env, source_args in source_space:
                    if not self._memo_holds(source.param_pre, state0, source_env):
                        continue
                    if assumption is not TRUE and not self._memo_holds(
                        assumption, state0, self._combined_env(target_env, source_env)
                    ):
                        continue
                    if fcw_excuse:
                        target_writes = _concrete_write_targets(
                            target,
                            target_env,
                            restrict=(
                                fcw_targets
                                if fcw_targets is not None
                                else self._static_targets(target)
                            ),
                        )
                        source_writes = _concrete_write_targets(
                            source, source_env, restrict=self._static_targets(source)
                        )
                        if (
                            target_writes is not None
                            and source_writes is not None
                            and target_writes & source_writes
                        ):
                            continue  # first-committer-wins aborts one of them
                    witness = self._scenario_a(
                        state0, target, target_env, target_args, source, source_env,
                        source_args, assertion, mode, stmt, counter,
                    )
                    if witness is None and mode in ("statement", "rollback") and dirty_reads:
                        witness = self._scenario_b(
                            state0, target, target_env, target_args, source, source_env,
                            source_args, assertion, mode, stmt, counter,
                        )
                    if witness is not None:
                        witness.env = (witness.env or {}) | {
                            "target_args": target_args,
                            "source_args": source_args,
                        }
                        return witness, counter["cases"], exhaustive
        return None, counter["cases"], exhaustive

    def _scenario_a(
        self, state0, target, target_env, target_args, source, source_env,
        source_args, assertion, mode, stmt, counter,
    ) -> Witness | None:
        """Target reaches an activation point first, then the source acts."""
        if not self._memo_holds(target.consistency, state0, target_env):
            return None
        if not self._memo_holds(target.param_pre, state0, target_env):
            return None
        try:
            target_trace = self._cached_trace(target, state0, target_args)
        except EvaluationError:
            return None
        # positions sharing a snapshot *and* an assertion-relevant env view
        # are fully equivalent for injection — the injected states, every
        # assertion evaluation and hence the witness verdict coincide — so
        # each equivalence class is examined once
        seen: set = set()
        for position in _activation_positions(assertion, target_trace):
            mid_state = target_trace.states[position]
            mid_env = target_trace.envs[position]
            env_key = self._env_key(assertion.formula, mid_env)
            if env_key is not None:
                dedupe = (id(mid_state), env_key)
                if dedupe in seen:
                    continue
                seen.add(dedupe)
            counter["cases"] += 1
            if not self._memo_holds(source.consistency, mid_state, source_env):
                continue
            if not self._memo_holds_keyed(assertion.formula, mid_state, mid_env, env_key):
                continue
            witness = self._inject_source(
                assertion, mid_state, mid_env, source, source_args, mode, stmt
            )
            if witness is not None:
                return witness
        return None

    def _scenario_b(
        self, state0, target, target_env, target_args, source, source_env,
        source_args, assertion, mode, stmt, counter,
    ) -> Witness | None:
        """The source runs a prefix first; the target reads through it."""
        if not self._memo_holds(source.consistency, state0, source_env):
            return None
        try:
            source_trace = self._cached_trace(source, state0, source_args)
        except EvaluationError:
            return None
        write_positions = [k for k, event in enumerate(source_trace.events) if event.is_write]
        if not write_positions:
            return None
        source_cumulative = source_trace.cumulative_writes()
        for k in write_positions:
            # the source has executed k events; its (k+1)-th is a write for
            # statement mode, or the rollback point for rollback mode
            prefix_end = k if mode == "statement" else k + 1
            prefix = source_trace.events[:prefix_end]
            if mode == "statement" and source_trace.events[k].statement != stmt:
                continue
            if mode == "statement" and not prefix:
                continue  # ordering A already covers a source acting fresh
            source_written = source_cumulative[prefix_end]
            # dirty states are identity-stable (the source trace is memoised),
            # so the target trace from each one is memoised too: every
            # obligation over this (state, args) scenario shares it
            dirty_state = source_trace.states[prefix_end]
            if not self._memo_holds(target.consistency, dirty_state, target_env):
                continue
            if not self._memo_holds(target.param_pre, dirty_state, target_env):
                continue
            try:
                target_trace = self._cached_trace(target, dirty_state, target_args)
            except EvaluationError:
                continue
            # only positions at which the target has not yet touched a
            # location the source write-locked are reachable interleavings
            cumulative = target_trace.cumulative_writes()
            seen: set = set()
            for position in _activation_positions(assertion, target_trace):
                if source_written & cumulative[position]:
                    continue  # long write locks forbid this interleaving
                mid_state = target_trace.states[position]
                mid_env = target_trace.envs[position]
                env_key = self._env_key(assertion.formula, mid_env)
                if env_key is not None:
                    dedupe = (id(mid_state), env_key)
                    if dedupe in seen:
                        continue  # equivalent to an already-examined position
                    seen.add(dedupe)
                counter["cases"] += 1
                if not self._memo_holds_keyed(assertion.formula, mid_state, mid_env, env_key):
                    continue
                if mode == "statement":
                    after = self._memo_stmt_after(stmt, mid_state, source_trace.envs[k])
                    if after is None:
                        continue
                    if not self._memo_holds(assertion.formula, after, mid_env):
                        return Witness(
                            "concrete",
                            f"{stmt!r} of {source.name} (started first) flips {assertion.label}",
                            state=mid_state,
                        )
                else:  # rollback
                    res = assertion.formula.resources()
                    current = mid_state.fork()
                    flipped = False
                    for event in reversed(prefix):
                        if not event.is_write:
                            continue
                        _apply_undo(current, _event_undo(event))
                        # an undo with a footprint disjoint from the
                        # assertion cannot have changed its value
                        if not self._res_overlaps(res, event.statement):
                            continue
                        if not _holds(assertion.formula, current, mid_env):
                            flipped = True
                            break
                    if flipped:
                        return Witness(
                            "rollback",
                            f"rollback of {source.name} after {prefix_end} ops"
                            f" flips {assertion.label} (target read dirty data)",
                            state=mid_state,
                        )
        return None

    def _inject_source(
        self,
        assertion: CriticalAssertion,
        mid_state: DbState,
        mid_env: dict,
        source: TransactionType,
        source_args: dict,
        mode: str,
        stmt: Statement | None,
    ) -> Witness | None:
        if mode == "unit":
            final = self._memo_unit_final(source, mid_state, source_args)
            if final is None:
                return None
            if not self._memo_holds(assertion.formula, final, mid_env):
                return Witness(
                    "concrete",
                    f"{source.name} as a unit flips {assertion.label}",
                    state=mid_state,
                )
            return None
        try:
            source_trace = self._cached_trace(source, mid_state, source_args)
        except EvaluationError:
            return None
        if mode == "statement":
            akey = self._env_key(assertion.formula, mid_env)
            for event in source_trace.events:
                if event.statement == stmt and event.is_write:
                    if self._memo_holds_keyed(
                        assertion.formula, event.before, mid_env, akey
                    ) and not self._memo_holds_keyed(
                        assertion.formula, event.after, mid_env, akey
                    ):
                        return Witness(
                            "concrete",
                            f"{stmt!r} of {source.name} flips {assertion.label}",
                            state=event.before,
                        )
            return None
        if mode == "rollback":
            # undoing a write can only change the assertion's value if the
            # write's footprint overlaps the assertion's resources — the same
            # soundness assumption the disjointness tier rests on — so
            # non-overlapping undo steps skip the evaluation
            res = assertion.formula.resources()
            write_positions = [
                k for k, event in enumerate(source_trace.events) if event.is_write
            ]
            akey = self._env_key(assertion.formula, mid_env)
            for k in write_positions:
                undo_events = [
                    event
                    for event in reversed(source_trace.events[: k + 1])
                    if event.is_write
                ]
                if not any(
                    self._res_overlaps(res, event.statement) for event in undo_events
                ):
                    continue
                mid = source_trace.events[k].after
                if not self._memo_holds_keyed(assertion.formula, mid, mid_env, akey):
                    continue
                for event, rolled in zip(
                    undo_events, _cached_undo_states(source_trace, k)
                ):
                    if not self._res_overlaps(res, event.statement):
                        continue
                    if not self._memo_holds_keyed(assertion.formula, rolled, mid_env, akey):
                        return Witness(
                            "rollback",
                            f"rollback of {source.name} after {k + 1} ops flips {assertion.label}",
                            state=mid,
                        )
            return None
        raise ValueError(f"unknown BMC mode {mode!r}")


def _event_delta(event: TraceEvent) -> frozenset:
    """Locations the event changed, derived from the undo recipe and cached."""
    delta = event.delta
    if delta is None:
        items, fields, rows = _event_undo(event)
        out = set()
        for name, _old in items:
            out.add(("item", name))
        for array, index, attr, _old in fields:
            out.add(("field", array, index, attr))
        for table, added, removed in rows:
            for key in added:
                out.add(("row", table, key))
            for key in removed:
                out.add(("row", table, key))
        delta = frozenset(out)
        event.delta = delta
    return delta


def _activation_positions(assertion: CriticalAssertion, target_trace: Trace) -> list:
    """Trace positions at which the assertion is active."""
    length = target_trace.length
    if assertion.kind == CONSISTENCY:
        return list(range(length + 1))
    if assertion.kind == RESULT:
        return [length]
    if assertion.kind == READ_POST:
        positions: list[int] = []
        for index, event in enumerate(target_trace.events):
            if event.statement == assertion.read_stmt:
                positions.extend(range(index + 1, length + 1))
        return sorted(set(positions))
    if assertion.kind == READ_STEP_POST:
        read_indices = [i for i, event in enumerate(target_trace.events) if not event.is_write]
        write_indices = [i for i, event in enumerate(target_trace.events) if event.is_write]
        if not read_indices:
            return []
        start = read_indices[-1] + 1
        end = write_indices[0] if write_indices else length
        return list(range(start, end + 1))
    raise ValueError(f"unknown assertion kind {assertion.kind!r}")


def _holds(assertion: Formula, state: DbState, env: dict) -> bool:
    """Evaluate an assertion, treating evaluation gaps as 'does not hold'."""
    try:
        return assertion.evaluate(state, env)
    except EvaluationError:
        return False
