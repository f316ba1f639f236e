"""Tests for exhaustive schedule exploration (source-set DPOR and lite)."""

import pytest

from repro.core.program import Read, TransactionType, Write
from repro.core.state import DbState
from repro.core.terms import Item, Local
from repro.sched.explore import Explorer, _Visited, explore, state_fingerprint
from repro.sched.simulator import InstanceSpec, Simulator


def incrementer(item="x"):
    return TransactionType(
        name=f"Inc_{item}",
        body=(Read(Local("v"), Item(item)), Write(Item(item), Local("v") + 1)),
    )


def specs_for(items, level="READ COMMITTED"):
    return [
        InstanceSpec(incrementer(item), {}, level, f"T{i}")
        for i, item in enumerate(items)
    ]


def final_states(result):
    """The set of distinct outcomes reached — items plus commit census."""
    outcomes = set()
    for schedule in result.results:
        items = tuple(sorted(schedule.final.items.items()))
        committed = tuple(sorted(o.name for o in schedule.committed))
        outcomes.add((items, committed))
    return outcomes


class TestPruning:
    def test_pruned_visits_fewer_schedules_than_unpruned_dfs(self):
        """Acceptance: DPOR-lite pruning measurably shrinks the DFS."""
        initial = DbState(items={"x": 0})
        specs = specs_for(["x", "x"])
        full = explore(initial.copy(), specs, pruning=False)
        pruned = explore(initial.copy(), specs, pruning=True)
        assert pruned.runs < full.runs
        assert pruned.schedules < full.schedules
        # pruning must not lose outcomes: every reachable final state of the
        # full tree is reached by the pruned one as well
        assert final_states(pruned) == final_states(full)

    def test_disjoint_instances_prune_heavily(self):
        initial = DbState(items={"x": 0, "y": 0})
        specs = specs_for(["x", "y"], level="SERIALIZABLE")
        full = explore(initial.copy(), specs, pruning=False)
        pruned = explore(initial.copy(), specs, pruning=True, dpor="lite")
        assert pruned.runs < full.runs
        assert pruned.pruned_sleep + pruned.pruned_state > 0
        assert final_states(pruned) == final_states(full)

    def test_disjoint_instances_race_free_under_dpor(self):
        """Two instances on disjoint items have no races: one schedule."""
        initial = DbState(items={"x": 0, "y": 0})
        specs = specs_for(["x", "y"], level="SERIALIZABLE")
        full = explore(initial.copy(), specs, pruning=False)
        optimal = explore(initial.copy(), specs, dpor="optimal")
        assert optimal.runs == 1
        assert optimal.reversals == 0
        assert final_states(optimal) == final_states(full)

    def test_optimal_never_explores_more_runs_than_lite(self):
        initial = DbState(items={"x": 0})
        specs = specs_for(["x", "x"])
        lite = explore(initial.copy(), specs, dpor="lite")
        optimal = explore(initial.copy(), specs, dpor="optimal")
        assert optimal.runs <= lite.runs
        assert final_states(optimal) == final_states(lite)

    def test_lost_update_is_reached_at_read_committed(self):
        initial = DbState(items={"x": 0})
        result = explore(initial, specs_for(["x", "x"]), pruning=True)
        finals = {items for items, _ in final_states(result)}
        assert (("x", 1),) in finals  # the lost update
        assert (("x", 2),) in finals  # the serial outcome

    def test_serializable_commits_never_lose_an_update(self):
        initial = DbState(items={"x": 0})
        specs = specs_for(["x", "x"], level="SERIALIZABLE")
        result = explore(initial, specs, pruning=True, max_schedules=50)
        # an instance may still die to deadlock restarts — but whenever both
        # commit, the outcome must be the serial one
        both = {
            items
            for items, committed in final_states(result)
            if committed == ("T0", "T1")
        }
        assert both == {(("x", 2),)}


class TestBounds:
    def test_max_schedules_truncates(self):
        initial = DbState(items={"x": 0})
        result = explore(
            initial, specs_for(["x", "x"]), pruning=False, max_schedules=3
        )
        assert result.truncated
        assert result.runs <= 3

    def test_max_depth_counts_truncated_branches(self):
        initial = DbState(items={"x": 0})
        result = explore(initial, specs_for(["x", "x"]), pruning=False, max_depth=2)
        assert result.truncated_depth > 0
        assert result.schedules == 0

    def test_to_dict_shape(self):
        initial = DbState(items={"x": 0})
        payload = explore(initial, specs_for(["x", "x"])).to_dict()
        assert set(payload) == {
            "mode",
            "runs",
            "schedules",
            "pruned_sleep",
            "pruned_state",
            "races",
            "reversals",
            "truncated_depth",
            "truncated",
        }

    def test_mode_reflects_pruning_configuration(self):
        initial = DbState(items={"x": 0})
        specs = specs_for(["x", "x"])
        assert explore(initial.copy(), specs).to_dict()["mode"] == "optimal"
        assert explore(initial.copy(), specs, dpor="lite").to_dict()["mode"] == "lite"
        assert (
            explore(initial.copy(), specs, pruning=False).to_dict()["mode"] == "none"
        )

    def test_max_depth_zero_terminates_with_no_schedules(self):
        """Every run stops before its first decision; nothing completes."""
        initial = DbState(items={"x": 0})
        result = explore(
            initial, specs_for(["x", "x"]), pruning=False, max_depth=0
        )
        assert result.schedules == 0
        assert result.truncated_depth == result.runs > 0
        assert result.pruned_sleep == 0 and result.pruned_state == 0

    def test_max_schedules_one_runs_exactly_once(self):
        initial = DbState(items={"x": 0})
        result = explore(
            initial, specs_for(["x", "x"]), pruning=False, max_schedules=1
        )
        assert result.runs == 1
        assert result.truncated
        assert result.schedules <= 1

    def test_single_instance_yields_exactly_one_schedule(self):
        """One transaction has one interleaving — no pruning, no miscounts."""
        initial = DbState(items={"x": 0})
        for pruning in (False, True):
            result = explore(initial.copy(), specs_for(["x"]), pruning=pruning)
            assert result.schedules == 1
            assert result.runs == 1
            assert result.pruned_sleep == 0 and result.pruned_state == 0
            assert not result.truncated and result.truncated_depth == 0
            (finals,) = final_states(result)
            assert finals == ((("x", 1),), ("T0",))


class TestSingleThread:
    def test_workers_other_than_one_rejected(self):
        initial = DbState(items={"x": 0})
        with pytest.raises(ValueError, match="workers must be 1"):
            explore(initial, specs_for(["x", "x"]), workers=2)


class TestVisitedAntichain:
    """``_Visited.seen``: the sleep-set-aware state cache of lite mode."""

    def test_first_visit_not_pruned(self):
        visited = _Visited()
        assert visited.seen("s", frozenset({1})) is False
        assert len(visited) == 1

    def test_revisit_pruned_iff_a_stored_set_is_a_subset(self):
        visited = _Visited()
        visited.seen("s", frozenset({1}))
        # the stored visit slept on {1} only: it explored at least as much
        assert visited.seen("s", frozenset({1})) is True
        assert visited.seen("s", frozenset({1, 2})) is True
        # {2} and {} allow futures the stored visit slept through
        assert visited.seen("s", frozenset({2})) is False
        assert visited.seen("s", frozenset()) is False

    def test_redundant_stored_sets_dropped(self):
        visited = _Visited()
        visited.seen("s", frozenset({1, 2}))
        visited.seen("s", frozenset({1, 3}))
        assert sorted(map(sorted, visited._visits["s"])) == [[1, 2], [1, 3]]
        # {1} is a subset of both stored sets: it replaces them
        assert visited.seen("s", frozenset({1})) is False
        assert visited._visits["s"] == [frozenset({1})]

    def test_fingerprints_never_prune_each_other(self):
        visited = _Visited()
        visited.seen("s", frozenset())
        assert visited.seen("t", frozenset({1, 2})) is False
        assert visited.seen("s", frozenset({1})) is True
        assert visited.seen("t", frozenset({1, 2})) is True
        assert len(visited) == 2


class TestObservers:
    def test_observer_factory_runs_per_schedule(self):
        events = []

        class Recorder:
            def __init__(self):
                self.seen = []

            def __call__(self, simulator, runtime):
                self.seen.append(runtime.spec.name)

        def factory():
            recorder = Recorder()
            events.append(recorder)
            return recorder

        initial = DbState(items={"x": 0})
        result = explore(
            initial, specs_for(["x", "x"]), pruning=True, observer_factory=factory
        )
        assert len(events) == result.runs
        # completed schedules expose their own observers for inspection
        for schedule in result.results:
            assert len(schedule.observers) == 1

    def test_on_schedule_callback_fires_per_completed_schedule(self):
        count = [0]
        initial = DbState(items={"x": 0})
        result = explore(
            initial,
            specs_for(["x", "x"]),
            pruning=True,
            on_schedule=lambda schedule: count.__setitem__(0, count[0] + 1),
        )
        assert count[0] == result.schedules


class TestFingerprint:
    def test_identical_states_share_a_fingerprint(self):
        specs = specs_for(["x", "x"])
        sims = []
        for _ in range(2):
            sim = Simulator(DbState(items={"x": 0}), specs, script=[0, 0, 0])
            sim.run()
            sims.append(sim)
        assert state_fingerprint(sims[0]) == state_fingerprint(sims[1])

    def test_different_schedules_differ(self):
        specs = specs_for(["x", "x"])
        a = Simulator(DbState(items={"x": 0}), specs, script=[0, 0, 0])
        a.run()
        b = Simulator(DbState(items={"x": 0}), specs, script=[1, 1, 1])
        b.run()
        assert state_fingerprint(a) != state_fingerprint(b)
