"""Unit tests for the waits-for graph."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.deadlock import WaitsForGraph, find_cycle


class TestWaitsForGraph:
    def test_no_cycle_initially(self):
        graph = WaitsForGraph()
        assert graph.find_cycle() is None

    def test_simple_cycle_detected(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {1})
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2}

    def test_three_way_cycle(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {3})
        graph.add_waits(3, {1})
        assert set(graph.find_cycle()) == {1, 2, 3}

    def test_chain_is_not_cycle(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {3})
        assert graph.find_cycle() is None

    def test_self_wait_ignored(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {1})
        assert graph.find_cycle() is None

    def test_victim_is_youngest(self):
        graph = WaitsForGraph()
        assert graph.pick_victim([3, 1, 7]) == 7

    def test_clear_waits_breaks_cycle(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {1})
        graph.clear_waits(1)
        assert graph.find_cycle() is None

    def test_remove_node(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {1})
        graph.remove(2)
        assert graph.find_cycle() is None
        assert graph.blockers_of(1) == set()

    def test_blockers_of(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2, 3})
        assert graph.blockers_of(1) == {2, 3}
        assert graph.blockers_of(9) == set()


# ---------------------------------------------------------------------------
# differential: the stdlib search against networkx
# ---------------------------------------------------------------------------
#
# The victim is ``max(cycle)``, so which cycle the search reports when
# several exist decides which transaction aborts.  The graph must report
# exactly the cycle ``networkx.find_cycle`` reports on the same insertion
# history.  networkx is only the test-time reference, never a dependency.

TXNS = st.integers(min_value=1, max_value=7)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), TXNS, st.lists(TXNS, max_size=4)),
        st.tuples(st.just("clear"), TXNS),
        st.tuples(st.just("remove"), TXNS),
    ),
    max_size=40,
)


def _nx_cycle(graph):
    nx = pytest.importorskip("networkx")
    try:
        return [edge[0] for edge in nx.find_cycle(graph)]
    except nx.NetworkXNoCycle:
        return None


def _apply_nx(graph, op):
    if op[0] == "add":
        for blocker in op[2]:
            if blocker != op[1]:
                graph.add_edge(op[1], blocker)
    elif op[0] == "clear":
        if graph.has_node(op[1]):
            for blocker in list(graph.successors(op[1])):
                graph.remove_edge(op[1], blocker)
    elif graph.has_node(op[1]):
        graph.remove_node(op[1])


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_waits_for_graph_matches_networkx(ops):
    nx = pytest.importorskip("networkx")
    ours, reference = WaitsForGraph(), nx.DiGraph()
    for op in ops:
        if op[0] == "add":
            ours.add_waits(op[1], op[2])
        elif op[0] == "clear":
            ours.clear_waits(op[1])
        else:
            ours.remove(op[1])
        _apply_nx(reference, op)
        assert ours.find_cycle() == _nx_cycle(reference)
        assert ours.edges() == list(reference.edges())
        for txn in range(1, 8):
            expected = set(reference.successors(txn)) if reference.has_node(txn) else set()
            assert ours.blockers_of(txn) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TXNS, TXNS), max_size=20), st.permutations(range(1, 8)))
def test_find_cycle_matches_networkx_on_any_digraph(edges, nodes):
    nx = pytest.importorskip("networkx")
    successors = {node: {} for node in nodes}
    reference = nx.DiGraph()
    reference.add_nodes_from(nodes)
    for tail, head in edges:
        successors[tail][head] = None
        reference.add_edge(tail, head)
    assert find_cycle(successors) == _nx_cycle(reference)
