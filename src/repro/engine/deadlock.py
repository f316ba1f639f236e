"""Waits-for graph and deadlock resolution.

The scheduler records a waits-for edge whenever an operation raises
:class:`repro.engine.locks.WouldBlock`.  Deadlock detection is a cycle
search on that graph; the victim is, by default, the youngest transaction
in the cycle (largest id), matching the common minimum-work-lost
heuristic.
"""

from __future__ import annotations


def find_cycle(successors: dict) -> list | None:
    """The first cycle a depth-first search meets, or None.

    ``successors`` maps each node to a dict of its successors.  Roots and
    successors are visited in dict (insertion) order, and the cycle is
    returned from the node its closing edge re-enters, along the search
    path — so the answer depends only on insertion order, never on hashing.
    """
    done: set = set()
    for root in successors:
        if root in done:
            continue
        done.add(root)
        path = [root]
        on_path = {root}
        stack = [iter(successors[root])]
        while stack:
            for head in stack[-1]:
                if head in on_path:
                    return path[path.index(head):]
                if head not in done:
                    done.add(head)
                    path.append(head)
                    on_path.add(head)
                    stack.append(iter(successors[head]))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return None


class WaitsForGraph:
    """Directed graph of txn ids: ``waiter -> blocker`` edges.

    Nodes and each node's successors keep insertion order, which fixes
    which cycle :meth:`find_cycle` reports when several exist.
    """

    def __init__(self) -> None:
        self._succ: dict = {}

    def add_waits(self, waiter: int, blockers) -> None:
        for blocker in blockers:
            if blocker != waiter:
                self._succ.setdefault(waiter, {})
                self._succ.setdefault(blocker, {})
                self._succ[waiter][blocker] = None

    def clear_waits(self, waiter: int) -> None:
        if waiter in self._succ:
            self._succ[waiter].clear()

    def remove(self, txn_id: int) -> None:
        if self._succ.pop(txn_id, None) is not None:
            for blockers in self._succ.values():
                blockers.pop(txn_id, None)

    def edges(self) -> list:
        """Every ``(waiter, blocker)`` edge, in insertion order."""
        return [
            (waiter, blocker)
            for waiter, blockers in self._succ.items()
            for blocker in blockers
        ]

    def find_cycle(self) -> list | None:
        """Transaction ids forming a deadlock cycle, or None."""
        return find_cycle(self._succ)

    def pick_victim(self, cycle) -> int:
        """The youngest (highest-id) transaction in the cycle."""
        return max(cycle)

    def blockers_of(self, waiter: int) -> set:
        return set(self._succ.get(waiter, ()))
