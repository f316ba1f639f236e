"""Whole-transaction symbolic effects.

Theorems 2, 3 and 5 treat a concurrent transaction ``T_j`` as a *single
isolated unit*: its locks (or its snapshot plus first-committer-wins) force
any other transaction to see either none or all of it.  Checking whether
such a unit interferes with an assertion ``P`` therefore reduces to checking
that ``P`` is preserved across ``T_j``'s *complete* execution:

    { P  ∧  I_j ∧ B_j ∧ path-condition }   T_j   { P }

This module computes the ingredients symbolically for conventional-model
transaction bodies: every execution path (conditionals forked, loops
unrolled) together with the path condition and the *final store* — the
mapping from written database locations to their final values, expressed in
terms of the transaction's initial state and parameters.

Array writes whose index is symbolic introduce aliasing: applying the final
store to ``P`` case-splits on which array references of ``P`` coincide with
written locations (:func:`apply_store`).  Bodies containing relational
statements, loops beyond the unroll bound, or irreducible aliasing return
``None`` and the caller falls back to bounded model checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.formula import Cmp, Formula, Not, TRUE, conj, disj, eq, ne
from repro.core.program import (
    If,
    LocalAssign,
    Read,
    ReadRecord,
    Statement,
    TransactionType,
    While,
    Write,
)
from repro.core.prover import simplify, simplify_term
from repro.core.terms import Field, IntConst, Item, Local, Term

#: Default loop-unroll bound for symbolic execution.
DEFAULT_UNROLL = 2

#: Cap on the alias case-split fan-out of :func:`apply_store`.
MAX_ALIAS_CASES = 64


@dataclass
class SymbolicPath:
    """One execution path of a transaction, symbolically executed.

    ``condition`` constrains parameters and the initial database state for
    the path to be taken.  ``store`` maps written locations (``Item`` or
    ``Field`` terms with locals resolved away) to their final values in
    terms of the initial state.  ``writes`` preserves program order and per
    -write resolved values — the ingredients for statement-level reasoning.
    """

    condition: Formula = TRUE
    store: dict = field(default_factory=dict)
    writes: list = field(default_factory=list)
    env: dict = field(default_factory=dict)


class _Unsupported(Exception):
    """Internal: the body left the symbolically-executable fragment."""


def _resolve(term: Term, env: dict) -> Term:
    """Substitute local symbolic values into a term and fold constants."""
    mapping = {local: value for local, value in env.items()}
    return simplify_term(term.substitute(mapping))


def _lookup(store_writes: list, location: Term) -> Term | None:
    """Value of ``location`` after the recorded writes, if unambiguous.

    Scans the write list backwards.  A prior write to the same array and
    attribute with a *possibly equal but not identical* index makes the read
    ambiguous — the caller bails out to bounded model checking.
    """
    for target, value in reversed(store_writes):
        if target == location:
            return value
        if _may_alias(target, location) is None:
            raise _Unsupported(f"ambiguous aliasing between {target!r} and {location!r}")
    return None


def _may_alias(a: Term, b: Term) -> bool | None:
    """True: definitely same location.  False: definitely distinct.

    None: undecidable syntactically (same array/attr, distinct index terms
    that are not both constants).
    """
    if a == b:
        return True
    if isinstance(a, Item) and isinstance(b, Item):
        return False  # different names
    if isinstance(a, Field) and isinstance(b, Field):
        if a.array != b.array or a.attr != b.attr:
            return False
        if isinstance(a.index, IntConst) and isinstance(b.index, IntConst):
            return a.index.value == b.index.value
        return None
    return False


def symbolic_paths(
    txn: TransactionType,
    unroll: int = DEFAULT_UNROLL,
    context: Formula | None = None,
) -> list | None:
    """All execution paths of a conventional-model body, or None.

    ``context`` defaults to ``I_j ∧ B_j``; the snapshot equalities of the
    transaction's logical variables are conjoined as well, giving ``Q``-style
    assertions access to initial values.
    """
    base = conj(
        txn.consistency if context is None else context,
        txn.param_pre if context is None else TRUE,
        *(eq(logical, term) for logical, term in txn.snapshot),
    )
    paths: list[SymbolicPath] = []

    def run(stmts: tuple, path: SymbolicPath) -> None:
        if not stmts:
            paths.append(path)
            return
        stmt, rest = stmts[0], stmts[1:]
        if isinstance(stmt, Read):
            resolved = _resolve(stmt.source, path.env)
            prior = _lookup(path.writes, resolved)
            new_env = dict(path.env)
            new_env[stmt.into] = prior if prior is not None else resolved
            run(rest, SymbolicPath(path.condition, dict(path.store), list(path.writes), new_env))
            return
        if isinstance(stmt, ReadRecord):
            new_env = dict(path.env)
            index = _resolve(stmt.index, path.env)
            for attr, local in stmt.binds:
                resolved = Field(stmt.array, index, attr, local.var_sort)
                prior = _lookup(path.writes, resolved)
                new_env[local] = prior if prior is not None else resolved
            run(rest, SymbolicPath(path.condition, dict(path.store), list(path.writes), new_env))
            return
        if isinstance(stmt, LocalAssign):
            new_env = dict(path.env)
            new_env[stmt.into] = _resolve(stmt.value, path.env)
            run(rest, SymbolicPath(path.condition, dict(path.store), list(path.writes), new_env))
            return
        if isinstance(stmt, Write):
            target = stmt.target
            if isinstance(target, Field):
                target = Field(target.array, _resolve(target.index, path.env), target.attr, target.var_sort)
            value = _resolve(stmt.value, path.env)
            new_writes = list(path.writes) + [(target, value)]
            new_store = dict(path.store)
            for key in list(new_store):
                alias = _may_alias(key, target)
                if alias is True:
                    del new_store[key]
                elif alias is None:
                    raise _Unsupported(f"possibly-aliasing writes {key!r} / {target!r}")
            new_store[target] = value
            run(rest, SymbolicPath(path.condition, new_store, new_writes, dict(path.env)))
            return
        if isinstance(stmt, If):
            guard = simplify(stmt.cond.substitute(path.env))
            for branch, taken in ((stmt.then, guard), (stmt.orelse, Not(guard))):
                branch_cond = simplify(conj(path.condition, taken))
                from repro.core.formula import Bottom

                if isinstance(branch_cond, Bottom):
                    continue
                run(
                    tuple(branch) + rest,
                    SymbolicPath(branch_cond, dict(path.store), list(path.writes), dict(path.env)),
                )
            return
        if isinstance(stmt, While):
            guard = simplify(stmt.cond.substitute(path.env))
            # unroll: 0..unroll iterations, each prefixed by the guard
            for count in range(unroll + 1):
                unrolled: tuple = ()
                for _ in range(count):
                    unrolled += (_Guard(stmt.cond),) + tuple(stmt.body)
                unrolled += (_Guard(Not(stmt.cond)),)
                run(
                    unrolled + rest,
                    SymbolicPath(path.condition, dict(path.store), list(path.writes), dict(path.env)),
                )
            return
        if isinstance(stmt, _Guard):
            guard = simplify(stmt.cond.substitute(path.env))
            from repro.core.formula import Bottom

            cond = simplify(conj(path.condition, guard))
            if isinstance(cond, Bottom):
                return
            run(rest, SymbolicPath(cond, dict(path.store), list(path.writes), dict(path.env)))
            return
        raise _Unsupported(f"statement outside the symbolic fragment: {stmt!r}")

    try:
        run(tuple(txn.body), SymbolicPath(condition=base))
    except _Unsupported:
        return None
    return paths


@dataclass(frozen=True)
class _Guard(Statement):
    """Internal pseudo-statement: assume a condition along a path."""

    cond: Formula


def write_sets_intersection_condition(
    writes_a: list,
    writes_b: list,
) -> Formula:
    """A formula true exactly when two resolved write sets intersect.

    Used by Theorem 5's condition 1 (SNAPSHOT): when the write sets of the
    two transactions intersect, first-committer-wins aborts one of them, so
    the pair is harmless regardless of interference.  For array writes the
    condition is the equality of the index terms; for identical scalar items
    it is ``TRUE``.
    """
    clauses: list[Formula] = []
    for target_a, _value_a in writes_a:
        for target_b, _value_b in writes_b:
            alias = _may_alias(target_a, target_b)
            if alias is True:
                return TRUE
            if alias is None and isinstance(target_a, Field) and isinstance(target_b, Field):
                clauses.append(eq(target_a.index, target_b.index))
    return disj(*clauses) if clauses else _false()


def _false() -> Formula:
    from repro.core.formula import FALSE

    return FALSE


def apply_store(assertion: Formula, store: dict) -> Formula | None:
    """The assertion's truth after the (simultaneous) final store.

    Every ``Item``/``Field`` atom of the assertion is mapped to its written
    value when it coincides with a store key.  Array atoms that merely *may*
    alias a key produce a case split: the result is a disjunction over alias
    patterns, each conjoined with the index (dis)equalities that define it.
    Returns None when the case split would exceed :data:`MAX_ALIAS_CASES`.
    """
    atom_options: list = []
    atoms = {
        atom
        for atom in assertion.atoms_with_bound()
        if isinstance(atom, (Item, Field))
    }
    for atom in sorted(atoms, key=repr):
        options: list = []  # (mapping-or-None, constraint formula, key)
        certain = None
        maybes = []
        for key, value in store.items():
            alias = _may_alias(key, atom)
            if alias is True:
                certain = (key, value)
                break
            if alias is None:
                maybes.append((key, value))
        if certain is not None:
            options.append((certain[1], TRUE))
        else:
            # exactly one maybe-key can match (store keys are pairwise
            # distinct locations), or none
            for key, value in maybes:
                constraint = eq(atom.index, key.index)  # type: ignore[union-attr]
                options.append((value, constraint))
            none_constraints = [
                ne(atom.index, key.index)  # type: ignore[union-attr]
                for key, _value in maybes
            ]
            options.append((None, conj(*none_constraints)))
        atom_options.append((atom, options))

    total_cases = 1
    for _atom, options in atom_options:
        total_cases *= len(options)
        if total_cases > MAX_ALIAS_CASES:
            return None

    cases: list[Formula] = []
    option_lists = [options for _atom, options in atom_options]
    atoms_in_order = [atom for atom, _options in atom_options]
    for combo in itertools.product(*option_lists) if atom_options else [()]:
        mapping: dict = {}
        constraints: list[Formula] = []
        for atom, (value, constraint) in zip(atoms_in_order, combo):
            if value is not None:
                mapping[atom] = value
            constraints.append(constraint)
        cases.append(conj(*constraints, assertion.substitute(mapping)))
    if not cases:
        return assertion
    return simplify(disj(*cases))


def apply_single_write(assertion: Formula, target: Term, value: Term) -> Formula | None:
    """The assertion's truth after one write statement (alias-aware)."""
    return apply_store(assertion, {target: value})
