"""The assertion language: first-order formulas over database states.

Formulas annotate transaction programs (preconditions of control points,
read-statement postconditions, the consistency constraint ``I_i`` and the
result ``Q_i`` of the paper's triple (1)) and are the objects the
interference check (paper's triple (3)) is discharged over.

The language covers everything the paper's examples need:

* boolean combinations of linear integer comparisons (Figure 1's
  ``acct_sav[i].bal + acct_ch[i].bal >= 0``);
* bounded quantification over table rows — ``ForAllRows`` expresses
  constraints such as *order consistency* ("for every CUST row, ``#orders``
  equals the number of ORDERS rows for that customer");
* bounded quantification over integer ranges — ``ForAllInts`` expresses the
  *no gaps* business rule ("for every date up to ``maximum_date`` there is at
  least one order");
* ``COUNT(*)`` aggregates as integer terms (:class:`CountWhere`);
* tuple membership (:class:`InTable`) for postconditions like
  ``(order_info, customer, maxdate+1, false) ∈ ORDERS``;
* named abstract predicates (:class:`AbstractPred`) with a declared resource
  footprint and an optional concrete evaluator, for specification clauses
  the annotation keeps symbolic (e.g. "labels have been printed").

Every formula supports substitution, atom/resource extraction and concrete
evaluation, mirroring :class:`repro.core.terms.Term`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from repro.core import terms
from repro.core.resources import ArrayResource, Resource, ScalarResource, TableResource
from repro.core.terms import Node, Term, coerce, env_lookup, opaque, slots_of
from repro.errors import EvaluationError, SortError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import DbState

Env = dict

_CMP_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_NEGATED_OP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


# ---------------------------------------------------------------------------
# relational terms (defined here because they embed formulas)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowAttr(Term):
    """An attribute of a row variable bound by a row quantifier."""

    row: str
    attr: str
    var_sort: str = "int"

    @property
    def sort(self) -> str:
        return self.var_sort

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return mapping.get(self, self)

    def atoms(self) -> Iterator[Term]:
        yield self

    def _compile(self, scope: tuple) -> Callable:
        # the innermost binder of the row variable whose row has the
        # attribute wins, then outer ones, then the environment
        attr, slots = self.attr, slots_of(scope, ("row", self.row))
        lookup = env_lookup(self, f"unbound row attribute {self.row}.{self.attr}")
        if not slots:
            return lookup

        def row_attr(state, env, frames):
            for slot in slots:
                row = frames[slot]
                if attr in row:
                    return row[attr]
            return lookup(state, env, frames)

        return row_attr

    def __repr__(self) -> str:
        return f"{self.row}.{self.attr}"


@dataclass(frozen=True)
class BoundVar(Term):
    """An integer variable bound by :class:`ForAllInts`."""

    name: str

    @property
    def sort(self) -> str:
        return "int"

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return mapping.get(self, self)

    def atoms(self) -> Iterator[Term]:
        yield self

    def _compile(self, scope: tuple) -> Callable:
        slots = slots_of(scope, ("int", self.name))
        if not slots:
            return env_lookup(self, f"unbound quantified variable {self.name!r}")
        slot = slots[0]
        return lambda state, env, frames: frames[slot]

    def __repr__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class CountWhere(Term):
    """``COUNT(*)`` over the rows of ``table`` satisfying ``where``.

    ``where`` is a formula over :class:`RowAttr` terms of the bound row
    variable ``row`` (plus any parameters and items).  The term's value is
    the number of matching rows, so any INSERT or DELETE into the predicate
    potentially changes it — which is exactly how phantom interference with
    COUNT-based assertions (the paper's ``Audit`` transaction) is detected.
    """

    table: str
    row: str
    where: "Formula"

    @property
    def sort(self) -> str:
        return "int"

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        inner = _drop_bound(mapping, self.row)
        return CountWhere(self.table, self.row, self.where.substitute(inner))

    def atoms(self) -> Iterator[Term]:
        yield self
        for atom in self.where.atoms():
            if not (isinstance(atom, RowAttr) and atom.row == self.row):
                yield atom

    def resources(self) -> frozenset[Resource]:
        out = {TableResource(self.table)}
        for atom in self.where.atoms():
            if isinstance(atom, RowAttr) and atom.row == self.row:
                out.add(TableResource(self.table, atom.attr))
        return frozenset(out)

    def _compile(self, scope: tuple) -> Callable:
        table, slot = self.table, len(scope)
        where = self.where._compile(scope + (("row", self.row),))

        def count(state, env, frames):
            count = 0
            for row in state.tables.get(table, ()):
                frames[slot] = row
                if where(state, env, frames):
                    count += 1
            return count

        return count

    def __repr__(self) -> str:
        return f"COUNT({self.row} in {self.table} where {self.where!r})"


def _drop_bound(mapping: Mapping[Term, Term], row_var: str) -> dict:
    """Remove substitutions that would capture a bound row variable."""
    return {
        key: value
        for key, value in mapping.items()
        if not (isinstance(key, RowAttr) and key.row == row_var)
    }


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula(Node):
    """Base class of all assertions."""

    def projectable(self) -> bool:
        """Whether :meth:`atom_set` fully describes this formula's env reads.

        True for every structural formula: evaluation looks up the
        environment only at free atoms.  False as soon as the tree contains
        an :class:`AbstractPred` — its opaque evaluator may read anything —
        which tells evaluation memos they must key on the whole environment.
        """
        return not opaque(self)

    def resources(self) -> frozenset[Resource]:
        """Database resources this assertion's truth can depend on (cached)."""
        cached = self.__dict__.get("_hc_resources")
        if cached is None:
            cached = frozenset(_resources_of_atoms(self.atoms())) | self._extra_resources()
            object.__setattr__(self, "_hc_resources", cached)
        return cached

    def _extra_resources(self) -> frozenset[Resource]:
        return frozenset()

    # boolean-algebra sugar
    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


def _resources_of_atoms(atoms: Iterator[Term]) -> set[Resource]:
    out: set[Resource] = set()
    for atom in atoms:
        if isinstance(atom, terms.Item):
            out.add(ScalarResource(atom.name))
        elif isinstance(atom, terms.Field):
            out.add(ArrayResource(atom.array, atom.attr))
        elif isinstance(atom, CountWhere):
            out |= atom.resources()
    return out


@dataclass(frozen=True)
class Top(Formula):
    """The trivially true assertion."""

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self, scope: tuple) -> Callable:
        return lambda state, env, frames: True

    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bottom(Formula):
    """The trivially false assertion."""

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self, scope: tuple) -> Callable:
        return lambda state, env, frames: False

    def __repr__(self) -> str:
        return "false"


TRUE = Top()
FALSE = Bottom()


@dataclass(frozen=True)
class Cmp(Formula):
    """A comparison between two terms of the same sort."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise SortError(f"unknown comparison operator {self.op!r}")
        if self.op not in ("==", "!=") and (self.left.sort == "str" or self.right.sort == "str"):
            raise SortError(f"ordering comparison on string terms: {self!r}")

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Cmp(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.left.atoms()
        yield from self.right.atoms()

    def _compile(self, scope: tuple) -> Callable:
        left, right, op = self.left._compile(scope), self.right._compile(scope), _CMP_OPS[self.op]
        return lambda state, env, frames: op(left(state, env, frames), right(state, env, frames))

    def negated(self) -> "Cmp":
        """The comparison asserting the opposite relation."""
        return Cmp(_NEGATED_OP[self.op], self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class BoolAtom(Formula):
    """A boolean-sorted term used directly as an assertion."""

    term: Term

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return BoolAtom(self.term.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.term.atoms()

    def _compile(self, scope: tuple) -> Callable:
        term = self.term._compile(scope)
        return lambda state, env, frames: bool(term(state, env, frames))

    def __repr__(self) -> str:
        return repr(self.term)


@dataclass(frozen=True)
class Not(Formula):
    """Logical negation."""

    operand: Formula

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Not(self.operand.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.operand.atoms()

    def _compile(self, scope: tuple) -> Callable:
        operand = self.operand._compile(scope)
        return lambda state, env, frames: not operand(state, env, frames)

    def _extra_resources(self) -> frozenset[Resource]:
        return self.operand._extra_resources()

    def __repr__(self) -> str:
        return f"!{self.operand!r}"


@dataclass(frozen=True)
class _Junction(Formula):
    """Common behaviour of the n-ary connectives."""

    operands: tuple[Formula, ...]

    #: the operand value that decides the connective, and is then its value
    _decides = False
    _keyword = "?"

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return type(self)(tuple(op.substitute(mapping) for op in self.operands))

    def atoms(self) -> Iterator[Term]:
        for op in self.operands:
            yield from op.atoms()

    def _compile(self, scope: tuple) -> Callable:
        operands, decides = [op._compile(scope) for op in self.operands], self._decides

        def junction(state, env, frames):
            for operand in operands:
                if bool(operand(state, env, frames)) is decides:
                    return decides
            return not decides

        return junction

    def _extra_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for op in self.operands:
            out |= op._extra_resources()
        return out

    def __repr__(self) -> str:
        return "(" + f" {self._keyword} ".join(repr(op) for op in self.operands) + ")"


@dataclass(frozen=True, repr=False)
class And(_Junction):
    """N-ary conjunction."""

    _keyword = "and"


@dataclass(frozen=True, repr=False)
class Or(_Junction):
    """N-ary disjunction."""

    _decides = True
    _keyword = "or"


@dataclass(frozen=True)
class Implies(Formula):
    """Logical implication."""

    premise: Formula
    conclusion: Formula

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Implies(self.premise.substitute(mapping), self.conclusion.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.premise.atoms()
        yield from self.conclusion.atoms()

    def _compile(self, scope: tuple) -> Callable:
        premise, conclusion = self.premise._compile(scope), self.conclusion._compile(scope)
        return lambda state, env, frames: (
            (not premise(state, env, frames)) or conclusion(state, env, frames)
        )

    def _extra_resources(self) -> frozenset[Resource]:
        return self.premise._extra_resources() | self.conclusion._extra_resources()

    def __repr__(self) -> str:
        return f"({self.premise!r} => {self.conclusion!r})"


@dataclass(frozen=True)
class _RowQuantifier(Formula):
    """Common behaviour of the bounded row quantifiers."""

    table: str
    row: str
    body: Formula
    where: Formula = TRUE

    #: the body value on a row satisfying ``where`` that decides the
    #: quantifier, and is then its value
    _decides = False
    _keyword = "?"

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        inner = _drop_bound(mapping, self.row)
        return type(self)(
            self.table, self.row, self.body.substitute(inner), self.where.substitute(inner)
        )

    def atoms(self) -> Iterator[Term]:
        for atom in self.body.atoms():
            if not (isinstance(atom, RowAttr) and atom.row == self.row):
                yield atom
        for atom in self.where.atoms():
            if not (isinstance(atom, RowAttr) and atom.row == self.row):
                yield atom

    def _compile(self, scope: tuple) -> Callable:
        table, decides, slot = self.table, self._decides, len(scope)
        inner = scope + (("row", self.row),)
        body, where = self.body._compile(inner), self.where._compile(inner)

        def quantifier(state, env, frames):
            for row in state.tables.get(table, ()):
                frames[slot] = row
                if where(state, env, frames) and bool(body(state, env, frames)) is decides:
                    return decides
            return not decides

        return quantifier

    def _extra_resources(self) -> frozenset[Resource]:
        out: set[Resource] = {TableResource(self.table)}
        for sub in (self.body, self.where):
            for atom in sub.atoms_with_bound():
                if isinstance(atom, RowAttr) and atom.row == self.row:
                    out.add(TableResource(self.table, atom.attr))
            out |= sub._extra_resources()
        return frozenset(out)

    def __repr__(self) -> str:
        if self.where == TRUE:
            return f"({self._keyword} {self.row} in {self.table}: {self.body!r})"
        return f"({self._keyword} {self.row} in {self.table} where {self.where!r}: {self.body!r})"


@dataclass(frozen=True, repr=False)
class ForAllRows(_RowQuantifier):
    """``for every row of table (satisfying where): body`` — bounded ∀."""

    _keyword = "forall"


@dataclass(frozen=True, repr=False)
class ExistsRow(_RowQuantifier):
    """``some row of table (satisfying where) has: body`` — bounded ∃."""

    _decides = True
    _keyword = "exists"


@dataclass(frozen=True)
class ForAllInts(Formula):
    """``for every integer v with low <= v <= high: body`` — bounded ∀.

    Used for business rules quantifying over value ranges, e.g. the paper's
    *no gaps* constraint over delivery dates.
    """

    var: str
    low: Term
    high: Term
    body: Formula

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        inner = {k: v for k, v in mapping.items() if k != BoundVar(self.var)}
        return ForAllInts(self.var, self.low.substitute(inner), self.high.substitute(inner), self.body.substitute(inner))

    def atoms(self) -> Iterator[Term]:
        yield from self.low.atoms()
        yield from self.high.atoms()
        for atom in self.body.atoms():
            if atom != BoundVar(self.var):
                yield atom

    def _compile(self, scope: tuple) -> Callable:
        low, high = self.low._compile(scope), self.high._compile(scope)
        slot, body = len(scope), self.body._compile(scope + (("int", self.var),))

        def for_all_ints(state, env, frames):
            lo = low(state, env, frames)
            hi = high(state, env, frames)
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise EvaluationError(f"non-integer bounds in {self!r}")
            for value in range(lo, hi + 1):
                frames[slot] = value
                if not body(state, env, frames):
                    return False
            return True

        return for_all_ints

    def _extra_resources(self) -> frozenset[Resource]:
        return self.body._extra_resources()

    def __repr__(self) -> str:
        return f"(forall {self.low!r} <= ${self.var} <= {self.high!r}: {self.body!r})"


@dataclass(frozen=True)
class InTable(Formula):
    """Tuple membership: some row of ``table`` matches every listed attribute."""

    table: str
    values: tuple[tuple[str, Term], ...]

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return InTable(self.table, tuple((attr, term.substitute(mapping)) for attr, term in self.values))

    def atoms(self) -> Iterator[Term]:
        for _attr, term in self.values:
            yield from term.atoms()

    def _compile(self, scope: tuple) -> Callable:
        table = self.table
        values = [(attr, term._compile(scope)) for attr, term in self.values]

        def in_table(state, env, frames):
            wanted = {attr: fn(state, env, frames) for attr, fn in values}.items()
            for row in state.tables.get(table, ()):
                if all(attr in row and row[attr] == value for attr, value in wanted):
                    return True
            return False

        return in_table

    def _extra_resources(self) -> frozenset[Resource]:
        out: set[Resource] = {TableResource(self.table)}
        for attr, _term in self.values:
            out.add(TableResource(self.table, attr))
        return frozenset(out)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{attr}={term!r}" for attr, term in self.values)
        return f"({pairs}) in {self.table}"


@dataclass(frozen=True)
class AbstractPred(Formula):
    """A named abstract specification clause with a declared footprint.

    Some annotation clauses in the paper are stated in prose ("Labels have
    been printed", "returned values are undelivered orders").  They are kept
    symbolic here: ``reads`` declares the database resources the clause
    depends on (the empty set for pure output clauses, which therefore can
    never be interfered with), and ``evaluator``, when given, makes the
    clause checkable by the bounded model checker and the dynamic semantic
    checker.  The evaluator receives ``(state, env)``.
    """

    name: str
    reads: frozenset[Resource] = frozenset()
    evaluator: Callable[["DbState", Env], bool] | None = field(default=None, compare=False)

    # Interning keys on equality, and equality ignores ``evaluator``; an
    # interned AbstractPred would silently swap one predicate's evaluator
    # for another's.  Construction stays un-interned for this class and
    # for every node above one (see :func:`repro.core.terms.opaque`).
    _hc_intern = False

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self, scope: tuple) -> Callable:
        evaluator, name, binders = self.evaluator, self.name, list(enumerate(scope))

        def abstract(state, env, frames):
            if evaluator is None:
                raise EvaluationError(f"abstract predicate {name!r} has no evaluator")
            if binders:
                env = _materialise(env, binders, frames)
            return evaluator(state, env)

        return abstract

    def _extra_resources(self) -> frozenset[Resource]:
        return frozenset(self.reads)

    def __repr__(self) -> str:
        return f"<{self.name}>"


def _materialise(env: Env, binders: list, frames: dict) -> Env:
    """``env`` plus every enclosing binder's row attributes (all sorts) or
    integer, keyed as terms; inner binders shadow outer ones."""
    extended = dict(env)
    for slot, (kind, name) in binders:
        value = frames[slot]
        if kind == "int":
            extended[BoundVar(name)] = value
            continue
        for attr, attr_value in value.items():
            for sort in ("int", "bool", "str"):
                extended[RowAttr(name, attr, sort)] = attr_value
    return extended


# ---------------------------------------------------------------------------
# constructors and traversal helpers
# ---------------------------------------------------------------------------


def _atoms_with_bound(formula: Formula) -> Iterator[Term]:
    """Like :meth:`Formula.atoms` but includes bound row attributes."""
    if isinstance(formula, (ForAllRows, ExistsRow)):
        yield from _atoms_with_bound(formula.body)
        yield from _atoms_with_bound(formula.where)
    elif isinstance(formula, ForAllInts):
        yield from formula.low.atoms()
        yield from formula.high.atoms()
        yield from _atoms_with_bound(formula.body)
    elif isinstance(formula, Not):
        yield from _atoms_with_bound(formula.operand)
    elif isinstance(formula, (And, Or)):
        for op in formula.operands:
            yield from _atoms_with_bound(op)
    elif isinstance(formula, Implies):
        yield from _atoms_with_bound(formula.premise)
        yield from _atoms_with_bound(formula.conclusion)
    else:
        yield from formula.atoms()


# expose as a method so quantifier footprints can see nested bound attrs
Formula.atoms_with_bound = _atoms_with_bound  # type: ignore[attr-defined]


def cmp(op: str, left, right) -> Cmp:
    """Build a comparison, lifting Python literals to constant terms."""
    return Cmp(op, coerce(left), coerce(right))


def eq(left, right) -> Cmp:
    return cmp("==", left, right)


def ne(left, right) -> Cmp:
    return cmp("!=", left, right)


def lt(left, right) -> Cmp:
    return cmp("<", left, right)


def le(left, right) -> Cmp:
    return cmp("<=", left, right)


def gt(left, right) -> Cmp:
    return cmp(">", left, right)


def ge(left, right) -> Cmp:
    return cmp(">=", left, right)


def conj(*operands: Formula) -> Formula:
    """N-ary conjunction with flattening and unit simplification."""
    flat: list[Formula] = []
    for op in operands:
        if isinstance(op, And):
            flat.extend(op.operands)
        elif isinstance(op, Bottom):
            return FALSE
        elif not isinstance(op, Top):
            flat.append(op)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*operands: Formula) -> Formula:
    """N-ary disjunction with flattening and unit simplification."""
    flat: list[Formula] = []
    for op in operands:
        if isinstance(op, Or):
            flat.extend(op.operands)
        elif isinstance(op, Top):
            return TRUE
        elif not isinstance(op, Bottom):
            flat.append(op)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(premise: Formula, conclusion: Formula) -> Formula:
    if isinstance(premise, Top):
        return conclusion
    if isinstance(premise, Bottom) or isinstance(conclusion, Top):
        return TRUE
    return Implies(premise, conclusion)


def conjuncts(formula: Formula) -> Sequence[Formula]:
    """Top-level conjuncts of a formula (the formula itself if not an And)."""
    if isinstance(formula, And):
        return formula.operands
    if isinstance(formula, Top):
        return ()
    return (formula,)
