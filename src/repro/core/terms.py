"""Typed expression terms for the assertion and program language.

The paper models transactions over two kinds of stores:

* a *conventional* database of named items and record arrays (Sections 3, 6
  use ``acct_sav[i].bal``-style references), and
* a *relational* database of tables accessed through predicates (Section 4).

Terms are immutable trees.  Atomic reference terms come in five flavours:

``Local``
    a variable in the transaction's private workspace (``Sav``, ``maxdate``);
``Param``
    a transaction parameter, rigid for the duration of the transaction
    (``i``, ``w``, ``customer``);
``LogicalVar``
    a rigid logical variable used to record an initial value, the paper's
    ``X_i`` in triple (1) (``BAL``, ``Sav0``);
``Item``
    a named scalar database item (``maximum_date``);
``Field``
    an element of a record array, optionally a named attribute of the record
    (``acct_sav[i].bal``).

Compound terms cover integer arithmetic.  Relational terms (row attributes,
``COUNT(*)`` aggregates) live in :mod:`repro.core.formula` because they embed
formulas; they subclass :class:`Term` so everything composes.

Every term supports three generic operations used throughout the library:

* :meth:`Term.substitute` — capture-free syntactic substitution of atomic
  reference terms (the workhorse of strongest-postcondition computation);
* :meth:`Term.atoms` — the set of atomic reference terms occurring in the
  term (used for footprint and interference analysis);
* :meth:`Term.evaluate` — concrete evaluation against a database state and a
  variable environment (used by the bounded model checker and the dynamic
  semantic-correctness checker).  A tree is compiled once, on its first
  evaluation, into one closure (:meth:`Term.compiled`); terms and formulas
  share this one evaluator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Union

from repro.errors import EvaluationError, SortError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.state import DbState

#: Concrete values terms evaluate to.
Value = Union[int, bool, str]

# ---------------------------------------------------------------------------
# hash-consing
# ---------------------------------------------------------------------------

#: Global switch; benchmarks flip it off to measure the un-consed baseline.
HASH_CONSING = True

#: Per-class intern-table capacity.  Past the cap construction stops
#: interning (the table is never cleared, so existing identities and any
#: identity-based fast paths stay valid).
_INTERN_CAP = 1 << 20


class HashConsMeta(type):
    """Metaclass interning instances per concrete class (hash-consing).

    Structurally equal nodes become identity-equal, which turns the deep
    structural hashing and equality of memo-table probes into pointer work:
    the structural hash is computed once and cached on the instance
    (``_hc_hash``), and dict probes against interned nodes hit the identity
    fast path of ``==``.  Classes with ``_hc_intern = False`` (e.g.
    ``AbstractPred``, whose ``evaluator`` field is excluded from equality,
    so interning would conflate predicates with different evaluators) are
    never interned but still get the cached hash, and neither is any node
    whose subtree holds one (:func:`opaque`): an interned ``Not(p1)`` would
    otherwise be handed out for an equal ``Not(p2)`` and evaluate ``p1``.
    """

    def __call__(cls, *args, **kwargs):
        if "_hc_ready" not in cls.__dict__:
            _prepare_hashcons_class(cls)
        obj = super().__call__(*args, **kwargs)
        if not HASH_CONSING or not cls._hc_intern:
            return obj
        table = cls.__dict__["_hc_table"]
        interned = table.get(obj)
        if interned is not None:
            return interned
        if len(table) < _INTERN_CAP and not opaque(obj):
            table[obj] = obj
        return obj


def opaque(node) -> bool:
    """Whether ``node``'s subtree holds a never-interned node, cached.

    Equal nodes agree on this (equality is structural), so an opaque node
    can never hit an intern-table entry, and leaving it out of the table is
    all it takes to keep it unshared.
    """
    flag = node.__dict__.get("_hc_opaque")
    if flag is None:
        flag = not type(node)._hc_intern
        stack = [getattr(node, f.name) for f in fields(node)]
        while stack and not flag:
            value = stack.pop()
            if isinstance(value, tuple):
                stack.extend(value)
            elif isinstance(type(value), HashConsMeta):
                flag = opaque(value)
        object.__setattr__(node, "_hc_opaque", flag)
    return flag


def _prepare_hashcons_class(cls) -> None:
    """Install the caching ``__hash__`` wrapper on first instantiation.

    The dataclass decorator runs *after* the metaclass creates the class,
    so the generated field-based ``__hash__`` can only be wrapped lazily.
    """
    generated = cls.__hash__

    def cached_hash(self, _orig=generated):
        try:
            return self._hc_hash
        except AttributeError:
            h = _orig(self)
            object.__setattr__(self, "_hc_hash", h)
            return h

    cls.__hash__ = cached_hash
    cls._hc_table = {}
    cls._hc_ready = True


def hashcons_stats() -> dict:
    """Sizes of every intern table (for diagnostics and tests)."""
    out: dict = {}
    for sub in _all_subclasses(Node):
        table = sub.__dict__.get("_hc_table")
        if table:
            out[sub.__name__] = len(table)
    return out


def clear_hashcons_tables() -> None:
    """Drop every intern table (benchmarking/test isolation only).

    Nodes interned earlier stay alive wherever they are referenced and
    remain structurally equal to newly built ones; only the identity
    guarantee for *future* constructions is reset.
    """
    for sub in _all_subclasses(Node):
        table = sub.__dict__.get("_hc_table")
        if table is not None:
            table.clear()


def _all_subclasses(cls) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _all_subclasses(sub)


#: Environment mapping atomic reference terms (``Local``/``Param``/
#: ``LogicalVar``) to concrete values.  Keyed by the term itself, which is
#: hashable because all terms are frozen dataclasses.
Env = Mapping["Term", Value]

_INT = "int"
_BOOL = "bool"
_STR = "str"


@dataclass(frozen=True)
class Node(metaclass=HashConsMeta):
    """Base class of terms and formulas: immutable, hash-consed trees."""

    _hc_intern = True

    def substitute(self, mapping: Mapping["Term", "Term"]) -> "Node":
        """Replace syntactic occurrences of atomic reference terms.

        ``mapping`` maps atomic reference terms to replacement terms.  The
        substitution is simultaneous, purely syntactic and capture-free: a
        ``Field`` whose index mentions a substituted ``Param`` has the index
        rewritten, and a ``Field`` that is itself a key in ``mapping`` is
        replaced wholesale (index rewriting is applied first, then
        whole-term lookup); a quantifier's bound row attributes are never
        replaced.

        Returns ``self`` (identity-preserving) when no key of ``mapping``
        occurs free in the tree, without traversing it.
        """
        if self.atom_set().isdisjoint(mapping):
            return self
        return self._substitute(mapping)

    def _substitute(self, mapping: Mapping["Term", "Term"]) -> "Node":
        """Per-class substitution body; only called when atoms intersect."""
        raise NotImplementedError

    def atoms(self) -> Iterator["Term"]:
        """Yield every free atomic reference term occurring in this tree."""
        raise NotImplementedError

    def atom_set(self) -> frozenset:
        """The free atoms of this tree as a set, computed once and cached."""
        cached = self.__dict__.get("_hc_atoms")
        if cached is None:
            cached = frozenset(self.atoms())
            object.__setattr__(self, "_hc_atoms", cached)
        return cached

    def evaluate(self, state: "DbState", env: Env) -> Value:
        """Evaluate against a concrete database state and environment."""
        try:
            fn = self.__dict__["_hc_compiled"][None]
        except KeyError:
            fn = self.compiled()
        return fn(state, env, {})

    def compiled(self, row: str | None = None) -> Callable:
        """This tree as one closure ``fn(state, env, frames)``.

        ``frames`` maps slots to values: every binder below the root (row
        quantifiers, ``COUNT``, integer quantifiers) writes its current row
        or integer into the slot of its nesting depth, fixed at compile
        time.  With ``row`` given, that row variable is bound to slot 0 (a
        statement's WHERE or SET clause).  Compiled once per ``row`` and
        cached on the node.
        """
        cache = self.__dict__.setdefault("_hc_compiled", {})
        fn = cache.get(row)
        if fn is None:
            fn = cache[row] = self._compile(() if row is None else (("row", row),))
        return fn

    def _compile(self, scope: tuple) -> Callable:
        """Per-class compilation body.

        ``scope[i]`` is the ``(kind, name)`` of the binder whose value slot
        ``i`` holds, outermost first: ``("row", row_var)`` or ``("int", var)``.
        """
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable structural digest, cached on the node (see :mod:`repro.core.cache`)."""
        cached = self.__dict__.get("_hc_fp")
        if cached is not None:
            return cached
        from repro.core.cache import fingerprint

        return fingerprint(self)

    def __getstate__(self) -> dict:
        # The cached structural hash must not cross process boundaries
        # (string hashing is per-process salted via PYTHONHASHSEED), and the
        # other _hc_* caches are cheap to recompute; strip them all.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_hc_")}


@dataclass(frozen=True)
class Term(Node):
    """Base class of all expression terms."""

    @property
    def sort(self) -> str:
        """The sort of this term: ``"int"``, ``"bool"`` or ``"str"``."""
        raise NotImplementedError

    # -- convenience constructors -----------------------------------------
    def __add__(self, other: "Term | int") -> "Add":
        return Add(self, _coerce(other))

    def __sub__(self, other: "Term | int") -> "Sub":
        return Sub(self, _coerce(other))

    def __mul__(self, other: "Term | int") -> "Mul":
        return Mul(self, _coerce(other))

    def __neg__(self) -> "Neg":
        return Neg(self)


def slots_of(scope: tuple, binder: tuple) -> list:
    """The slots ``binder`` is bound to in ``scope``, innermost first."""
    return [slot for slot in range(len(scope) - 1, -1, -1) if scope[slot] == binder]


def env_lookup(node: Term, message: str) -> Callable:
    """The closure reading ``node`` from the environment."""

    def lookup(state, env, frames):
        try:
            return env[node]
        except KeyError:
            raise EvaluationError(message)

    return lookup


def _coerce(value: "Term | int | bool | str") -> Term:
    """Lift a Python literal into a constant term; pass terms through."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    if isinstance(value, int):
        return IntConst(value)
    if isinstance(value, str):
        return StrConst(value)
    raise SortError(f"cannot coerce {value!r} into a term")


def coerce(value: "Term | int | bool | str") -> Term:
    """Public alias of the literal-lifting helper used across the package."""
    return _coerce(value)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Const(Term):
    """Common behaviour of literals."""

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self, scope: tuple) -> Callable:
        value = self.value
        return lambda state, env, frames: value


@dataclass(frozen=True)
class IntConst(_Const):
    """An integer literal."""

    value: int

    @property
    def sort(self) -> str:
        return _INT

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class BoolConst(_Const):
    """A boolean literal."""

    value: bool

    @property
    def sort(self) -> str:
        return _BOOL

    def __repr__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class StrConst(_Const):
    """A string literal (used for names, addresses, status fields)."""

    value: str

    @property
    def sort(self) -> str:
        return _STR

    def __repr__(self) -> str:
        return repr(self.value)


# ---------------------------------------------------------------------------
# atomic reference terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Ref(Term):
    """Common behaviour of atomic reference terms."""

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return mapping.get(self, self)

    def atoms(self) -> Iterator[Term]:
        yield self

    #: what an unbound reference is called in its evaluation error
    _unbound = "reference"

    def _compile(self, scope: tuple) -> Callable:
        return env_lookup(self, f"unbound {self._unbound} {self.name!r}")


@dataclass(frozen=True)
class Local(_Ref):
    """A workspace (local) variable of a transaction program."""

    name: str
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    _unbound = "local variable"

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Param(_Ref):
    """A transaction parameter; rigid during the transaction's execution."""

    name: str
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    _unbound = "parameter"

    def __repr__(self) -> str:
        return f":{self.name}"


@dataclass(frozen=True)
class LogicalVar(_Ref):
    """A rigid logical variable recording an initial value (paper's ``X_i``)."""

    name: str
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    _unbound = "logical variable"

    def __repr__(self) -> str:
        return self.name.upper()


@dataclass(frozen=True)
class Item(_Ref):
    """A named scalar database item (conventional database model)."""

    name: str
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    def _compile(self, scope: tuple) -> Callable:
        name = self.name
        return lambda state, env, frames: state.read_item(name)

    def __repr__(self) -> str:
        return f"db:{self.name}"


@dataclass(frozen=True)
class Field(Term):
    """An array-element reference, e.g. ``acct_sav[i].bal``.

    ``attr`` may be ``None`` for arrays of plain values.  The index is an
    arbitrary integer term (typically a :class:`Param` or a constant).
    """

    array: str
    index: Term
    attr: str | None = None
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        rewritten = Field(self.array, self.index.substitute(mapping), self.attr, self.var_sort)
        return mapping.get(rewritten, rewritten)

    def atoms(self) -> Iterator[Term]:
        yield self
        yield from self.index.atoms()

    def _compile(self, scope: tuple) -> Callable:
        index_fn, array, attr = self.index._compile(scope), self.array, self.attr

        def field(state, env, frames):
            index = index_fn(state, env, frames)
            if not isinstance(index, int):
                raise EvaluationError(f"array index of {self!r} is not an integer")
            return state.read_field(array, index, attr)

        return field

    def __repr__(self) -> str:
        suffix = f".{self.attr}" if self.attr is not None else ""
        return f"{self.array}[{self.index!r}]{suffix}"


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BinOp(Term):
    """Common behaviour of binary integer operators."""

    left: Term
    right: Term

    _symbol = "?"

    @property
    def sort(self) -> str:
        return _INT

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return type(self)(self.left.substitute(mapping), self.right.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.left.atoms()
        yield from self.right.atoms()

    #: the integer operation (a builtin, so it does not bind as a method)
    _op = None

    def _compile(self, scope: tuple) -> Callable:
        left, right, op = self.left._compile(scope), self.right._compile(scope), self._op

        def binop(state, env, frames):
            lhs = left(state, env, frames)
            rhs = right(state, env, frames)
            if not isinstance(lhs, int) or not isinstance(rhs, int):
                raise EvaluationError(f"non-integer operand in {self!r}")
            return op(lhs, rhs)

        return binop

    def __repr__(self) -> str:
        return f"({self.left!r} {self._symbol} {self.right!r})"


@dataclass(frozen=True)
class Add(_BinOp):
    """Integer addition."""

    _symbol = "+"
    _op = operator.add


@dataclass(frozen=True)
class Sub(_BinOp):
    """Integer subtraction."""

    _symbol = "-"
    _op = operator.sub


@dataclass(frozen=True)
class Mul(_BinOp):
    """Integer multiplication."""

    _symbol = "*"
    _op = operator.mul


@dataclass(frozen=True)
class Neg(Term):
    """Integer negation."""

    operand: Term

    @property
    def sort(self) -> str:
        return _INT

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return Neg(self.operand.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.operand.atoms()

    def _compile(self, scope: tuple) -> Callable:
        operand = self.operand._compile(scope)

        def neg(state, env, frames):
            value = operand(state, env, frames)
            if not isinstance(value, int):
                raise EvaluationError(f"non-integer operand in {self!r}")
            return -value

        return neg

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def is_rigid(term: Term) -> bool:
    """True if the term cannot change during any transaction's execution.

    Constants, parameters and logical variables are rigid; locals are rigid
    with respect to *other* transactions (no transaction can write another's
    workspace) but not with respect to the owning transaction.
    """
    if isinstance(term, (IntConst, BoolConst, StrConst, Param, LogicalVar)):
        return True
    if isinstance(term, (Add, Sub, Mul)):
        return is_rigid(term.left) and is_rigid(term.right)
    if isinstance(term, Neg):
        return is_rigid(term.operand)
    return False


def references_database(term: Term) -> bool:
    """True if evaluating the term touches the database state."""
    return any(isinstance(atom, (Item, Field)) for atom in term.atoms())

