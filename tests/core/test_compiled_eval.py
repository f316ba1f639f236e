"""The compiled evaluator against an independent recursive reference.

``reference`` below re-implements concrete evaluation the direct way: it
walks the tree and binds every quantified row by copying the environment
with one ``RowAttr`` key per attribute and sort, and every quantified
integer with one ``BoundVar`` key.  The library compiles each tree into
closures over frame slots instead; both must agree on every value and on
every evaluation error, message included.
"""

from __future__ import annotations

import functools
import operator
import pickle

from hypothesis import example, given, settings, strategies as st

from repro.core.formula import (
    AbstractPred,
    And,
    BoolAtom,
    Bottom,
    BoundVar,
    Cmp,
    CountWhere,
    ExistsRow,
    ForAllInts,
    ForAllRows,
    Implies,
    InTable,
    Not,
    Or,
    RowAttr,
    TRUE,
    Top,
    eq,
    ge,
)
from repro.core.state import DbState
from repro.core.terms import (
    Add,
    BoolConst,
    Field,
    IntConst,
    Item,
    Local,
    LogicalVar,
    Mul,
    Neg,
    Param,
    StrConst,
    Sub,
)
from repro.errors import EvaluationError

# ---------------------------------------------------------------------------
# the reference evaluator
# ---------------------------------------------------------------------------

_CMP = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_UNBOUND = {
    Local: "local variable",
    Param: "parameter",
    LogicalVar: "logical variable",
}


def _bind(env: dict, row_var: str, row: dict) -> dict:
    extended = dict(env)
    for attr, value in row.items():
        for sort in ("int", "bool", "str"):
            extended[RowAttr(row_var, attr, sort)] = value
    return extended


def _int_operand(value, node):
    if not isinstance(value, int):
        raise EvaluationError(f"non-integer operand in {node!r}")
    return value


def reference(node, state: DbState, env: dict):
    """Evaluate ``node`` by recursion over the tree, env-copy binding."""
    if isinstance(node, (IntConst, BoolConst, StrConst)):
        return node.value
    if type(node) in _UNBOUND:
        if node not in env:
            raise EvaluationError(f"unbound {_UNBOUND[type(node)]} {node.name!r}")
        return env[node]
    if isinstance(node, RowAttr):
        if node not in env:
            raise EvaluationError(f"unbound row attribute {node.row}.{node.attr}")
        return env[node]
    if isinstance(node, BoundVar):
        if node not in env:
            raise EvaluationError(f"unbound quantified variable {node.name!r}")
        return env[node]
    if isinstance(node, Item):
        if node.name not in state.items:
            raise EvaluationError(f"unknown database item {node.name!r}")
        return state.items[node.name]
    if isinstance(node, Field):
        index = reference(node.index, state, env)
        if not isinstance(index, int):
            raise EvaluationError(f"array index of {node!r} is not an integer")
        return state.read_field(node.array, index, node.attr)
    if isinstance(node, (Add, Sub, Mul)):
        lhs = reference(node.left, state, env)
        rhs = reference(node.right, state, env)
        lhs, rhs = _int_operand(lhs, node), _int_operand(rhs, node)
        if isinstance(node, Add):
            return lhs + rhs
        return lhs - rhs if isinstance(node, Sub) else lhs * rhs
    if isinstance(node, Neg):
        return -_int_operand(reference(node.operand, state, env), node)
    if isinstance(node, CountWhere):
        return sum(
            1
            for row in state.tables.get(node.table, ())
            if reference(node.where, state, _bind(env, node.row, row))
        )
    if isinstance(node, Top):
        return True
    if isinstance(node, Bottom):
        return False
    if isinstance(node, Cmp):
        lhs = reference(node.left, state, env)
        rhs = reference(node.right, state, env)
        return _CMP[node.op](lhs, rhs)
    if isinstance(node, BoolAtom):
        return bool(reference(node.term, state, env))
    if isinstance(node, Not):
        return not reference(node.operand, state, env)
    if isinstance(node, And):
        return all(reference(op, state, env) for op in node.operands)
    if isinstance(node, Or):
        return any(reference(op, state, env) for op in node.operands)
    if isinstance(node, Implies):
        return (not reference(node.premise, state, env)) or reference(
            node.conclusion, state, env
        )
    if isinstance(node, (ForAllRows, ExistsRow)):
        for row in state.tables.get(node.table, ()):
            bound = _bind(env, node.row, row)
            if reference(node.where, state, bound):
                holds = reference(node.body, state, bound)
                if isinstance(node, ForAllRows) and not holds:
                    return False
                if isinstance(node, ExistsRow) and holds:
                    return True
        return isinstance(node, ForAllRows)
    if isinstance(node, ForAllInts):
        low = reference(node.low, state, env)
        high = reference(node.high, state, env)
        if not isinstance(low, int) or not isinstance(high, int):
            raise EvaluationError(f"non-integer bounds in {node!r}")
        return all(
            reference(node.body, state, {**env, BoundVar(node.var): value})
            for value in range(low, high + 1)
        )
    if isinstance(node, InTable):
        wanted = {attr: reference(term, state, env) for attr, term in node.values}
        return any(
            all(attr in row and row[attr] == value for attr, value in wanted.items())
            for row in state.tables.get(node.table, ())
        )
    if isinstance(node, AbstractPred):
        if node.evaluator is None:
            raise EvaluationError(f"abstract predicate {node.name!r} has no evaluator")
        return node.evaluator(state, env)
    raise AssertionError(f"no reference semantics for {node!r}")


def outcome(evaluate):
    """``("value", type, value)`` or ``("error", message)``."""
    try:
        value = evaluate()
    except EvaluationError as exc:
        return ("error", str(exc))
    return ("value", type(value), value)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

ROW_VARS = ("r", "s")
TABLES = ("T", "U")
OPS = ("==", "!=", "<", "<=", ">", ">=")
#: a string-valued parameter: a non-integer index, operand or bound
STR = Param("z", "str")

#: reads bound row attributes and integers through a materialised env
ROW_K_IS_ONE = AbstractPred(
    "r.k is one", evaluator=lambda state, env: env.get(RowAttr("r", "k")) == 1
)
D_IS_SMALL = AbstractPred(
    "d is small", evaluator=lambda state, env: env.get(BoundVar("d"), 0) < 2
)
NO_EVALUATOR = AbstractPred("unevaluable")

small_ints = st.integers(min_value=-1, max_value=3)
attrs = st.sampled_from(("k", "v"))
rows = st.lists(
    st.fixed_dictionaries({"k": st.integers(0, 2)}, optional={"v": small_ints}),
    max_size=3,
)
states = st.builds(
    lambda items, elems, t_rows, u_rows: DbState(
        items=items, arrays={"a": elems}, tables={"T": t_rows, "U": u_rows}
    ),
    st.fixed_dictionaries({}, optional={"x": small_ints}),
    st.dictionaries(
        st.integers(0, 2), st.fixed_dictionaries({}, optional={"v": small_ints}), max_size=3
    ),
    rows,
    rows,
)
envs = st.fixed_dictionaries(
    {Param("p"): small_ints, STR: st.just("zz")},
    optional={
        Local("l"): small_ints,
        RowAttr("r", "v"): small_ints,
        RowAttr("s", "k"): small_ints,
        BoundVar("d"): small_ints,
    },
)

leaf_terms = st.one_of(
    small_ints.map(IntConst),
    st.sampled_from((Param("p"), Local("l"), Item("x"), BoundVar("d"))),
    st.builds(RowAttr, st.sampled_from(ROW_VARS), attrs),
)


@functools.lru_cache(maxsize=None)
def terms(depth: int):
    if depth == 0:
        return leaf_terms
    sub, inner = terms(depth - 1), formulas(depth - 1)
    return st.one_of(
        leaf_terms,
        st.builds(Add, sub, st.one_of(sub, st.just(STR))),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Neg, sub),
        st.builds(Field, st.just("a"), st.one_of(sub, st.just(STR)), st.just("v")),
        st.builds(CountWhere, st.sampled_from(TABLES), st.sampled_from(ROW_VARS), inner),
    )


bounds = st.one_of(
    small_ints.map(IntConst),
    st.sampled_from((Param("p"), Item("x"), BoundVar("d"), STR)),
    st.builds(RowAttr, st.sampled_from(ROW_VARS), attrs),
)


@functools.lru_cache(maxsize=None)
def formulas(depth: int):
    leaves = st.one_of(
        st.sampled_from((TRUE, ROW_K_IS_ONE, D_IS_SMALL, NO_EVALUATOR)),
        st.builds(Cmp, st.sampled_from(OPS), leaf_terms, leaf_terms),
        st.builds(eq, st.just(STR), leaf_terms),
        st.builds(BoolAtom, st.builds(RowAttr, st.sampled_from(ROW_VARS), attrs, st.just("bool"))),
    )
    if depth == 0:
        return leaves
    sub, sub_terms = formulas(depth - 1), terms(depth - 1)
    tables, row_vars = st.sampled_from(TABLES), st.sampled_from(ROW_VARS)
    return st.one_of(
        leaves,
        st.builds(Cmp, st.sampled_from(OPS), sub_terms, sub_terms),
        st.builds(Not, sub),
        st.builds(lambda ops: And(tuple(ops)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(lambda ops: Or(tuple(ops)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(Implies, sub, sub),
        st.builds(ForAllRows, tables, row_vars, sub, st.one_of(st.just(TRUE), sub)),
        st.builds(ExistsRow, tables, row_vars, sub, st.one_of(st.just(TRUE), sub)),
        st.builds(ForAllInts, st.just("d"), bounds, bounds, sub),
        st.builds(lambda table, term: InTable(table, (("k", term),)), tables, sub_terms),
    )


# ---------------------------------------------------------------------------
# named cases
# ---------------------------------------------------------------------------

STATE = DbState(
    items={"x": 1},
    arrays={"a": {0: {"v": 5}, 1: {"v": 6}}},
    tables={"T": [{"k": 1, "v": 0}, {"k": 2}], "U": [{"k": 1}, {"k": 2, "v": 2}]},
)
ENV = {Param("p"): 1, STR: "zz", RowAttr("r", "v"): 9}

#: a nested binder shadowing the same row variable
SHADOWED = ForAllRows("T", "r", ExistsRow("U", "r", eq(RowAttr("r", "k"), 1)))
#: a COUNT reading the row of the quantifier around it
OUTER_ROW_COUNT = ForAllRows(
    "T", "r", ge(CountWhere("U", "s", eq(RowAttr("s", "k"), RowAttr("r", "k"))), 1)
)
#: the inner U row lacks ``v``: the outer T row's ``v`` shows through
MISSING_ATTR_SHADOW = ExistsRow("T", "r", ExistsRow("U", "r", eq(RowAttr("r", "v"), 0)))
#: no binder has ``v``: the environment's ``r.v`` is read
MISSING_ATTR_ENV = ForAllRows("T", "r", ge(RowAttr("r", "v"), 0), where=eq(RowAttr("r", "k"), 2))
INTS_IN_ROWS = ForAllRows(
    "T", "r", ForAllInts("d", IntConst(0), RowAttr("r", "k"), ge(RowAttr("r", "k"), BoundVar("d")))
)
COMPUTED_INDEX = eq(Field("a", Sub(Param("p"), IntConst(1)), "v"), 5)
PRED_UNDER_BINDER = ExistsRow("T", "r", And((ROW_K_IS_ONE, ForAllInts("d", IntConst(0), IntConst(1), D_IS_SMALL))))
UNBOUND_LOCAL = eq(Local("l"), 1)
NON_INT_INDEX = eq(Field("a", STR, "v"), 1)
NON_INT_BOUNDS = ForAllInts("d", IntConst(0), STR, TRUE)
NO_EVALUATOR_UNDER_BINDER = ForAllRows("T", "r", NO_EVALUATOR)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(formulas(3), states, envs)
    @example(SHADOWED, STATE, ENV)
    @example(OUTER_ROW_COUNT, STATE, ENV)
    @example(MISSING_ATTR_SHADOW, STATE, ENV)
    @example(MISSING_ATTR_ENV, STATE, ENV)
    @example(INTS_IN_ROWS, STATE, ENV)
    @example(COMPUTED_INDEX, STATE, ENV)
    @example(PRED_UNDER_BINDER, STATE, ENV)
    @example(UNBOUND_LOCAL, STATE, ENV)
    @example(NON_INT_INDEX, STATE, ENV)
    @example(NON_INT_BOUNDS, STATE, ENV)
    @example(NO_EVALUATOR_UNDER_BINDER, STATE, ENV)
    def test_formulas(self, formula, state, env):
        expected = outcome(lambda: reference(formula, state, env))
        assert outcome(lambda: formula.evaluate(state, env)) == expected
        # a second evaluation runs the cached closure
        assert outcome(lambda: formula.evaluate(state, env)) == expected

    @settings(max_examples=200, deadline=None)
    @given(terms(3), states, envs)
    def test_terms(self, term, state, env):
        expected = outcome(lambda: reference(term, state, env))
        assert outcome(lambda: term.evaluate(state, env)) == expected

    @settings(max_examples=200, deadline=None)
    @given(formulas(2), rows, envs)
    def test_statement_row_in_slot_zero(self, formula, row_list, env):
        """A WHERE clause compiled with its row variable bound to slot 0."""
        fn = formula.compiled("r")
        for row in row_list:
            frames = {0: row}
            expected = outcome(lambda: reference(formula, STATE, _bind(env, "r", row)))
            assert outcome(lambda: fn(STATE, env, frames)) == expected


class TestNamedCases:
    def test_shadowing_binder_reads_the_inner_row(self):
        assert SHADOWED.evaluate(STATE, ENV) is True
        assert outcome(lambda: MISSING_ATTR_SHADOW.evaluate(STATE, ENV)) == ("value", bool, True)

    def test_missing_attribute_falls_back_to_the_environment(self):
        assert MISSING_ATTR_ENV.evaluate(STATE, ENV) is True
        assert MISSING_ATTR_ENV.evaluate(STATE, {**ENV, RowAttr("r", "v"): -1}) is False

    def test_errors_are_the_reference_errors(self):
        for node, message in (
            (UNBOUND_LOCAL, "unbound local variable 'l'"),
            (NON_INT_INDEX, "array index of a[:z].v is not an integer"),
            (NON_INT_BOUNDS, "non-integer bounds in"),
            (NO_EVALUATOR_UNDER_BINDER, "abstract predicate 'unevaluable' has no evaluator"),
        ):
            got = outcome(lambda: node.evaluate(STATE, ENV))
            assert got == outcome(lambda: reference(node, STATE, ENV))
            assert got[0] == "error" and got[1].startswith(message)


class TestPickle:
    def test_compiled_caches_do_not_cross_pickle(self):
        formula = OUTER_ROW_COUNT
        term = Add(Field("a", Param("p"), "v"), CountWhere("T", "r", TRUE))
        assert formula.evaluate(STATE, ENV) is True
        assert term.evaluate(STATE, ENV) == 8
        for node in (formula, term):
            assert "_hc_compiled" in node.__dict__
            field_names = set(node.__dataclass_fields__)
            # every cache lives under an _hc_* name, which pickling strips
            assert all(
                key in field_names or key.startswith("_hc_") for key in node.__dict__
            )
            restored = pickle.loads(pickle.dumps(node))
            assert restored == node
            assert not any(key.startswith("_hc_") for key in restored.__dict__)
        assert pickle.loads(pickle.dumps(formula)).evaluate(STATE, ENV) is True
        assert pickle.loads(pickle.dumps(term)).evaluate(STATE, ENV) == 8
