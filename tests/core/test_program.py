"""Unit tests for the transaction-program IR."""

import pytest

from repro.core.formula import (
    CountWhere,
    ExistsRow,
    InTable,
    RowAttr,
    TRUE,
    conj,
    eq,
    ge,
    gt,
    lt,
    ne,
)
from repro.core.program import (
    LOOP_FUEL,
    Delete,
    ForEach,
    If,
    Insert,
    LocalAssign,
    Read,
    ReadRecord,
    Select,
    SelectCount,
    SelectScalar,
    TransactionType,
    Update,
    While,
    Write,
    execute,
)
from repro.core.resources import ArrayResource, ScalarResource, TableResource
from repro.core.state import DbState
from repro.core.terms import BoolConst, Field, IntConst, Item, Local, LogicalVar, Param
from repro.errors import EvaluationError, ProgramError


@pytest.fixture
def state():
    return DbState(
        items={"x": 5, "max": 2},
        arrays={"emp": {0: {"rate": 2, "hrs": 3}}},
        tables={"T": [{"k": 1, "done": False}, {"k": 2, "done": False}]},
    )


class TestStatementValidation:
    def test_read_source_must_be_database_ref(self):
        with pytest.raises(ProgramError):
            Read(Local("v"), Local("w"))

    def test_write_target_must_be_database_ref(self):
        with pytest.raises(ProgramError):
            Write(Local("v"), IntConst(1))

    def test_write_value_cannot_read_database(self):
        with pytest.raises(ProgramError):
            Write(Item("x"), Item("y"))

    def test_local_assign_cannot_read_database(self):
        with pytest.raises(ProgramError):
            LocalAssign(Local("v"), Item("x"))

    def test_guards_must_be_local(self):
        with pytest.raises(ProgramError):
            If(ge(Item("x"), 0), then=())
        with pytest.raises(ProgramError):
            While(ge(Item("x"), 0), body=())

    def test_insert_coerces_literals(self):
        stmt = Insert("T", (("k", 5), ("done", False)))
        assert stmt.values[0][1] == IntConst(5)
        assert stmt.values[1][1] == BoolConst(False)

    def test_update_coerces_literals(self):
        stmt = Update("T", sets=(("done", True),))
        assert stmt.sets[0][1] == BoolConst(True)

    def test_own_row_variable_is_not_a_database_read(self):
        k = RowAttr("r", "k")
        Update("T", sets=(("k", k + 1),), where=conj(eq(k, Param("p")), ne(k, 0)))
        Delete("T", where=eq(k, Local("v")))


_COUNT_T = CountWhere("T", "r", TRUE)
_ROW_K = RowAttr("r", "k")


# Clauses the semantics evaluates against the workspace alone.  Were the
# first two accepted, the drivers would disagree: the workspace has no
# rows, so the guard would take the else branch where the database has rows,
# and the SET value cannot be evaluated without the item x.
_DATABASE_READS = {
    "count-guard": lambda: If(
        gt(_COUNT_T, 0),
        then=(LocalAssign(Local("x"), IntConst(1)),),
        orelse=(LocalAssign(Local("x"), IntConst(2)),),
    ),
    "update-set-item": lambda: Update("T", sets=(("k", Item("x")),)),
    "while-row-quantifier": lambda: While(ExistsRow("T", "s", eq(RowAttr("s", "k"), 1)), body=()),
    "update-where": lambda: Update("T", sets=(("k", 1),), where=eq(_ROW_K, Item("x"))),
    "select-where": lambda: Select(
        "T", Local("b", "str"), where=eq(_ROW_K, Field("emp", IntConst(0), "rate"))
    ),
    "select-scalar-where": lambda: SelectScalar("T", "k", Local("v"), where=lt(_ROW_K, _COUNT_T)),
    "select-count-where": lambda: SelectCount(
        "T", Local("n"), where=InTable("T", (("k", IntConst(1)),))
    ),
    "delete-where": lambda: Delete("T", where=ge(_ROW_K, Item("max"))),
    "insert-values": lambda: Insert("T", (("k", _COUNT_T),)),
    "read-index": lambda: Read(Local("v"), Field("emp", Item("x"), "rate")),
    "read-record-index": lambda: ReadRecord("emp", Item("x"), (("rate", Local("R")),)),
    "write-index": lambda: Write(Field("emp", Item("x"), "rate"), IntConst(1)),
    "write-count": lambda: Write(Item("y"), _COUNT_T),
    "local-count": lambda: LocalAssign(Local("v"), _COUNT_T),
}


@pytest.mark.parametrize("build", _DATABASE_READS.values(), ids=_DATABASE_READS.keys())
def test_workspace_clauses_reject_database_reads(build):
    with pytest.raises(ProgramError):
        build()


class TestLoopFuel:
    """Every driver of the semantics rejects a loop past ``LOOP_FUEL``."""

    def _spin(self):
        return TransactionType(
            name="Spin",
            body=(
                LocalAssign(Local("k"), IntConst(0)),
                While(lt(Local("k"), 100), body=(LocalAssign(Local("k"), Local("k") + 1),)),
                Write(Item("x"), Local("k")),
            ),
        )

    def test_loop_outruns_the_fuel(self):
        assert LOOP_FUEL < 100

    def test_run(self, state):
        with pytest.raises(EvaluationError):
            self._spin().run(state, {})

    def test_trace(self, state):
        from repro.core.interference import trace

        with pytest.raises(EvaluationError):
            trace(self._spin(), state, {})

    def test_lone_simulator_run(self, state):
        from repro.sched.simulator import InstanceSpec, Simulator

        with pytest.raises(EvaluationError):
            Simulator(state, [InstanceSpec(self._spin(), {}, "SERIALIZABLE")]).run()


class TestConcreteExecution:
    def test_read_write_roundtrip(self, state):
        env = {}
        body = (
            Read(Local("v"), Item("x")),
            LocalAssign(Local("v"), Local("v") + 1),
            Write(Item("x"), Local("v")),
        )
        execute(body, state, env)
        assert state.read_item("x") == 6

    def test_field_access(self, state):
        env = {Param("i"): 0}
        execute((Read(Local("r"), Field("emp", Param("i"), "rate")),), state, env)
        assert env[Local("r")] == 2

    def test_read_record(self, state):
        env = {Param("i"): 0}
        stmt = ReadRecord("emp", Param("i"), (("rate", Local("R")), ("hrs", Local("H"))))
        execute((stmt,), state, env)
        assert env[Local("R")] == 2
        assert env[Local("H")] == 3

    def test_if_branches(self, state):
        env = {Local("v"): 1}
        stmt = If(
            ge(Local("v"), 0),
            then=(Write(Item("x"), IntConst(10)),),
            orelse=(Write(Item("x"), IntConst(-10)),),
        )
        execute((stmt,), state, env)
        assert state.read_item("x") == 10

    def test_while_loops(self, state):
        env = {Local("k"): 0}
        loop = While(lt(Local("k"), 3), body=(LocalAssign(Local("k"), Local("k") + 1),))
        execute((loop,), state, env)
        assert env[Local("k")] == 3

    def test_while_fuel_guard(self, state):
        env = {Local("k"): 0}
        loop = While(ge(Local("k"), 0), body=(LocalAssign(Local("k"), Local("k") + 1),))
        with pytest.raises(EvaluationError):
            execute((loop,), state, env)

    def test_select_buffers_rows(self, state):
        env = {}
        stmt = Select("T", Local("buff", "str"), where=eq(RowAttr("r", "done", "bool"), False))
        execute((stmt,), state, env)
        assert len(env[Local("buff", "str")]) == 2

    def test_select_projects_attrs(self, state):
        env = {}
        execute((Select("T", Local("buff", "str"), attrs=("k",)),), state, env)
        rows = [dict(packed) for packed in env[Local("buff", "str")]]
        assert rows == [{"k": 1}, {"k": 2}]

    def test_select_scalar(self, state):
        env = {}
        stmt = SelectScalar("T", "k", Local("v"), where=eq(RowAttr("r", "k"), 2))
        execute((stmt,), state, env)
        assert env[Local("v")] == 2

    def test_select_scalar_default(self, state):
        env = {}
        stmt = SelectScalar("T", "k", Local("v"), where=eq(RowAttr("r", "k"), 99), default=-1)
        execute((stmt,), state, env)
        assert env[Local("v")] == -1

    def test_select_count(self, state):
        env = {}
        execute((SelectCount("T", Local("n"), where=TRUE),), state, env)
        assert env[Local("n")] == 2

    def test_insert(self, state):
        env = {Param("p"): 9}
        execute((Insert("T", (("k", Param("p")), ("done", False))),), state, env)
        assert state.table_size("T") == 3

    def test_update_with_row_reference(self, state):
        env = {}
        stmt = Update("T", sets=(("k", RowAttr("r", "k") + 10),), where=eq(RowAttr("r", "k"), 1))
        execute((stmt,), state, env)
        assert sorted(row["k"] for row in state.rows("T")) == [2, 11]

    def test_delete(self, state):
        env = {}
        execute((Delete("T", where=eq(RowAttr("r", "k"), 1)),), state, env)
        assert state.table_size("T") == 1

    def test_foreach_iterates_buffer(self, state):
        env = {}
        body = (
            Select("T", Local("buff", "str"), attrs=("k",)),
            ForEach(
                buffer=Local("buff", "str"),
                bind=(("k", Local("kk")),),
                body=(
                    Update("T", sets=(("done", True),), where=eq(RowAttr("r", "k"), Local("kk"))),
                ),
            ),
        )
        execute(body, state, env)
        assert all(row["done"] for row in state.rows("T"))


class TestFootprints:
    def test_read_resources(self):
        assert Read(Local("v"), Item("x")).read_resources() == frozenset({ScalarResource("x")})
        stmt = Read(Local("v"), Field("a", Param("i"), "bal"))
        assert ArrayResource("a", "bal") in stmt.read_resources()

    def test_write_resources(self):
        assert Write(Item("x"), Local("v")).written_resources() == frozenset({ScalarResource("x")})

    def test_control_aggregates_resources(self):
        stmt = If(TRUE, then=(Write(Item("x"), Local("v")),), orelse=(Write(Item("y"), Local("v")),))
        written = stmt.written_resources()
        assert ScalarResource("x") in written and ScalarResource("y") in written

    def test_relational_resources(self):
        select = Select("T", Local("b", "str"), where=eq(RowAttr("r", "k"), 1))
        assert TableResource("T") in select.read_resources()
        assert TableResource("T", "k") in select.read_resources()
        update = Update("T", sets=(("done", True),))
        assert update.written_resources() == frozenset({TableResource("T", "done")})
        assert Insert("T", (("k", 1),)).written_resources() == frozenset({TableResource("T")})


class TestTransactionType:
    def _simple(self):
        return TransactionType(
            name="Inc",
            params=(Param("i"),),
            body=(
                Read(Local("v"), Item("x")),
                If(ge(Local("v"), 0), then=(Write(Item("x"), Local("v") + 1),)),
            ),
            consistency=ge(Item("x"), 0),
            snapshot=((LogicalVar("X0"), Item("x")),),
        )

    def test_walk_covers_nested_statements(self):
        txn = self._simple()
        statements = txn.statements()
        assert len(statements) == 3  # read, if, write

    def test_read_write_partition(self):
        txn = self._simple()
        assert len(txn.read_statements()) == 1
        assert len(txn.write_statements()) == 1

    def test_run_executes_atomically(self):
        txn = self._simple()
        state = DbState(items={"x": 4})
        env = txn.run(state, {"i": 0})
        assert state.read_item("x") == 5
        assert env[LogicalVar("X0")] == 4

    def test_run_requires_args(self):
        txn = self._simple()
        with pytest.raises(ProgramError):
            txn.run(DbState(items={"x": 0}), {})

    def test_rename_params(self):
        txn = self._simple()
        renamed = txn.rename_params("!2")
        assert renamed.params[0].name == "i!2"
        # locals and logical variables renamed too
        assert LogicalVar("X0!2") in {lv for lv, _t in renamed.snapshot}
        read = renamed.read_statements()[0]
        assert read.into.name == "v!2"
        # execution still works under the renamed arguments
        state = DbState(items={"x": 1})
        renamed.run(state, {"i!2": 0})
        assert state.read_item("x") == 2

    def test_duplicate_names_detected(self):
        from repro.core.application import Application
        from repro.errors import AnalysisError

        txn = self._simple()
        with pytest.raises(AnalysisError):
            Application("bad", (txn, txn))
