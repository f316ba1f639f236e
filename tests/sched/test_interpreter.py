"""Unit tests for the engine driver of the program semantics (``steps``)."""

import pytest

from repro.core.formula import RowAttr, TRUE, eq, ge, lt
from repro.core.program import (
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
)
from repro.core.state import DbState
from repro.core.terms import Field, IntConst, Item, Local, LogicalVar, Param
from repro.engine.manager import Engine
from repro.sched.simulator import bind_ghosts, steps


def drive(engine, txn, txn_type, args, env=None, observations=None):
    """Run a ``steps`` generator to completion, executing every thunk."""
    env = env if env is not None else bind_ghosts(txn_type, args, engine.committed_state())
    observations = observations if observations is not None else {}
    gen = steps(engine, txn, txn_type.body, env, observations)
    ops = 0
    try:
        thunk = next(gen)
        while True:
            result = thunk()
            ops += 1
            thunk = gen.send(result)
    except StopIteration:
        pass
    return env, ops


@pytest.fixture
def engine():
    return Engine(
        DbState(
            items={"x": 3},
            arrays={"emp": {0: {"rate": 2, "sal": 6}}},
            tables={"T": [{"k": 1, "done": False}, {"k": 2, "done": False}]},
        )
    )


class TestGhostBinding:
    def test_params_and_snapshot_bound(self, engine):
        txn_type = TransactionType(
            name="G",
            params=(Param("p"),),
            snapshot=((LogicalVar("X0"), Item("x")),),
        )
        env = bind_ghosts(txn_type, {"p": 7}, engine.committed_state())
        assert env[Param("p")] == 7
        assert env[LogicalVar("X0")] == 3

    def test_missing_arg_rejected(self, engine):
        from repro.errors import ScheduleError

        txn_type = TransactionType(name="G", params=(Param("p"),))
        with pytest.raises(ScheduleError):
            bind_ghosts(txn_type, {}, engine.committed_state())

    def test_unevaluable_snapshot_binds_none(self, engine):
        txn_type = TransactionType(
            name="G", snapshot=((LogicalVar("X0"), Item("missing")),)
        )
        env = bind_ghosts(txn_type, {}, engine.committed_state())
        assert env[LogicalVar("X0")] is None


class TestConventionalStatements:
    def test_read_write_roundtrip(self, engine):
        txn_type = TransactionType(
            name="Inc",
            body=(
                Read(Local("v"), Item("x")),
                LocalAssign(Local("v"), Local("v") + 1),
                Write(Item("x"), Local("v")),
            ),
        )
        txn = engine.begin("READ COMMITTED")
        env, ops = drive(engine, txn, txn_type, {})
        engine.commit(txn)
        assert ops == 2  # one read, one write; the local step is free
        reader = engine.begin("READ COMMITTED")
        assert engine.read_item(reader, "x") == 4

    def test_observations_recorded(self, engine):
        txn_type = TransactionType(name="R", body=(Read(Local("v"), Item("x")),))
        txn = engine.begin("READ COMMITTED")
        obs = {}
        drive(engine, txn, txn_type, {}, observations=obs)
        assert obs[("item", "x")] == 3

    def test_read_record(self, engine):
        txn_type = TransactionType(
            name="RR",
            params=(Param("i"),),
            body=(
                ReadRecord("emp", Param("i"), (("rate", Local("R")), ("sal", Local("S")))),
            ),
        )
        txn = engine.begin("READ COMMITTED")
        obs = {}
        env, ops = drive(engine, txn, txn_type, {"i": 0}, observations=obs)
        assert ops == 1
        assert env[Local("R")] == 2
        assert obs[("field", "emp", 0, "sal")] == 6

    def test_if_and_while(self, engine):
        txn_type = TransactionType(
            name="Loop",
            body=(
                Read(Local("v"), Item("x")),
                LocalAssign(Local("n"), IntConst(0)),
                While(
                    lt(Local("n"), Local("v")),
                    body=(LocalAssign(Local("n"), Local("n") + 1),),
                ),
                If(ge(Local("n"), 3), then=(Write(Item("x"), Local("n") * 2),)),
            ),
        )
        txn = engine.begin("READ COMMITTED")
        drive(engine, txn, txn_type, {})
        engine.commit(txn)
        reader = engine.begin("READ COMMITTED")
        assert engine.read_item(reader, "x") == 6


class TestRelationalStatements:
    def test_select_buffers(self, engine):
        txn_type = TransactionType(
            name="Sel",
            body=(Select("T", Local("b", "str"), where=TRUE, attrs=("k",)),),
        )
        txn = engine.begin("READ COMMITTED")
        env, _ops = drive(engine, txn, txn_type, {})
        rows = [dict(packed) for packed in env[Local("b", "str")]]
        assert sorted(row["k"] for row in rows) == [1, 2]

    def test_select_scalar_and_count(self, engine):
        txn_type = TransactionType(
            name="SC",
            body=(
                SelectScalar("T", "k", Local("first"), where=eq(RowAttr("r", "k"), 2)),
                SelectCount("T", Local("n"), where=TRUE),
            ),
        )
        txn = engine.begin("READ COMMITTED")
        env, _ops = drive(engine, txn, txn_type, {})
        assert env[Local("first")] == 2
        assert env[Local("n")] == 2

    def test_insert_update_delete(self, engine):
        txn_type = TransactionType(
            name="IUD",
            body=(
                Insert("T", (("k", IntConst(3)), ("done", False))),
                Update("T", sets=(("done", True),), where=eq(RowAttr("r", "k"), 3)),
                Delete("T", where=eq(RowAttr("r", "k"), 1)),
            ),
        )
        txn = engine.begin("READ COMMITTED")
        drive(engine, txn, txn_type, {})
        engine.commit(txn)
        reader = engine.begin("READ COMMITTED")
        rows = engine.select(reader, "T", lambda r: True)
        assert {row["k"] for row in rows} == {2, 3}
        assert any(row["k"] == 3 and row["done"] for row in rows)

    def test_foreach_drives_updates(self, engine):
        txn_type = TransactionType(
            name="FE",
            body=(
                Select("T", Local("b", "str"), attrs=("k",)),
                ForEach(
                    buffer=Local("b", "str"),
                    bind=(("k", Local("kk")),),
                    body=(
                        Update("T", sets=(("done", True),), where=eq(RowAttr("r", "k"), Local("kk"))),
                    ),
                ),
            ),
        )
        txn = engine.begin("READ COMMITTED")
        _env, ops = drive(engine, txn, txn_type, {})
        assert ops == 3  # select + two updates
        engine.commit(txn)
        reader = engine.begin("READ COMMITTED")
        assert all(row["done"] for row in engine.select(reader, "T", lambda r: True))
