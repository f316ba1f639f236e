"""Unit tests for the per-level conditions (Theorems 1-6)."""

import pytest

from repro.core.application import Application
from repro.core.conditions import (
    ANSI_LADDER,
    EXTENDED_LADDER,
    LEVEL_ORDER,
    READ_COMMITTED,
    READ_COMMITTED_FCW,
    READ_UNCOMMITTED,
    REPEATABLE_READ,
    SERIALIZABLE,
    SNAPSHOT,
    canonical_read_post,
    check_transaction_at,
    conjuncts_of,
    consistency_assertions,
    fcw_protected_reads,
    naive_triple_count,
    obligation_count,
    predicate_covers,
    predicate_intersects,
    read_post_assertions,
    read_step_assertion,
    result_assertions,
)
from repro.core.domains import DomainSpec, ItemDomain
from repro.core.formula import RowAttr, TRUE, conj, eq, ge, le
from repro.core.interference import InterferenceChecker
from repro.core.program import (
    Delete,
    If,
    Insert,
    Read,
    Select,
    SelectCount,
    SelectScalar,
    TransactionType,
    Update,
    Write,
)
from repro.core.terms import Field, IntConst, Item, Local, Param
from repro.errors import AnalysisError


def reader_writer_app():
    read = Read(Local("v"), Item("x"), post=le(Local("v"), Item("x")))
    reader = TransactionType(name="Reader", body=(read,), result=TRUE)
    bumper = TransactionType(
        name="Bumper",
        body=(Read(Local("b"), Item("x")), Write(Item("x"), Local("b") + 1)),
        consistency=ge(Item("x"), 0),
        result=ge(Item("x"), 0),
    )
    spec = DomainSpec(items=(ItemDomain("x", (0, 1, 2)),))
    return Application("rw", (reader, bumper), spec=spec)


class TestLadders:
    def test_ansi_ladder_order(self):
        assert ANSI_LADDER == (
            READ_UNCOMMITTED,
            READ_COMMITTED,
            REPEATABLE_READ,
            SERIALIZABLE,
        )

    def test_extended_ladder_includes_fcw(self):
        assert READ_COMMITTED_FCW in EXTENDED_LADDER

    def test_level_order_is_strict(self):
        assert LEVEL_ORDER[READ_UNCOMMITTED] < LEVEL_ORDER[READ_COMMITTED]
        assert LEVEL_ORDER[READ_COMMITTED] < LEVEL_ORDER[SNAPSHOT]
        assert LEVEL_ORDER[SNAPSHOT] < LEVEL_ORDER[SERIALIZABLE]


class TestCanonicalPosts:
    def test_conventional_read(self):
        read = Read(Local("v"), Item("x"))
        assert canonical_read_post(read) == eq(Local("v"), Item("x"))

    def test_select_count_is_structural(self):
        from repro.core.formula import CountWhere

        stmt = SelectCount("T", Local("n"), where=TRUE)
        post = canonical_read_post(stmt)
        assert isinstance(post.right, CountWhere) or isinstance(post.left, CountWhere)

    def test_select_buffer_evaluator(self):
        from repro.core.program import execute
        from repro.core.state import DbState

        stmt = Select("T", Local("b", "str"))
        post = canonical_read_post(stmt)
        state = DbState(tables={"T": [{"k": 1}]})
        env = {}
        execute((stmt,), state, env)
        assert post.evaluate(state, env)
        state.insert_row("T", {"k": 2})
        assert not post.evaluate(state, env)

    def test_select_scalar_evaluator(self):
        from repro.core.program import execute
        from repro.core.state import DbState

        stmt = SelectScalar("T", "k", Local("v"), default=0)
        post = canonical_read_post(stmt)
        state = DbState(tables={"T": [{"k": 5}]})
        env = {}
        execute((stmt,), state, env)
        assert post.evaluate(state, env)
        state.update_rows("T", lambda r: True, lambda r: {"k": 6})
        assert not post.evaluate(state, env)

    def test_non_read_rejected(self):
        with pytest.raises(AnalysisError):
            canonical_read_post(Write(Item("x"), Local("v")))


class TestAssertionExtraction:
    def test_conjuncts_split(self):
        post = conj(ge(Item("x"), 0), le(Local("v"), Item("x")))
        read = Read(Local("v"), Item("x"), post=post)
        txn = TransactionType(name="T", body=(read,))
        assertions = read_post_assertions(txn)
        assert len(assertions) == 2
        assert all(stmt is read for stmt, _a in assertions)

    def test_consistency_and_result_split(self):
        txn = TransactionType(
            name="T",
            consistency=conj(ge(Item("x"), 0), ge(Item("y"), 0)),
            result=ge(Item("x"), 1),
        )
        assert len(consistency_assertions(txn)) == 2
        assert len(result_assertions(txn)) == 1

    def test_read_step_combines_posts(self):
        read1 = Read(Local("a"), Item("x"), post=ge(Local("a"), 0))
        read2 = Read(Local("b"), Item("y"))
        txn = TransactionType(name="T", body=(read1, read2))
        step = read_step_assertion(txn)
        assert step.kind == "read_step_post"

    def test_conjuncts_of(self):
        assert conjuncts_of(TRUE) == []
        single = ge(Item("x"), 0)
        assert conjuncts_of(single) == [single]


class TestFcwProtection:
    def test_read_then_write_same_item_protected(self):
        read = Read(Local("v"), Item("x"))
        txn = TransactionType(
            name="T", body=(read, Write(Item("x"), Local("v") + 1))
        )
        assert id(read) in fcw_protected_reads(txn)

    def test_read_without_write_unprotected(self):
        read = Read(Local("v"), Item("x"))
        txn = TransactionType(name="T", body=(read,))
        assert fcw_protected_reads(txn) == set()

    def test_conditional_write_does_not_protect(self):
        read = Read(Local("v"), Item("x"))
        txn = TransactionType(
            name="T",
            body=(
                read,
                If(ge(Local("v"), 0), then=(Write(Item("x"), Local("v") + 1),)),
            ),
        )
        # the else-path has no write, so FCW gives no protection
        assert id(read) not in fcw_protected_reads(txn)

    def test_select_protected_by_covering_update(self):
        select = SelectScalar("M", "d", Local("m"), where=TRUE)
        update = Update("M", sets=(("d", Local("m") + 1),), where=TRUE)
        txn = TransactionType(name="T", body=(select, update))
        assert id(select) in fcw_protected_reads(txn)

    def test_select_not_protected_by_narrower_update(self):
        select = Select("T", Local("b", "str"), where=TRUE)
        update = Update("T", sets=(("d", IntConst(1)),), where=eq(RowAttr("r", "k"), 1))
        txn = TransactionType(name="T", body=(select, update))
        assert id(select) not in fcw_protected_reads(txn)


class TestPredicateRelations:
    def test_covers_positive(self):
        narrow = eq(RowAttr("r", "k"), 1)
        assert predicate_covers(narrow, "r", TRUE, "s")

    def test_covers_negative(self):
        assert not predicate_covers(TRUE, "r", eq(RowAttr("s", "k"), 1), "s")

    def test_intersects_positive(self):
        a = eq(RowAttr("r", "k"), 1)
        b = ge(RowAttr("s", "k"), 0)
        assert predicate_intersects(a, "r", b, "s")

    def test_intersects_negative(self):
        a = eq(RowAttr("r", "k"), 1)
        b = eq(RowAttr("s", "k"), 2)
        assert not predicate_intersects(a, "r", b, "s")


class TestLevelChecks:
    def test_reader_fails_ru_by_rollback(self):
        app = reader_writer_app()
        checker = InterferenceChecker(app.spec)
        result = check_transaction_at(app, app.transaction("Reader"), READ_UNCOMMITTED, checker)
        assert not result.ok
        assert any(ob.mode == "rollback" and not ob.ok for ob in result.obligations)

    def test_reader_passes_rc(self):
        app = reader_writer_app()
        checker = InterferenceChecker(app.spec)
        result = check_transaction_at(app, app.transaction("Reader"), READ_COMMITTED, checker)
        assert result.ok

    def test_conventional_rr_trivially_correct(self):
        app = reader_writer_app()
        result = check_transaction_at(
            app, app.transaction("Reader"), REPEATABLE_READ, InterferenceChecker(app.spec)
        )
        assert result.ok and result.trivially_correct

    def test_serializable_trivially_correct(self):
        app = reader_writer_app()
        result = check_transaction_at(
            app, app.transaction("Reader"), SERIALIZABLE, InterferenceChecker(app.spec)
        )
        assert result.ok and result.trivially_correct

    def test_unknown_level_rejected(self):
        app = reader_writer_app()
        with pytest.raises(AnalysisError):
            check_transaction_at(app, app.transaction("Reader"), "CHAOS", None)

    def test_summary_strings(self):
        app = reader_writer_app()
        checker = InterferenceChecker(app.spec)
        result = check_transaction_at(app, app.transaction("Reader"), READ_COMMITTED, checker)
        assert "Reader" in result.summary()
        for ob in result.obligations:
            assert "Reader" in ob.describe()


class TestObligationCounts:
    def test_naive_count_is_quadratic(self):
        app = reader_writer_app()
        statements = sum(len(t.statements()) for t in app.transactions)
        assert naive_triple_count(app) == statements * statements

    def test_snapshot_count_is_linear_in_types(self):
        app = reader_writer_app()
        assert obligation_count(app, app.transaction("Bumper"), SNAPSHOT) == 2 * 2

    def test_serializable_count_is_zero(self):
        app = reader_writer_app()
        assert obligation_count(app, app.transaction("Reader"), SERIALIZABLE) == 0

    def test_conventional_rr_count_is_zero(self):
        app = reader_writer_app()
        assert obligation_count(app, app.transaction("Reader"), REPEATABLE_READ) == 0

    def test_counts_monotone_ru_heaviest(self):
        app = reader_writer_app()
        target = app.transaction("Bumper")
        ru = obligation_count(app, target, READ_UNCOMMITTED)
        rc = obligation_count(app, target, READ_COMMITTED)
        si = obligation_count(app, target, SNAPSHOT)
        assert ru > rc >= si or ru > si
