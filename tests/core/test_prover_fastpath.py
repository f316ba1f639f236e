"""The LP-free cube fast path: soundness, agreement with linprog, lazy scipy.

The property tests draw random conjunctions of linear integer constraints.
One checks that the pure-Python fast path and the LP fallback never
contradict each other: both are sound, so whenever both are decisive they
must return the same verdict, and every SAT answer must carry a verified
assignment.  Another boxes every variable in explicitly and compares the
fast path with exhaustive search over the box; it needs no scipy.
"""

import itertools
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import prover
from repro.core.formula import Cmp
from repro.core.prover import (
    FAST_BOX_LIMIT,
    Verdict,
    _IntConstraint,
    _check_int_assignment,
    _fast_int_solve,
    _int_constraints_of_literal,
    _solve_int_constraints,
    clear_prover_caches,
    prover_cache_stats,
)
from repro.core.terms import Add, IntConst, Local, Mul, Sub

VARS = ("a", "b", "c")


@st.composite
def constraint_systems(draw):
    """A small conjunction of integer constraints over at most three vars."""
    n_constraints = draw(st.integers(min_value=1, max_value=5))
    constraints = []
    for _ in range(n_constraints):
        n_vars = draw(st.integers(min_value=0, max_value=len(VARS)))
        chosen = draw(
            st.lists(
                st.sampled_from(VARS), min_size=n_vars, max_size=n_vars, unique=True
            )
        )
        coeffs = {
            var: draw(st.integers(min_value=-4, max_value=4).filter(bool))
            for var in chosen
        }
        rel = draw(st.sampled_from(("<=", "==")))
        bound = draw(st.integers(min_value=-12, max_value=12))
        constraints.append(_IntConstraint(coeffs=coeffs, rel=rel, bound=bound))
    return constraints


def _lp_verdict(constraints, variables):
    """The verdict of the full solver with the fast path disabled."""
    saved = prover.USE_FAST_PATH
    prover.USE_FAST_PATH = False
    try:
        return _solve_int_constraints(constraints, variables)
    finally:
        prover.USE_FAST_PATH = saved


class TestFastPathAgreesWithLP:
    @settings(max_examples=200, deadline=None)
    @given(constraint_systems())
    def test_decisive_verdicts_agree(self, constraints):
        variables = {var: i for i, var in enumerate(VARS)}
        var_list = sorted(variables, key=variables.get)

        fast_verdict, fast_assignment = _fast_int_solve(constraints, var_list)
        lp_verdict, lp_assignment = _lp_verdict(constraints, variables)

        if fast_verdict == Verdict.SAT:
            assert _check_int_assignment(constraints, fast_assignment)
            assert lp_verdict != Verdict.UNSAT
        if lp_verdict == Verdict.SAT:
            assert _check_int_assignment(constraints, lp_assignment)
            assert fast_verdict != Verdict.UNSAT
        if fast_verdict == Verdict.UNSAT:
            assert lp_verdict != Verdict.SAT
        if lp_verdict == Verdict.UNSAT:
            assert fast_verdict != Verdict.SAT

    @settings(max_examples=100, deadline=None)
    @given(constraint_systems())
    def test_full_solver_matches_lp_only(self, constraints):
        """The combined solver (fast path + fallback) agrees with LP-only."""
        variables = {var: i for i, var in enumerate(VARS)}
        combined, _ = _solve_int_constraints(constraints, variables)
        lp_only, _ = _lp_verdict(constraints, variables)
        if Verdict.UNKNOWN not in (combined, lp_only):
            assert combined == lp_only


VARS4 = ("a", "b", "c", "d")
#: Largest box radius per variable count: about 10k points at most.
MAX_RADIUS = {1: 2100, 2: 40, 3: 10, 4: 4}


def _boxed(constraints, var_list, radius):
    """Add ``x <= radius`` and ``-x <= radius`` rows for every variable."""
    box = [_IntConstraint({var: sign}, "<=", radius) for var in var_list for sign in (1, -1)]
    return constraints + box, list(var_list), radius


@st.composite
def boxed_systems(draw):
    """``(constraints, var_list, radius)``: a system that also bounds every variable.

    The box rows are shuffled in among the drawn constraints.  Every
    integer solution lies in the box, so exhaustive search over it is a
    complete decision.  The largest radii make boxes of a few thousand
    points beyond ``FAST_BOX_LIMIT``, which sends the fast path past
    enumeration to its probes and Fourier-Motzkin elimination while the
    search stays cheap.
    """
    var_list = VARS4[: draw(st.integers(min_value=1, max_value=len(VARS4)))]
    radius = draw(st.integers(min_value=1, max_value=MAX_RADIUS[len(var_list)]))
    constraints = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        chosen = draw(st.lists(st.sampled_from(var_list), max_size=len(var_list), unique=True))
        coeffs = {var: draw(st.integers(min_value=-4, max_value=4).filter(bool)) for var in chosen}
        rel = draw(st.sampled_from(("<=", "==")))
        bound = draw(st.integers(min_value=-12, max_value=12))
        constraints.append(_IntConstraint(coeffs=coeffs, rel=rel, bound=bound))
    constraints, var_list, radius = _boxed(constraints, var_list, radius)
    return draw(st.permutations(constraints)), var_list, radius


# Three-variable sums stall bounds propagation inside a box of 9,261
# points, past FAST_BOX_LIMIT, so each of these reaches the later stages.
_ABC = {"a": 1, "b": 1, "c": 1}
_ABC_NEG = {"a": -1, "b": -1, "c": -1}
#: sum <= -1 and sum >= 1: refuted by Fourier-Motzkin elimination
FM_REFUTED = _boxed(
    [_IntConstraint(_ABC, "<=", -1), _IntConstraint(_ABC_NEG, "<=", -1)], "abc", 10
)
#: sum >= 5: missed by the lower-corner probe, satisfied by the upper one
PROBE_SAT = _boxed([_IntConstraint(_ABC_NEG, "<=", -5)], "abc", 10)
#: 2(a + b + c) == 1: rationally feasible, integer-infeasible, left open
PARITY_OPEN = _boxed([_IntConstraint({"a": 2, "b": 2, "c": 2}, "==", 1)], "abc", 10)


def _satisfies(constraints, assignment) -> bool:
    """Evaluate the constraints directly (independent of the prover's rows)."""
    for constraint in constraints:
        total = sum(coeff * assignment[var] for var, coeff in constraint.coeffs.items())
        if total > constraint.bound or (constraint.rel == "==" and total != constraint.bound):
            return False
    return True


def _box_oracle(constraints, var_list, radius) -> bool:
    """Is there an integer solution with every variable in ``[-radius, radius]``?"""
    span = range(-radius, radius + 1)
    return any(
        _satisfies(constraints, dict(zip(var_list, point)))
        for point in itertools.product(span, repeat=len(var_list))
    )


class TestFastPathAgreesWithBoxOracle:
    """Soundness against exhaustive search, with no LP solver involved."""

    @settings(max_examples=300, deadline=None)
    @given(boxed_systems())
    @example(FM_REFUTED)
    @example(PROBE_SAT)
    @example(PARITY_OPEN)
    def test_never_contradicts_exhaustive_search(self, system):
        constraints, var_list, radius = system
        verdict, model = _fast_int_solve(constraints, var_list)
        satisfiable = _box_oracle(constraints, var_list, radius)
        if verdict == Verdict.SAT:
            assert satisfiable
            assert list(model) == var_list
            assert _satisfies(constraints, model)
        elif verdict == Verdict.UNSAT:
            assert not satisfiable
        else:
            assert verdict == Verdict.UNKNOWN and model is None
        if (2 * radius + 1) ** len(var_list) <= FAST_BOX_LIMIT:
            # bounds propagation finds the box, so enumeration decides the cube
            assert verdict == (Verdict.SAT if satisfiable else Verdict.UNSAT)


    @pytest.mark.parametrize(
        "system, verdict",
        [(FM_REFUTED, Verdict.UNSAT), (PROBE_SAT, Verdict.SAT), (PARITY_OPEN, Verdict.UNKNOWN)],
    )
    def test_examples_reach_the_later_stages(self, system, verdict):
        constraints, var_list, _radius = system
        assert _fast_int_solve(constraints, var_list)[0] == verdict


class TestLiteralMemo:
    """Each integer literal is linearised once and replayed into every cube."""

    X, Y, Z = Local("x"), Local("y"), Local("z")

    def _cubes(self):
        # ``shared`` opens the first cube and comes after ``other`` in the
        # second, so its atoms get different numbers in the two cubes
        shared = Cmp("<=", Add(self.Y, Mul(IntConst(2), self.X)), Sub(self.Z, IntConst(1)))
        other = Cmp("==", self.Z, IntConst(4))
        return [shared, Cmp(">", self.X, IntConst(0))], [other, shared]

    @staticmethod
    def _translate(cube, translate=_int_constraints_of_literal):
        variables: dict = {}
        constraints = []
        for literal in cube:
            constraints.extend(translate(literal, variables))
        rows = [(list(c.coeffs.items()), c.rel, c.bound) for c in constraints]
        return list(variables.items()), rows

    def test_memo_hit_numbers_variables_like_a_fresh_linearisation(self):
        first, second = self._cubes()
        clear_prover_caches()
        self._translate(first)  # linearises ``shared`` into the memo
        size = prover_cache_stats()["literal_memo_size"]
        warm = self._translate(second)
        assert prover_cache_stats()["literal_memo_size"] == size + 1  # only ``other`` is new
        fresh = self._translate(second, prover._translate_int_literal)
        assert warm == fresh
        assert [var for var, _ in warm[0]] == [self.Z, self.Y, self.X]

    def test_memoised_decisions_match_fresh_ones(self):
        first, second = self._cubes()
        clear_prover_caches()
        warm = [prover._decide_cube(first), prover._decide_cube(second)]
        clear_prover_caches()
        cold_second = prover._decide_cube(second)
        assert warm[1] == cold_second
        assert warm[1][0] == Verdict.SAT

    def test_stats_report_the_memo_and_clearing_empties_it(self):
        clear_prover_caches()
        assert prover_cache_stats()["literal_memo_size"] == 0
        for cube in self._cubes():
            self._translate(cube)
        assert prover_cache_stats()["literal_memo_size"] == 3
        clear_prover_caches()
        assert prover_cache_stats()["literal_memo_size"] == 0
        assert not prover._literal_memo


class TestKnownCubes:
    def test_trivial_sat(self):
        cs = [_IntConstraint({"a": 1}, "<=", 5)]
        verdict, assignment = _fast_int_solve(cs, ["a"])
        assert verdict == Verdict.SAT
        assert _check_int_assignment(cs, assignment)

    def test_contradictory_bounds_unsat(self):
        cs = [
            _IntConstraint({"a": 1}, "<=", 3),
            _IntConstraint({"a": -1}, "<=", -5),  # a >= 5
        ]
        assert _fast_int_solve(cs, ["a"])[0] == Verdict.UNSAT

    def test_integer_tightening_refutes_rational_cube(self):
        # 2a <= 1 and 2a >= 1 has the rational solution a = 1/2 but no
        # integer one; floor/ceil tightening must refute it LP-free
        cs = [
            _IntConstraint({"a": 2}, "<=", 1),
            _IntConstraint({"a": -2}, "<=", -1),
        ]
        assert _fast_int_solve(cs, ["a"])[0] == Verdict.UNSAT

    def test_equality_chain_sat(self):
        cs = [
            _IntConstraint({"a": 1, "b": -1}, "==", 0),
            _IntConstraint({"b": 1}, "==", 7),
        ]
        verdict, assignment = _fast_int_solve(cs, ["a", "b"])
        assert verdict == Verdict.SAT
        assert assignment["a"] == 7 and assignment["b"] == 7

    def test_counters_move(self):
        before = dict(prover._memo_stats)
        _solve_int_constraints(
            [_IntConstraint({"z": 1}, "<=", 0)], {"z": 0}
        )
        after = prover._memo_stats
        moved = (
            after["fastpath_sat"] - before["fastpath_sat"]
            + after["fastpath_unsat"] - before["fastpath_unsat"]
            + after["fastpath_open"] - before["fastpath_open"]
        )
        assert moved == 1


class TestLazyScipy:
    def test_missing_lp_degrades_to_unknown(self, monkeypatch):
        """Hard cubes degrade to UNKNOWN (never crash) without scipy."""
        monkeypatch.setattr(prover, "_load_lp", lambda: None)
        monkeypatch.setattr(prover, "USE_FAST_PATH", False)
        before = prover._memo_stats["lp_unavailable"]
        verdict, assignment = _solve_int_constraints(
            [_IntConstraint({"a": 1}, "<=", 5)], {"a": 0}
        )
        assert verdict == Verdict.UNKNOWN
        assert assignment is None
        assert prover._memo_stats["lp_unavailable"] == before + 1

    def test_importing_prover_does_not_import_scipy(self):
        """scipy must stay unimported until the LP fallback is consulted."""
        code = textwrap.dedent(
            """
            import sys
            import repro.core.prover
            assert "scipy" not in sys.modules, "prover imported scipy eagerly"
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        )
        assert result.returncode == 0, result.stderr
