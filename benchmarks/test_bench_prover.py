"""E14 — prover-layer performance: hash-consing, fast path, persistence.

Four configurations of the same tpcc-lite analysis (extended ladder plus
snapshot isolation, BMC budget 24, one worker):

- ``baseline``    — hash-consing and the LP-free fast path both disabled;
  the closest in-tree stand-in for the pre-optimisation prover.
- ``cold``        — all layers on, every process-level cache empty.
- ``warm``        — a second run in the same process (verdict cache and
  prover memos intact).
- ``persist_warmed`` — every process-level cache wiped (prover memos,
  fingerprint cache, hash-consing tables) and the verdict cache reloaded
  from a persistent store flushed after the cold run, approximating a
  fresh process pointed at a warmed ``--cache-dir``.

All timings are CPU time (``time.process_time``): the benchmark machines
are small and wall clock is noisy, while the CPU ratio between configs is
stable.  The seed reference is re-measured in the same benchmark run,
the same way, from a temporary checkout of the pre-PR commit
(``git archive`` into a temporary directory, run in a fresh
interpreter), so ``speedup_vs_seed`` is a ratio of two runs on one
machine.  The bench needs that commit in the local history (not a
shallow clone).

Emits ``BENCH_prover.json`` and the E14 text table.
"""

import os
import pathlib
import subprocess
import sys
import time

import pytest

from benchmarks._report import emit, emit_json
from repro.apps import tpcc
from repro.core import prover, terms
from repro.core.cache import VerdictCache, clear_fingerprint_cache
from repro.core.chooser import analyze_application
from repro.core.conditions import EXTENDED_LADDER
from repro.core.interference import InterferenceChecker
from repro.core.persist import PersistentStore
from repro.core.prover import clear_prover_caches, prover_cache_stats
from repro.core.report import format_table
from repro.core.terms import clear_hashcons_tables

BUDGET = 24

#: The last commit before the prover-core work: the cold run's baseline.
SEED_COMMIT = "abe2034"
SEED_METHOD = (
    "process_time around analyze_application, tpcc-lite, extended ladder +"
    " snapshot, budget 24, one thread, fresh interpreter, same benchmark run"
)

#: Runs in the seed tree: the ``cold`` configuration as that commit had it.
_SEED_SCRIPT = """
import sys, time
from repro.apps import tpcc
from repro.core.cache import VerdictCache
from repro.core.chooser import analyze_application
from repro.core.conditions import EXTENDED_LADDER
from repro.core.interference import InterferenceChecker

app = tpcc.make_application()
checker = InterferenceChecker(app.spec, budget=int(sys.argv[1]), cache=VerdictCache())
start = time.process_time()
analyze_application(app, checker, ladder=EXTENDED_LADDER, include_snapshot=True)
print(time.process_time() - start)
"""


def _measure_seed(tmp_dir: pathlib.Path) -> dict:
    """Cold tpcc CPU time of ``SEED_COMMIT``, from a temporary checkout."""
    root = pathlib.Path(__file__).parent.parent
    archive = subprocess.run(
        ["git", "archive", SEED_COMMIT, "src"], cwd=root, capture_output=True
    )
    assert archive.returncode == 0, (
        f"cannot check out seed commit {SEED_COMMIT} (shallow clone?):"
        f" {archive.stderr.decode().strip()}"
    )
    subprocess.run(["tar", "-x", "-C", str(tmp_dir)], input=archive.stdout, check=True)
    run = subprocess.run(
        [sys.executable, "-c", _SEED_SCRIPT, str(BUDGET)],
        cwd=tmp_dir,
        env={**os.environ, "PYTHONPATH": str(tmp_dir / "src"), "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    return {
        "cpu_s": float(run.stdout.split()[-1]),
        "commit": SEED_COMMIT,
        "method": SEED_METHOD,
    }


def _reset_process_caches():
    clear_prover_caches()
    clear_fingerprint_cache()
    clear_hashcons_tables()


def _run(cache, hash_consing=True, fast_path=True):
    saved = (terms.HASH_CONSING, prover.USE_FAST_PATH)
    terms.HASH_CONSING, prover.USE_FAST_PATH = hash_consing, fast_path
    try:
        # the app is built under the flag so baseline terms are not interned
        app = tpcc.make_application()
        checker = InterferenceChecker(app.spec, budget=BUDGET, cache=cache)
        start = time.process_time()
        report = analyze_application(
            app, checker, ladder=EXTENDED_LADDER, include_snapshot=True
        )
        cpu_s = time.process_time() - start
    finally:
        terms.HASH_CONSING, prover.USE_FAST_PATH = saved
    return report.levels(), cpu_s, checker


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    results = {"seed": _measure_seed(tmp_path_factory.mktemp("seed"))}

    _reset_process_caches()
    levels, cpu_s, _ = _run(VerdictCache(), hash_consing=False, fast_path=False)
    results["baseline"] = {"levels": levels, "cpu_s": cpu_s}

    _reset_process_caches()
    cache = VerdictCache()
    levels, cpu_s, _ = _run(cache)
    results["cold"] = {"levels": levels, "cpu_s": cpu_s}
    results["cold"]["prover"] = prover_cache_stats()

    store_dir = tmp_path_factory.mktemp("verdicts")
    PersistentStore(store_dir).flush(cache)

    levels, cpu_s, _ = _run(cache)
    results["warm"] = {"levels": levels, "cpu_s": cpu_s}

    _reset_process_caches()
    warmed = VerdictCache()
    PersistentStore(store_dir).load(warmed)
    levels, cpu_s, _ = _run(warmed)
    results["persist_warmed"] = {
        "levels": levels,
        "cpu_s": cpu_s,
        "persist_hits": warmed.stats.persist_hits,
    }
    return results


def _speedup(sweep, config: str) -> float:
    return sweep["seed"]["cpu_s"] / max(sweep[config]["cpu_s"], 1e-9)


def test_bench_prover(sweep):
    seed = sweep["seed"]
    configs = [name for name in sweep if name != "seed"]
    rows = [
        (config, f"{sweep[config]['cpu_s']:.2f}", f"{_speedup(sweep, config):.1f}x")
        for config in configs
    ]
    rows.append((f"seed ({seed['commit']})", f"{seed['cpu_s']:.2f}", "1.0x"))
    emit(
        "E14-prover-layers",
        format_table(("config", "cpu s", "vs seed"), rows)
        + f"\n\npersist-warmed run answered {sweep['persist_warmed']['persist_hits']}"
        " obligations from disk-loaded verdicts"
        + f"\nseed reference: commit {seed['commit']}, {seed['method']}",
    )
    emit_json(
        "BENCH_prover",
        {
            "config": {
                "app": "tpcc-lite",
                "budget": BUDGET,
                "ladder": "extended+snapshot",
                "workers": 1,
                "timer": "process_time",
            },
            "seed_reference": seed,
            "results": {
                name: {k: v for k, v in sweep[name].items() if k != "levels"}
                for name in configs
            },
            "levels": sweep["cold"]["levels"],
            "speedup_vs_seed": round(_speedup(sweep, "cold"), 2),
        },
    )


def test_levels_byte_identical_across_configs(sweep):
    """Acceptance: no optimisation layer changes a level assignment."""
    expected = sweep["baseline"]["levels"]
    for config, data in sweep.items():
        if config != "seed":
            assert data["levels"] == expected, config


def test_cold_run_beats_seed_by_5x(sweep):
    """Acceptance: ≥5x cold-run improvement from the in-process layers alone
    (no persistence involved in the cold config), as a CPU ratio against
    the seed commit re-run in the same benchmark run."""
    speedup = _speedup(sweep, "cold")
    assert speedup >= 5.0, (
        f"cold speedup only {speedup:.2f}x: {sweep['cold']['cpu_s']:.2f} s"
        f" against {sweep['seed']['cpu_s']:.2f} s at {SEED_COMMIT}"
    )


def test_persist_warmed_close_to_in_memory_warm(sweep):
    """Acceptance: a disk-warmed 'second process' lands within 10x of the
    in-memory warm run (it must redo fingerprints, but no prover work)."""
    assert sweep["persist_warmed"]["persist_hits"] > 0
    warm = sweep["warm"]["cpu_s"]
    persisted = sweep["persist_warmed"]["cpu_s"]
    assert persisted <= 10 * warm, f"persist {persisted:.2f}s vs warm {warm:.2f}s"


def test_fast_path_carried_the_cold_run(sweep):
    """The LP-free path decides cubes in the cold run; linprog stays rare."""
    prover_stats = sweep["cold"]["prover"]
    decided = prover_stats["fastpath_sat"] + prover_stats["fastpath_unsat"]
    assert decided > 0
    assert prover_stats["lp_calls"] <= decided
