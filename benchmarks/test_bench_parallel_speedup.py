"""E8 — wall-clock payoff of the verdict cache.

The engine's obligations are heavily shared: a tier-1/2 verdict depends
only on (assertion formula, source, statement, assumption), never on the
target transaction, so the same interference question recurs across
levels of the chooser ladder and across targets (docs/PERFORMANCE.md).
This bench runs the full 5-level analysis of tpcc-lite — the largest
bundled application — four ways, all in one thread:

* ``serial_cold`` — cache disabled: the seed baseline;
* ``cached_cold`` — empty cache: measures the hit rate of one cold run;
* ``warm``        — the same run again against the now-warm cache;
* ``sdg_cold``    — empty cache with SDG pre-pruning on (the default).

The first three turn SDG pre-pruning off, so they measure the verdict
cache alone: with pruning on, the footprint-disjoint obligations that
supply most cold hits are excused before the cache sees them.  The last
run reports, without gating it, how many obligations pruning removes and
the share of obligations pruning and the cache avoid together.

It asserts the headline claims: >= 1.5x speedup for the warm run, >= 30%
cache hit rate on a cold full multi-level run, and identical verdicts and
levels under every configuration.
"""

import time

import pytest

from benchmarks._report import emit, emit_json
from repro.apps import tpcc
from repro.core.cache import VerdictCache
from repro.core.chooser import analyze_application
from repro.core.conditions import EXTENDED_LADDER
from repro.core.interference import InterferenceChecker
from repro.core.prover import clear_prover_caches
from repro.core.report import format_table

BUDGET = 24  # keeps a full tpcc-lite ladder under a minute per run
SEED = 0


def _verdict_map(report):
    """Comparable digest of an application report: every obligation's fate."""
    digest = {}
    for choice in report.choices:
        for attempt in choice.attempts:
            for index, ob in enumerate(attempt.obligations):
                key = (choice.transaction, attempt.level, index)
                if ob.verdict is None:
                    digest[key] = ("excused", ob.excused)
                else:
                    digest[key] = (
                        ob.verdict.interferes,
                        ob.verdict.method,
                        ob.verdict.confidence,
                    )
    for check in report.snapshot_checks:
        digest[("SNAPSHOT", check.transaction, check.level)] = check.ok
    return digest


def _run(cache, use_sdg=False):
    app = tpcc.make_application()
    checker = InterferenceChecker(
        app.spec, budget=BUDGET, seed=SEED, cache=cache, use_sdg=use_sdg
    )
    start = time.perf_counter()
    report = analyze_application(
        app, checker, ladder=EXTENDED_LADDER, include_snapshot=True
    )
    wall = time.perf_counter() - start
    return report, checker, wall


def _cold_hit_rate(checker):
    """Hit rate of one checker's own run (the shared cache keeps counting)."""
    hits = checker.stats["cache_hits"]
    misses = checker.stats["cache_misses"]
    return hits / (hits + misses) if hits + misses else 0.0


@pytest.fixture(scope="module")
def runs():
    clear_prover_caches()
    baseline = _run(VerdictCache(enabled=False))

    clear_prover_caches()
    cache = VerdictCache()
    cached_cold = _run(cache)
    warm = _run(cache)

    clear_prover_caches()
    sdg_cold = _run(VerdictCache(), use_sdg=True)
    return {
        "serial_cold": baseline, "cached_cold": cached_cold, "warm": warm,
        "sdg_cold": sdg_cold,
    }


def _sdg_summary(checker):
    """What SDG pre-pruning removes, and what it and the cache avoid together."""
    pruned = checker.stats.get("sdg_pruned", 0)
    hits = checker.stats["cache_hits"]
    lookups = hits + checker.stats["cache_misses"]
    return {
        "sdg_pruned": pruned,
        "cold_hit_rate": round(_cold_hit_rate(checker), 4),
        "avoided_share": round((pruned + hits) / (pruned + lookups), 4) if pruned + lookups else 0.0,
    }


def test_bench_parallel_speedup(runs):
    """A warm cache beats the seed serial baseline by >= 1.5x."""
    _, base_checker, base_wall = runs["serial_cold"]
    _, cold_checker, cold_wall = runs["cached_cold"]
    _, warm_checker, warm_wall = runs["warm"]
    _, sdg_checker, sdg_wall = runs["sdg_cold"]

    speedup = base_wall / warm_wall
    assert speedup >= 1.5, f"warm run only {speedup:.2f}x faster than serial baseline"

    rows = [
        ("serial_cold (seed baseline)", f"{base_wall * 1000:.0f}", "1.00",
         base_checker.stats["cache_hits"]),
        ("cached_cold", f"{cold_wall * 1000:.0f}",
         f"{base_wall / cold_wall:.2f}", cold_checker.stats["cache_hits"]),
        ("warm", f"{warm_wall * 1000:.0f}",
         f"{speedup:.2f}", warm_checker.stats["cache_hits"]),
        ("sdg_cold (SDG pre-pruning on)", f"{sdg_wall * 1000:.0f}",
         f"{base_wall / sdg_wall:.2f}", sdg_checker.stats["cache_hits"]),
    ]
    sdg = _sdg_summary(sdg_checker)
    emit(
        "E8-parallel-speedup",
        format_table(("configuration", "wall ms", "speedup", "cache hits"), rows)
        + f"\ncache-only cold hit rate (SDG off): {_cold_hit_rate(cold_checker):.1%}"
        + f"\nSDG pre-pruning removes {sdg['sdg_pruned']} obligations;"
        + f" cold hit rate with it on: {sdg['cold_hit_rate']:.1%};"
        + f" share avoided by pruning and cache together: {sdg['avoided_share']:.1%}",
    )
    tier_counts = {
        tier: base_checker.stats[tier] for tier in ("disjoint", "symbolic", "bmc")
    }
    emit_json(
        "BENCH_parallel",
        {
            "config": {
                "app": "tpcc-lite",
                "budget": BUDGET,
                "seed": SEED,
                "ladder": list(EXTENDED_LADDER),
                "snapshot": True,
                "workers": 1,
                "use_sdg": False,
            },
            "wall_ms": {
                "serial_cold": round(base_wall * 1000, 1),
                "cached_cold": round(cold_wall * 1000, 1),
                "warm": round(warm_wall * 1000, 1),
                "sdg_cold": round(sdg_wall * 1000, 1),
            },
            "obligations": sum(tier_counts.values()) + base_checker.stats["assumed"],
            "tier_counts": tier_counts,
            "speedup": round(speedup, 2),
            "cold_hit_rate": round(_cold_hit_rate(cold_checker), 4),
            "sdg": sdg,
        },
    )


def test_cold_hit_rate_exceeds_30_percent(runs):
    """Sharing across levels and targets pays off within a single cold run.

    Measured with SDG pre-pruning off, so every obligation reaches the
    cache; the pruned obligations are reported apart in BENCH_parallel.
    """
    _, checker, _ = runs["cached_cold"]
    assert _cold_hit_rate(checker) >= 0.30


def test_verdicts_identical_across_configurations(runs):
    """The cache is invisible to the analysis outcome."""
    base_report, _, _ = runs["serial_cold"]
    cold_report, _, _ = runs["cached_cold"]
    warm_report, _, _ = runs["warm"]
    sdg_report, _, _ = runs["sdg_cold"]

    base = _verdict_map(base_report)
    assert _verdict_map(cold_report) == base
    assert _verdict_map(warm_report) == base
    assert cold_report.levels() == base_report.levels()
    assert warm_report.levels() == base_report.levels()
    # pruning excuses obligations instead of deciding them, so only the
    # levels are comparable
    assert sdg_report.levels() == base_report.levels()
