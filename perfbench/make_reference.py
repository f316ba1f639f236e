"""Write ``references/explore.json``: the ground truth of the explore workload.

For every (scenario, level) unit it records the set of reachable final
states (with the per-instance outcome census) and the set of semantic
violation summaries.  The truth comes from the unpruned DFS where that
finishes within ``DFS_RUNS`` simulator runs, and from the lite DPOR
explorer (sleep sets plus visited-state dedup) otherwise — never from the
optimal explorer the benchmark measures.

    PYTHONPATH=src python3 perfbench/make_reference.py

Rerun it only when a scenario or its invariant changes; a change to the
explorer must leave the file as it is.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads as bw  # noqa: E402

#: Unpruned DFS beyond this many simulator runs gives way to lite DPOR.
DFS_RUNS = 5000
#: A lite exploration this long is treated as unfinished.
LITE_RUNS = 400_000


def main() -> int:
    from repro.sched.explore import explore
    from repro.sched.semantic import check_semantic_correctness

    units = {}
    for group, scenario, level in bw.explore_units():
        specs = bw.scenario_specs(scenario, level)
        source = "dfs"
        result = explore(
            scenario.initial(), specs, pruning=False, max_schedules=DFS_RUNS, workers=1
        )
        if result.truncated:
            source = "lite"
            result = explore(
                scenario.initial(), specs, dpor="lite", max_schedules=LITE_RUNS, workers=1
            )
            if result.truncated:
                print(f"{group}/{scenario.name}@{level}: lite truncated", file=sys.stderr)
                return 1
        finals = bw.final_states(result.results)
        violations = bw.violation_summaries(result.results, scenario, check_semantic_correctness)
        units["|".join((group, scenario.name, level))] = {
            "source": source,
            "runs": result.runs,
            "final_states": finals,
            "violations": violations,
        }
        print(f"{group}/{scenario.name}@{level}: {source}, {result.runs} runs,"
              f" {len(finals)} final states, {len(violations)} violation kinds", flush=True)
    document = {
        "about": "Ground truth of the explore workload; see perfbench/make_reference.py.",
        "units": units,
    }
    (bw.REFERENCES / "explore.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
