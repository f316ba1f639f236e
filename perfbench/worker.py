"""One benchmark pass in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py --workload analyze --seed 0 --mode run

Protocol on standard output (the program's own output goes to standard
error): the line ``READY`` once the inputs are built, then, unless
``--mode setup``, one JSON line with the pass's result.  ``run`` does the
fixed work with only the unit clock installed; ``traced`` also installs
every layer boundary of :mod:`bench_trace` and writes the span record to
``perfbench/out/``.  A fresh process per pass keeps every pass cold: the verdict
cache, the prover memo tables and the hash-consing tables are
process-wide.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _problem_key(key: tuple) -> str:
    return "/".join(str(part) for part in key)


def main() -> int:
    parser = argparse.ArgumentParser(description="one cold benchmark pass")
    parser.add_argument("--workload", required=True, choices=("analyze", "explore", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "traced"))
    parser.add_argument("--smoke", action="store_true", help="the self-tests' small unit subset")
    args = parser.parse_args()

    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    out_dir = HERE / "out"

    import bench_workloads as bw
    from bench_trace import Tracer, layer_metrics

    if args.workload == "analyze":
        inputs = bw.setup_analyze(args.smoke)
        run, check, shares = bw.run_analyze, bw.check_analyze, bw.analyze_shares
    elif args.workload == "explore":
        inputs = bw.setup_explore(args.smoke)
        run, check, shares = bw.run_explore, bw.check_explore, lambda _outputs: {}
    else:
        corpus = out_dir / f"corpus-{os.getpid()}"
        inputs = bw.setup_fuzz(corpus, args.smoke)
        run, check, shares = bw.run_fuzz, bw.check_fuzz, bw.fuzz_shares
    channel.write("READY\n")
    channel.flush()
    if args.mode == "setup":
        if args.workload == "fuzz":
            inputs.close()
        return 0

    tracer = Tracer()
    if args.mode == "traced":
        tracer.install_layers()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        outputs = run(inputs, tracer)
    finally:
        tracer.restore()
        if args.workload == "fuzz":
            inputs.close()
    run_s = time.perf_counter() - start - tracer.outside_s
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check(outputs, bw.load_reference(args.workload))
    keys = {tuple(row["unit"]) for row in outputs["units"]} | set(problems)
    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "unit_ms": [[label, seconds * 1000.0] for label, seconds in tracer.units],
        "outputs": outputs,
        "shares": shares(outputs),
        "attempted": len(keys),
        "problems": {_problem_key(key): found for key, found in sorted(problems.items(), key=str)},
    }
    if args.mode == "traced":
        from repro.core.prover import prover_cache_stats
        from repro.engine.storage import STORAGE_STATS

        layers = layer_metrics(tracer, prover_cache_stats(), STORAGE_STATS.snapshot())
        result["layers"] = {name: [value, unit] for name, (value, unit) in layers.items()}
        result["coverage"] = sum(tracer.unit_seconds()) / run_s
        out_dir.mkdir(parents=True, exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.dump()))
        result["spans_file"] = str(spans.relative_to(ROOT))
    channel.write(json.dumps(result) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
