"""The repository benchmark: cold `analyze`, `explore` and `fuzz` workloads.

    python3 perfbench/run.py --workload analyze --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh,
single-threaded interpreter (``perfbench/worker.py``), so every pass is
cold.  With ``--trace 0`` the run times nine set-ups, then
does cold passes of the workload's fixed work until the next pass would
overrun ``--seconds`` (at least one), and prints the end-to-end metrics
(medians over passes).  With ``--trace 1`` it does one untraced and one
traced pass, checks that their outputs are identical, and prints the
per-layer metrics of the traced pass plus ``trace.coverage`` and
``trace.overhead``.

Every unit's output is checked against ``perfbench/references``; a
mismatch counts in ``failed`` and the run exits 1.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record — provenance,
every pass and every unit's own row — is written to
``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import queue
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from bench_stats import median, tail  # noqa: E402

#: A run must end within 180 s; this leaves room to stop the workers.
DEADLINE_S = 170.0
WORKLOADS = ("analyze", "explore", "fuzz")
#: Set-ups timed in their own processes before the passes (each pass adds one).
SETUP_SAMPLES = 9
#: Verdict shares a workload does not produce read 0 in the traced run.
SHARES = ("proved_share", "unstable_share", "tight_share")


class BenchError(Exception):
    """The run could not produce a result (no source, a worker died, time ran out)."""


def _worker_env() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    # one thread per process, and one string-hash order for every pass
    env.update(
        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(workload: str, seed: int, mode: str, deadline: float, smoke: bool = False) -> dict:
    """Start one worker; returns its setup time, wall time and (unless setup-only) result."""
    OUT.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    if smoke:
        command.append("--smoke")
    lines: queue.Queue = queue.Queue()
    with open(OUT / "worker.log", "a") as log:
        log.write(f"$ {' '.join(command)}\n")
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
            stderr=log, text=True,
        )
        try:
            pump = threading.Thread(target=lambda: [lines.put(l) for l in proc.stdout], daemon=True)
            pump.start()

            def next_line() -> str:
                try:
                    line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
                except queue.Empty:
                    raise BenchError(f"{workload} {mode} worker ran out of time") from None
                if not line.endswith("\n"):  # stream closed mid-line
                    raise BenchError(f"{workload} {mode} worker died")
                return line

            if next_line() != "READY\n":
                raise BenchError(f"{workload} {mode} worker failed during set-up")
            ready = time.perf_counter()
            record = {"setup_s": ready - start}
            if mode != "setup":
                result = json.loads(next_line())
                record.update(result, wall_s=time.perf_counter() - ready)
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            pump.join(timeout=5)
            if proc.returncode != 0:
                raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
            return record
        except BenchError:
            raise
        except (OSError, ValueError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"{workload} {mode} worker: {exc}") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_state() -> dict:
    """Commit and dirty flag, or nulls in a checkout that is not a git repository."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            env=env, timeout=30, check=True,
        ).stdout.strip()

    try:
        return {
            "sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def source_digest() -> str:
    """SHA-256 over the program's source files: names the code measured in any checkout."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def topology() -> dict:
    sys.path.insert(0, str(ROOT))
    from benchmarks._report import topology as machine_topology

    return machine_topology()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def unit_stats(run: dict) -> dict:
    samples = [ms for _label, ms in run["unit_ms"]]
    value, percentile, n = tail(samples)
    return {"p50_ms": median(samples), "tail_ms": value, "tail_percentile": percentile, "n": n}


def unit_latency(stats: list) -> dict:
    """Per-unit p50 and tail, medians over the given untraced passes.

    Reported as per-layer metrics: on a shared host they spread too widely
    across runs to carry an end-to-end bound (see README.md).
    """
    return {
        "units.p50_ms": (median([s["p50_ms"] for s in stats]), "ms"),
        "units.tail_ms": (median([s["tail_ms"] for s in stats]), "ms"),
    }


def end_to_end(setups: list, passes: list) -> dict:
    return {
        "setup_s": (median(setups), "s"),
        "run_s": (median([run["run_s"] for run in passes]), "s"),
        "peak_rss_mb": (median([run["peak_rss_mb"] for run in passes]), "MB"),
    }


def per_layer(base: dict, traced: dict) -> dict:
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    for share in SHARES:
        metrics[f"verdicts.{share}"] = (traced["shares"].get(share, 0.0), "share")
    metrics["trace.coverage"] = (traced["coverage"], "share")
    metrics["trace.overhead"] = (traced["run_s"] / base["run_s"] - 1.0, "share")
    return metrics


def declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def measure(args, deadline: float) -> dict:
    setups: list = []
    passes: list = []
    if args.trace:
        base = run_worker(args.workload, args.seed, "run", deadline)
        traced = run_worker(args.workload, args.seed, "traced", deadline)
        passes = [base, traced]
        stats = [unit_stats(run) for run in passes]
        metrics = per_layer(base, traced)
        metrics.update(unit_latency(stats[:1]))
    else:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_worker(args.workload, args.seed, "setup", deadline)["setup_s"])
        measured = 0.0
        while True:
            run = run_worker(args.workload, args.seed, "run", deadline)
            passes.append(run)
            setups.append(run["setup_s"])
            measured += run["wall_s"]
            if measured + run["wall_s"] > args.seconds:
                break
            if time.monotonic() + 1.5 * run["wall_s"] > deadline:
                break
        stats = [unit_stats(run) for run in passes]
        metrics = end_to_end(setups, passes)
        metrics.update(unit_latency(stats))
    failed = sum(len(run["problems"]) for run in passes)
    attempted = sum(run["attempted"] for run in passes)
    agree = all(run["outputs"] == passes[0]["outputs"] for run in passes[1:])
    if not agree:
        failed += 1
        attempted += 1
    declared = declared_metrics(args.trace)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {
        "metrics": {m["name"]: metrics[m["name"]] for m in declared},
        "all_metrics": metrics,
        "setup_samples_s": setups,
        "passes": passes,
        "unit_stats": stats,
        "outputs_agree": agree,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cold analyze / explore / fuzz benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        measured = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc} (see {OUT / 'worker.log'})", file=sys.stderr)
        return 3
    correct = measured["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_at": started,
        "git": git_state(),
        "source_sha256": source_digest(),
        "topology": topology(),
        "correct": correct,
        **measured,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for run in measured["passes"]:
        for unit, found in run["problems"].items():
            print(f"MISMATCH {unit}: {'; '.join(found)}")
    stats = measured["unit_stats"][0]
    latency = measured["all_metrics"]
    summary = ", ".join(
        f"{name} {value:.4g} {unit}" for name, (value, unit) in measured["metrics"].items()
        if not args.trace
    ) or f"{len(measured['metrics'])} per-layer metrics"
    print(
        f"{args.workload} seed {args.seed}: {summary}; units p50 {latency['units.p50_ms'][0]:.4g} ms,"
        f" tail p{stats['tail_percentile']:.1f} of n={stats['n']} {latency['units.tail_ms'][0]:.4g} ms;"
        f" {measured['failed']}/{measured['attempted']} failed; record {path.relative_to(ROOT)}"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in measured["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
