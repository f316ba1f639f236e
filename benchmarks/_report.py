"""Shared reporting for the benchmark suite.

Every benchmark regenerates one of the paper's artifacts (see DESIGN.md's
experiment index).  Since pytest captures stdout, each experiment writes
its table to ``benchmarks/results/<exp>.txt`` as well as printing it, so
the reproduced rows survive a quiet run and EXPERIMENTS.md can cite them.

Every ``BENCH_*.json`` additionally records the machine and process
topology it was measured on (:func:`topology`): scaling numbers from a
1-core CI container and a 32-core workstation are not comparable, and a
result file that does not say which it came from is a trap for whoever
reads it later.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def topology() -> dict:
    """The machine/process topology a benchmark ran under.

    ``usable_cores`` is the scheduling affinity (what a cgroup-limited CI
    container actually gets), which may be far below ``cpu_count``; scaling
    assertions should gate on it.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": usable,
        "platform": platform.system().lower(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def git_revision() -> dict:
    """The commit the measured source came from, and whether it was edited.

    Both fields are None outside a git checkout.
    """
    root = pathlib.Path(__file__).parent.parent

    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src") if sha else None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status)}


def emit(experiment: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    banner = f"==== {experiment} ===="
    body = f"{banner}\n{text.rstrip()}\n"
    print(body)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(body)


def emit_json(bench: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable result next to the text table.

    ``payload`` follows the benchmark schema::

        {bench, config, wall_ms, obligations, tier_counts}

    Extra keys are allowed; ``bench`` is filled in from the argument so
    callers cannot mislabel a file, ``topology`` is filled in from
    :func:`topology` unless the caller already recorded one (fleet benches
    extend it with their worker counts), and ``git_sha`` / ``git_dirty``
    from :func:`git_revision`.  CI picks these up as artifacts.
    """
    record = dict(payload)
    record["bench"] = bench
    record.setdefault("topology", topology())
    record.update(git_revision())
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{bench}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    return path
