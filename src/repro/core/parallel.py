"""Where parallelism lives: at the job and fleet levels, not in here.

The static chooser and the schedule explorer both run in one thread — on
CPython neither an obligation fan-out nor an explorer fan-out beat serial
(``docs/PERFORMANCE.md``), and a single thread keeps every verdict and run
count a function of its input.  Concurrent analysis comes from the
service's job pool (:mod:`repro.service.batcher`) and from the fleet, one
process per shard (:mod:`repro.service.router`).  This module holds no
code; it stays importable for callers that import it at set-up.
"""
