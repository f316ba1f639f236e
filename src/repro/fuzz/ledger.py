"""The append-only JSONL corpus ledger — resumable fuzzing's memory.

Built on :class:`repro.core.persist.SegmentLog` (the verdict store's
substrate): uniquely named ``corpus-*.jsonl`` segments written via
temp-file rename, salted headers so rows from other algorithm versions
miss cleanly, and advisory-claim compaction safe under concurrent
writers.  On top of that the ledger adds the corpus semantics:

* rows are keyed by ``(seed, fingerprint)``; the first recorded row for
  a key wins (verdicts for one key are equal by construction — the
  differential check is deterministic);
* :meth:`record` flushes **one segment per case**: a SIGKILL between
  cases loses at most the case in flight, which is exactly the resume
  contract the interrupt tests enforce;
* :meth:`canonical_bytes` is the ledger's identity — sorted rows, sorted
  keys, one JSON object per line — byte-equal between an interrupted-
  and-resumed run and an uninterrupted one, however many segments the
  rows physically landed in.

The salt binds :data:`repro.core.persist.store_salt` (prover/encoding
versions) with :data:`repro.fuzz.case.FUZZ_VERSION`: a change to either
re-opens every seed.
"""

from __future__ import annotations

import json
import os

from repro.core.persist import SegmentLog, store_salt
from repro.fuzz.case import FUZZ_VERSION, FuzzCase

#: Segment-count threshold beyond which :meth:`CorpusLedger.record`
#: compacts.  Higher than the verdict store's (one segment *per case* is
#: the durability design, not an accident to be merged away eagerly).
COMPACT_THRESHOLD = 64


def ledger_salt() -> str:
    return f"{store_salt()}.{FUZZ_VERSION}"


class CorpusLedger:
    """Settled fuzz cases in one corpus directory."""

    def __init__(self, directory: str | os.PathLike, salt: str | None = None) -> None:
        self._log = SegmentLog(directory, salt or ledger_salt(), prefix="corpus")
        self.directory = self._log.directory
        self.entries: dict = {}  # (seed, fingerprint) -> row dict
        self.stats = self._log.stats
        self.stats.update({"entries_loaded": 0, "entries_recorded": 0})

    # -- loading -------------------------------------------------------------

    def _absorb_rows(self, rows: list, counter: str) -> int:
        absorbed = 0
        for row in rows:
            case = FuzzCase.from_row(row)
            if case is None:
                self.stats["lines_skipped"] += 1
                continue
            key = (case.seed, case.fingerprint)
            if key not in self.entries:
                self.entries[key] = row
                absorbed += 1
        self.stats[counter] += absorbed
        return absorbed

    def load(self) -> int:
        """Absorb every readable same-salt segment; returns rows absorbed."""
        absorbed = 0
        for _segment, rows in self._log.iter_new_segments():
            absorbed += self._absorb_rows(rows, "entries_loaded")
        return absorbed

    refresh = load  # same operation: only not-yet-seen segments are read

    # -- querying ------------------------------------------------------------

    def settled(self, seed: int, fingerprint: str) -> dict | None:
        """The recorded row for this key, or ``None`` if still open."""
        return self.entries.get((seed, fingerprint))

    def cases(self) -> list:
        """All settled cases, decoded, in canonical (seed, fp) order."""
        return [FuzzCase.from_row(row) for _key, row in sorted(self.entries.items())]

    def __len__(self) -> int:
        return len(self.entries)

    # -- recording -----------------------------------------------------------

    def record(self, row: dict) -> bool:
        """Persist one settled case immediately (one segment per case).

        Returns False (and writes nothing) when the key is already
        settled — re-runs never duplicate rows.
        """
        case = FuzzCase.from_row(row)
        if case is None:
            raise ValueError(f"not a valid corpus row: {row!r}")
        key = (case.seed, case.fingerprint)
        if key in self.entries:
            return False
        self.entries[key] = row
        self._log.write_segment([row])
        self.stats["entries_recorded"] += 1
        if self._log.segment_count() > COMPACT_THRESHOLD:
            self.compact()
        return True

    def compact(self) -> dict:
        """Merge every segment into one, deduplicating by case key."""

        def merge(rows: list) -> list:
            merged: dict = {}
            for row in rows:
                case = FuzzCase.from_row(row)
                if case is None:
                    self.stats["lines_skipped"] += 1
                    continue
                merged.setdefault((case.seed, case.fingerprint), row)
            return [row for _key, row in sorted(merged.items())]

        return self._log.compact(merge)

    def segment_count(self) -> int:
        return self._log.segment_count()

    # -- identity ------------------------------------------------------------

    def canonical_bytes(self) -> bytes:
        """Byte identity of the ledger, independent of segment layout."""
        lines = [
            json.dumps(row, sort_keys=True)
            for _key, row in sorted(self.entries.items())
        ]
        return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
