"""On-disk journals that make sharded fleet runs resumable.

A sharded run (:mod:`repro.fleet.shard`) folds every per-home summary into a
small mergeable accumulator instead of retaining it, so the only state worth
persisting is *the accumulator itself* plus a watermark saying how much of
the shard's contiguous range it already covers. Each shard appends
``(units_done, accumulator)`` checkpoint records to its own append-only
journal file; re-launching the same run finds the last intact record, seeds
the fold from it, and continues at ``lo + units_done`` — completed ranges
are never re-simulated, and because the folds merge exactly associatively
the resumed run renders byte-identical output to an uninterrupted one.

Crash tolerance is structural, not transactional: a ``kill -9`` mid-append
leaves a torn pickle at the end of the file. :meth:`JournalStore.restore`
stops at the last record that loads cleanly and truncates the torn tail away
so later appends extend a valid stream. A ``manifest.json`` names the run:
the :func:`~repro.cache.fingerprint.code_epoch` of the code that wrote it, a
:func:`spec_token` over the run's inputs, and the unit and shard counts.
Resuming against a journal written by a different run or by other code is
refused before any shard restores, instead of merging foreign aggregates.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.cache.fingerprint import code_epoch, digest
from repro.cache.store import claim_manifest


def spec_token(*parts) -> str:
    """A short run token: the canonical digest of ``parts`` (``TypeError`` on what it cannot reduce)."""
    return digest(*parts)[:16]


@dataclass(frozen=True)
class JournalStore:
    """One run's journal directory: a manifest plus one file per shard.

    Plain picklable fields only — shard worker processes carry the store
    across the pool boundary and append to their own file directly.
    """

    directory: str
    token: str
    units: int
    shards: int

    def open(self) -> "JournalStore":
        """Create the directory and write the manifest, or refuse one that differs.

        This runs before any shard restores: checkpoints pickled by other
        code may not load here, and ``restore`` would truncate them as torn.
        """
        epoch = code_epoch()
        payload = {
            "epoch": epoch,
            "token": self.token,
            "units": self.units,
            "shards": self.shards,
        }
        existing = claim_manifest(Path(self.directory), payload)
        if existing is None:
            return self
        if {**existing, "epoch": epoch} == payload:
            raise ValueError(
                f"journal at {self.directory!r} was written by other code (epoch "
                f"{existing['epoch']}, this code is epoch {epoch}); its checkpoints "
                "cannot be resumed, point --journal at a fresh directory"
            )
        raise ValueError(
            f"journal at {self.directory!r} belongs to a different run "
            f"(manifest {existing} != {payload}); resume with the same "
            "spec and shard count, or point --journal at a fresh directory"
        )

    def shard_path(self, shard: int) -> Path:
        return Path(self.directory) / f"shard-{shard:04d}.journal"

    def restore(self, shard: int) -> tuple[int, Optional[object]]:
        """The last intact ``(units_done, accumulator)`` checkpoint.

        Returns ``(0, None)`` when the shard has no journal yet. A torn tail
        (the run was killed mid-append) is truncated off so subsequent
        appends extend a clean record stream.
        """
        path = self.shard_path(shard)
        if not path.exists():
            return 0, None
        done, acc = 0, None
        with open(path, "r+b") as fh:
            valid_end = 0
            while True:
                try:
                    record_done, record_acc = pickle.load(fh)
                except EOFError:
                    break
                except Exception:
                    # Torn or corrupt tail: keep everything before it.
                    fh.truncate(valid_end)
                    break
                done, acc = record_done, record_acc
                valid_end = fh.tell()
        return done, acc

    def append(self, shard: int, done: int, acc: object) -> None:
        """Append one checkpoint covering the shard's first ``done`` units."""
        with open(self.shard_path(shard), "ab") as fh:
            pickle.dump((done, acc), fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
