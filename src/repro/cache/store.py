"""The two-tier study cache: in-process dedup plus a persistent store.

**Memory tier.** Every worker process holds one :class:`StudyCache` per
:class:`CacheSettings` value. Identical fingerprints computed twice in the
same process — the faults baseline arm across a schedule sweep, the shared
unflipped arm of paired scenarios — hit the memory tier and skip the
simulation entirely. The tier is per-process by construction (the registry
resets when the pid changes), so forked pool workers never double-count
inherited state.

**Disk tier.** With ``CacheSettings.directory`` set, artifacts are also
written to an on-disk object store keyed by ``(fingerprint, extractor)``
and stamped with the :func:`~repro.cache.fingerprint.code_epoch` of the
source that extracted them. Loads verify the stamp and both key components;
a mismatch — other code, tampering, torn write — is treated as a miss and
the study recomputes cold, never half-trusts. Writes are atomic
(temp-file + rename) so concurrent shards can share one directory.

Artifacts are **extracted summaries, never captures**: observation dicts,
``HomeSummary``-shaped dataclasses — the same compact payloads the fleet
monoids fold. An artifact holds only what its fingerprint determines and no
spec label (``home_id``, a lifecycle epoch): folds read labels from each
result's spec, so homes that share a closure share one artifact and still
count as themselves.

A ``stats.log`` beside the objects accrues one line per lookup event from
every process touching the store; the CLI diffs it around a run to report
hits/misses without perturbing stdout.
"""

from __future__ import annotations

import json
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.cache.fingerprint import code_epoch

MANIFEST_NAME = "manifest.json"
STATS_NAME = "stats.log"

# Lookup outcomes, in counter-slot order (see CacheCounters.by_extractor).
EVENTS = ("hit-memory", "hit-disk", "miss")


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write a file all-or-nothing (temp + rename), safe under concurrency.

    Cache entries and journal manifests (:mod:`repro.fleet.store`) share
    this: several shard processes may race to create the same file, and a
    reader must only ever see a complete one. Lives here rather than in the
    fleet store because the cache sits below the fleet in the import graph.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def claim_manifest(root: Path, payload: dict) -> Optional[dict]:
    """Create ``root`` with ``payload`` as its manifest, or return a differing one found there.

    Journal and cache directories both start here; each refuses a differing
    manifest with its own message rather than merge state it did not write.
    """
    root.mkdir(parents=True, exist_ok=True)
    path = root / MANIFEST_NAME
    if not path.exists():
        atomic_write_bytes(path, (json.dumps(payload, sort_keys=True) + "\n").encode())
        return None
    existing = json.loads(path.read_text())
    return None if existing == payload else existing


@dataclass(frozen=True)
class CacheSettings:
    """Picklable cache configuration carried across the pool boundary.

    ``directory=None`` keeps the cache memory-only (in-run dedup without
    any persistence).
    """

    directory: Optional[str] = None


@dataclass
class CacheCounters:
    """Lookup outcome counts for one process-local cache."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    # extractor name -> [memory_hits, disk_hits, misses]
    by_extractor: dict = field(default_factory=dict)

    def record(self, extractor: str, event: str) -> None:
        slot = EVENTS.index(event)
        self.by_extractor.setdefault(extractor, [0, 0, 0])[slot] += 1
        if event == "hit-memory":
            self.memory_hits += 1
        elif event == "hit-disk":
            self.disk_hits += 1
        else:
            self.misses += 1

    def snapshot(self) -> dict:
        return {
            "study_cache_hits": self.memory_hits + self.disk_hits,
            "study_cache_misses": self.misses,
            "studies_deduped": self.memory_hits,
            "study_cache_disk_hits": self.disk_hits,
        }


class StudyCache:
    """One process's view of a cache: memory dict + optional object store."""

    def __init__(self, settings: CacheSettings):
        self.settings = settings
        self.counters = CacheCounters()
        self._memory: dict[tuple, object] = {}
        self._root: Optional[Path] = None
        if settings.directory is not None:
            self._root = self._open_store(Path(settings.directory))

    @staticmethod
    def _open_store(root: Path) -> Path:
        """Create the store directory, or refuse one that is not a study cache.

        The code epoch is checked *per entry*, not here: one directory holds
        entries from many epochs and each run trusts only its own.
        """
        payload = {"kind": "study-cache"}
        existing = claim_manifest(root, payload)
        if existing is not None:
            raise ValueError(
                f"cache at {str(root)!r} uses an incompatible store layout "
                f"(manifest {existing} != {payload}); point --cache at a "
                "fresh directory"
            )
        return root

    def entry_path(self, fingerprint: str, extractor: str) -> Path:
        assert self._root is not None
        return self._root / "objects" / fingerprint[:2] / f"{fingerprint}-{extractor}.pkl"

    def get_or_run(self, fingerprint: str, extractor: str, compute: Callable[[], object]):
        """The single lookup entry point: memory, then disk, then simulate."""
        key = (fingerprint, extractor)
        if key in self._memory:
            self._note(extractor, "hit-memory")
            return self._memory[key]
        artifact, found = self._load(key)
        if found:
            self._note(extractor, "hit-disk")
            self._memory[key] = artifact
            return artifact
        self._note(extractor, "miss")
        artifact = compute()
        self._memory[key] = artifact
        self._store(key, artifact)
        return artifact

    def _note(self, extractor: str, event: str) -> None:
        self.counters.record(extractor, event)
        if self._root is not None:
            with open(self._root / STATS_NAME, "a", encoding="utf-8") as fh:
                fh.write(f"{event} {extractor}\n")

    def _load(self, key: tuple) -> tuple[object, bool]:
        """A disk entry that proves its provenance, or a miss.

        Every failure mode — absent file, torn pickle, tampered epoch
        token, key mismatch — lands on the same cold-recompute path.
        """
        if self._root is None:
            return None, False
        path = self.entry_path(*key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except Exception:
            return None, False
        if not isinstance(payload, dict) or payload.get("code_epoch") != code_epoch():
            return None, False
        if (payload.get("fingerprint"), payload.get("extractor")) != key:
            return None, False
        return payload.get("artifact"), True

    def _store(self, key: tuple, artifact: object) -> None:
        if self._root is None:
            return
        fingerprint, extractor = key
        payload = {
            "code_epoch": code_epoch(),
            "fingerprint": fingerprint,
            "extractor": extractor,
            "artifact": artifact,
        }
        path = self.entry_path(*key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def read_disk_stats(directory) -> dict[str, int]:
    """Event counts accrued in a store's ``stats.log`` (all processes)."""
    counts = {event: 0 for event in EVENTS}
    path = Path(directory) / STATS_NAME
    if not path.exists():
        return counts
    for line in path.read_text(encoding="utf-8").splitlines():
        event = line.split(" ", 1)[0]
        if event in counts:
            counts[event] += 1
    return counts


# ------------------------------------------------- process-local activation
#
# Workers are module-level picklable functions that take one spec; threading
# a cache handle through every signature would ripple through every
# subsystem. Instead the cache is ambient per process: CachingWorker
# activates it around each spec, and workers consult cached_artifact(),
# which is a direct call when nothing is active.

_pid: Optional[int] = None
_caches: dict[CacheSettings, StudyCache] = {}
_active: Optional[StudyCache] = None


def _own_process() -> None:
    """Drop state inherited across fork: each pid counts only its own work."""
    global _pid, _caches, _active
    if _pid != os.getpid():
        _pid = os.getpid()
        _caches = {}
        _active = None


def cache_for(settings: CacheSettings) -> StudyCache:
    """This process's cache for ``settings`` (created on first use)."""
    _own_process()
    if settings not in _caches:
        _caches[settings] = StudyCache(settings)
    return _caches[settings]


def active_cache() -> Optional[StudyCache]:
    _own_process()
    return _active


@contextmanager
def activated(settings: CacheSettings) -> Iterator[StudyCache]:
    """Make ``settings``'s process cache ambient for the block."""
    global _active
    cache = cache_for(settings)
    previous = _active
    _active = cache
    try:
        yield cache
    finally:
        _active = previous


def cached_artifact(fingerprint: str, extractor: str, compute: Callable[[], object]):
    """Workers' lookup hook: memoize through the ambient cache, if any."""
    cache = active_cache()
    if cache is None:
        return compute()
    return cache.get_or_run(fingerprint, extractor, compute)


def process_counters() -> dict:
    """Summed counter snapshot over every cache this process has used."""
    _own_process()
    total = CacheCounters()
    for cache in _caches.values():
        total.memory_hits += cache.counters.memory_hits
        total.disk_hits += cache.counters.disk_hits
        total.misses += cache.counters.misses
    return total.snapshot()


def reset_process_caches() -> None:
    """Forget every process-local cache (tests and benchmarks only)."""
    global _caches, _active
    _own_process()
    _caches = {}
    _active = None


@dataclass(frozen=True)
class CachingWorker:
    """A picklable wrapper activating the cache around each spec.

    Crossing the pool boundary it carries only the settings value; each
    worker process materializes (and keeps, across specs) its own
    :class:`StudyCache`, which is what makes in-run dedup work inside
    long-lived shard and pool processes.
    """

    worker: Callable[[object], object]
    settings: CacheSettings

    def __call__(self, spec):
        with activated(self.settings):
            return self.worker(spec)
