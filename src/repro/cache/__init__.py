"""Content-addressed memoization for home studies (DESIGN.md §15).

Every population sweep in the repro re-simulates homes whose inputs are
identical: the faults baseline arm is recomputed per (home, config) spec
that shares a seed, flip sweeps re-run the unchanged arm per scenario, and
repeated CLI invocations start from zero. This package removes that work
without touching a byte of output:

- :mod:`repro.cache.fingerprint` canonicalizes the full study input closure
  (seed, resolved :class:`~repro.stack.config.NetworkConfig` including
  firewall and fidelity, device profile *contents*, fault schedule,
  worker-specific extras such as the WAN scan's ``leak`` flag) into a
  stable hash, plus a code-epoch token derived from the package source so
  entries written by other code never get reused;
- :mod:`repro.cache.store` holds the two-tier cache: a per-worker-process
  memory tier that dedups identical studies *within* a run, and an optional
  on-disk tier (``--cache DIR``) holding compact extracted artifacts —
  per-home observations and summaries, never raw captures — that survives
  across runs and subcommands.

Workers consult the cache through :func:`cached_artifact`; with no cache
activated it is a direct call, so the default path is untouched.
"""

from repro.cache.fingerprint import canonical, code_epoch, digest, study_fingerprint
from repro.cache.store import (
    CacheSettings,
    CachingWorker,
    StudyCache,
    activated,
    active_cache,
    cache_for,
    cached_artifact,
    process_counters,
    read_disk_stats,
    reset_process_caches,
)

__all__ = [
    "CacheSettings",
    "CachingWorker",
    "StudyCache",
    "activated",
    "active_cache",
    "cache_for",
    "cached_artifact",
    "canonical",
    "code_epoch",
    "digest",
    "process_counters",
    "read_disk_stats",
    "reset_process_caches",
    "study_fingerprint",
]
