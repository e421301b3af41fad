"""Study-cache store tests: dedup, persistence, and refusal to half-trust.

The disk tier's contract mirrors the journal store's (tests/fleet/
test_store.py): a layout mismatch is refused outright, and any entry that
cannot prove its provenance — tampered code-epoch token, torn pickle, key
mismatch — is a miss that recomputes cold, never an error and never a
stale result.
"""

import pickle

import pytest

from repro.cache import (
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
from repro.cache.store import MANIFEST_NAME


@pytest.fixture(autouse=True)
def fresh_process_caches():
    reset_process_caches()
    yield
    reset_process_caches()


def counting(value="artifact"):
    """A compute() that records how many times it actually ran."""
    calls = []

    def compute():
        calls.append(1)
        return value

    return compute, calls


# ------------------------------------------------------------- memory tier


def test_memory_tier_computes_once_per_key(tmp_path):
    cache = StudyCache(CacheSettings())
    compute, calls = counting()
    assert cache.get_or_run("f" * 64, "x", compute) == "artifact"
    assert cache.get_or_run("f" * 64, "x", compute) == "artifact"
    assert calls == [1]
    assert cache.counters.memory_hits == 1
    assert cache.counters.misses == 1
    assert cache.counters.by_extractor == {"x": [1, 0, 1]}


def test_distinct_keys_do_not_collide():
    cache = StudyCache(CacheSettings())
    assert cache.get_or_run("a" * 64, "x", lambda: "one") == "one"
    assert cache.get_or_run("b" * 64, "x", lambda: "two") == "two"
    assert cache.get_or_run("a" * 64, "y", lambda: "three") == "three"
    assert cache.counters.misses == 3


# --------------------------------------------------------------- disk tier


def test_disk_roundtrip_across_cache_instances(tmp_path):
    settings = CacheSettings(directory=str(tmp_path / "store"))
    first = StudyCache(settings)
    compute, calls = counting({"observed": (1, 2, 3)})
    first.get_or_run("a" * 64, "x", compute)

    fresh = StudyCache(settings)  # a different process, effectively
    assert fresh.get_or_run("a" * 64, "x", compute) == {"observed": (1, 2, 3)}
    assert calls == [1]
    assert fresh.counters.disk_hits == 1


def test_tampered_code_epoch_recomputes_cold(tmp_path):
    settings = CacheSettings(directory=str(tmp_path / "store"))
    cache = StudyCache(settings)
    compute, calls = counting()
    cache.get_or_run("a" * 64, "x", compute)

    path = cache.entry_path("a" * 64, "x")
    payload = pickle.loads(path.read_bytes())
    payload["code_epoch"] = "tampered"
    path.write_bytes(pickle.dumps(payload))

    fresh = StudyCache(settings)
    assert fresh.get_or_run("a" * 64, "x", compute) == "artifact"
    assert calls == [1, 1]  # refused the entry, simulated again
    assert fresh.counters.misses == 1
    # ... and the recompute overwrote the poisoned entry with a valid one.
    again = StudyCache(settings)
    again.get_or_run("a" * 64, "x", compute)
    assert again.counters.disk_hits == 1


def test_corrupt_pickle_is_a_miss_not_an_error(tmp_path):
    settings = CacheSettings(directory=str(tmp_path / "store"))
    cache = StudyCache(settings)
    compute, calls = counting()
    cache.get_or_run("a" * 64, "x", compute)
    cache.entry_path("a" * 64, "x").write_bytes(b"\x80\x04 torn")

    fresh = StudyCache(settings)
    assert fresh.get_or_run("a" * 64, "x", compute) == "artifact"
    assert calls == [1, 1]


def test_entry_under_the_wrong_key_is_refused(tmp_path):
    settings = CacheSettings(directory=str(tmp_path / "store"))
    cache = StudyCache(settings)
    cache.get_or_run("a" * 64, "x", lambda: "one")
    # Copy the valid entry to a different fingerprint's path: the payload
    # self-identifies, so the imposter must be treated as a miss.
    target = cache.entry_path("b" * 64, "x")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(cache.entry_path("a" * 64, "x").read_bytes())

    fresh = StudyCache(settings)
    assert fresh.get_or_run("b" * 64, "x", lambda: "two") == "two"


def test_incompatible_manifest_is_refused(tmp_path):
    root = tmp_path / "store"
    StudyCache(CacheSettings(directory=str(root)))
    (root / MANIFEST_NAME).write_text('{"version": 99, "kind": "study-cache"}')
    with pytest.raises(ValueError, match="incompatible store layout"):
        StudyCache(CacheSettings(directory=str(root)))


def test_stats_log_accrues_all_lookup_events(tmp_path):
    settings = CacheSettings(directory=str(tmp_path / "store"))
    cache = StudyCache(settings)
    compute, _ = counting()
    cache.get_or_run("a" * 64, "x", compute)   # miss
    cache.get_or_run("a" * 64, "x", compute)   # memory hit
    StudyCache(settings).get_or_run("a" * 64, "x", compute)  # disk hit
    assert read_disk_stats(settings.directory) == {"hit-memory": 1, "hit-disk": 1, "miss": 1}


def test_read_disk_stats_on_a_missing_store_is_all_zero(tmp_path):
    assert read_disk_stats(tmp_path / "nowhere") == {"hit-memory": 0, "hit-disk": 0, "miss": 0}


# --------------------------------------------------- ambient activation


def test_cached_artifact_is_a_direct_call_without_a_cache():
    compute, calls = counting()
    assert active_cache() is None
    assert cached_artifact("a" * 64, "x", compute) == "artifact"
    assert cached_artifact("a" * 64, "x", compute) == "artifact"
    assert calls == [1, 1]  # no memoization, no error


def test_activated_scopes_and_restores_the_ambient_cache(tmp_path):
    outer, inner = CacheSettings(), CacheSettings(directory=str(tmp_path / "inner"))
    with activated(outer) as outer_cache:
        assert active_cache() is outer_cache
        with activated(inner) as inner_cache:
            assert active_cache() is inner_cache
        assert active_cache() is outer_cache
    assert active_cache() is None


def test_directories_segregate_caches_in_one_process(tmp_path):
    a = cache_for(CacheSettings(directory=str(tmp_path / "a")))
    b = cache_for(CacheSettings(directory=str(tmp_path / "b")))
    assert a is not b
    assert cache_for(CacheSettings(directory=str(tmp_path / "a"))) is a


def test_caching_worker_is_picklable_and_dedups():
    compute, calls = counting()

    def worker(spec):
        return cached_artifact("a" * 64, "x", compute)

    wrapped = CachingWorker(CountingWorker(), CacheSettings())
    clone = pickle.loads(pickle.dumps(wrapped))
    assert clone.settings == wrapped.settings

    wrapped_local = CachingWorker(worker, CacheSettings())
    assert wrapped_local("spec-1") == "artifact"
    assert wrapped_local("spec-2") == "artifact"
    assert calls == [1]
    assert active_cache() is None  # deactivated between specs


class CountingWorker:
    """Module-level picklable stand-in for a real fleet worker."""

    def __call__(self, spec):
        return spec


def test_process_counters_sum_across_scopes(tmp_path):
    with activated(CacheSettings()):
        cached_artifact("a" * 64, "x", lambda: 1)
        cached_artifact("a" * 64, "x", lambda: 1)
    with activated(CacheSettings(directory=str(tmp_path / "p2"))):
        cached_artifact("a" * 64, "x", lambda: 1)
    snapshot = process_counters()
    assert snapshot["study_cache_misses"] == 2
    assert snapshot["studies_deduped"] == 1
    assert snapshot["study_cache_hits"] == 1
