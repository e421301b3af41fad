"""Journal store tests: checkpoints survive restarts, torn tails, and typos.

The journal is the only state a sharded run persists, so restore must be
exact (last intact record wins), crash-tolerant (a ``kill -9`` mid-append
leaves a torn pickle that gets truncated away), and paranoid (a manifest
from a different run, or written by other code, is refused, never merged).
"""

import json
import pickle

import pytest

from repro.cache import code_epoch
from repro.cache.store import MANIFEST_NAME
from repro.fleet.store import JournalStore, spec_token


def make_store(tmp_path, **overrides):
    kwargs = {"directory": str(tmp_path / "journal"), "token": "abc123", "units": 10, "shards": 2}
    kwargs.update(overrides)
    return JournalStore(**kwargs)


def test_restore_without_a_journal_is_a_fresh_start(tmp_path):
    store = make_store(tmp_path).open()
    assert store.restore(0) == (0, None)


def test_append_then_restore_returns_the_last_checkpoint(tmp_path):
    store = make_store(tmp_path).open()
    store.append(0, 3, {"count": 3})
    store.append(0, 6, {"count": 6})
    assert store.restore(0) == (6, {"count": 6})
    # Shards journal independently.
    assert store.restore(1) == (0, None)


def test_open_is_idempotent_for_the_same_run(tmp_path):
    store = make_store(tmp_path).open()
    store.append(0, 5, "acc")
    reopened = make_store(tmp_path).open()
    assert reopened.restore(0) == (5, "acc")


def test_manifest_records_the_run_shape(tmp_path):
    store = make_store(tmp_path).open()
    manifest = json.loads((tmp_path / "journal" / MANIFEST_NAME).read_text())
    assert manifest == {
        "epoch": code_epoch(),
        "token": store.token,
        "units": store.units,
        "shards": store.shards,
    }


@pytest.mark.parametrize("field", ["token", "units", "shards"])
def test_mismatched_manifest_is_refused(tmp_path, field):
    make_store(tmp_path).open()
    changed = {"token": "fff000", "units": 99, "shards": 7}
    with pytest.raises(ValueError, match="different run"):
        make_store(tmp_path, **{field: changed[field]}).open()


def test_torn_tail_is_truncated_and_journal_stays_appendable(tmp_path):
    store = make_store(tmp_path).open()
    store.append(0, 2, "first")
    store.append(0, 4, "second")
    path = store.shard_path(0)
    intact = path.stat().st_size

    # Simulate a kill -9 mid-append: half of a third record lands on disk.
    torn = pickle.dumps((6, "third"), protocol=pickle.HIGHEST_PROTOCOL)
    with open(path, "ab") as fh:
        fh.write(torn[: len(torn) // 2])

    assert store.restore(0) == (4, "second")
    assert path.stat().st_size == intact  # the torn bytes are gone

    store.append(0, 6, "third-retry")
    assert store.restore(0) == (6, "third-retry")


def test_fully_garbage_journal_restores_to_zero(tmp_path):
    store = make_store(tmp_path).open()
    store.shard_path(0).write_bytes(b"\x80not a pickle")
    assert store.restore(0) == (0, None)
    assert store.shard_path(0).stat().st_size == 0


def test_spec_token_is_stable_and_discriminating():
    assert spec_token("fleet", 100, 42) == spec_token("fleet", 100, 42)
    assert spec_token("fleet", 100, 42) != spec_token("fleet", 100, 43)
    assert spec_token("fleet", 100, 42) != spec_token("faults", 100, 42)
    assert len(spec_token("x")) == 16


def test_spec_token_refuses_what_canonical_cannot_reduce():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        spec_token("fleet", Opaque())  # its repr carries a memory address: no stable token
