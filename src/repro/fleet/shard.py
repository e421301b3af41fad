"""Sharded streaming execution: the one engine every population runs on.

``shards=N`` (the CLI's ``--shards N``, alias ``--jobs N``) spawns N
*long-lived* worker shards, each owning one contiguous slice of the
population. A shard generates each home's specs lazily from its index,
simulates the home, folds the outcome straight into a small mergeable
accumulator, and drops the summary. Memory is O(shards), independent of
population size, which is what makes a million-home run fit on one machine.

Three contracts make the output byte-identical at any shard count:

- **unit = whole home.** The work unit is *all* of one home's specs (every
  firewall / config / epoch cell), so a shard boundary never splits a home
  and per-home cross-cell logic (distinct-home counts, epoch-to-epoch
  movement) stays exact. It also puts a home's arms in one process back to
  back, where the study cache's memory tier dedups their shared studies.
- **one exactly associative merge.** Every accumulator is a *tally*:
  nested dicts of int counters, lists (sorted at finalize) and mergeable
  aggregates (``Fraction``-backed
  :class:`~repro.fleet.aggregate.StreamStats`, bucketwise
  :class:`~repro.fleet.aggregate.QuantileSketch`). :func:`merge_tallies`
  combines any two, so any contiguous grouping of partial folds renders the
  same bytes (tests/fleet/test_folds.py checks all five folds).
- **deterministic generation.** Home ``index`` plus the run seed fully
  determine each home (common random numbers), so a shard can generate its
  slice without ever seeing the full spec list.

Resumability rides on the same structure: with a journal
(:mod:`repro.fleet.store`), each shard periodically appends its running
accumulator plus a completed-unit watermark; a re-launched run of the same
inputs and code seeds each shard from its last checkpoint and skips the
completed range.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields
from typing import Callable, ClassVar, Optional, Sequence

from repro.cache import CacheSettings, CachingWorker, code_epoch
from repro.fleet.runner import HomeResult, WorkerFn, _execute_home
from repro.fleet.store import JournalStore, spec_token

DEFAULT_CHECKPOINT_EVERY = 25

DEAD_WORKER_ERROR = (
    "worker process died before returning a result "
    "(killed or crashed, e.g. OOM-killed; the home was not completed)"
)

# unit index -> the specs making up that unit (all cells of one home)
UnitSource = Callable[[int], Sequence]
# (shards_done, shards_total, shard_index, units_in_shard)
ShardProgressFn = Callable[[int, int, int, int], None]


def merge_tallies(left: dict, right: dict) -> dict:
    """Merge tally ``right`` into ``left`` and return ``left``.

    Dicts merge key by key, keeping first-seen key order; a key only
    ``right`` holds is adopted as is. Ints add, lists concatenate, and any
    other value merges through its own ``merge`` (``StreamStats``,
    ``QuantileSketch``). Floats, strings and ``None`` have no exact merge
    and raise ``TypeError``. ``left`` is updated in place and ``right`` may
    share structure with the result, so neither is reused afterwards.
    """
    for key, theirs in right.items():
        if key not in left:
            left[key] = theirs
            continue
        mine = left[key]
        if isinstance(mine, dict) and isinstance(theirs, dict):
            merge_tallies(mine, theirs)
        elif isinstance(mine, int) and isinstance(theirs, int):
            left[key] = mine + theirs
        elif isinstance(mine, list) and isinstance(theirs, list):
            mine.extend(theirs)
        elif type(mine) is type(theirs) and hasattr(mine, "merge"):
            left[key] = mine.merge(theirs)
        else:
            raise TypeError(f"tally slot {key!r}: no exact merge of {type(mine).__name__} and {type(theirs).__name__}")
    return left


def from_tally(cls, counts: Counter, **values):
    """Build dataclass ``cls`` by field name: ``values`` first, the rest from ``counts``.

    ``counts`` is a counter row, so a field no home ever counted reads 0.
    """
    return cls(**values, **{field.name: counts[field.name] for field in fields(cls) if field.name not in values})


def failure_line(error: Optional[str]) -> str:
    """The last line of a worker traceback — what the reports print."""
    return (error or "unknown error").strip().splitlines()[-1]


class Fold:
    """A mergeable streaming aggregation over per-unit outcomes.

    The accumulator is a *tally* that starts as ``empty()`` (a
    :class:`~collections.Counter`, so a counter no unit touched reads 0).
    ``add`` is the one run-and-failure ledger: it counts every run under
    ``total_runs``, appends each failed spec's ``(home_id[, cell],
    failure_line)`` row to ``failed`` (``cell`` names the spec field that
    tells a home's cells apart), and hands the completed results to
    ``count``. ``merge`` is :func:`merge_tallies`; ``finalize`` renders the
    aggregate dataclass the reports consume. Subclasses define only
    ``count`` and ``finalize``, read every per-cell label from
    ``result.spec``, and keep every slot a tally value: counters, lists,
    nested dicts of them, or ``StreamStats`` / ``QuantileSketch``.
    Order-sensitive data is sorted in ``finalize`` or read from dict key
    order, which contiguous merges keep first-seen.

    Fold instances themselves are configuration (frozen, picklable): the
    run's parameters, such as the exposure config, are their fields, so a
    run in which every unit fails still reports them. All run state lives
    in the accumulator.
    """

    cell: ClassVar[Optional[str]] = None

    def empty(self):
        return Counter()

    def add(self, acc, outcomes: tuple[HomeResult, ...]):
        completed = []
        for result in outcomes:
            acc["total_runs"] += 1
            if result.ok:
                completed.append(result)
                continue
            spec = result.spec
            cell = () if self.cell is None else (getattr(spec, self.cell),)
            acc.setdefault("failed", []).append((spec.home_id, *cell, failure_line(result.error)))
        return self.count(acc, completed)

    def count(self, acc, completed: list[HomeResult]):
        raise NotImplementedError

    def merge(self, left, right):
        return merge_tallies(left, right)

    def failed(self, acc) -> tuple:
        """The failure rows, sorted: by home, then cell."""
        return tuple(sorted(acc.get("failed", ())))

    def finalize(self, acc):
        raise NotImplementedError


def shard_ranges(units: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(units)`` into ``shards`` contiguous balanced slices."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    bounds = [units * shard // shards for shard in range(shards + 1)]
    return [(bounds[shard], bounds[shard + 1]) for shard in range(shards)]


def run_unit(
    source: UnitSource, index: int, worker: WorkerFn, timeout: Optional[float]
) -> tuple[HomeResult, ...]:
    """Execute every spec of one unit through the guarded worker entry."""
    return tuple(_execute_home(spec, timeout, worker) for spec in source(index))


def _restore(fold: Fold, journal: Optional[JournalStore], shard: int, lo: int, hi: int):
    """A shard's starting point: its last journal checkpoint, else ``(empty, lo)``."""
    if journal is not None:
        done, saved = journal.restore(shard)
        if saved is not None:
            return saved, min(lo + done, hi)
    return fold.empty(), lo


def _fold_range(
    source: UnitSource,
    lo: int,
    hi: int,
    fold: Fold,
    worker: WorkerFn,
    timeout: Optional[float],
    journal: Optional[JournalStore],
    shard: int,
    checkpoint_every: int,
):
    """One shard's whole life: resume, simulate, fold, checkpoint."""
    acc, start = _restore(fold, journal, shard, lo, hi)
    for index in range(start, hi):
        acc = fold.add(acc, run_unit(source, index, worker, timeout))
        completed = index - lo + 1
        if journal is not None and (completed % checkpoint_every == 0 or index == hi - 1):
            journal.append(shard, completed, acc)
    return acc


def _fold_dead_range(
    source: UnitSource, lo: int, hi: int, fold: Fold, journal: Optional[JournalStore], shard: int
):
    """What a shard whose process died contributes, settled in the parent.

    Its last journal checkpoint (or the empty fold), plus a
    ``DEAD_WORKER_ERROR`` row for every spec of every unit past it. The rows
    are never journaled, so a relaunch retries exactly those units.
    """
    acc, start = _restore(fold, journal, shard, lo, hi)
    for index in range(start, hi):
        dead = tuple(HomeResult(spec=spec, error=DEAD_WORKER_ERROR) for spec in source(index))
        acc = fold.add(acc, dead)
    return acc


def _fork_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _probe_pool() -> bool:
    return True


def start_pool(workers: int):
    """A :class:`~concurrent.futures.ProcessPoolExecutor` proven usable.

    A probe task runs eagerly so that environments where no worker process
    can start at all (sandboxes, fd exhaustion) surface here as ``OSError``
    — which callers treat as "degrade to in-process" — rather than as a
    broken future later, which means "a worker died mid-run".
    """
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, mp_context=_fork_context())
    try:
        pool.submit(_probe_pool).result()
    except Exception as exc:
        pool.shutdown(wait=True, cancel_futures=True)
        raise OSError(f"no usable process pool: {exc!r}") from exc
    return pool


def _run_shards_parallel(
    ranges: list[tuple[int, int]],
    source: UnitSource,
    fold: Fold,
    worker: WorkerFn,
    timeout: Optional[float],
    journal: Optional[JournalStore],
    checkpoint_every: int,
    progress: Optional[ShardProgressFn],
) -> list:
    from concurrent.futures import as_completed
    from concurrent.futures.process import BrokenProcessPool

    accs: list = [None] * len(ranges)
    dead: list[int] = []
    pool = start_pool(len(ranges))
    try:
        futures = {
            pool.submit(
                _fold_range, source, lo, hi, fold, worker, timeout, journal, shard, checkpoint_every
            ): shard
            for shard, (lo, hi) in enumerate(ranges)
        }
        for done, future in enumerate(as_completed(futures), start=1):
            shard = futures[future]
            try:
                accs[shard] = future.result()
            except BrokenProcessPool:
                # A shard process died mid-range (OOM kill, segfault,
                # os._exit), breaking every in-flight shard with it. Never
                # re-fold here: a home that kills its process would kill the
                # parent too. Settle the shard once the pool is gone.
                dead.append(shard)
            if progress is not None:
                lo, hi = ranges[shard]
                progress(done, len(ranges), shard, hi - lo)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    for shard in dead:
        lo, hi = ranges[shard]
        accs[shard] = _fold_dead_range(source, lo, hi, fold, journal, shard)
    return accs


def _run_shards_serial(
    ranges: list[tuple[int, int]],
    source: UnitSource,
    fold: Fold,
    worker: WorkerFn,
    timeout: Optional[float],
    journal: Optional[JournalStore],
    checkpoint_every: int,
    progress: Optional[ShardProgressFn],
) -> list:
    accs = []
    for shard, (lo, hi) in enumerate(ranges):
        accs.append(_fold_range(source, lo, hi, fold, worker, timeout, journal, shard, checkpoint_every))
        if progress is not None:
            progress(shard + 1, len(ranges), shard, hi - lo)
    return accs


def run_sharded(
    units: int,
    source: UnitSource,
    *,
    fold: Fold,
    worker: WorkerFn,
    shards: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[ShardProgressFn] = None,
    journal_dir: Optional[str] = None,
    journal_token: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    cache: Optional[CacheSettings] = None,
):
    """Fold ``units`` home-units into one aggregate across ``shards`` workers.

    Returns ``fold.finalize`` of the merged accumulator. ``shards = 1`` runs
    in-process; ``shards > 1`` fans the contiguous ranges out over a process
    pool (falling back to in-process execution when no pool can start).
    Shard tallies merge in shard order through :func:`merge_tallies`, which
    is exactly associative, so the result is byte-identical for any shard
    count.

    A shard whose process dies mid-range is never re-run: it contributes
    its last journal checkpoint (or nothing) plus a ``DEAD_WORKER_ERROR``
    failed row for every spec past it, and a relaunch against the journal
    retries those units.

    With ``journal_dir`` set, each shard checkpoints every
    ``checkpoint_every`` completed units, and a re-launch with the same
    ``journal_token`` under the same code epoch resumes from the checkpoints
    instead of re-simulating. The token defaults to a
    :func:`~repro.fleet.store.spec_token` over ``(source, fold, worker,
    timeout)``, so a source or worker that cannot canonicalize (a lambda)
    needs an explicit one.

    ``cache`` activates the study cache (:mod:`repro.cache`) inside every
    shard; a ``--cache`` directory additionally persists artifacts across
    runs. It never changes the run's identity.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    effective = min(shards, units) or 1
    ranges = shard_ranges(units, effective)

    journal = None
    if journal_dir is not None:
        if journal_token is None:
            journal_token = spec_token(source, fold, worker, timeout)
        journal = JournalStore(
            directory=str(journal_dir), token=journal_token, units=units, shards=effective
        ).open()
    if cache is not None:
        if cache.directory is not None:
            code_epoch()  # hashed once here, before any fork, so every shard stamps the same epoch
        worker = CachingWorker(worker, cache)

    args = (ranges, source, fold, worker, timeout, journal, checkpoint_every, progress)
    if effective == 1:
        accs = _run_shards_serial(*args)
    else:
        try:
            accs = _run_shards_parallel(*args)
        except (OSError, ImportError):
            # No process pool available here (e.g. sandboxed); shards run
            # in-process one after another — same bytes, just slower.
            accs = _run_shards_serial(*args)

    total = fold.empty()
    for acc in accs:
        total = fold.merge(total, acc)
    return fold.finalize(total)


__all__ = [
    "DEAD_WORKER_ERROR",
    "DEFAULT_CHECKPOINT_EVERY",
    "Fold",
    "JournalStore",
    "failure_line",
    "from_tally",
    "merge_tallies",
    "run_sharded",
    "run_unit",
    "shard_ranges",
    "spec_token",
]
