"""Per-home execution: the guarded entry every population worker runs behind.

Every home is an independent seeded simulator. :func:`_execute_home` is where
a population calls its worker, and it guarantees **error isolation**: all
exceptions (and optional per-home wall-clock timeouts) are caught *inside*
the worker and returned as a failed :class:`HomeResult`, so one crashed home
never kills the run. :func:`simulate_home` is the fleet subsystem's worker;
the other subsystems bring their own picklable ``worker(spec) -> summary``
callable (e.g. :func:`repro.exposure.analysis.run_home_exposure`).
:mod:`repro.fleet.shard` fans homes out over processes.
"""

from __future__ import annotations

import signal
import threading
import traceback
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.cache import cached_artifact, study_fingerprint
from repro.fleet.scenario import HomeSpec
from repro.fleet.summary import HomeSummary, summarize_home
from repro.testbed.study import resolve_home_inputs, run_home_study


class HomeTimeout(BaseException):
    """A home exceeded its per-home wall-clock budget.

    Not an :class:`Exception`: the alarm can land inside a worker's own
    ``except Exception`` (a cloud service, a cache read), which would swallow
    it and let a late home complete with changed traffic.
    """


@dataclass(frozen=True)
class HomeResult:
    """Outcome for one home: a worker summary, or an error string."""

    spec: object                    # HomeSpec, ExposureSpec, or any subsystem spec
    summary: Optional[object] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.summary is not None


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`HomeTimeout` after ``seconds`` of wall-clock time.

    Uses SIGALRM, so it only arms on platforms that have it and only on the
    main thread of the (worker or in-process) shard; otherwise it is a no-op
    and homes run without a budget. An alarm whose raise was dropped (inside
    a ``gc.callbacks`` hook CPython prints it and carries on) raises again
    when the block exits.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    message = f"home exceeded {seconds:.3f}s wall-clock budget"
    fired = False

    def _expired(signum, frame):
        nonlocal fired
        fired = True
        raise HomeTimeout(message)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if fired:
        raise HomeTimeout(message)


def simulate_home(spec: HomeSpec) -> HomeSummary:
    """Run one home end-to-end and summarize it (raises on failure).

    Consults the ambient study cache. The summary holds nothing its
    fingerprint does not determine, so homes that share a closure share one
    artifact — which is how paired flip scenarios share their unflipped
    homes — and the fold reads each row's ``home_id`` from its spec.
    """
    config, profiles = resolve_home_inputs(
        spec.config_name, spec.device_names, fidelity=spec.fidelity
    )

    def compute() -> HomeSummary:
        study = run_home_study(spec.sim_seed, config, profiles)
        with closing(study.testbed):
            return summarize_home(study, spec)

    fingerprint = study_fingerprint(sim_seed=spec.sim_seed, config=config, profiles=profiles)
    return cached_artifact(fingerprint, "fleet-summary", compute)


WorkerFn = Callable[[object], object]


def _execute_home(spec: HomeSpec, timeout: Optional[float] = None, worker: WorkerFn = simulate_home) -> HomeResult:
    """The guarded worker entry point: never raises, always returns."""
    try:
        with _deadline(timeout):
            return HomeResult(spec=spec, summary=worker(spec))
    except (Exception, HomeTimeout):
        return HomeResult(spec=spec, error=traceback.format_exc(limit=8))
