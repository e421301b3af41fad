"""The layer map: which public callables each span wraps, and the metrics
derived from the spans and counters after a traced pass.

Every target names the place a caller looks the callable up. A function
imported by name into another module is wrapped in that module, which is
why, for example, ``study_fingerprint`` is wrapped twice. If a refactor moves
a call elsewhere, the span stops firing and the traced pass fails its
liveness check instead of reporting a silent zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import Patches, Tracer

RENDERERS = (
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_table6",
    "render_table7",
    "render_table8",
    "render_table9",
    "render_table10",
    "render_table12",
    "render_table13",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "render_fleet_summary",
    "render_faults",
)


@dataclass(frozen=True)
class Span:
    """One layer: its name, where it is looked up, and how it is kept."""

    name: str
    targets: tuple[str, ...]
    record: bool = False  # keep every call as a record (per-home grain or coarser)
    hits: str | None = None  # counter of calls returning a truthy value


SPANS = (
    Span("sim.engine", ("repro.sim.engine:Simulator.run_until",), record=True),
    Span("net.send", ("repro.sim.nic:Nic.send", "repro.sim.nic:Nic.send_raw")),
    Span("stack.host.rx", ("repro.stack.host:HostStack.handle_frame",)),
    Span("stack.router.rx", ("repro.stack.router:Router.handle_frame",)),
    Span(
        "stack.flowpath",
        (
            "repro.stack.flowpath:FlowFastPath.try_tcp",
            "repro.stack.flowpath:FlowFastPath.try_ntp",
            "repro.stack.flowpath:FlowFastPath.try_local_multicast",
        ),
        hits="stack.flowpath.hits",
    ),
    Span("testbed.lab.build", ("repro.testbed.lab:Testbed.__init__",), record=True),
    Span(
        "testbed.study.resolve",
        (
            "repro.testbed.study:resolve_home_inputs",
            "repro.fleet.runner:resolve_home_inputs",
            "repro.faults.analysis:resolve_home_inputs",
        ),
        record=True,
    ),
    Span("testbed.experiments", ("repro.testbed.study:run_connectivity_experiment",), record=True),
    Span("testbed.portscan", ("repro.testbed.portscan:PortScanner.run",), record=True),
    Span("testbed.activedns", ("repro.testbed.study:active_dns_queries",), record=True),
    Span("core.capture.index", ("repro.core.capture:CaptureIndex.__init__",), record=True),
    # The population workloads' units draw their homes from the scenario module.
    Span("fleet.scenario.generate", ("repro.fleet.scenario:generate_home",), record=True),
    Span(
        "cache.fingerprint",
        ("repro.fleet.runner:study_fingerprint", "repro.faults.analysis:study_fingerprint"),
        record=True,
    ),
    Span("fleet.summary", ("repro.fleet.runner:summarize_home",), record=True),
    Span("faults.analysis.observe", ("repro.faults.analysis:observe_study",), record=True),
    Span(
        "fleet.fold",
        tuple(
            f"{module}:{fold}.{method}"
            for module, fold in (("repro.fleet.stream", "FleetFold"), ("repro.faults.population", "FaultFold"))
            for method in ("add", "merge", "finalize")
        ),
        record=True,
    ),
    Span("cache.store", ("repro.cache.store:StudyCache.get_or_run",), record=True),
    Span("fleet.store.append", ("repro.fleet.store:JournalStore.append",), record=True),
    Span("reports.render", tuple(f"repro.reports:{name}" for name in RENDERERS), record=True),
)

EVENTS_TARGET = "repro.sim.engine:Simulator.schedule"
EXPERIMENT_TARGET = "repro.testbed.study:run_connectivity_experiment"

# Spans every traced pass of the workload must see fire at least once.
_CORE = ("sim.engine", "net.send", "stack.host.rx", "stack.router.rx", "stack.flowpath")
_SIMULATED = _CORE + ("testbed.lab.build", "testbed.experiments", "reports.render")
DECLARED = {
    "study": _SIMULATED + ("testbed.portscan", "testbed.activedns", "core.capture.index"),
    "fleet": _SIMULATED
    + (
        "testbed.study.resolve",
        "core.capture.index",
        "fleet.scenario.generate",
        "cache.fingerprint",
        "fleet.summary",
        "fleet.fold",
    ),
    "faults": _SIMULATED
    + (
        "testbed.study.resolve",
        "fleet.scenario.generate",
        "cache.fingerprint",
        "faults.analysis.observe",
        "fleet.fold",
        "cache.store",
        "fleet.store.append",
    ),
}


def _testbed_counters(testbed) -> dict[str, int]:
    frames = testbed.link.frames
    return {
        "net.framecache.encodes": frames.encode_count,
        "net.framecache.primes": frames.primes,
        "net.framecache.decodes": frames.decode_count,
        "sim.engine.compactions": testbed.sim.compactions,
    }


def _experiment_counts(tracer: Tracer, run_experiment):
    """Count at each experiment boundary, from the testbed's own public
    counters, so the per-frame path carries no extra wrapper for them."""

    def counted(testbed, config, **kwargs):
        before = _testbed_counters(testbed)
        result = run_experiment(testbed, config, **kwargs)
        for name, value in _testbed_counters(testbed).items():
            tracer.count(name, value - before[name])
        tracer.count("testbed.capture.frames", len(result.records))
        tracer.count("stack.flowpath.records", len(result.flow_records))
        return result

    return counted


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer callable; ``patches.restore()`` undoes it."""
    patches.wrap(EXPERIMENT_TARGET, lambda fn: _experiment_counts(tracer, fn))
    patches.wrap(EVENTS_TARGET, lambda fn: tracer.counter("sim.engine.events", fn))
    for span in SPANS:
        for target in span.targets:
            patches.wrap(target, lambda fn, span=span: tracer.span(span.name, fn, record=span.record, hits=span.hits))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced pass: name -> (value, unit)."""
    metrics: dict[str, tuple[float, str]] = {}
    named = 0.0
    for span in SPANS:
        own = tracer.self_s.get(span.name, 0.0)
        named += own
        metrics[f"{span.name}.self_s"] = (own, "s")
        metrics[f"{span.name}.calls"] = (tracer.calls.get(span.name, 0), "count")

    def count(name: str) -> int:
        return tracer.counts.get(name, 0)

    events = count("sim.engine.events")
    metrics["sim.engine.events"] = (events, "count")
    metrics["sim.engine.us_per_event"] = (_ratio(tracer.self_s.get("sim.engine", 0.0) * 1e6, events), "us")
    metrics["sim.engine.compactions"] = (count("sim.engine.compactions"), "count")
    metrics["net.framecache.encodes"] = (count("net.framecache.encodes"), "count")
    metrics["net.framecache.decodes"] = (count("net.framecache.decodes"), "count")
    metrics["net.framecache.prime_rate"] = (
        _ratio(count("net.framecache.primes"), count("net.framecache.encodes")),
        "ratio",
    )
    metrics["stack.flowpath.records"] = (count("stack.flowpath.records"), "count")
    metrics["stack.flowpath.hit_ratio"] = (
        _ratio(count("stack.flowpath.hits"), tracer.calls.get("stack.flowpath", 0)),
        "ratio",
    )
    metrics["testbed.capture.frames"] = (count("testbed.capture.frames"), "count")
    hits, misses = count("cache.store.hits"), count("cache.store.misses")
    metrics["cache.store.hits"] = (hits, "count")
    metrics["cache.store.disk_hits"] = (count("cache.store.disk_hits"), "count")
    metrics["cache.store.misses"] = (misses, "count")
    metrics["cache.store.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.coverage"] = (_ratio(named, traced_wall), "ratio")
    return metrics


def dead_spans(tracer: Tracer, kind: str) -> list[str]:
    """Declared spans of a workload kind that never fired."""
    dead = [name for name in DECLARED[kind] if tracer.calls.get(name, 0) == 0]
    if tracer.counts.get("sim.engine.events", 0) == 0:
        dead.append("sim.engine.events")
    return dead
