"""In-process pieces shared by the wordnet workloads.

The benchmark drives :class:`repro.core.blender.Boomer` on its own
hybrid timeline: user think time is virtual (the latency model), every
engine call is timed here in process CPU time (see ``common.cpu_clock``).
The Run click waits for whatever CAP work is still backlogged on that
timeline plus the timed ``apply(Run())``.  Set-up is timed in wall time.
Every timing is reported at reference host speed: divided by the
slowdown ``common.HostSpeed`` measured during that session (or build).
"""

from __future__ import annotations

import gc
import resource

from common import MAX_RESULTS, PAGE_SIZE, HostSpeed, cpu_clock, vm_hwm_mb, wall_clock

_ACTION_KIND = {"NewVertex": "vertex", "NewEdge": "edge", "ModifyBounds": "modify"}
#: Cold builds per run, before and after the measured window; ``setup_s``
#: is their median.  Taken at both ends of the run, so that one slow
#: spell of the host does not decide the figure; not inside the window,
#: so that the builds leave the measured sessions alone.
SETUP_BUILDS = (3, 2)
#: Host-speed samples (wall clock) taken on each side of every build.
SETUP_SPEED_SAMPLES = 5


def timed_setup(name: str, repeats: int):
    """Cold dataset builds in wall time, each from an empty memo with no disk cache.

    Wall time, so that build work the program may move to other threads
    or processes counts.  Returns ``(bundle of the last build, seconds of
    each build, host slowdown around each build)``; the slowdown is the
    median of wall-clock host-speed samples just before and just after
    that build.
    """
    from repro.datasets.registry import clear_memory_cache, get_dataset

    times = []
    slowdowns = []
    bundle = None
    for _ in range(repeats):
        bundle = None
        clear_memory_cache()
        gc.collect()  # the previous build's garbage is not this build's cost
        speed = HostSpeed(wall_clock)
        speed.sample(SETUP_SPEED_SAMPLES)
        start = wall_clock()
        bundle = get_dataset(name, "small", use_disk_cache=False)
        times.append(wall_clock() - start)
        speed.sample(SETUP_SPEED_SAMPLES)
        slowdowns.append(speed.slowdown())
    return bundle, times, slowdowns


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    waited-for child (none, unless the program starts processes)."""
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return vm_hwm_mb() + children_kib / 1024.0


def stepwise_build(name: str) -> dict[str, float]:
    """The public build steps of one dataset, timed one by one in wall time."""
    from repro.core.preprocessor import measure_t_avg
    from repro.datasets.registry import dataset_config
    from repro.graph.generators import dblp_like, wordnet_like
    from repro.indexing.pml import PrunedLandmarkLabeling
    from repro.indexing.twohop import two_hop_counts

    config = dataset_config(name, "small")
    start = wall_clock()
    if name == "wordnet":
        graph = wordnet_like(config.num_vertices, seed=config.seed)
    else:
        graph = dblp_like(config.num_vertices, seed=config.seed, num_labels=config.num_labels)
    generate = wall_clock() - start
    start = wall_clock()
    pml = PrunedLandmarkLabeling.build(graph)
    build = wall_clock() - start
    start = wall_clock()
    two_hop_counts(graph)
    two_hop = wall_clock() - start
    start = wall_clock()
    measure_t_avg(pml, graph, seed=config.seed)
    probe = wall_clock() - start
    return {
        "graph.generate_s": generate,
        "indexing.pml_build_s": build,
        "indexing.two_hop_s": two_hop,
        "indexing.t_avg_probe_s": probe,
        "indexing.label_entries": float(pml.total_label_entries()),
    }


def formulate(instance, latency):
    """Jitter-free simulated user: the action list, ``Run`` last."""
    from repro.gui.latency import LatencyModel
    from repro.gui.simulator import SimulatedUser

    return SimulatedUser(LatencyModel(latency, jitter=0.0)).formulate(instance)


def run_session(ctx, actions, recorder, tracer=None, speed=None):
    """One formulation session → Run → first results page.

    Returns the timings and engine outputs of the session; the caller
    decides whether the session is inside the measured window.  With a
    :class:`HostSpeed`, the host's speed is sampled before every engine
    call, outside the timed intervals.
    """
    from repro.core.blender import Boomer

    out = {"actions": [], "probes": [], "speed": []}
    sampled = [0.0]  # CPU time spent sampling, kept out of ``session``

    def sample() -> None:
        if speed is not None:
            with recorder.span("bench.host_speed"):
                start = cpu_clock()
                out["speed"].extend(speed.sample())
                sampled[0] += cpu_clock() - start

    ctx.counters.reset()
    session_start = cpu_clock()
    # Each session starts by collecting the cycles its predecessor left
    # (timed, so ``session`` pays for them).  Left to the allocation
    # counters, the collector's full passes (tens of ms each) landed in
    # whichever action the benchmark's own allocations happened to push
    # them into: peak RSS and action p99 moved with the bookkeeping.
    gc.collect()
    boomer = Boomer(
        ctx, strategy="DI", max_results=MAX_RESULTS, auto_idle=False, tracer=tracer
    )
    arrival = busy = 0.0
    for action in actions[:-1]:
        kind = _ACTION_KIND[type(action).__name__]
        sample()
        with recorder.span(f"core.{kind}"):
            start = cpu_clock()
            boomer.apply(action)
            spent = cpu_clock() - start
        out["actions"].append((kind, spent))
        busy = max(arrival, busy) + spent
        latency = action.latency_after if action.latency_after is not None else boomer.engine.t_lat
        next_arrival = arrival + latency
        idle = next_arrival - busy
        if idle > 0.0:
            # The program spends up to ``idle`` seconds of wall time here
            # (its own TimeBudget); the timeline is charged the CPU time
            # the probe took.  On a host that steals time from the vCPU
            # the probe gets less done in the same virtual idle window.
            with recorder.span("core.idle_probe"):
                start = cpu_clock()
                boomer.probe_idle(idle)
                probed = cpu_clock() - start
            out["probes"].append(probed)
            busy += probed
        arrival = next_arrival
    out["backlog"] = max(busy - arrival, 0.0)
    sample()
    with recorder.span("core.run"):
        start = cpu_clock()
        boomer.apply(actions[-1])
        out["run"] = cpu_clock() - start
    sample()
    with recorder.span("core.page"):
        start = cpu_clock()
        out["page"] = boomer.results(limit=PAGE_SIZE)
        out["page_s"] = cpu_clock() - start
    sample()
    out["session"] = cpu_clock() - session_start - sampled[0]
    out["result"] = boomer.run_result
    out["query"] = boomer.query
    return out


def query_edges(boomer_query) -> list[tuple[int, int, int, int]]:
    return [(e.u, e.v, e.lower, e.upper) for e in boomer_query.edges()]


class InprocStats:
    """Samples of the measured window of one in-process run."""

    def __init__(self) -> None:
        self.srt: list[float] = []
        self.session: list[float] = []
        self.actions: list[float] = []
        self.by_kind: dict[str, list[float]] = {"vertex": [], "edge": [], "modify": []}
        self.probes: list[float] = []
        self.backlog: list[float] = []
        self.drain: list[float] = []
        self.enumerate: list[float] = []
        self.page: list[float] = []
        self.counters: list[dict[str, int]] = []
        self.cap_peak: list[int] = []
        self.busy = 0.0

    def add(self, out, slowdown: float = 1.0) -> None:
        """One session; its timings divided by the host ``slowdown`` it ran at."""
        run = out["result"]
        k = 1.0 / slowdown
        self.srt.append((out["backlog"] + out["run"]) * k)
        self.session.append(out["session"] * k)
        self.busy += (out["session"] + out.get("update_s", 0.0)) * k
        for kind, spent in out["actions"]:
            self.actions.append(spent * k)
            self.by_kind[kind].append(spent * k)
        self.probes.extend(p * k for p in out["probes"])
        self.backlog.append(out["backlog"] * k)
        self.drain.append(run.run_drain_seconds * k)
        self.enumerate.append(run.enumeration_seconds * k)
        self.page.append(out["page_s"] * k)
        self.counters.append(run.counters)
        self.cap_peak.append(run.cap_peak_size)

    def end_to_end(self, peak_rss: float, setup_s: float) -> dict[str, float]:
        from common import pct

        ms = 1000.0
        return {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "sessions_per_s": len(self.session) / self.busy,
            "srt_p50_ms": pct(self.srt, 50) * ms,
            "action_p50_ms": pct(self.actions, 50) * ms,
            "action_p99_ms": pct(self.actions, 99) * ms,
            "session_p50_ms": pct(self.session, 50) * ms,
            "session_p90_ms": pct(self.session, 90) * ms,
        }

    def layers(self) -> dict[str, float]:
        from common import mean, pct

        ms = 1000.0
        sessions = max(len(self.session), 1)
        total = lambda key: sum(c.get(key, 0) for c in self.counters)  # noqa: E731
        return {
            "indexing.distance_queries": total("distance_queries") / sessions,
            "indexing.oracle_calls": total("oracle_calls") / sessions,
            "core.vertex_ms": pct(self.by_kind["vertex"], 50) * ms,
            "core.edge_ms": pct(self.by_kind["edge"], 50) * ms,
            "core.modify_ms": pct(self.by_kind["modify"], 50) * ms,
            "core.srt_p90_ms": pct(self.srt, 90) * ms,
            "core.idle_probe_ms": pct(self.probes, 50) * ms,
            "core.backlog_ms": mean(self.backlog) * ms,
            "core.drain_ms": pct(self.drain, 50) * ms,
            "core.enumerate_ms": pct(self.enumerate, 50) * ms,
            "core.page_ms": mean(self.page) * ms,
            "core.edges_deferred": total("edges_deferred") / sessions,
            "core.pairs_added": total("pairs_added") / sessions,
            "core.cap_peak_entries": mean(self.cap_peak),
        }

    def enough(self) -> bool:
        from common import required_samples

        return (
            len(self.srt) >= required_samples(90)
            and len(self.actions) >= required_samples(99)
        )
