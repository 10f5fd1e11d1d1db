"""The two in-process wordnet workloads: ``wordnet-expensive`` and ``wordnet-churn``.

Both are closed loops with one caller on wordnet ``small``.  See
README.md for why each exists and what it stresses.
"""

from __future__ import annotations

import copy
import gc
import random
import sys
from statistics import median
from time import perf_counter

from common import (
    Gate,
    HostSpeed,
    cpu_clock,
    GraphChecker,
    NullRecorder,
    SpanRecorder,
    mean,
    pct,
    required_samples,
    wrap_distance_entry_points,
)
from inproc import (
    SETUP_BUILDS,
    InprocStats,
    formulate,
    peak_rss_mb,
    query_edges,
    run_session,
    stepwise_build,
    timed_setup,
)
from pools import CHURN_ROUNDS, churn_round, cycle, expensive_pool, plain_pool

#: Sessions run before the measured window (cold caches are paid once per boot).
WARMUP_SESSIONS = 4
#: Share of sessions whose matches and results page are re-checked by BFS.
CHECK_RATE = 0.15
#: Vertex pairs compared between the maintained PML of the run's last
#: round and a fresh build on its mutated graph.
PML_CHECK_PAIRS = 500


def _steadiness(bundle, setup_times, stats: InprocStats, deferred_by_entry, extra) -> dict:
    import numpy

    return {
        **extra,
        "indexing.t_avg_us": bundle.pre.t_avg * 1e6,
        "core.edges_deferred_total": sum(c.get("edges_deferred", 0) for c in stats.counters),
        "deferred_by_input": deferred_by_entry,
        "setup_times_s": setup_times,
        "cpu_count": _cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def _e2e(stats: InprocStats, raw: InprocStats, peak_rss, setup_times, setup_slow, speed):
    """End-to-end metrics at reference host speed, and the steadiness
    record of the host's speed with the figures as measured."""
    if not stats.session:
        return {}, {}
    setup_s = median(t / s for t, s in zip(setup_times, setup_slow))
    return stats.end_to_end(peak_rss, setup_s), {
        "host_slowdown": speed.slowdown(),
        "host_speed_samples": len(speed.samples),
        "setup_slowdowns": setup_slow,
        "raw_e2e": raw.end_to_end(peak_rss, median(setup_times)),
    }


def _cpu_count() -> int:
    import os

    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _distcache(before, after) -> tuple[float, float]:
    hits = after.get("repro_distcache_hits_total", 0) - before.get("repro_distcache_hits_total", 0)
    misses = after.get("repro_distcache_misses_total", 0) - before.get(
        "repro_distcache_misses_total", 0
    )
    return hits, misses


def _check_session(gate: Gate, key: str, out, checker_factory, rng: random.Random) -> None:
    """Digest gate on every session; BFS re-check on a seeded sample."""
    result = out["result"]
    gate.digest(key, list(result.matches))
    if result.degraded:
        gate.fail(f"{key}: run degraded ({result.degradation_reason})")
    if rng.random() >= CHECK_RATE:
        return
    checker = checker_factory()
    edges = query_edges(out["query"])
    matches = list(result.matches)
    if matches:
        for error in checker.match_errors(rng.choice(matches), edges):
            gate.fail(f"{key}: {error}")
    match_set = {tuple(sorted(m.items())) for m in matches}
    for sub in out["page"]:
        if tuple(sorted(sub.assignment.items())) not in match_set:
            gate.fail(f"{key}: paged result is not in V_delta")
        for error in checker.page_errors(sub.assignment, sub.paths, edges):
            gate.fail(f"{key}: page: {error}")


def _traced_session(ctx, actions, recorder, program_spans, session_id, speed):
    """``run_session`` under the program's own Tracer when tracing is on."""
    from repro.obs.trace import Tracer

    tracer = Tracer() if program_spans is not None else None
    out = run_session(ctx, actions, recorder, tracer, speed)
    if tracer is not None:
        program_spans.append({"session": session_id, "spans": tracer.export()})
    return out


def expensive(seed: int, seconds: float, trace: bool, digests, one_pass: bool = False) -> dict:
    from repro.obs.metrics import metrics

    bundle, setup_times, setup_slow = timed_setup("wordnet", SETUP_BUILDS[0])
    layers = stepwise_build("wordnet") if trace else {}
    ctx = bundle.make_context()
    recorder = SpanRecorder(cpu_clock) if trace else NullRecorder()
    if trace:
        wrap_distance_entry_points(ctx, recorder)
    pool = [(key, formulate(inst, bundle.latency)) for key, inst in expensive_pool(bundle.graph)]
    rng = random.Random(seed)
    check_rng = random.Random(seed + 1)
    gate = Gate(digests)
    checker = GraphChecker(bundle.graph)
    program_spans: list[dict] = []

    speed = HostSpeed()

    def one(index: int, rec, session_id: str, measured: bool = False):
        key, actions = pool[index]
        gate.count(len(actions) + 1)
        spans = program_spans if trace and rec is recorder else None
        try:
            with rec.span("session", session=session_id):
                out = _traced_session(
                    ctx, actions, rec, spans, session_id, speed if measured else None
                )
        except Exception as exc:  # noqa: BLE001 - the gate reports any engine failure
            gate.fail(f"{key}: {type(exc).__name__}: {exc}")
            return None
        _check_session(gate, key, out, lambda: checker, check_rng)
        return out

    if not one_pass:
        for i, index in enumerate(rng.sample(range(len(pool)), WARMUP_SESSIONS)):
            one(index, NullRecorder(), f"warmup-{i}")
    stats = InprocStats()  # at reference host speed, session by session
    raw = InprocStats()  # as measured, for the steadiness record
    deferred_by_entry: dict[str, int] = {}
    gc.collect()
    before = metrics.snapshot()
    window_start = perf_counter()
    n = 0
    while True:
        for index in cycle(len(pool), rng):
            out = one(index, recorder, f"s{n}", measured=True)
            n += 1
            if out is None:
                continue
            stats.add(out, speed.slowdown(out["speed"]))
            raw.add(out)
            deferred_by_entry.setdefault(pool[index][0], out["result"].counters["edges_deferred"])
        if one_pass or (perf_counter() - window_start >= seconds and stats.enough()):
            break
    after = metrics.snapshot()
    peak_rss = peak_rss_mb()
    _, more_times, more_slow = timed_setup("wordnet", SETUP_BUILDS[1])
    setup_times += more_times
    setup_slow += more_slow
    e2e, extra = _e2e(stats, raw, peak_rss, setup_times, setup_slow, speed)
    hits, misses = _distcache(before, after)
    layers.update(stats.layers())
    layers.update(
        {
            "indexing.t_avg_us": bundle.pre.t_avg * 1e6,
            "indexing.query_ms": _query_self_ms(recorder.spans, len(stats.session), speed) if trace else 0.0,
            "indexing.distcache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }
    )
    return {
        "e2e": e2e,
        "layers": layers,
        "bases": {
            "indexing.distcache_hit_ratio": [hits, hits + misses],
            "sessions": len(stats.session),
            "actions": len(stats.actions),
        },
        "steadiness": _steadiness(bundle, setup_times, stats, deferred_by_entry, extra),
        "gate": gate,
        "spans": recorder.spans,
        "program_spans": program_spans,
    }


def _query_self_ms(spans, sessions: int, speed: HostSpeed) -> float:
    """Self time in the wrapped distance entry points per session, at
    reference host speed (the window's median slowdown)."""
    from common import self_times

    rows = self_times(spans)
    total = sum(row["self_s"] for name, row in rows.items() if name.startswith("indexing."))
    return total * 1000.0 / max(sessions, 1) / speed.slowdown()


def churn(seed: int, seconds: float, trace: bool, digests, one_pass: bool = False) -> dict:
    from repro.core.preprocessor import make_context
    from repro.indexing.pml import PrunedLandmarkLabeling
    from repro.obs.metrics import metrics
    from repro.updates import delete_edge, insert_edge

    bundle, setup_times, setup_slow = timed_setup("wordnet", SETUP_BUILDS[0])
    layers = stepwise_build("wordnet") if trace else {}
    pristine = bundle.pre
    plain = [(key, formulate(inst, bundle.latency)) for key, inst in plain_pool(bundle.graph)]
    rounds = [churn_round(pristine.graph, r, len(plain)) for r in range(CHURN_ROUNDS)]
    recorder = SpanRecorder(cpu_clock) if trace else NullRecorder()
    rng = random.Random(seed)
    check_rng = random.Random(seed + 1)
    gate = Gate(digests)
    program_spans: list[dict] = []
    update = {"insert": insert_edge, "delete": delete_edge}

    def private_context(rec):
        # The registry memoizes its bundle process-wide and updates splice
        # the CSR in place, so every round mutates a private deep copy.
        ctx = make_context(copy.deepcopy(pristine), latency=bundle.latency)
        if rec is recorder and trace:
            wrap_distance_entry_points(ctx, recorder)
        return ctx

    speed = HostSpeed()

    def step(ctx, round_id, index, rec, stats, reports, session_id):
        kind, u, v, session_index = rounds[round_id][index]
        pre = speed.sample() if stats is not None else []  # the update's host speed
        key = f"r{round_id}/{index}"
        actions = plain[session_index][1]
        gate.count(len(actions) + 2)
        try:
            with rec.span("session", session=session_id):
                with rec.span(f"updates.{kind}"):
                    start = cpu_clock()
                    report = update[kind](ctx, u, v)
                    spent = cpu_clock() - start
                spans = program_spans if trace and rec is recorder else None
                window_speed = speed if stats is not None else None
                out = _traced_session(ctx, actions, rec, spans, session_id, window_speed)
        except Exception as exc:  # noqa: BLE001 - the gate reports any engine failure
            gate.fail(f"{key}: {type(exc).__name__}: {exc}")
            return
        if stats is not None:
            out["update_s"] = spent
            slowdown = speed.slowdown(out["speed"] + pre)
            stats.add(out, slowdown)
            raw.add(out)
            reports.append((kind, spent / slowdown, report))
        _check_session(gate, key, out, lambda: GraphChecker(ctx.graph), check_rng)

    def verify_pml(ctx, round_id):
        fresh = PrunedLandmarkLabeling.build(ctx.graph)
        pair_rng = random.Random(round_id)
        n = ctx.graph.num_vertices
        for _ in range(PML_CHECK_PAIRS):
            a, b = pair_rng.randrange(n), pair_rng.randrange(n)
            if ctx.oracle.distance(a, b) != fresh.distance(a, b):
                gate.fail(f"r{round_id}: maintained PML dist({a},{b}) differs from a fresh build")
                return

    if not one_pass:
        warm = rng.randrange(CHURN_ROUNDS)
        ctx = private_context(None)
        for index in range(4):
            step(ctx, warm, index, NullRecorder(), None, None, f"warmup-{index}")
    stats = InprocStats()  # at reference host speed, session by session
    raw = InprocStats()  # as measured, for the steadiness record
    reports: list = []
    deferred_by_entry: dict[str, int] = {}
    gc.collect()
    before = metrics.snapshot()
    window_start = perf_counter()
    n = 0
    while True:
        for round_id in cycle(CHURN_ROUNDS, rng):
            ctx = private_context(recorder)
            for index in range(len(rounds[round_id])):
                first = len(stats.counters)
                step(ctx, round_id, index, recorder, stats, reports, f"s{n}")
                n += 1
                if len(stats.counters) > first:
                    deferred_by_entry.setdefault(
                        f"r{round_id}/{index}", stats.counters[-1].get("edges_deferred", 0)
                    )
            if one_pass:
                verify_pml(ctx, round_id)
        enough = stats.enough() and len(reports) >= required_samples(90)
        if one_pass or (perf_counter() - window_start >= seconds and enough):
            break
    after = metrics.snapshot()
    peak_rss = peak_rss_mb()
    if not one_pass:
        verify_pml(ctx, round_id)
    _, more_times, more_slow = timed_setup("wordnet", SETUP_BUILDS[1])
    setup_times += more_times
    setup_slow += more_slow
    hits, misses = _distcache(before, after)
    e2e, extra = _e2e(stats, raw, peak_rss, setup_times, setup_slow, speed)
    ms = 1000.0
    inserts = [r for r in reports if r[0] == "insert"]
    deletes = [r for r in reports if r[0] == "delete"]
    layers.update(stats.layers())
    layers.update(
        {
            "indexing.t_avg_us": pristine.t_avg * 1e6,
            "indexing.query_ms": _query_self_ms(recorder.spans, len(stats.session), speed) if trace else 0.0,
            "indexing.distcache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "updates.insert_ms": pct([r[1] for r in inserts], 50) * ms,
            "updates.delete_ms": pct([r[1] for r in deletes], 50) * ms,
            "updates.update_p50_ms": pct([r[1] for r in reports], 50) * ms,
            "updates.update_p90_ms": pct([r[1] for r in reports], 90) * ms,
            "updates.labels_added": mean(r[2].labels_added for r in inserts),
            "updates.cache_dropped": mean(r[2].cache_dropped for r in reports),
            "updates.two_hop_recomputed": mean(r[2].two_hop_recomputed for r in reports),
        }
    )
    return {
        "e2e": e2e,
        "layers": layers,
        "bases": {
            "indexing.distcache_hit_ratio": [hits, hits + misses],
            "sessions": len(stats.session),
            "actions": len(stats.actions),
            "updates": [len(inserts), len(deletes)],
        },
        "steadiness": _steadiness(bundle, setup_times, stats, deferred_by_entry, extra),
        "gate": gate,
        "spans": recorder.spans,
        "program_spans": program_spans,
    }
