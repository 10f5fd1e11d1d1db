"""Human-readable output of a run: metrics with units and bases."""

from __future__ import annotations

#: What each per-layer value is taken over.  Ratios print their
#: numerator and denominator from the run's ``bases`` as well.
BASES = {
    "graph.generate_s": "one graph generation (public generator), wall time, traced run only",
    "indexing.pml_build_s": "one PrunedLandmarkLabeling.build, wall time, traced run only",
    "indexing.two_hop_s": "one two_hop_counts pass, wall time, traced run only",
    "indexing.t_avg_probe_s": "one measure_t_avg pass (20k queries), wall time, traced run only",
    "indexing.label_entries": "PML label entries of the built index",
    "indexing.t_avg_us": "t_avg of the serving build (Def. 5.8 input)",
    "indexing.query_ms": "self time in EngineContext distance entry points, per session",
    "indexing.distance_queries": "logical distance queries per completed session",
    "indexing.oracle_calls": "interpreter-level oracle calls per completed session",
    "indexing.distcache_hit_ratio": "repro_distcache hits / lookups in the window",
    "core.vertex_ms": "median per NewVertex call",
    "core.edge_ms": "median per NewEdge call",
    "core.modify_ms": "median per ModifyBounds call",
    "core.srt_p90_ms": "p90 of the SRT as in srt_p50_ms (in-process: CPU time; wire: run round trip)",
    "core.idle_probe_ms": "median per idle-window pool probe",
    "core.backlog_ms": "mean CAP backlog at the Run click, per session",
    "core.drain_ms": "median Run-phase pool drain, per Run",
    "core.enumerate_ms": "median enumeration, per Run",
    "core.page_ms": "mean first-page time (JIT lower-bound check), per page",
    "core.edges_deferred": "deferred edges per completed session",
    "core.pairs_added": "AIVS pairs materialized per completed session",
    "core.cap_peak_entries": "mean peak CAP entries per session",
    "service.create_ms": "median client-observed create_session",
    "service.action_ms": "median client-observed action",
    "service.run_ms": "median client-observed run",
    "service.matches_ms": "median client-observed matches",
    "service.results_ms": "median client-observed results page",
    "service.wire_share": "(client time - server time) / client time, session verbs",
    "service.matches_bytes": "mean bytes of a matches response",
    "service.idle_cross_session_edges": "edges built for another session in donated idle time",
    "service.evicted": "sessions evicted in the window",
    "service.shed": "requests shed in the window",
    "service.admission_rejections": "sessions refused admission in the window",
    "storage.hot_tier_hit_ratio": "repro_storage hits / lookups in the window",
    "storage.resident_bytes": "hot-tier bytes pinned at the end of the window",
    "updates.insert_ms": "median per edge insert, index maintenance included",
    "updates.delete_ms": "median per edge delete, index maintenance included",
    "updates.update_p50_ms": "median per edge update (inserts and deletes)",
    "updates.update_p90_ms": "p90 per edge update (inserts and deletes)",
    "updates.labels_added": "PML labels added per insert",
    "updates.cache_dropped": "distance vectors dropped per update",
    "updates.two_hop_recomputed": "two-hop counts recomputed per update",
}


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def _sizes(result: dict) -> str:
    bases = result["bases"]
    parts = [f"{bases['sessions']} sessions", f"{bases['actions']} actions"]
    if "updates" in bases:
        parts.append(f"{bases['updates'][0]} inserts + {bases['updates'][1]} deletes")
    if "abandoned" in bases:
        parts.append(f"{bases['abandoned']} abandoned")
    return ", ".join(parts)


def print_untraced(args, result: dict, e2e_spec, flags) -> None:
    print(f"== {args.workload}  seed {args.seed}  untraced: {_sizes(result)} ==")
    for name, unit in e2e_spec:
        value = result["e2e"].get(name)
        shown = "MISSING" if value is None else _fmt(value)
        print(f"  {name:<18} {shown:>12} {unit}")
    steady = result["steadiness"]
    print(
        "  steadiness: t_avg {:.2f} us, deferred edges {} in window, setup runs {} s, "
        "cpus {}, python {}, numpy {}".format(
            steady["indexing.t_avg_us"], steady["core.edges_deferred_total"],
            ", ".join(f"{s:.3f}" for s in steady["setup_times_s"]),
            steady["cpu_count"], steady["python"], steady["numpy"],
        )
    )
    if "host_slowdown" in steady:
        raw = steady["raw_e2e"]
        print(
            "  host: median slowdown {:.3f} over {} samples in the window; as measured: {}".format(
                steady["host_slowdown"], steady["host_speed_samples"],
                ", ".join(f"{name} {_fmt(raw[name])}" for name, _unit in e2e_spec if name in raw),
            )
        )
    for flag in flags:
        print(f"  STEADINESS FLAG: {flag}")
    print(f"  gate: {result['attempted']} attempted, {result['failed']} failed")


def traced_report(args, result, e2e_spec, layer_spec, untraced_median, history_runs) -> str:
    lines = [f"== {args.workload}  seed {args.seed}  traced: {_sizes(result)} =="]
    lines.append("-- per-layer metrics --")
    bases = result["bases"]
    for name, unit in layer_spec:
        if name in result["layers"]:
            value = _fmt(result["layers"][name])
        else:
            value = "n/a"
        base = BASES.get(name, "")
        if name in bases and isinstance(bases[name], list):
            num, den = bases[name]
            base += f" [{_fmt(num)} / {_fmt(den)}]"
        lines.append(f"  {name:<34} {value:>12} {unit:<6} {base}")

    lines.append("-- self time by benchmark span (children subtracted) --")
    rows = result.get("self_times", {})
    total = sum(row["self_s"] for row in rows.values()) or 1.0
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {name:<28} n={int(row['count']):>7}  total {row['total_s'] * 1e3:>10.1f} ms"
            f"  self {row['self_s'] * 1e3:>10.1f} ms  {100 * row['self_s'] / total:5.1f}%"
        )

    lines.append("-- program Tracer spans (repro.obs, total time per name) --")
    for name, row in sorted(result.get("program_summary", {}).items(), key=lambda kv: -kv[1]["total_s"]):
        lines.append(f"  {name:<28} n={int(row['count']):>7}  total {row['total_s'] * 1e3:>10.1f} ms")

    lines.append(
        f"-- tracing overhead: traced minus the median of {history_runs} untraced "
        "run(s) of the same code --"
    )
    for name, unit in e2e_spec:
        traced = result["e2e"].get(name)
        base = untraced_median.get(name)
        if traced is None or not base:
            lines.append(f"  {name:<18} n/a")
            continue
        delta = traced - base
        lines.append(
            f"  {name:<18} untraced {_fmt(base):>10} {unit:<5} traced {_fmt(traced):>10}"
            f"  delta {delta:+.4g} ({100 * delta / base:+.1f}%)"
        )
    lines.append(f"-- gate: {result['attempted']} attempted, {result['failed']} failed --")
    return "\n".join(lines)
