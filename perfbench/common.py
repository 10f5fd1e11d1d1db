"""Helpers shared by the workload drivers: statistics, spans, checks.

Nothing here imports the program under test, so the entry point can
validate its checkout before touching ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter, process_time

import numpy as np

#: Environment of every process a run starts: pinned hashing and
#: single-threaded BLAS in the load process and in the server alike.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Results-panel page fetched after every Run (the first screen of results).
PAGE_SIZE = 10
#: ``max_results`` of every session: the service default, so in-process
#: sessions enumerate exactly what the wire returns.
MAX_RESULTS = 10_000
#: A percentile p is reported only from runs holding at least this many
#: samples beyond it (p90 needs 100 samples, p99 needs 1000).
SAMPLES_BEYOND = 10


#: Clock of every in-process engine call: CPU time of the benchmark's
#: process, all its threads included.  The engine runs in-process on the
#: calling thread and is CPU-bound there (user think time is virtual,
#: nothing sleeps or waits), so its CPU time is the wall time it takes on
#: an uncontended core.  Wall time on a shared host also counts the time
#: the hypervisor gives the vCPU to other guests (``steal`` in
#: /proc/stat): on a 2-vCPU VM a fixed 20 ms loop spread 44% in wall time
#: and 13% in CPU time.  What this clock cannot see: work the program
#: hands to other processes, and time it spends waiting.  Set-up, where
#: such work is planned, is timed with :data:`wall_clock` instead.
cpu_clock = process_time
#: Clock of set-up (cold start to ready) and of everything over the wire.
wall_clock = perf_counter


_KERNEL_KEYS = np.arange(2048, dtype=np.int64)


def _speed_kernel() -> int:
    """Fixed benchmark-owned work: dict and integer bytecode, then small
    numpy sorts and searches, the two kinds of work the engine does."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(750):
        key = (i * 7919) % 512
        table[key] = table.get(key, 0) + i
        acc += len(table) & 3
    ids = np.unique((_KERNEL_KEYS * 2654435761) % 1499)
    return acc + int(np.searchsorted(ids, _KERNEL_KEYS[::7]).sum() & 0xFF)


class HostSpeed:
    """How slowly the host runs fixed work right now, against a reference.

    The shared host the benchmark was built on changes speed in spells
    of a second to minutes, in CPU time as well as wall time: the same
    session's CPU time varied up to 2.5x within a minute, and whole runs
    landed in slow spells.  The benchmark times :func:`_speed_kernel`
    (~0.3 ms) between the calls it times, never inside them, and divides
    each timing by the median slowdown of the samples taken around it:
    per session in-process, per build at set-up, per window over the
    wire.  The program under test never runs the kernel, so a change to
    the program moves the reported times in full, while a change of host
    speed moves the kernel about as much as the program and cancels out.
    """

    #: Kernel CPU time on an uncontended vCPU of the reference host (a
    #: 2-vCPU 2.1 GHz Xeon VM, Python 3.11, numpy 2.4): the fastest of
    #: hundreds of samples there.  Timings are reported as they would
    #: read on that host; the constant only scales them.
    REFERENCE_S = 0.00029

    def __init__(self, clock=cpu_clock) -> None:
        self.clock = clock
        self.samples: list[float] = []

    def sample(self, repeats: int = 1) -> list[float]:
        """Time the kernel ``repeats`` times, each right after an untimed
        run of it: run cold, after the engine has filled the caches with
        its own data, the kernel read ~18% slower."""
        out = []
        for _ in range(repeats):
            _speed_kernel()
            start = self.clock()
            _speed_kernel()
            out.append(self.clock() - start)
        self.samples.extend(out)
        return out

    def slowdown(self, samples=None) -> float:
        """Median kernel time over the reference time (1.0: reference speed)."""
        data = sorted(self.samples if samples is None else samples)
        if not data:
            raise RuntimeError("no host-speed samples")
        return pct(data, 50) / self.REFERENCE_S


def required_samples(percentile: float) -> int:
    """Smallest sample count leaving ``SAMPLES_BEYOND`` samples above ``percentile``."""
    return int(round(SAMPLES_BEYOND * 100.0 / (100.0 - percentile)))


#: Points per order statistic at which :func:`pct` integrates its weights.
_HD_POINTS = 64


def pct(values, q: float) -> float:
    """Percentile ``q`` (0-100) of ``values``: the Harrell-Davis estimate.

    A weighted mean of all order statistics, the i-th of n weighted by
    the mass a Beta((n+1)p, (n+1)(1-p)) distribution puts on
    ((i-1)/n, i/n].  One or two order statistics (linear interpolation)
    jump when the percentile sits on a gap between clusters of per-query
    costs: ``wordnet-expensive`` has ten heavy Q4 edges at 30-36 ms
    (at reference speed) and then a cliff to 20 ms, right at its p99,
    so any one action crossing the gap moved that p99 by half.
    """
    data = np.sort(np.asarray(list(values), dtype=float))
    n = len(data)
    if n <= 1:
        return float(data[0]) if n else 0.0
    p = min(max(q / 100.0, 1e-9), 1.0 - 1e-9)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    # Beta density at the midpoints of a fine grid, summed per interval.
    x = (np.arange(n * _HD_POINTS) + 0.5) / (n * _HD_POINTS)
    log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    density = np.exp(log_pdf - log_pdf.max())
    weights = density.reshape(n, _HD_POINTS).sum(axis=1)
    return float(weights @ data / weights.sum())


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def digest_matches(matches) -> str:
    """sha256 of ``V_Δ`` in canonical form, from mappings ``query vertex -> data vertex``.

    Canonical form: the sorted query vertices once, then one row of
    matched data vertices per match, rows sorted.  Equal sets of matches
    give equal digests whatever order the engine enumerated them in.
    """
    keys = sorted(matches[0]) if matches else []
    if any(len(m) != len(keys) for m in matches):
        raise ValueError("matches bind different sets of query vertices")
    rows = sorted(tuple(m[q] for q in keys) for m in matches)
    return hashlib.sha256(repr((keys, rows)).encode("ascii")).hexdigest()


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- spans ---------------------------------------------------------------


class SpanRecorder:
    """In-memory spans around the benchmark's own calls into each layer.

    A span is ``[name, start, end, parent, session]``; ``parent`` indexes
    this recorder's list.  One recorder per thread, so no locking.
    Spans are only written out when the run ends.  ``clock`` is
    :data:`cpu_clock` in-process and :data:`wall_clock` around wire
    requests.
    """

    def __init__(self, clock=wall_clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._session: str | None = None

    @contextmanager
    def span(self, name: str, session: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if session is None:
            session = self._session
        record = [name, self.clock(), None, parent, session]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        outer = self._session
        self._session = session
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()
            self._session = outer


class NullRecorder:
    """Tracing off: every span is a no-op."""

    spans: list[list] = []

    def span(self, name: str, session: str | None = None):
        return nullcontext()


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: count, total and self seconds (children subtracted)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        parent = record[3]
        if parent is not None:
            children.setdefault(parent, []).append((record[1], record[2]))
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent, _session) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += max(end - start - covered, 0.0)
    return out


def spans_json(spans: list[list]) -> list[dict]:
    return [
        {"id": i, "name": n, "start": s, "end": e, "parent": p, "session": sid}
        for i, (n, s, e, p, sid) in enumerate(spans)
    ]


def wrap_distance_entry_points(ctx, recorder: SpanRecorder) -> None:
    """Span every distance entry point of this one ``EngineContext``.

    Instance attributes shadow the methods, so only the context the
    benchmark built for a traced run pays for the spans.
    """
    for name in ("distance", "within", "distances_from", "within_many"):
        method = getattr(ctx, name)
        span_name = f"indexing.{name}"

        def wrapper(*args, _method=method, _name=span_name, **kwargs):
            with recorder.span(_name):
                return _method(*args, **kwargs)

        setattr(ctx, name, wrapper)


# -- correctness ----------------------------------------------------------


class GraphChecker:
    """Independent bounded-BFS distances and path checks on one graph state.

    Reads only ``Graph.neighbors``; the adjacency is snapshotted at
    construction, so build a new checker after the graph mutates.
    """

    def __init__(self, graph) -> None:
        lists = [np.asarray(graph.neighbors(v), dtype=np.int64) for v in range(graph.num_vertices)]
        self.offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        self.offsets[1:] = np.cumsum([len(a) for a in lists])
        self.targets = np.concatenate(lists) if lists else np.zeros(0, dtype=np.int64)

    def adjacent(self, a: int, b: int) -> bool:
        return bool((self.targets[self.offsets[a] : self.offsets[a + 1]] == b).any())

    def dist(self, u: int, v: int, limit: int) -> int | None:
        """Hop distance from ``u`` to ``v``, or None when it exceeds ``limit``."""
        if u == v:
            return 0
        seen = np.zeros(len(self.offsets) - 1, dtype=bool)
        seen[u] = True
        frontier = np.array([u], dtype=np.int64)
        for depth in range(1, limit + 1):
            starts = self.offsets[frontier]
            lengths = self.offsets[frontier + 1] - starts
            total = int(lengths.sum())
            if total == 0:
                return None
            # Gather every frontier vertex's neighbour slice in one index array.
            index = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(total)
            reached = self.targets[index]
            reached = np.unique(reached[~seen[reached]])
            if reached.size == 0:
                return None
            if (reached == v).any():
                return depth
            seen[reached] = True
            frontier = reached
        return None

    def match_errors(self, match: dict[int, int], edges) -> list[str]:
        """Upper-bound check of one ``V_Δ`` match: ``dist <= upper`` per edge."""
        errors = []
        for u, v, _lower, upper in edges:
            if self.dist(match[u], match[v], upper) is None:
                errors.append(f"edge ({u},{v}): dist({match[u]},{match[v]}) > upper {upper}")
        return errors

    def page_errors(self, assignment: dict[int, int], paths, edges) -> list[str]:
        """A paged result: every displayed path is a walk in the graph
        between the matched endpoints with length in ``[lower, upper]``."""
        errors = self.match_errors(assignment, edges)
        for u, v, lower, upper in edges:
            path = paths.get((min(u, v), max(u, v)))
            if path is None:
                errors.append(f"edge ({u},{v}): no displayed path")
                continue
            ends = {assignment[u], assignment[v]}
            if {path[0], path[-1]} != ends:
                errors.append(f"edge ({u},{v}): path ends {path[0]}..{path[-1]}")
            if not lower <= len(path) - 1 <= upper:
                errors.append(
                    f"edge ({u},{v}): path length {len(path) - 1} "
                    f"outside [{lower}, {upper}]"
                )
            for a, b in zip(path, path[1:]):
                if not self.adjacent(a, b):
                    errors.append(f"edge ({u},{v}): {a}-{b} is not a graph edge")
                    break
        return errors


def final_edges(actions) -> list[tuple[int, int, int, int]]:
    """``(u, v, lower, upper)`` of the query an action list leaves at Run."""
    bounds: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    for action in actions:
        kind = action["kind"]
        if kind in ("NewEdge", "ModifyBounds"):
            key = (min(action["u"], action["v"]), max(action["u"], action["v"]))
            bounds[key] = (action["u"], action["v"], action["lower"], action["upper"])
        elif kind == "DeleteEdge":
            bounds.pop((min(action["u"], action["v"]), max(action["u"], action["v"])), None)
    return list(bounds.values())


class Gate:
    """Counts attempted and failed operations and keeps the first errors."""

    def __init__(self, digests: dict[str, str] | None) -> None:
        self.expected = digests
        self.observed: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    def count(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def digest(self, key: str, matches) -> None:
        """Check one session's matches against the recorded digest."""
        try:
            value = digest_matches(matches)
        except ValueError as exc:
            self.fail(f"{key}: {exc}")
            return
        with self._lock:
            seen = self.observed.setdefault(key, value)
        if seen != value:
            self.fail(f"{key}: matches differ between repeats of one input")
        if self.expected is not None and self.expected.get(key) != value:
            self.fail(f"{key}: matches digest differs from the recorded digest")


def load_digests(name: str) -> dict[str, str]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests", f"{name}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
