#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, a correctness gate.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wordnet-expensive --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with spans and prints every
per-layer metric, the self-time breakdown and the tracing overhead.
The last line of standard output is the JSON result.  See README.md.

Each run happens in a fresh child process with pinned hashing and
single-threaded BLAS, building into an empty private cache directory
under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wordnet-expensive", "dblp-service", "wordnet-churn")
#: Every run, its set-up and its checks must end well inside 180 s.
DEADLINE_S = 175.0


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", metavar="RUN_DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: one workload run in a fresh process ---------------------------


def run_workload(workload, seed, seconds, trace, digests, run_dir, one_pass=False) -> dict:
    """Dispatch to the workload driver (imports the program under test)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if workload == "dblp-service":
        from wl_service import service

        return service(seed, seconds, trace, digests, ROOT, run_dir, one_pass)
    from wl_wordnet import churn, expensive

    driver = expensive if workload == "wordnet-expensive" else churn
    return driver(seed, seconds, trace, digests, one_pass)


def child(args) -> int:
    from common import load_digests, spans_json

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        load_digests(args.workload), args.child,
    )
    gate = result.pop("gate")
    spans = result.pop("spans")
    program = result.pop("program_spans")
    if args.trace:
        from common import self_times

        result["self_times"] = self_times(spans)
        with open(os.path.join(args.child, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(spans_json(spans), handle)
        with open(os.path.join(args.child, "program-spans.json"), "w", encoding="utf-8") as handle:
            json.dump(program, handle)
        result["program_summary"] = _program_summary(program)
    result.update(attempted=gate.attempted, failed=gate.failed, errors=gate.errors)
    with open(os.path.join(args.child, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _program_summary(traces) -> dict[str, dict[str, float]]:
    """Per span name of the program's own Tracer: count and total seconds."""
    out: dict[str, dict[str, float]] = {}
    for trace in traces:
        for span in trace.get("spans", []):
            if span.get("end") is None:
                continue
            row = out.setdefault(span["name"], {"count": 0, "total_s": 0.0})
            row["count"] += 1
            row["total_s"] += span["end"] - span["start"]
    return out


# -- parent ---------------------------------------------------------------


def spawn(args, trace: int, deadline: float) -> tuple[dict, str]:
    """Run one child process; returns its result and its run directory."""
    run_dir = os.path.join(
        STATE, "runs", f"{args.workload}-seed{args.seed}-trace{trace}-{os.getpid()}"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    from common import PINNED_ENV

    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--child", run_dir,
    ]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child leads its own process group: this also stops a server
        # it spawned, whatever state the child died in.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise RuntimeError(f"{args.workload} run failed (exit {code}); output above")
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as handle:
        return json.load(handle), run_dir


def code_identity() -> str:
    """sha256 of the program source, the benchmark and ``BENCHMARK.json``.

    Recorded with every untraced run: the tracing overhead and the
    steadiness flags compare a run only with runs of the same code.
    """
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "BENCHMARK.json")]
    for top, suffixes in ((os.path.join(ROOT, "src"), ("",)), (HERE, (".py", ".json"))):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths.extend(
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith(suffixes) and not f.endswith(".pyc")
            )
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def history_dir(workload: str) -> str:
    return os.path.join(STATE, "history", workload)


def load_history(workload: str, code: str) -> list[dict]:
    """The recorded untraced runs of this workload on this code."""
    directory = history_dir(workload)
    if not os.path.isdir(directory):
        return []
    out = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            entry = json.load(handle)
        if entry.get("code") == code:
            out.append(entry)
    return out


def save_history(workload: str, seed: int, code: str, result: dict) -> None:
    directory = history_dir(workload)
    os.makedirs(directory, exist_ok=True)
    name = f"{time.time_ns()}-seed{seed}.json"
    entry = {"seed": seed, "code": code, "e2e": result["e2e"], "steadiness": result["steadiness"]}
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        json.dump(entry, handle)


def steadiness_flags(result: dict, history: list[dict]) -> list[str]:
    """Runs of one workload and code that deferred different edges did different work.

    Compared per input where the run records it (in-process), else as
    the run's total (a run replays whole cycles of the same pool).
    """
    flags = []
    mine = result["steadiness"]
    for other in history:
        theirs = other["steadiness"]
        if "deferred_by_input" in mine and "deferred_by_input" in theirs:
            a, b = theirs["deferred_by_input"], mine["deferred_by_input"]
            differ = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
            if differ:
                flags.append(
                    f"seed {other['seed']}: deferred-edge counts differ on {len(differ)} "
                    f"input(s), e.g. {differ[0]}: {a[differ[0]]} vs {b[differ[0]]}"
                )
        elif theirs["core.edges_deferred_total"] != mine["core.edges_deferred_total"]:
            flags.append(
                f"seed {other['seed']}: {theirs['core.edges_deferred_total']} deferred "
                f"edges vs {mine['core.edges_deferred_total']}"
            )
    return flags


def metric_block(names_units, values: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in names_units}


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, HERE)
    # A terminated benchmark still runs the ``finally`` that stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: this checkout holds no program source (src/repro)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    e2e_spec = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer_spec = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    import report

    code = code_identity()
    history = load_history(args.workload, code)
    if not args.trace:
        result, run_dir = spawn(args, 0, deadline)
        shutil.rmtree(run_dir, ignore_errors=True)
        flags = steadiness_flags(result, history)
        save_history(args.workload, args.seed, code, result)
        report.print_untraced(args, result, e2e_spec, flags)
        values, names = result["e2e"], e2e_spec
    else:
        if not history:
            # No untraced run of this code yet: make one for the overhead.
            untraced, run_dir = spawn(args, 0, deadline)
            shutil.rmtree(run_dir, ignore_errors=True)
            save_history(args.workload, args.seed, code, untraced)
            history = load_history(args.workload, code)
        result, run_dir = spawn(args, 1, deadline)
        untraced_median = {
            name: median(h["e2e"][name] for h in history if name in h["e2e"])
            for name, _unit in e2e_spec
        }
        trace_dir = os.path.join(STATE, "traces", f"{args.workload}-seed{args.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        for name in ("spans.json", "program-spans.json"):
            shutil.move(os.path.join(run_dir, name), os.path.join(trace_dir, name))
        shutil.rmtree(run_dir, ignore_errors=True)
        text = report.traced_report(args, result, e2e_spec, layer_spec, untraced_median, len(history))
        with open(os.path.join(trace_dir, "report.txt"), "w", encoding="utf-8") as handle:
            handle.write(text)
        print(text)
        print(f"spans, program spans and this report: {os.path.relpath(trace_dir, ROOT)}/")
        values = {name: result["layers"].get(name, 0.0) for name, _unit in layer_spec}
        names = layer_spec

    missing = [name for name, _unit in names if name not in values]
    for error in result["errors"]:
        print(f"GATE: {error}")
    print(f"whole run: {time.monotonic() - started:.1f} s wall (set-up, warm-up, window, checks)")
    correct = result["failed"] == 0 and not missing
    line = {
        "correct": correct,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": metric_block([(n, u) for n, u in names if n in values], values),
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
