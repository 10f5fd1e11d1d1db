#!/usr/bin/env python3
"""Record the match digest of every pool input, for the correctness gate.

Run from the root of a checkout on the commit whose answers are the
reference (the benchmark's seed commit)::

    python3 perfbench/make_digests.py [WORKLOAD ...]

It re-executes itself under the benchmark's pinned environment: the
soak schedule and the generators derive child seeds with ``hash()``,
so their inputs depend on ``PYTHONHASHSEED``.

Each workload replays its whole input pool once and writes
``perfbench/digests/<workload>.json`` (input key -> sha256 of the
canonical ``V_Δ``).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import PINNED_ENV  # noqa: E402
from run import ROOT, STATE, WORKLOADS, run_workload  # noqa: E402


def main() -> int:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    for workload in sys.argv[1:] or WORKLOADS:
        if workload not in WORKLOADS:
            print(f"unknown workload {workload!r}; expected one of {WORKLOADS}", file=sys.stderr)
            return 2
        run_dir = os.path.join(STATE, "digests", workload)
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
        result = run_workload(workload, 0, 0.0, False, None, run_dir, one_pass=True)
        gate = result["gate"]
        if gate.failed:
            print(f"{workload}: {gate.failed} failures: {gate.errors}", file=sys.stderr)
            return 1
        path = os.path.join(HERE, "digests", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(sorted(gate.observed.items())), handle, indent=1)
            handle.write("\n")
        print(f"{workload}: {len(gate.observed)} digests -> {os.path.relpath(path, ROOT)}")
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
