#!/usr/bin/env python
"""Emulator throughput: host-side guest instructions/sec across engines.

Two engines, one emulated machine:

- ``reference`` — the seed interpreter (per-step cost recomputation
  plus a per-instruction runnable rescan, kept verbatim in
  ``Machine._run_reference``/``_step_reference``).
- ``fast`` — the two-tier plan-cache + superblock engine
  (``repro/emulator/engine.py``).

Both are bit-identical per seed — this bench asserts that on
every run, so the numbers always compare the same emulated work.

Writes ``BENCH_emulator.json`` at the repo root to seed the perf
trajectory.  Runs as a script::

    PYTHONPATH=src python benchmarks/bench_emulator_throughput.py
    PYTHONPATH=src python benchmarks/bench_emulator_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.emulator import Machine
from repro.workloads import get as get_workload

from common import geomean, write_result

FULL_WORKLOADS = ("histogram", "kmeans", "linear_regression",
                  "matrix_multiply", "pca", "string_match", "word_count")
SMOKE_WORKLOADS = ("histogram", "string_match")
ENGINES = ("reference", "fast")
SIZE = "small"
OPT_LEVEL = 3
SEED = 7

BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "BENCH_emulator.json")


def _timed_run(image, library, engine):
    """One full emulation; returns (host seconds, fingerprint, machine)."""
    machine = Machine(image, library, seed=SEED, engine=engine)
    start = time.perf_counter()
    machine.run()
    elapsed = time.perf_counter() - start
    assert machine.fault is None
    fingerprint = (bytes(machine.stdout), machine.exit_code,
                   machine.wall_cycles, machine.context_switches,
                   machine.perf_counters().snapshot())
    return elapsed, fingerprint, machine


def bench_one(name: str, repeats: int):
    workload = get_workload(name)
    image = workload.compile(opt_level=OPT_LEVEL)
    seconds = {engine: float("inf") for engine in ENGINES}
    fingerprints = {}
    instructions = 0
    for _ in range(repeats):
        for engine in ENGINES:
            elapsed, fingerprint, machine = _timed_run(
                image, workload.library(SIZE), engine)
            seconds[engine] = min(seconds[engine], elapsed)
            fingerprints[engine] = fingerprint
            instructions = machine.instructions
    # Determinism invariant: same stdout/exit/wall_cycles/context
    # switches/perf counters from every engine, every single run.
    for engine in ENGINES[1:]:
        assert fingerprints[engine] == fingerprints["reference"], \
            f"{name}: {engine} engine diverged from the reference interpreter"
    ips = {engine: instructions / seconds[engine] for engine in ENGINES}
    return {
        "workload": name,
        "size": SIZE,
        "guest_instructions": instructions,
        "reference_seconds": round(seconds["reference"], 6),
        "fast_seconds": round(seconds["fast"], 6),
        "reference_ips": round(ips["reference"]),
        "fast_ips": round(ips["fast"]),
        "fast_vs_reference": round(ips["fast"] / ips["reference"], 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: two workloads, one repeat, "
                             "relaxed speedup floor")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per engine (best-of)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if the fast-vs-reference geomean is "
                             "below this (default: 1.2 in --smoke, "
                             "report-only otherwise)")
    args = parser.parse_args(argv)

    names = SMOKE_WORKLOADS if args.smoke else FULL_WORKLOADS
    repeats = args.repeats or (1 if args.smoke else 3)
    min_speedup = args.min_speedup
    if args.smoke and min_speedup is None:
        min_speedup = 1.2      # generous floor for noisy CI runners

    rows = [bench_one(name, repeats) for name in names]
    fast_geomean = geomean([row["fast_vs_reference"] for row in rows])

    record = {
        "benchmark": "emulator_throughput",
        "unit": "host-side guest instructions per second",
        "engines": {
            "reference": "seed per-step interpreter loop",
            "fast": "ExecPlan cache + superblock dispatch",
        },
        "seed": SEED,
        "opt_level": OPT_LEVEL,
        "repeats": repeats,
        "smoke": bool(args.smoke),
        "results": rows,
        "geomean_fast_vs_reference": round(fast_geomean, 3),
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.normpath(BENCH_JSON)}")

    write_result(
        "bench_emulator_throughput",
        "Emulator throughput: reference vs fast engine "
        "(host instructions/sec)",
        ("workload", "guest instrs", "ref ips", "fast ips", "fast/ref"),
        [(r["workload"], r["guest_instructions"], r["reference_ips"],
          r["fast_ips"], f'{r["fast_vs_reference"]:.2f}x')
         for r in rows],
        notes=f"geomean: fast {fast_geomean:.2f}x over reference; both "
              f"engines verified bit-identical per run; seed {SEED}, "
              f"size {SIZE}")

    status = 0
    if min_speedup is not None and fast_geomean < min_speedup:
        print(f"FAIL: fast geomean {fast_geomean:.2f}x < floor "
              f"{min_speedup:.2f}x", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
