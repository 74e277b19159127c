#!/usr/bin/env python
"""Optimiser cost per pass: host seconds of every ``repro.passes`` pass.

Two suites of builds, each timed cold and warm:

- ``static_suite`` -- ``Recompiler.recompile(trace=...)`` on the 40
  gapbs/ckit/realworld/spec programs at O3 (``xalancbmk`` excluded:
  the strict translator refuses it), with ICFT traces recorded before
  the timed window, as in Table 4;
- ``table2_slice`` -- ``hybrid_recompile`` on the 7 Table 2
  configurations the end-to-end benchmark runs (every build of each
  job: callback discovery for the plain jobs, the fence-opt jobs' one
  instrumented build, and the final builds).

*Cold* is the first run in a fresh interpreter; *warm* is a second run
in the same process.  Every build's ``pass.*`` spans are summed into
per-pass self seconds (passes are leaf spans), next to the build and
``recompile.opt`` seconds and the instructions the passes removed.
Each timing is the least over five fresh processes.
Writes ``BENCH_opt.json`` at the repository root and
``benchmarks/results/bench_opt_passes.md``::

    PYTHONPATH=src python benchmarks/bench_opt_passes.py
    PYTHONPATH=src python benchmarks/bench_opt_passes.py --against OLD/src

``--against`` times a second source tree (for instance a checkout of
the parent commit) in workers that alternate with this tree's, so a
shared host's speed drifts hit both columns alike, and adds
before/after columns.

``--smoke`` builds three programs in two processes under different
``PYTHONHASHSEED`` values and fails unless the image bytes match: the
optimiser's output must not depend on hash or set iteration order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_JSON = os.path.join(ROOT, "BENCH_opt.json")

SIZE = "small"
SEED = 21
STATIC_GROUPS = ("gapbs", "ckit", "realworld", "spec")
STATIC_EXCLUDED = ("xalancbmk",)
TABLE2_SLICE = (
    ("histogram", 0, False),
    ("word_count", 0, True),
    ("kmeans", 3, False),
    ("linear_regression", 3, False),
    ("string_match", 3, False),
    ("matrix_multiply", 3, True),
    ("pca", 3, True),
)
SUITES = ("static_suite", "table2_slice")
SMOKE_PROGRAMS = ("bfs", "ck_mcs", "lightftp")
SMOKE_HASH_SEEDS = ("1", "2")
#: Fresh processes per suite (and per tree with ``--against``); each
#: timing reported is the least over them.
REPEATS = 5


# -- worker side (a fresh interpreter per call) ---------------------------

def _instrumented(totals: dict):
    """A ``Recompiler.recompile`` that also sums each build's time, opt
    stage and pass spans into ``totals``."""
    from repro.core import recompiler
    original = recompiler.Recompiler.recompile

    def recompile(self, *args, **kwargs):
        mark = len(self.tracer.spans)
        started = time.perf_counter()
        result = original(self, *args, **kwargs)
        totals["build_s"] += time.perf_counter() - started
        totals["builds"] += 1
        totals["opt_s"] += result.stats.opt_seconds
        passes = totals["passes"]
        for span in self.tracer.spans[mark:]:
            if not span.name.startswith("pass."):
                continue
            name = span.name[len("pass."):]
            passes[name] = passes.get(name, 0.0) + span.duration
            totals["instrs_removed"] += (span.args.get("instrs_before", 0)
                                         - span.args.get("instrs_after", 0))
        return result

    return recompile


def _static_jobs():
    """One build per program; the images and traces are made here,
    before any timing."""
    from repro.core import ICFTTracer, Recompiler
    from repro.workloads import by_group
    jobs = []
    for group in STATIC_GROUPS:
        for wl in by_group(group):
            if wl.name in STATIC_EXCLUDED:
                continue
            image = wl.compile(opt_level=3)
            trace = ICFTTracer(image).trace(
                lambda _x, wl=wl: wl.library(SIZE), inputs=[None], seed=SEED)
            jobs.append(lambda image=image, trace=trace:
                        Recompiler(image).recompile(trace=trace))
    return jobs


def _table2_jobs():
    from repro.core import hybrid_recompile
    from repro.workloads import get
    jobs = []
    for name, opt, fence_opt in TABLE2_SLICE:
        wl = get(name)
        wl.compile(opt_level=opt)       # memoised: no minicc in the timing
        jobs.append(lambda wl=wl, opt=opt, fo=fence_opt: hybrid_recompile(
            wl, opt, size=SIZE, seed=SEED, fence_opt=fo, cache=None)[0])
    return jobs


def _run(jobs) -> dict:
    from repro.core import recompiler
    totals = {"build_s": 0.0, "opt_s": 0.0, "builds": 0,
              "instrs_removed": 0, "passes": {}}
    original = recompiler.Recompiler.recompile
    recompiler.Recompiler.recompile = _instrumented(totals)
    digest = hashlib.sha256()
    started = time.perf_counter()
    try:
        for build in jobs:
            digest.update(build().image.to_bytes())
    finally:
        recompiler.Recompiler.recompile = original
    totals["jobs_s"] = time.perf_counter() - started
    totals["images_sha256"] = digest.hexdigest()
    return totals


def worker(suite: str) -> dict:
    if suite == "smoke":
        from repro.core import Recompiler
        from repro.workloads import get
        return {name: hashlib.sha256(Recompiler(get(name).compile(
                    opt_level=3)).recompile().image.to_bytes()).hexdigest()
                for name in SMOKE_PROGRAMS}
    jobs = _static_jobs() if suite == "static_suite" else _table2_jobs()
    cold = _run(jobs)
    warm = _run(jobs)
    return {"jobs": len(jobs), "cold": cold, "warm": warm}


# -- driver side -----------------------------------------------------------

def spawn(suite: str, hash_seed=None, src=None) -> dict:
    """Run one worker in a fresh interpreter; ``src`` puts another
    source tree's ``repro`` package first on the path."""
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    if src is not None:
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", suite],
        env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def best(runs) -> dict:
    """Each timing is the least over ``runs`` (fresh processes), taken
    per metric and per pass: a shared host's slow phases only ever add
    time.  The counts and image digests must agree across runs."""
    out = {"jobs": runs[0]["jobs"]}
    for mode in ("cold", "warm"):
        samples = [run[mode] for run in runs]
        first = samples[0]
        for sample in samples:
            if (sample["images_sha256"], sample["instrs_removed"]) != \
                    (runs[0]["cold"]["images_sha256"],
                     runs[0]["cold"]["instrs_removed"]):
                raise SystemExit("images differ between runs")
        record = {key: (round(min(s[key] for s in samples), 4)
                        if isinstance(value, float) else value)
                  for key, value in first.items() if key != "passes"}
        passes = {name: min(s["passes"][name] for s in samples)
                  for name in first["passes"]}
        record["passes"] = {name: round(seconds, 4) for name, seconds in
                            sorted(passes.items(), key=lambda kv: -kv[1])}
        out[mode] = record
    return out


def measure(suite: str, against=None):
    """Timings from ``REPEATS`` workers for this tree and, alternating
    with them so both see the same host, for the ``against`` tree."""
    runs, baseline_runs = [], []
    for _ in range(REPEATS):
        if against is not None:
            baseline_runs.append(spawn(suite, src=against))
        runs.append(spawn(suite))
    return best(runs), (best(baseline_runs) if against else None)


def smoke() -> int:
    hashes = [spawn("smoke", seed) for seed in SMOKE_HASH_SEEDS]
    for name in SMOKE_PROGRAMS:
        print(f"{name}: " + "  ".join(
            f"PYTHONHASHSEED={seed} {h[name][:16]}"
            for seed, h in zip(SMOKE_HASH_SEEDS, hashes)))
    if hashes[0] != hashes[1]:
        print("FAIL: recompiled images depend on PYTHONHASHSEED",
              file=sys.stderr)
        return 1
    print("ok: bit-identical images across hash seeds")
    return 0


def table(record: dict) -> list:
    baseline = record.get("baseline", {}).get("suites", {})
    rows = []
    for suite, data in record["suites"].items():
        before = baseline.get(suite)
        names = list(data["cold"]["passes"])
        for metric in ["build_s", "opt_s"] + names:
            row = [suite, metric]
            for mode in ("cold", "warm"):
                now = (data[mode]["passes"].get(metric, 0.0)
                       if metric in names else data[mode][metric])
                if before is not None:
                    was = (before[mode]["passes"].get(metric, 0.0)
                           if metric in names else before[mode][metric])
                    ratio = f"{was / now:.2f}x" if now else "-"
                    row += [f"{was:.3f}", f"{now:.3f}", ratio]
                else:
                    row.append(f"{now:.3f}")
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--worker", choices=SUITES + ("smoke",),
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: assert bit-identical images across "
                             "two PYTHONHASHSEED values; writes nothing")
    parser.add_argument("--against", metavar="SRC",
                        help="another source tree (the src/ of a checkout "
                             "of an earlier commit) to time in alternation "
                             "with this one, as the before column")
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(worker(args.worker)))
        return 0
    if args.smoke:
        return smoke()

    record = {
        "benchmark": "opt_passes",
        "unit": "host wall seconds",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "size": SIZE, "seed": SEED, "repeats": REPEATS,
        "suites": {},
    }
    baseline = {}
    for suite in SUITES:
        record["suites"][suite], before = measure(suite, args.against)
        if before is not None:
            baseline[suite] = before
            if before["cold"]["images_sha256"] != \
                    record["suites"][suite]["cold"]["images_sha256"]:
                print(f"note: {suite} images differ from the baseline's",
                      file=sys.stderr)
    header = ["suite", "metric"]
    if args.against:
        record["baseline"] = {"suites": baseline}
        header += ["cold before", "cold after", "cold x",
                   "warm before", "warm after", "warm x"]
    else:
        header += ["cold s", "warm s"]
    with open(BENCH_JSON, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.normpath(BENCH_JSON)}")

    sys.path.insert(0, HERE)
    from common import write_result
    write_result(
        "bench_opt_passes",
        "Optimiser: self seconds per pass (cold = fresh process, warm = "
        "second run in it)",
        header, table(record),
        notes=f"least of {REPEATS} fresh processes per timing; "
              f"{record['host']['cpus']}-CPU {record['host']['machine']} "
              f"host, Python {record['host']['python']}; build_s is the "
              f"whole Recompiler.recompile, opt_s its recompile.opt stage")
    return 0


if __name__ == "__main__":
    sys.exit(main())
