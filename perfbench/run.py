"""End-to-end benchmark of the Polynima reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload table2_cold --seed 1 --seconds 24 --trace 0

Workloads (both closed-loop: one process runs its jobs one after
another, small inputs, scheduler seed 21):

* ``table2_cold`` — a slice of the Table 2 matrix through
  ``repro.core.hybrid_recompile`` against a fresh, empty artifact cache,
  then the original and recompiled images once each on ``run_image``'s
  default engine.  Loads every layer: dynamic analyses, builds,
  emulation, cache lookup and publish.
* ``static_suite`` — ``Recompiler(image).recompile(trace=...)`` on every
  gapbs, ckit, real-world and SPEC program at O3 (``xalancbmk``
  excluded: the strict translator refuses it by design), with ICFT
  traces recorded before the timed passes.  The timed window holds
  only lift/fences/opt/lower; outputs are checked after it.

Each pass runs in a fresh interpreter (``worker.py``).  The number of
passes follows from ``--seconds`` and each workload's measured pass
length, so a faster program does the same work in less time rather than
more work.  Every time the end-to-end metrics report (``setup_s`` and
the job times behind ``jobs_per_s``, ``job_s.p50`` and ``job_s.tail``)
is in reference seconds: wall seconds scaled by the host speed sampled
while they ran (``hostspeed.py``), so that a shared host's slow minutes
do not read as a slower program.  The wall-clock figures are printed on
the line before the result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics
(``layers.py``, in wall seconds).  The last line of standard output is
one JSON object; the exit code is 1 when an output mismatched, a job
failed or a pass did not reproduce the first pass's image and ratios
bit for bit (or an earlier invocation of the same program's ratios),
and 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from jobs import job_list, ordered  # noqa: E402
from layers import CALLERS, PER_LAYER_SUMS  # noqa: E402

WORKLOADS = ("table2_cold", "static_suite")

#: Reference seconds one pass's jobs take (x86-64 Xeon, Python 3.11).
#: A run makes the fewest passes whose jobs take at least ``--seconds``
#: reference seconds.
NOMINAL_PASS_S = {"table2_cold": 10.2, "static_suite": 4.0}

#: Time outside the timed window: the static prep, every pass's set-up
#: and the output checks.
OVERHEAD_S = 45.0

#: A shared host's slow phases stretch a run by up to this factor; an
#: invocation that takes longer than ``SLOW_FACTOR * (seconds +
#: OVERHEAD_S)`` is stopped.
SLOW_FACTOR = 2.0


class BenchError(Exception):
    pass


def geomean(values: List[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def tail(samples: List[float]):
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile)``; the maximum when there are ten or fewer."""
    ordered_samples = sorted(samples)
    n = len(ordered_samples)
    rank = n - 11 if n > 10 else n - 1
    return ordered_samples[rank], 100.0 * (rank + 1) / n


class Invocation:
    def __init__(self, args) -> None:
        self.args = args
        self.workload = args.workload
        self.work = os.path.join(ROOT, ".perfbench-work", self.workload)
        self.started = time.monotonic()
        self.deadline_s = SLOW_FACTOR * (args.seconds + OVERHEAD_S)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("POLYNIMA_")}
        self.env.update(PYTHONPATH=os.path.join(ROOT, "src"),
                        TMPDIR=self.work)
        self.spawned = 0

    def spawn(self, mode: str, **config) -> dict:
        """Run one worker process to completion and return its result."""
        self.spawned += 1
        base = os.path.join(self.work, f"{self.spawned:02d}-{mode}")
        remaining = self.deadline_s - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("time budget exhausted before all passes ran")
        config.update(mode=mode, workload=self.workload, out=base + ".out",
                      spans=base + ".spans.json", spawned=time.monotonic())
        with open(base + ".json", "w") as handle:
            json.dump(config, handle)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             base + ".json"], cwd=ROOT, env=self.env, stdout=sys.stderr,
            timeout=remaining)
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}")
        with open(base + ".out") as handle:
            return json.load(handle)

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        args = self.args
        jobs = job_list(self.workload)
        passes = math.ceil(args.seconds / NOMINAL_PASS_S[self.workload])
        if args.trace:
            passes = max(2, passes)
        common = {}
        prep_s = 0.0
        if self.workload == "static_suite":
            common["traces"] = os.path.join(self.work, "traces.pickle")
            started = time.monotonic()
            self.spawn("prep", jobs=ordered(jobs, args.seed, -1), **common)
            prep_s = time.monotonic() - started
        results = []
        for index in range(passes):
            config = dict(common, jobs=ordered(jobs, args.seed, index),
                          trace=bool(args.trace) and index % 2 == 0,
                          validate=index == 0)
            if self.workload == "table2_cold":
                # A new, empty cache per pass: every job misses, then
                # publishes.
                config["cache_dir"] = os.path.join(self.work, f"cache{index}")
            result = self.spawn("pass", **config)
            result["traced"] = config["trace"]
            results.append(result)
        return summarize(self.workload, jobs, results, prep_s,
                         bool(args.trace))


def check_outputs(workload: str, results) -> Dict[str, dict]:
    """Merge the passes' job records per job id and check them: every
    run matched the original, every pass built the same image and
    measured the same reproduced ratios.  Returns the first pass's
    record per job, with ``ok`` set."""
    reference = {r["id"]: r for r in results[0]["jobs"]}
    for result in results[1:]:
        for record in result["jobs"]:
            first = reference[record["id"]]
            same = all(record.get(key) == first.get(key)
                       for key in ("image_sha256", "code_size"))
            if workload != "static_suite":
                same = same and record.get("norm_runtime") == \
                    first.get("norm_runtime")
            else:
                # Later static passes are checked as bit-identical to
                # the validated first pass.
                record["ok"] = first.get("ok", False)
            if not same:
                record["ok"] = False
                record["error"] = "not bit-identical to the first pass"
    return reference


def program_digest() -> str:
    """sha256 over the sources of the program and of this benchmark."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(hashlib.sha256(
                            handle.read()).digest())
    return digest.hexdigest()


def same_as_before(firsts: Dict[str, dict]) -> bool:
    """Compare each job's reproduced ratios with the ones earlier
    invocations of the same program and benchmark sources measured in
    this checkout; they must repeat exactly.  Other sources keep their
    own file, so a change that moves the ratios is compared only with
    itself."""
    path = os.path.join(ROOT, ".perfbench-work",
                        f"reproduced-{program_digest()[:16]}.json")
    previous = {}
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
    current = {job_id: [record[key].hex()
                        for key in ("norm_runtime", "code_size")]
               for job_id, record in firsts.items()}
    changed = sorted(job_id for job_id, values in current.items()
                     if previous.get(job_id, values) != values)
    for job_id in changed:
        print(f"determinism break: {job_id} measured {current[job_id]}, "
              f"earlier {previous[job_id]}", file=sys.stderr)
    previous.update(current)
    # Replace the file in one step, so a concurrent invocation reads the
    # old or the new mapping, never a torn one.
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(previous, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return not changed


def summarize(workload, jobs, results, prep_s, traced_mode) -> dict:
    firsts = check_outputs(workload, results)
    records = [rec for res in results for rec in res["jobs"]]
    attempted = len(records)
    failed = sum(1 for rec in records if not rec.get("ok"))
    for rec in records:
        if not rec.get("ok"):
            print(f"FAILED {rec['id']}: {rec.get('error', 'output mismatch')}",
                  file=sys.stderr)
    reproduced = {}
    deterministic = False
    if all(firsts[job["id"]].get("norm_runtime") is not None
           and firsts[job["id"]].get("code_size") is not None
           for job in jobs):
        ids = sorted(firsts)
        reproduced = {
            "norm_runtime.geomean": geomean(
                [firsts[i]["norm_runtime"] for i in ids]),
            "code_size.geomean": geomean(
                [firsts[i]["code_size"] for i in ids]),
        }
        deterministic = same_as_before(firsts)

    def throughput(passes) -> float:
        """Jobs per second of job time, over all the passes' jobs."""
        seconds = [r["seconds"] for p in passes for r in p["jobs"]
                   if "seconds" in r]
        return len(seconds) / math.fsum(seconds)

    untraced = [p for p in results if not p["traced"]]
    metrics: Dict[str, dict] = {}
    if traced_mode:
        traced = [p for p in results if p["traced"]]
        layers = layer_summary(traced)
        layers["minicc.compile_s"] = statistics.median(
            r["compile_s"] for r in results)
        layers["bench.prep_s"] = prep_s
        layers["trace.overhead"] = throughput(traced) / throughput(untraced)
        for name, value in sorted(layers.items()):
            metrics[name] = {"value": value, "unit": unit_of(name)}
    else:
        samples = [r["seconds"] for p in untraced for r in p["jobs"]
                   if "seconds" in r]
        tail_value, tail_pct = tail(samples)
        engines = sorted({p["engine"] for p in results})
        wall = [r["wall_s"] for p in untraced for r in p["jobs"]
                if "wall_s" in r]
        print(f"{workload}: {len(samples)} job samples over {len(results)} "
              f"passes; job_s.tail is p{tail_pct:.1f}; run_image engine "
              f"{'/'.join(engines)}; wall clock: {len(wall) / sum(wall):.4g} "
              f"jobs/s, job p50 {statistics.median(wall):.4g} s, set-up "
              f"{statistics.median(r['setup_wall_s'] for r in results):.4g}"
              f" s")
        metrics = {
            "setup_s": {"value": statistics.median(
                r["setup_s"] for r in results), "unit": "s"},
            "jobs_per_s": {"value": throughput(untraced), "unit": "1/s"},
            "job_s.p50": {"value": statistics.median(samples), "unit": "s"},
            "job_s.tail": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": max(p["peak_rss_kb"] for p in results)
                            / 1024.0, "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted,
                         "unit": "ratio"},
        }
        for name, value in reproduced.items():
            metrics[name] = {"value": value, "unit": "ratio"}
    return {"correct": failed == 0 and deterministic,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_summary(traced) -> Dict[str, float]:
    """Per-layer metrics per pass, averaged over the traced passes."""
    totals: Dict[str, float] = {}
    for result in traced:
        for name, value in result["layers"].items():
            totals[name] = totals.get(name, 0.0) + value
    per_pass = {name: value / len(traced) for name, value in totals.items()}
    out = {name: per_pass.get(name, 0.0) for name in PER_LAYER_SUMS}
    for caller in CALLERS.values():
        seconds = out[f"emulator.{caller}.run_s"]
        instructions = out[f"emulator.{caller}.guest_instructions"]
        out[f"emulator.{caller}.guest_ips"] = \
            instructions / seconds if seconds else 0.0

    def ratio(numerator: str, denominator: str) -> float:
        base = per_pass.get(denominator, 0.0)
        return per_pass.get(numerator, 0.0) / base if base else 0.0

    out["core.fence_opt.applied_ratio"] = ratio("core.fence_opt.applied",
                                                "core.fence_opt.jobs")
    out["core.artifact_cache.hit_ratio"] = ratio(
        "core.artifact_cache.hits", "core.artifact_cache.gets")
    out["emulator.jit_share"] = ratio("emulator.jit_runs", "emulator.runs")
    out["trace.coverage"] = ratio("trace.covered_s", "trace.job_s")
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ips"):
        return "1/s"
    if name.endswith(("_ratio", "_share")) or name.startswith("trace."):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    try:
        result = Invocation(args).run()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
