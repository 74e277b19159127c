"""One fresh interpreter process of the benchmark.

``python3 perfbench/worker.py CONFIG.json`` reads its task from the
config written by ``run.py`` and writes its result next to it.  Modes:

* ``prep`` — once per invocation, outside every timed pass: record the
  static suite's ICFT traces (and the original program's output from
  those same runs);
* ``pass`` — set up (import, compile the images, open the cache or load
  the traces), then run every job of the pass, timing each.

A process per pass keeps process-wide memos (``Workload.compile``'s
image memo, per-image JIT traces) from warming a later pass.  A pass
samples the host's speed throughout (``hostspeed.py``) and reports each
time both as wall seconds and as seconds at the reference speed.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import os
import pickle
import resource
import sys
import time
import traceback
from contextlib import nullcontext

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostspeed import Sampler  # noqa: E402
from jobs import SCHED_SEED, SIZE  # noqa: E402


def _workload(job):
    from repro.workloads import get
    return get(job["workload"])


def _capture_machine_runs(runs: list) -> None:
    """Append ``(exit_code, stdout, wall_cycles, fault)`` of every
    ``Machine.run`` to ``runs``."""
    from repro.emulator import Machine
    original = Machine.run

    def run(self, *args, **kwargs):
        exit_code = None
        try:
            exit_code = original(self, *args, **kwargs)
            return exit_code
        finally:
            runs.append((exit_code, bytes(self.stdout), self.wall_cycles,
                         str(self.fault) if self.fault else None))

    Machine.run = run


def prep(config) -> dict:
    from repro.core import ICFTTracer
    runs: list = []
    _capture_machine_runs(runs)
    recorded = {}
    for job in config["jobs"]:
        wl = _workload(job)
        image = wl.compile(opt_level=job["opt"])
        trace = ICFTTracer(image).trace(lambda _x: wl.library(SIZE),
                                        inputs=[None], seed=SCHED_SEED)
        # The tracing run is the original program on the emulator under
        # the scheduler seed: its output is the static jobs' reference.
        recorded[job["id"]] = (trace, runs[-1])
    with open(config["traces"], "wb") as handle:
        pickle.dump(recorded, handle)
    return {}


def setup(config) -> dict:
    """Everything a pass needs before its first job.  Returns the
    pieces the jobs use plus the minicc compile seconds."""
    from repro.core import ArtifactCache
    from repro.workloads import get
    started = time.perf_counter()
    images = {}
    for job in config["jobs"]:
        key = (job["workload"], job["opt"])
        if key not in images:
            images[key] = get(job["workload"]).compile(opt_level=job["opt"])
    state = {"images": images,
             "compile_s": time.perf_counter() - started}
    if config.get("traces"):
        with open(config["traces"], "rb") as handle:
            state["traces"] = pickle.load(handle)
    if config.get("cache_dir"):
        state["cache"] = ArtifactCache(config["cache_dir"])
    return state


def run_table2_job(job, state, span) -> dict:
    from repro.core import hybrid_recompile, run_image
    wl = _workload(job)
    image = state["images"][(job["workload"], job["opt"])]
    started = time.monotonic()
    result, _ = hybrid_recompile(wl, job["opt"], size=SIZE,
                                 seed=SCHED_SEED, fence_opt=job["fence_opt"],
                                 cache=state["cache"])
    with span("job.original"):
        original = run_image(image, library=wl.library(SIZE),
                             seed=SCHED_SEED)
    with span("job.recompiled"):
        recompiled = run_image(result.image, library=wl.library(SIZE),
                               seed=SCHED_SEED)
    ended = time.monotonic()
    out = result.image.to_bytes()
    return {"started": started, "ended": ended,
            "ok": original.ok and recompiled.matches(original),
            "norm_runtime": recompiled.wall_cycles / original.wall_cycles,
            "code_size": len(out) / len(image.to_bytes()),
            "image_sha256": hashlib.sha256(out).hexdigest()}


def run_static_job(job, state, span) -> dict:
    from repro.core import Recompiler
    image = state["images"][(job["workload"], job["opt"])]
    trace, _ = state["traces"][job["id"]]
    started = time.monotonic()
    result = Recompiler(image).recompile(trace=trace)
    ended = time.monotonic()
    out = result.image.to_bytes()
    return {"started": started, "ended": ended, "image": result.image,
            "code_size": len(out) / len(image.to_bytes()),
            "image_sha256": hashlib.sha256(out).hexdigest()}


def validate_static(job, record, state) -> None:
    """Run the recompiled image against the original's recorded output
    (outside the timed window)."""
    from repro.core import run_image
    exit_code, stdout, wall_cycles, fault = state["traces"][job["id"]][1]
    run = run_image(record.pop("image"), library=_workload(job).library(SIZE),
                    seed=SCHED_SEED)
    record["ok"] = (fault is None and run.ok and run.stdout == stdout
                    and run.exit_code == exit_code)
    record["norm_runtime"] = run.wall_cycles / wall_cycles


def run_pass(config, state, sampler) -> dict:
    from layers import Recorder, install, layer_metrics
    recorder = Recorder()
    if config["trace"]:
        install(recorder)
        span = recorder.span
    else:
        span = lambda _name: nullcontext()  # noqa: E731
    run_job = (run_static_job if config["workload"] == "static_suite"
               else run_table2_job)
    records = []
    for job in config["jobs"]:
        recorder.job = job["id"]
        record = {"id": job["id"]}
        # Start every job from a collected heap, so the peak RSS does
        # not depend on which job's garbage the collector left behind.
        gc.collect()
        try:
            with span("job"):
                record.update(run_job(job, state, span))
        except Exception as exc:  # a failing job is counted, not fatal
            traceback.print_exc()
            record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        records.append(record)
    recorder.job = None
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for record in records:
        if "started" in record:
            started, ended = record.pop("started"), record.pop("ended")
            record["wall_s"] = ended - started
            record["seconds"] = sampler.reference_seconds(started, ended)
    for job, record in zip(config["jobs"], records):
        if "image" not in record:
            continue
        if config["validate"]:
            try:
                validate_static(job, record, state)
            except Exception as exc:
                traceback.print_exc()
                record.update(ok=False,
                              error=f"{type(exc).__name__}: {exc}")
        record.pop("image", None)
    out = {"jobs": records, "peak_rss_kb": peak_rss_kb}
    if config["trace"]:
        out["layers"] = layer_metrics(recorder.spans)
        with open(config["spans"], "w") as handle:
            json.dump(recorder.spans, handle)
    return out


def main(path: str) -> int:
    with open(path) as handle:
        config = json.load(handle)
    if config["mode"] == "prep":
        out = prep(config)
    else:
        sampler = Sampler()
        sampler.start()
        state = setup(config)
        from repro.core import run_image
        ready = time.monotonic()
        out = {"setup_wall_s": ready - config["spawned"],
               "setup_s": sampler.reference_seconds(config["spawned"],
                                                    ready),
               "compile_s": state["compile_s"],
               "engine": inspect.signature(
                   run_image).parameters["engine"].default}
        out.update(run_pass(config, state, sampler))
        sampler.stop()
    with open(config["out"], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
