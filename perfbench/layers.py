"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each measured layer
(ICFT tracing, callback discovery, fence optimisation, spinloop
detection, recompiler builds, emulator runs, artifact-cache reads and
writes) so that every call records a span on a :class:`Recorder`.
Spans carry a name, start, end, parent index and the id of the job that
caused them.  They stay in memory until the worker writes them out, and
:func:`layer_metrics` turns them into per-layer self times and counts.

Nothing here changes what the wrapped functions compute: each wrapper
calls the original with the same arguments and returns its result.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

#: Emulator callers: the span a ``Machine.run`` is attributed to.
CALLERS = {
    "core.icft_tracer.trace": "icft",
    "core.callbacks.discover": "callbacks",
    "core.fence_opt.optimize": "fence_opt",
    "job.original": "original",
    "job.recompiled": "recompiled",
}

#: Span names that belong to a layer of the program (as opposed to the
#: benchmark's own ``job`` / ``job.*`` spans).  Their union within a job
#: is the job's traced coverage.
LAYER_SPANS = (
    "core.icft_tracer.trace", "core.callbacks.discover",
    "core.fence_opt.optimize", "core.spinloop.analyze",
    "core.recompiler.build", "core.recompiler.recover_cfg",
    "emulator.run", "core.artifact_cache.get", "core.artifact_cache.put",
)

#: Optimiser passes of ``repro.passes.standard_pipeline``.
PASS_NAMES = ("constfold", "dce", "dse", "licm", "loadelim", "localcse",
              "loopsimplify", "mem2reg", "regpromote", "scalar-promotion",
              "simplifycfg")

#: Recompiler stages read from each build (``RecompileStats`` for
#: lift/fences/opt/lower, the driver tracer's spans for disasm/trace,
#: which run inside ``recover_cfg``).
STAGES = ("disasm", "trace", "lift", "fences", "opt", "lower")


#: Per-layer metrics that are sums over a pass's spans (the ratios and
#: rates derived from them are added by ``run.layer_summary``).
PER_LAYER_SUMS = (
    [f"{name}_s" for name in LAYER_SPANS if name != "emulator.run"]
    + ["core.recompiler.builds", "core.fence_opt.sites_observed",
       "passes.instrs_removed"]
    + [f"emulator.{caller}.{what}" for caller in CALLERS.values()
       for what in ("run_s", "guest_instructions")]
    + [f"recompile.{stage}_s" for stage in STAGES]
    + [f"passes.{name}.self_s" for name in PASS_NAMES])


class Recorder:
    """An in-memory span list with an explicit open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.job: Optional[str] = None

    def begin(self, name: str, **args: Any) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "job": self.job,
                           "args": args})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> Dict[str, Any]:
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index]['name']!r} closed "
                               f"out of order")
        span = self.spans[index]
        span["end"] = time.perf_counter()
        return span

    @contextmanager
    def span(self, name: str, **args: Any):
        index = self.begin(name, **args)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def caller(self) -> str:
        """The emulator caller of the innermost open caller span."""
        for index in reversed(self._stack):
            name = self.spans[index]["name"]
            if name in CALLERS:
                return CALLERS[name]
        return "other"


def _wrap(owner, attr: str, name: str, recorder: Recorder,
          before=None, after=None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.
    ``before(args)`` returns the span's initial arguments; ``after(span,
    args, result)`` may add more once the call has returned."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name, **(before(args) if before else {}))
        try:
            result = original(*args, **kwargs)
        finally:
            span = recorder.end(index)
        if after is not None:
            after(span, args, result)
        return result

    setattr(owner, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every measured entry point so its calls land on
    ``recorder``.  ``hybrid_recompile`` imports ``discover_callbacks``
    and ``optimize_fences`` at call time, so patching the module
    attributes reaches it; ``run_image`` is bound at import time by the
    analyses, so emulator runs are caught at ``Machine.run`` instead."""
    from repro.core import artifact_cache, callbacks, fence_opt, \
        icft_tracer, recompiler, spinloop
    from repro.emulator import Machine

    def tracer_mark(args):
        # Where the recompiler's own span list ends before the call, so
        # only this call's stage and pass spans are read afterwards.
        return {"tracer_mark": len(args[0].tracer.spans)}

    def build_args(span, args, result):
        span["args"]["stages"] = {
            stage: getattr(result.stats, attr)
            for stage, attr in (("lift", "lift_seconds"),
                                ("fences", "fence_seconds"),
                                ("opt", "opt_seconds"),
                                ("lower", "lower_seconds"))}
        passes: Dict[str, float] = {}
        removed = 0
        # ``pass.*`` spans are leaves, so their duration is self time.
        for sp in result.tracer.spans[span["args"].pop("tracer_mark"):]:
            if not sp.name.startswith("pass."):
                continue
            key = sp.name[len("pass."):]
            passes[key] = passes.get(key, 0.0) + sp.duration
            removed += (sp.args.get("instrs_before", 0)
                        - sp.args.get("instrs_after", 0))
        span["args"].update(passes=passes, instrs_removed=removed)

    def recover_args(span, args, cfg):
        stages = {"disasm": 0.0, "trace": 0.0}
        for sp in args[0].tracer.spans[span["args"].pop("tracer_mark"):]:
            stage = sp.name[len("recompile."):]
            if sp.name.startswith("recompile.") and stage in stages:
                stages[stage] += sp.duration
        span["args"]["stages"] = stages

    _wrap(icft_tracer.ICFTTracer, "trace", "core.icft_tracer.trace",
          recorder)
    _wrap(callbacks, "discover_callbacks", "core.callbacks.discover",
          recorder)
    _wrap(fence_opt, "optimize_fences", "core.fence_opt.optimize",
          recorder, after=lambda span, args, report: span["args"].update(
              applied=report.applied, sites=report.access_sites_observed))
    _wrap(spinloop.SpinloopDetector, "analyze", "core.spinloop.analyze",
          recorder)
    _wrap(artifact_cache.ArtifactCache, "get", "core.artifact_cache.get",
          recorder, after=lambda span, args, hit: span["args"].update(
              hit=hit is not None))
    _wrap(artifact_cache.ArtifactCache, "put", "core.artifact_cache.put",
          recorder)
    _wrap(recompiler.Recompiler, "recompile", "core.recompiler.build",
          recorder, tracer_mark, build_args)
    _wrap(recompiler.Recompiler, "recover_cfg",
          "core.recompiler.recover_cfg", recorder, tracer_mark, recover_args)
    _wrap(Machine, "run", "emulator.run", recorder,
          before=lambda args: {"caller": recorder.caller(),
                               "engine": args[0].engine},
          after=lambda span, args, _: span["args"].update(
              instructions=args[0].instructions))


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [sp["end"] - sp["start"] for sp in spans]
    for sp in spans:
        if sp["parent"] >= 0:
            out[sp["parent"]] -= sp["end"] - sp["start"]
    return out


def coverage(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds of job time inside an outermost layer span, and total
    job seconds.  Layer spans nest, so the outermost ones are disjoint
    and their durations sum to the covered time."""
    covered = total = 0.0
    for sp in spans:
        duration = sp["end"] - sp["start"]
        if sp["name"] == "job":
            total += duration
            continue
        if sp["name"] not in LAYER_SPANS:
            continue
        parent = sp["parent"]
        while parent >= 0 and spans[parent]["name"] not in LAYER_SPANS:
            parent = spans[parent]["parent"]
        if parent < 0 and sp["job"] is not None:
            covered += duration
    return {"covered_s": covered, "job_s": total}


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer totals over ``spans`` (one worker's traced jobs):
    self seconds per layer, emulator seconds and guest instructions per
    caller, recompiler stage and pass seconds, and the counts the
    per-layer metrics are built from.  A call that raised has no
    result arguments and counts as zero work."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for sp, own in zip(spans, selfs):
        name, args = sp["name"], sp["args"]
        if sp["job"] is None or name not in LAYER_SPANS:
            continue
        if name == "emulator.run":
            caller = args["caller"]
            add(f"emulator.{caller}.run_s", own)
            add(f"emulator.{caller}.guest_instructions",
                args.get("instructions", 0))
            add("emulator.runs", 1)
            add("emulator.jit_runs", args["engine"] == "jit")
            continue
        add(f"{name}_s", own)
        if name == "core.recompiler.build":
            add("core.recompiler.builds", 1)
            for stage, seconds in args.get("stages", {}).items():
                add(f"recompile.{stage}_s", seconds)
            for pass_name, seconds in args.get("passes", {}).items():
                add(f"passes.{pass_name}.self_s", seconds)
            add("passes.instrs_removed", args.get("instrs_removed", 0))
        elif name == "core.recompiler.recover_cfg":
            for stage, seconds in args.get("stages", {}).items():
                add(f"recompile.{stage}_s", seconds)
        elif name == "core.fence_opt.optimize":
            add("core.fence_opt.jobs", 1)
            add("core.fence_opt.applied", args.get("applied", False))
            add("core.fence_opt.sites_observed", args.get("sites", 0))
        elif name == "core.artifact_cache.get":
            add("core.artifact_cache.gets", 1)
            add("core.artifact_cache.hits", args.get("hit", False))
    for key, value in coverage(spans).items():
        add(f"trace.{key}", value)
    return out
