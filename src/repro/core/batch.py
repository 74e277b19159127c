"""Parallel batch recompilation over the artifact cache.

The evaluation's dominant wall-clock cost is recompiling dozens of
(workload, opt level, fence mode) combinations — each an independent,
deterministic, CPU-bound pipeline run.  This module turns those runs
into *jobs*:

* :class:`RecompileJob` — a picklable description of one recompilation
  (a registry workload at an opt level, or a ``.vxe`` file on disk)
  plus its pipeline knobs;
* :func:`execute_job` — runs one job, consulting an
  :class:`~repro.core.artifact_cache.ArtifactCache` first; on a hit no
  pipeline stage executes at all (verifiable from the job's trace:
  zero ``recompile.*`` spans);
* :func:`run_batch` — fans jobs across a
  ``concurrent.futures.ProcessPoolExecutor`` (``--jobs N``), falling
  back to in-process execution when multiprocessing is unavailable,
  and returning results in job order regardless of completion order;
* :func:`hybrid_recompile` — the canonical "full Polynima" pipeline
  (static CFG + ICFT trace + callback analysis, optional fence
  optimisation) shared by the benchmarks and the batch worker, now
  cache-aware.

Every job records its own :class:`~repro.observability.Tracer` spans;
:meth:`BatchResult.trace` merges them (one Chrome-trace thread lane
per job) so a whole batch can be inspected in ``chrome://tracing``.
The CLI front end is ``polynima batch`` (``docs/CLI.md``); the
reproduction workflow built on it is ``docs/REPRODUCING.md``.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..binfmt import Image
from ..observability import Tracer
from .artifact_cache import ArtifactCache
from .recompiler import RecompileStats, Recompiler, _STAGE_FIELDS

#: Force the in-process executor even when ``jobs_n > 1`` (tests, and
#: hosts where forking workers is undesirable).
_INPROCESS_ENV = "POLYNIMA_BATCH_INPROCESS"

#: The opt levels a job (and ``polynima compile``/``batch --opt``) may
#: name: the MiniC front end's stack-machine O0 and its O2/O3 backends.
OPT_LEVELS = (0, 2, 3)

#: Manifest field -> required type; the str fields are optional and
#: also accept ``None``.  Checked with ``type() is`` so a JSON ``true``
#: is not taken for an int.
_FIELD_TYPES = {"workload": str, "binary": str, "size": str,
                "profile": str, "output": str, "seed": int,
                "fence_opt": bool, "with_callbacks": bool}


class BatchError(Exception):
    """Raised for unrunnable jobs (bad manifest fields, missing files)
    and verification failures."""
    pass


# ---------------------------------------------------------------------------
# Jobs


@dataclass
class RecompileJob:
    """One recompilation to perform.  Exactly one of ``workload`` (a
    ``repro.workloads`` registry name, run through the full hybrid
    pipeline) or ``binary`` (a ``.vxe`` path, run through the static
    pipeline) must be set."""
    workload: Optional[str] = None
    binary: Optional[str] = None
    opt_level: int = 3
    size: Optional[str] = None
    seed: int = 21
    fence_opt: bool = False
    with_callbacks: bool = True
    #: Optional path to a saved :class:`repro.profile.Profile` guiding
    #: this job's recompilation (``polynima profile collect`` output).
    profile: Optional[str] = None
    #: Optional path the recompiled image is written to.
    output: Optional[str] = None

    @property
    def name(self) -> str:
        """Human-readable label: ``histogram/O3`` or the binary path."""
        if self.workload:
            suffix = "+fo" if self.fence_opt else ""
            return f"{self.workload}/O{self.opt_level}{suffix}"
        return os.path.basename(self.binary or "?")

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and kind is str:
                continue                # optional field left unset
            if type(value) is not kind:
                raise BatchError(f"job field {name!r} must be "
                                 f"{kind.__name__}, got {value!r}")
        if type(self.opt_level) is not int or \
                self.opt_level not in OPT_LEVELS:
            raise BatchError(f"job field 'opt_level' must be one of "
                             f"{list(OPT_LEVELS)}, got {self.opt_level!r}")
        if bool(self.workload) == bool(self.binary):
            raise BatchError(
                f"job {self.name!r}: exactly one of 'workload'/'binary' "
                f"must be set")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload, "binary": self.binary,
            "opt_level": self.opt_level, "size": self.size,
            "seed": self.seed, "fence_opt": self.fence_opt,
            "with_callbacks": self.with_callbacks,
            "profile": self.profile, "output": self.output,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RecompileJob":
        if not isinstance(data, dict):
            raise BatchError(f"a job must be an object of job fields, "
                             f"got {data!r}")
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        unknown = set(data) - set(known)
        if unknown:
            raise BatchError(f"unknown job fields: {sorted(unknown)}")
        job = cls(**known)
        job.validate()
        return job


@dataclass
class JobResult:
    """Outcome of one job, in a picklable/JSON-friendly shape."""
    index: int
    name: str
    digest: str = ""
    cached: bool = False
    #: True/False after a ``verify`` pass on a hit; None otherwise.
    verified: Optional[bool] = None
    seconds: float = 0.0
    image_size: int = 0
    image_sha256: str = ""
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Chrome-trace export of this job's private tracer.
    trace: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def pipeline_span_names(self) -> List[str]:
        """Names of the pipeline-stage (``recompile.*``) spans this job
        actually executed — empty on a pure cache hit."""
        events = self.trace.get("traceEvents", [])
        return [ev["name"] for ev in events
                if ev.get("name", "").startswith("recompile.")]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index, "name": self.name, "digest": self.digest,
            "cached": self.cached, "verified": self.verified,
            "seconds": self.seconds, "image_size": self.image_size,
            "image_sha256": self.image_sha256, "stats": self.stats,
            "error": self.error,
            "pipeline_spans": len(self.pipeline_span_names()),
        }


# ---------------------------------------------------------------------------
# Stats round-tripping (cache metadata <-> RecompileStats)


def stats_meta(stats: RecompileStats) -> Dict[str, Any]:
    """A JSON-friendly snapshot of the pipeline stats, stored as cache
    entry metadata so hits can report the original cold-run numbers."""
    return {
        "functions": stats.functions,
        "blocks": stats.blocks,
        "icfts": stats.icfts,
        "fences_inserted": stats.fences_inserted,
        "fences_final": stats.fences_final,
        "stage_seconds": stats.stage_seconds(),
    }


def stats_from_meta(meta: Dict[str, Any]) -> RecompileStats:
    """Rebuild a :class:`RecompileStats` from :func:`stats_meta` output."""
    stats = RecompileStats(
        functions=int(meta.get("functions", 0)),
        blocks=int(meta.get("blocks", 0)),
        icfts=int(meta.get("icfts", 0)),
        fences_inserted=int(meta.get("fences_inserted", 0)),
        fences_final=int(meta.get("fences_final", 0)))
    for stage, seconds in meta.get("stage_seconds", {}).items():
        attr = _STAGE_FIELDS.get(stage)
        if attr is not None:
            setattr(stats, attr, float(seconds))
    return stats


@dataclass
class CachedRecompilation:
    """A cache hit presented in the shape benchmarks consume: an image
    plus the cold run's :class:`RecompileStats`.  ``module``/``cfg``
    are ``None`` — the IR was never rebuilt, that is the point."""
    image: Image
    stats: RecompileStats
    digest: str
    meta: Dict[str, Any] = field(default_factory=dict)
    cached: bool = True
    tracer: Optional[Tracer] = None
    module: None = None
    cfg: None = None


# ---------------------------------------------------------------------------
# The canonical hybrid pipeline (shared by benches and batch workers)


def hybrid_options(workload, opt_level: int, size: Optional[str],
                   seed: int, fence_opt: bool, with_callbacks: bool,
                   manual_overrides: Optional[Set[int]], *,
                   profile_digest: Optional[str] = None) -> Dict[str, Any]:
    """The option dict digested into the cache key for a hybrid job.

    The image bytes capture the *code*; the workload name and input
    size capture the *concrete inputs* the dynamic analyses (ICFT
    trace, callback discovery, spinloop coverage) ran on, which the
    bytes alone cannot.  A guiding profile changes the generated code,
    so its content digest joins the key — but only when one is in
    play: unguided jobs must keep the exact digests they had before
    PGO existed, so a cache populated pre-PGO stays warm.
    """
    options = {
        "kind": "hybrid",
        "workload": workload.name,
        "opt_level": opt_level,
        "size": size or workload.default_size,
        "seed": seed,
        "fence_mode": "optimize" if fence_opt else "lasagne",
        "callbacks": with_callbacks,
        "overrides": sorted(manual_overrides) if manual_overrides else [],
    }
    if profile_digest is not None:
        options["profile"] = profile_digest
    return options


def hybrid_recompile(workload, opt_level: int, size: Optional[str] = None,
                     seed: int = 21, fence_opt: bool = False,
                     manual_overrides: Optional[Set[int]] = None,
                     with_callbacks: bool = True,
                     profile=None,
                     tracer: Optional[Tracer] = None,
                     counters=None,
                     cache: Optional[ArtifactCache] = None,
                     verify: bool = False):
    """The paper's full Polynima configuration: static CFG + ICFT trace
    + callback analysis (+ optional fence optimisation).  One run of the
    original serves the ICFT trace and the callback analysis
    (:attr:`TraceResult.entries`); only fence optimisation builds and
    runs an instrumented recompilation.

    Returns ``(result, report)`` where ``report`` is the
    :class:`~repro.core.fence_opt.FenceOptReport` when ``fence_opt``
    ran, else ``None``.

    ``profile`` may be a :class:`repro.profile.Profile` or a path to a
    saved one; it is threaded into the final recompilation and its
    content digest into the cache key.

    With a ``cache``, the recompiled image is looked up by content
    digest first; a hit returns a :class:`CachedRecompilation` without
    running any pipeline stage (``report`` is ``None``).  Pass
    ``verify=True`` to recompile fresh on every hit and raise
    :class:`BatchError` unless the bytes match bit-for-bit.
    """
    from .fence_opt import optimize_fences
    from .icft_tracer import ICFTTracer

    if isinstance(profile, (str, os.PathLike)):
        from ..profile import Profile
        profile = Profile.load(profile)
    profile_digest = profile.digest() if profile is not None else None

    image = workload.compile(opt_level=opt_level)
    digest = None
    if cache is not None:
        digest = cache.digest(image.to_bytes(), **hybrid_options(
            workload, opt_level, size, seed, fence_opt, with_callbacks,
            manual_overrides, profile_digest=profile_digest))
        hit = cache.get(digest)
        if hit is not None:
            if verify:
                fresh, _ = hybrid_recompile(
                    workload, opt_level, size=size, seed=seed,
                    fence_opt=fence_opt, manual_overrides=manual_overrides,
                    with_callbacks=with_callbacks, profile=profile)
                if fresh.image.to_bytes() != hit.image_bytes:
                    raise BatchError(
                        f"{workload.name}/O{opt_level}: cached artifact "
                        f"{digest[:12]} differs from a fresh recompilation")
            result = CachedRecompilation(
                image=Image.from_bytes(hit.image_bytes),
                stats=stats_from_meta(hit.meta.get("stats", {})),
                digest=digest, meta=hit.meta)
            return result, None

    # The trace run of the original also records the callback entries.
    trace = ICFTTracer(image).trace(
        lambda _x: workload.library(size), inputs=[None], seed=seed)
    recompiler = Recompiler(image, tracer=tracer)
    cfg = recompiler.recover_cfg(trace=trace)
    observed = trace.entries if with_callbacks else None
    report = None
    if fence_opt:
        report = optimize_fences(
            image, workload.library_factory(size), seed=seed, cfg=cfg,
            observed_callbacks=observed, manual_overrides=manual_overrides,
            profile=profile, counters=counters)
        result = report.result
    else:
        result = Recompiler(image, observed_callbacks=observed,
                            profile=profile, tracer=tracer,
                            counters=counters).recompile(cfg=cfg)
    if cache is not None and digest is not None:
        cache.put(digest, result.image.to_bytes(),
                  meta={"options": hybrid_options(
                            workload, opt_level, size, seed, fence_opt,
                            with_callbacks, manual_overrides,
                            profile_digest=profile_digest),
                        "stats": stats_meta(result.stats)})
    return result, report


def static_options(seed: int) -> Dict[str, Any]:
    """Cache-key options for a static (binary-path) job."""
    return {"kind": "static", "seed": seed, "fence_mode": "lasagne",
            "callbacks": False}


# ---------------------------------------------------------------------------
# One job, end to end


def execute_job(job: RecompileJob, index: int = 0,
                cache: Optional[ArtifactCache] = None,
                verify: bool = False) -> JobResult:
    """Run one job under its own tracer and return its result.  All
    exceptions — including validation failures — are captured into
    ``JobResult.error``; a batch never dies because one job did."""
    tracer = Tracer()
    result = JobResult(index=index, name=job.name)
    started = time.perf_counter()
    try:
        job.validate()
        with tracer.span("batch.job", job=job.name) as span:
            image_bytes, stats, digest, cached, verified = \
                _execute_pipeline(job, cache, verify, tracer)
            span.args.update(cached=cached, digest=digest[:12])
        result.digest = digest
        result.cached = cached
        result.verified = verified
        result.image_size = len(image_bytes)
        result.image_sha256 = hashlib.sha256(image_bytes).hexdigest()
        result.stats = stats
        if job.output:
            with open(job.output, "wb") as handle:
                handle.write(image_bytes)
    except Exception as exc:        # noqa: BLE001 - reported, not fatal
        while tracer.current is not None:
            tracer.end()
        result.error = "".join(traceback.format_exception_only(
            type(exc), exc)).strip()
    result.seconds = time.perf_counter() - started
    result.trace = tracer.to_chrome_trace()
    return result


def _execute_pipeline(job: RecompileJob, cache: Optional[ArtifactCache],
                      verify: bool, tracer: Tracer):
    """Dispatch to the hybrid (workload) or static (binary) pipeline."""
    if job.workload:
        from ..workloads import get as get_workload
        try:
            workload = get_workload(job.workload)
        except KeyError:
            raise BatchError(f"unknown workload {job.workload!r}")
        profile = None
        if job.profile:
            from ..profile import Profile
            try:
                profile = Profile.load(job.profile)
            except Exception as exc:    # noqa: BLE001 - surfaced per-job
                raise BatchError(
                    f"cannot load profile {job.profile!r}: {exc}")
        result, _report = hybrid_recompile(
            workload, job.opt_level, size=job.size, seed=job.seed,
            fence_opt=job.fence_opt, with_callbacks=job.with_callbacks,
            profile=profile, tracer=tracer, cache=cache, verify=verify)
        cached = isinstance(result, CachedRecompilation)
        digest = getattr(result, "digest", "")
        if not digest and cache is not None:
            digest = cache.digest(
                workload.compile(job.opt_level).to_bytes(),
                **hybrid_options(
                    workload, job.opt_level, job.size, job.seed,
                    job.fence_opt, job.with_callbacks, None,
                    profile_digest=(profile.digest()
                                    if profile is not None else None)))
        verified = True if (cached and verify) else None
        return (result.image.to_bytes(), stats_meta(result.stats),
                digest, cached, verified)

    # Static path: recompile a .vxe from disk, no dynamic analyses.
    try:
        image = Image.load(job.binary)
    except (OSError, ValueError) as exc:
        raise BatchError(f"cannot load {job.binary!r}: {exc}")
    digest = ""
    if cache is not None:
        digest = cache.digest(image.to_bytes(), **static_options(job.seed))
        hit = cache.get(digest)
        if hit is not None:
            verified = None
            if verify:
                fresh = Recompiler(image).recompile()
                if fresh.image.to_bytes() != hit.image_bytes:
                    raise BatchError(
                        f"{job.name}: cached artifact {digest[:12]} differs "
                        f"from a fresh recompilation")
                verified = True
            return (hit.image_bytes, hit.meta.get("stats", {}), digest,
                    True, verified)
    result = Recompiler(image, tracer=tracer).recompile()
    if cache is not None:
        cache.put(digest, result.image.to_bytes(),
                  meta={"options": static_options(job.seed),
                        "stats": stats_meta(result.stats)})
    return (result.image.to_bytes(), stats_meta(result.stats), digest,
            False, None)


# ---------------------------------------------------------------------------
# The batch driver


def _worker(payload: Tuple[int, Dict[str, Any], Optional[Dict[str, Any]],
                           bool]) -> Dict[str, Any]:
    """Process-pool entry point.  Takes plain picklable data, opens its
    own cache handle (atomic writes make concurrent workers safe), and
    returns the JobResult as a dict.  Even an unconstructable job
    yields a structured error result — nothing escapes to the pool.
    The worker's own ``cache.*`` counts ride along under
    ``cache_counters``: empty for a job that failed before its lookup."""
    index, job_dict, cache_conf, verify = payload
    cache = None
    try:
        job = RecompileJob.from_dict(job_dict)
        if cache_conf is not None:
            cache = ArtifactCache(cache_conf["root"],
                                  version=cache_conf["version"])
        result = execute_job(job, index=index, cache=cache, verify=verify)
    except Exception as exc:        # noqa: BLE001 - reported, not fatal
        name = str(job_dict.get("workload") or job_dict.get("binary") or "?")
        result = JobResult(index=index, name=name, error="".join(
            traceback.format_exception_only(type(exc), exc)).strip())
    data = result.as_dict()
    data["trace"] = result.trace
    data["cache_counters"] = \
        cache.counters.snapshot() if cache is not None else {}
    return data


def _result_from_worker(data: Dict[str, Any]) -> JobResult:
    return JobResult(
        index=data["index"], name=data["name"], digest=data["digest"],
        cached=data["cached"], verified=data["verified"],
        seconds=data["seconds"], image_size=data["image_size"],
        image_sha256=data["image_sha256"], stats=data["stats"],
        trace=data.get("trace", {}), error=data["error"])


@dataclass
class BatchResult:
    """Every job's outcome, in manifest order, plus batch-level stats."""
    results: List[JobResult]
    wall_seconds: float
    executor: str                   # "process" | "inline"
    workers: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.results) if self.results else 0.0

    def pipeline_stage_spans(self) -> int:
        """Total ``recompile.*`` spans across every job — 0 means the
        whole batch was served from cache without running a single
        pipeline stage."""
        return sum(len(r.pipeline_span_names()) for r in self.results)

    def trace(self) -> Dict[str, Any]:
        """A merged Chrome trace: one ``tid`` lane per job, each lane
        carrying that job's ``batch.job`` + pipeline spans."""
        events: List[Dict[str, Any]] = []
        for result in self.results:
            for ev in result.trace.get("traceEvents", []):
                ev = dict(ev)
                ev["tid"] = result.index + 1
                events.append(ev)
        from ..observability.tracer import TRACE_FORMAT
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"format": TRACE_FORMAT}}

    def save_trace(self, path: str) -> None:
        import json
        with open(path, "w") as handle:
            json.dump(self.trace(), handle, indent=1)

    def summary_rows(self) -> List[List[str]]:
        rows = []
        for r in self.results:
            status = "ERROR" if r.error else ("hit" if r.cached else "miss")
            if r.verified:
                status += "+ok"
            rows.append([r.name, r.digest[:12] or "-", status,
                         f"{r.seconds:.2f}", str(r.stats.get("functions", "-")),
                         str(r.stats.get("fences_final", "-"))])
        return rows

    def format_summary(self) -> str:
        header = ["job", "digest", "cache", "seconds", "functions", "fences"]
        rows = [header] + self.summary_rows()
        widths = [max(len(row[i]) for row in rows)
                  for i in range(len(header))]
        lines = ["  ".join(cell.ljust(widths[i])
                           for i, cell in enumerate(row)).rstrip()
                 for row in rows]
        lines.append(
            f"batch: {len(self.results)} jobs, {self.hits} hits "
            f"({100.0 * self.hit_rate:.1f}%), "
            f"{self.pipeline_stage_spans()} pipeline stage spans, "
            f"{self.wall_seconds:.2f}s wall "
            f"({self.executor}, {self.workers} worker"
            f"{'s' if self.workers != 1 else ''})")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs": [r.as_dict() for r in self.results],
            "wall_seconds": self.wall_seconds,
            "executor": self.executor,
            "workers": self.workers,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "pipeline_stage_spans": self.pipeline_stage_spans(),
            "ok": self.ok,
        }


def run_batch(jobs: Sequence[RecompileJob], jobs_n: int = 1,
              cache: Optional[ArtifactCache] = None,
              verify: bool = False) -> BatchResult:
    """Execute ``jobs`` and return their results in manifest order.

    ``jobs_n > 1`` fans out across a ``ProcessPoolExecutor``; pipeline
    work is pure CPU-bound Python, so separate processes (not threads)
    are what buys wall-clock.  Any pool-level failure — fork refused,
    a worker killed, pickling trouble — falls back to in-process
    execution of the whole batch; per-job exceptions (validation
    failures included) are captured into that job's ``error`` field
    and never abort the rest of the batch.
    """
    # Per-job failure isolation: an invalid job becomes a structured
    # error result instead of sinking the whole manifest.
    invalid: Dict[int, JobResult] = {}
    payloads = []
    cache_conf = None
    if cache is not None:
        cache_conf = {"root": cache.root, "version": cache.version}
    for i, job in enumerate(jobs):
        try:
            job.validate()
        except BatchError as exc:
            invalid[i] = JobResult(index=i, name=job.name, error=str(exc))
        else:
            payloads.append((i, job.as_dict(), cache_conf, verify))
    started = time.perf_counter()

    want_pool = jobs_n > 1 and len(payloads) > 1 \
        and not os.environ.get(_INPROCESS_ENV)
    outputs: Optional[List[Dict[str, Any]]] = None
    executor = "inline"
    workers = 1
    if want_pool:
        try:
            outputs = _run_pool(payloads, jobs_n)
            executor = "process"
            workers = min(jobs_n, len(payloads))
        except Exception:       # noqa: BLE001 - pool infra failed, go inline
            outputs = None
    if outputs is None:
        outputs = [_worker(payload) for payload in payloads]
    if cache is not None:
        # Aggregate each worker's own cache activity into the parent
        # registry; a job that failed before reaching the cache (invalid,
        # unknown workload, unloadable input) contributes nothing.
        for data in outputs:
            for name, value in data["cache_counters"].items():
                cache.counters.inc(name, value)
    results = [_result_from_worker(data) for data in outputs]
    results.extend(invalid.values())
    results.sort(key=lambda r: r.index)
    return BatchResult(results=results,
                       wall_seconds=time.perf_counter() - started,
                       executor=executor, workers=workers)


def _run_pool(payloads, jobs_n: int) -> List[Dict[str, Any]]:
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs_n, len(payloads))) as pool:
        return list(pool.map(_worker, payloads))


# ---------------------------------------------------------------------------
# Manifests


def load_manifest(path: str) -> List[RecompileJob]:
    """Parse a job manifest: either ``{"jobs": [...]}`` or a bare JSON
    list of job objects (fields of :class:`RecompileJob`).  Anything
    malformed — unreadable file, bad JSON, a job of the wrong shape or
    field type — raises :class:`BatchError` naming the offending job."""
    import json
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BatchError(f"{path}: cannot read manifest: {exc}")
    if isinstance(data, dict):
        data = data.get("jobs")
    if not isinstance(data, list):
        raise BatchError(f"{path}: manifest must be a list of jobs or "
                         f"an object with a 'jobs' list")
    jobs = []
    for i, item in enumerate(data):
        try:
            jobs.append(RecompileJob.from_dict(item))
        except BatchError as exc:
            raise BatchError(f"{path}: job {i}: {exc}")
    return jobs


def jobs_for_group(group: str, opt_levels: Sequence[int] = (3,),
                   names: Optional[Sequence[str]] = None,
                   fence_opt: bool = False, seed: int = 21,
                   size: Optional[str] = None) -> List[RecompileJob]:
    """Manifest-free job construction: every workload of a suite (or
    the ``names`` subset) at each requested opt level."""
    from ..workloads import by_group
    workloads = by_group(group)
    if not workloads:
        raise BatchError(f"no workloads in group {group!r}")
    if names:
        wanted = set(names)
        workloads = [wl for wl in workloads if wl.name in wanted]
        missing = wanted - {wl.name for wl in workloads}
        if missing:
            raise BatchError(f"unknown workloads in group {group!r}: "
                             f"{sorted(missing)}")
    return [RecompileJob(workload=wl.name, opt_level=opt, fence_opt=fence_opt,
                         seed=seed, size=size)
            for wl in workloads for opt in opt_levels]
