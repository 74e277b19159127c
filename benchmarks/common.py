"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures: it computes
the same rows/series, prints them, and appends a record to
``benchmarks/results/`` so EXPERIMENTS.md can cite concrete numbers.

"Performance" is simulated wall cycles (see DESIGN.md): normalised
runtime = recompiled wall cycles / original wall cycles, the analogue
of the paper's normalised runtimes.  Lifting times are real seconds of
this reproduction's pipeline.

Recompilations route through the content-addressed artifact cache
(``repro.core.artifact_cache``): the first run of a configuration pays
the full pipeline, every later run is served from
``benchmarks/.artifact-cache`` without executing a single stage (see
``docs/REPRODUCING.md``).  Environment knobs:

* ``POLYNIMA_NO_CACHE=1``   — disable the cache (always recompile);
* ``POLYNIMA_CACHE_DIR=d``  — use a different cache directory;
* ``POLYNIMA_CACHE_VERIFY=1`` — on every hit, also recompile fresh and
  fail unless the cached artifact is bit-identical.

Timing benches (Table 4 / Figure 4) that measure the pipeline itself
pass ``cache=None`` explicitly, so cached stage timings never
contaminate fresh measurements.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import ArtifactCache, run_image
from repro.core import hybrid_recompile as _hybrid_recompile
from repro.observability import Tracer
from repro.workloads import Workload

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Default on-disk cache shared by every bench invocation.
CACHE_DIR = os.path.join(os.path.dirname(__file__), ".artifact-cache")

_cache: Optional[ArtifactCache] = None


def artifact_cache() -> Optional[ArtifactCache]:
    """The benches' shared cache handle, or ``None`` when disabled via
    ``POLYNIMA_NO_CACHE``."""
    global _cache
    if os.environ.get("POLYNIMA_NO_CACHE"):
        return None
    if _cache is None:
        _cache = ArtifactCache(os.environ.get("POLYNIMA_CACHE_DIR")
                               or CACHE_DIR)
    return _cache


def write_result(name: str, title: str, header: Sequence[str],
                 rows: Iterable[Sequence], notes: str = "") -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    lines = [f"# {title}", ""]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    if notes:
        lines += ["", notes]
    text = "\n".join(lines) + "\n"
    path = os.path.join(RESULTS_DIR, f"{name}.md")
    with open(path, "w") as handle:
        handle.write(text)
    print()
    print(text)
    return path


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def hybrid_recompile(workload: Workload, opt_level: int,
                     size: Optional[str] = None, seed: int = 21,
                     fence_opt: bool = False,
                     manual_overrides: Optional[set] = None,
                     with_callbacks: bool = True,
                     profile=None,
                     tracer: Optional[Tracer] = None,
                     counters=None,
                     cache: object = "auto"):
    """The paper's full Polynima configuration: static CFG + ICFT trace
    + callback analysis (+ optional fence optimisation).  Returns the
    final RecompileResult.  Pass a ``tracer`` to collect the pipeline's
    stage spans (exportable as a Chrome trace), a ``profile`` (a
    :class:`repro.profile.Profile` or path) for a feedback-directed
    build, and ``counters`` to read back the ``pgo.*`` decisions.

    The canonical implementation lives in ``repro.core.batch``; this
    wrapper plugs in the benches' shared artifact cache (``cache=None``
    opts a call site out, e.g. when timing the pipeline itself)."""
    if cache == "auto":
        cache = artifact_cache()
    return _hybrid_recompile(
        workload, opt_level, size=size, seed=seed, fence_opt=fence_opt,
        manual_overrides=manual_overrides, with_callbacks=with_callbacks,
        profile=profile, tracer=tracer, counters=counters, cache=cache,
        verify=bool(os.environ.get("POLYNIMA_CACHE_VERIFY")))


def cache_stats() -> Dict[str, int]:
    """The shared artifact cache's ``cache.*`` counters (hits, misses,
    puts, ...) as a plain dict — every bench JSON embeds this so a
    result records whether it was served warm or cold.  Empty when the
    cache is disabled."""
    cache = artifact_cache()
    return cache.stats() if cache is not None else {}


def bench_provenance(profile=None) -> Dict[str, object]:
    """The provenance block benches attach to their JSON output: cache
    hit/miss counters plus the digest of the guiding profile (``None``
    for unguided runs)."""
    digest = None
    if profile is not None:
        if isinstance(profile, str):
            from repro.profile import Profile
            profile = Profile.load(profile)
        digest = profile.digest()
    return {"cache": cache_stats(), "profile_digest": digest}


def stage_breakdown(result) -> Dict[str, float]:
    """Per-stage seconds for a RecompileResult, read from its tracer's
    top-level ``recompile.*`` spans (identical to the derived
    ``RecompileStats`` view; used by the lifting-time tables)."""
    if result.tracer is not None:
        return result.tracer.stage_seconds()
    return result.stats.stage_seconds()


#: The emulator counters every benchmark reports alongside runtimes.
KEY_COUNTERS = ("emu.instructions", "emu.atomic_rmws", "emu.fences",
                "emu.context_switches", "emu.threads")


def counter_summary(run) -> Dict[str, float]:
    """The headline emulator perf counters of a RunResult — the numbers
    benches used to re-derive by hand from cycles/stdout."""
    return {name: run.counters.get(name, 0) for name in KEY_COUNTERS}


def run_original(workload: Workload, opt_level: int,
                 size: Optional[str] = None, seed: int = 21):
    """The original binary's RunResult, the baseline of
    :func:`normalized_runtime`."""
    image = workload.compile(opt_level=opt_level)
    return run_image(image, library=workload.library(size), seed=seed)


def normalized_runtime(workload: Workload, result, opt_level: int,
                       size: Optional[str] = None, seed: int = 21,
                       original=None) -> float:
    """recompiled wall cycles / original wall cycles; asserts output
    equivalence first (the paper validates before timing).

    ``original``: the original binary's RunResult on the same size and
    seed (:func:`run_original`), when the caller already has it; by
    default the original is run here."""
    if original is None:
        original = run_original(workload, opt_level, size, seed)
    recompiled = run_image(result.image, library=workload.library(size),
                           seed=seed)
    assert original.ok, f"{workload.name}: original faulted {original.fault}"
    assert recompiled.matches(original), \
        (f"{workload.name} O{opt_level}: output mismatch "
         f"({recompiled.fault} {recompiled.stdout[:40]!r})")
    # Consistency between the scalar fields and the counter registry is
    # a cheap invariant every benchmark run re-checks for free.
    assert recompiled.counters.get("emu.wall_cycles") == \
        recompiled.wall_cycles
    return recompiled.wall_cycles / original.wall_cycles


def once(benchmark, fn):
    """Run a whole-table computation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
