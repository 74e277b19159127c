"""The fence-removal optimisation driver (§3.4).

End-to-end flow:

1. build an access-instrumented recompilation of the input;
2. run it on the provided concrete inputs, merging the recorded
   per-site (location, access-type) observations across runs;
3. run the spinloop detector over the lifted IR with those records;
4. if every loop is proven non-spinning, rebuild the binary with the
   Lasagne fences removed — unlocking the memory optimisations the
   fences were pinning down; otherwise conservatively keep all fences
   (possibly affecting performance but not correctness, §3.4.3).  The
   rebuild keeps wrappers only for the ``observed_callbacks``.

Unlike the ICFT trace and the callback analysis, which run the original
binary, this analysis runs on *recompiled output*: the instrumented
build is the only one of a hybrid job's analyses that needs a build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..binfmt import Image
from .cfg import RecoveredCFG
from .instrument import merge_access_logs
from .recompiler import RecompileResult, Recompiler
from .runner import run_image
from .spinloop import SpinloopDetector, SpinloopReport


@dataclass
class FenceOptReport:
    """Outcome of fence optimisation: per-binary verdicts and removals."""
    spinloops: SpinloopReport
    applied: bool
    result: RecompileResult
    access_sites_observed: int = 0
    runs: int = 0


def optimize_fences(image: Image, library_factory: Callable[[], object],
                    runs: int = 1, seed: int = 0,
                    cfg: Optional[RecoveredCFG] = None,
                    observed_callbacks: Optional[Set[int]] = None,
                    manual_overrides: Optional[Set[int]] = None,
                    max_cycles: int = 200_000_000,
                    profile=None, counters=None) -> FenceOptReport:
    """Run the full §3.4 pipeline and return the (possibly) optimised
    recompilation plus the analysis report.

    ``manual_overrides``: original block addresses of loops the operator
    manually vetted as non-spinning despite lacking dynamic coverage
    (the paper does this for histogram's endianness-swap loop).

    ``profile``: a :class:`repro.profile.Profile` guiding the *final*
    recompilation only.  The instrumented build stays unguided so the
    access log (and therefore the spinloop verdicts) is identical with
    and without a profile.

    ``observed_callbacks`` prunes the *final* recompilation only.  The
    instrumented build keeps every wrapper, so its inlining, and with it
    the spinloop detector's input, does not depend on the callback set.
    """
    # 1-2. Instrumented build + concrete executions.
    instrumented = Recompiler(
        image, instrument_accesses=True).recompile(cfg=cfg)
    logs: List[Dict[str, dict]] = []
    for index in range(runs):
        run = run_image(instrumented.image, library=library_factory(),
                        seed=seed + index, max_cycles=max_cycles)
        logs.append(run.access_log)
    access_log = merge_access_logs(logs)

    # 3. Spinloop detection over the lifted (fence-carrying) IR.
    detector = SpinloopDetector(instrumented.module, access_log)
    report = detector.analyze()
    if manual_overrides:
        report.apply_manual_overrides(manual_overrides)

    # 4. Rebuild without fences if safe; keep them otherwise.
    applied = report.fences_removable
    final = Recompiler(
        image, insert_fences=not applied,
        observed_callbacks=observed_callbacks, profile=profile,
        counters=counters).recompile(cfg=instrumented.cfg)
    return FenceOptReport(spinloops=report, applied=applied, result=final,
                          access_sites_observed=len(access_log), runs=runs)
