"""Additive lifting: the recompilation loop for control-flow misses (§3.2).

The recompiled binary's indirect-transfer switches fall through to the
runtime's miss handler on unknown PC values; the handler stops the
program and reports ``(site, target)``.  This driver then updates the
on-disk CFG representation, performs a static recursive-descent
exploration starting at the new target (integrating discovered paths
back into the known CFG), re-runs the recompilation pipeline, and
retries — natively re-executing the recompiled output instead of
tracing in an emulator, which is what makes the loop cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..emulator.extlib import ControlFlowMiss
from .cfg import RecoveredCFG
from .recompiler import RecompileResult, Recompiler
from .runner import RunResult, run_image


@dataclass
class AdditiveIteration:
    """One recompile-run-miss round: what was added and what it cost."""
    miss: Optional[Tuple[int, int]]          # (site, target) or None
    recompile_seconds: float
    run_result: Optional[RunResult]


@dataclass
class AdditiveReport:
    """Full additive-lifting outcome: iterations until no misses remain."""
    result: RecompileResult
    iterations: List[AdditiveIteration] = field(default_factory=list)

    @property
    def recompile_loops(self) -> int:
        """Loops triggered by misses (excludes the initial compile)."""
        return sum(1 for it in self.iterations if it.miss is not None)

    @property
    def total_seconds(self) -> float:
        """Wall time summed over every iteration."""
        return sum(it.recompile_seconds for it in self.iterations)


class AdditiveLifting:
    """Runs the additive recompilation loop to a fixed point."""

    def __init__(self, recompiler: Recompiler,
                 max_loops: int = 64) -> None:
        self.recompiler = recompiler
        self.max_loops = max_loops

    def run(self, library_factory: Callable[[], object],
            cfg: Optional[RecoveredCFG] = None, seed: int = 0,
            max_cycles: int = 200_000_000) -> AdditiveReport:
        """Iterate recompile→execute until the input runs miss-free.

        ``library_factory()`` must return a fresh external library per
        execution attempt (the program is re-run from the start after
        every recompilation, as in the paper).
        """
        started = time.perf_counter()
        if cfg is None:
            cfg = self.recompiler.recover_cfg()
        result = self.recompiler.recompile(cfg=cfg)
        report = AdditiveReport(result=result)
        report.iterations.append(AdditiveIteration(
            miss=None, recompile_seconds=time.perf_counter() - started,
            run_result=None))

        for _ in range(self.max_loops):
            try:
                run = run_image(result.image, library=library_factory(),
                                seed=seed, max_cycles=max_cycles,
                                catch_faults=False)
                report.iterations[-1].run_result = run
                return report
            except ControlFlowMiss as miss:
                started = time.perf_counter()
                cfg = self._integrate_miss(cfg, miss)
                result = self.recompiler.recompile(cfg=cfg)
                report.result = result
                report.iterations.append(AdditiveIteration(
                    miss=(miss.site, miss.target),
                    recompile_seconds=time.perf_counter() - started,
                    run_result=None))
        raise RuntimeError(
            f"additive lifting did not converge in {self.max_loops} loops")

    def _integrate_miss(self, cfg: RecoveredCFG,
                        miss: ControlFlowMiss) -> RecoveredCFG:
        """Update the on-disk CFG with the new (site, target) pair and
        re-explore statically from the target."""
        cfg.add_indirect_target(miss.site, miss.target)
        # Indirect-call sites contribute new function entries; jump
        # sites contribute intra-function blocks.  Re-running recovery
        # seeded with the updated target sets integrates both.
        kind = self._site_kind(cfg, miss.site)
        if kind == "indcall":
            cfg.dynamic_entries.add(miss.target)
        return self.recompiler.recover_cfg(seed_cfg=cfg)

    @staticmethod
    def _site_kind(cfg: RecoveredCFG, site: int) -> str:
        for fn in cfg.functions.values():
            for block in fn.blocks.values():
                if block.start <= site < block.end:
                    return block.terminator
        return "indjmp"
