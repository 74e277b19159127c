"""The Indirect Control Flow Target (ICFT) tracer (§3.2, Dynamic).

A lightweight dynamic tracer — the reproduction's stand-in for the
paper's Pin tool — that runs the *original* binary on concrete inputs
and records the target of every indirect jump and indirect call.
Results from multiple runs are merged and used to augment the
statically recovered CFG before lifting, which is what makes the hybrid
approach cheap: tracing costs one plain emulated execution per input,
not a full-system-emulator lift.

The same run also yields the callback analysis (§3.3.3): every guest
function the library entered (program entry, thread start routines,
OpenMP outlined bodies, ``qsort`` comparators) is recorded by the
machine itself and kept as :attr:`TraceResult.entries`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Sequence, Set

from ..binfmt import Image
from ..emulator import EmulationFault, ExternalLibrary, Machine
from .cfg import RecoveredCFG


@dataclass
class TraceResult:
    """ICFTs recorded over one or more concrete executions.

    Each site maps to a counted histogram ``{target: times_observed}``
    rather than a bare target set: CFG augmentation only needs the keys
    (set semantics preserved), while the profile collector reuses the
    counts as its indirect-target substrate.
    """

    #: site -> {target: count}, for indirect jumps and calls separately.
    jump_targets: Dict[int, Dict[int, int]] = field(default_factory=dict)
    call_targets: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: Guest functions entered from external context
    #: (``Machine.external_entries``): the observed callbacks.
    entries: Set[int] = field(default_factory=set)
    runs: int = 0
    instructions: int = 0
    wall_seconds: float = 0.0

    def merge(self, other: "TraceResult") -> None:
        """Sum another trace's indirect-target histograms into this one."""
        for site, targets in other.jump_targets.items():
            table = self.jump_targets.setdefault(site, {})
            for target, count in targets.items():
                table[target] = table.get(target, 0) + count
        for site, targets in other.call_targets.items():
            table = self.call_targets.setdefault(site, {})
            for target, count in targets.items():
                table[target] = table.get(target, 0) + count
        self.entries |= other.entries
        self.runs += other.runs
        self.instructions += other.instructions
        self.wall_seconds += other.wall_seconds

    @property
    def total_icfts(self) -> int:
        """Count of distinct indirect control-flow transfers observed."""
        return (sum(len(t) for t in self.jump_targets.values())
                + sum(len(t) for t in self.call_targets.values()))

    def apply_to(self, cfg: RecoveredCFG) -> int:
        """Augment a recovered CFG; returns number of new targets."""
        added = 0
        for site, targets in self.jump_targets.items():
            for target in targets:
                added += cfg.add_indirect_target(site, target, traced=True)
        for site, targets in self.call_targets.items():
            for target in targets:
                added += cfg.add_indirect_target(site, target, traced=True)
        return added


class ICFTTracer:
    """Runs a binary against a set of inputs, recording indirect targets."""

    def __init__(self, image: Image) -> None:
        self.image = image

    def trace(self, library_factory, inputs: Sequence = (None,),
              seed: int = 0, max_cycles: int = 200_000_000) -> TraceResult:
        """Trace one execution per element of ``inputs``.

        ``library_factory(input_item)`` must return a fresh
        :class:`ExternalLibrary` configured for that input (blob,
        params, filesystem, ...).
        """
        result = TraceResult()
        for index, item in enumerate(inputs):
            run = self.trace_once(library_factory(item), seed=seed + index,
                                  max_cycles=max_cycles)
            result.merge(run)
        return result

    def trace_once(self, library: ExternalLibrary, seed: int = 0,
                   max_cycles: int = 200_000_000) -> TraceResult:
        """Run the image once under the tracer with a given library/seed."""
        result = TraceResult()
        machine = Machine(self.image, library, seed=seed)

        def hook(machine_, thread, source, target, kind):
            table = (result.call_targets if kind == "call"
                     else result.jump_targets)
            histo = table.setdefault(source, {})
            histo[target] = histo.get(target, 0) + 1

        machine.indirect_hooks.append(hook)
        started = time.perf_counter()
        try:
            machine.run(max_cycles=max_cycles)
        except EmulationFault:
            # A crashing input still contributes the targets it reached.
            pass
        result.wall_seconds = time.perf_counter() - started
        result.instructions = machine.instructions
        result.entries = set(machine.external_entries)
        result.runs = 1
        return result
