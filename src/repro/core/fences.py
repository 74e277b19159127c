"""Fence insertion for lifted multithreaded code (§3.3.4).

Adopts Lasagne's strategy: an ``acquire`` fence after every load and a
``release`` fence before every store *belonging to the original
program*, preventing the optimiser from reordering shared memory
accesses.  Two refinements from the paper:

* accesses whose address is derived directly from the emulated stack
  pointer (tagged ``emustack`` by the translator) get no fences — the
  stack is thread-exclusive;
* adjacent (redundant) fences are merged.

Fences inserted here are tagged ``lasagne`` so the fence-removal
optimisation (§3.4) can strip exactly what this pass added.
"""

from __future__ import annotations

from typing import List

from ..ir import (AtomicRMW, Call, Cmpxchg, CompilerBarrier, Fence, Function,
                  Instruction, Load, Module, Store)
from ..passes import Pass


def _is_program_access(instr: Instruction) -> bool:
    return "orig" in instr.tags and "emustack" not in instr.tags


class FenceInsertion(Pass):
    """Lasagne-style fence insertion around shared-memory accesses.

    ``exempt_stack=False`` disables the §3.3.4 emulated-stack exemption
    and fences *every* original access — the ablation baseline showing
    why stack-derivation tracking matters.
    """
    name = "fence-insertion"

    def __init__(self, exempt_stack: bool = True) -> None:
        self.exempt_stack = exempt_stack

    def run_function(self, fn: Function, module: Module) -> bool:
        """Insert acquire/release fences (emulated-stack traffic excepted)."""
        def eligible(instr: Instruction) -> bool:
            if self.exempt_stack:
                return _is_program_access(instr)
            return "orig" in instr.tags

        changed = False
        for block in fn.blocks:
            index = 0
            while index < len(block.instructions):
                instr = block.instructions[index]
                if isinstance(instr, Load) and eligible(instr) \
                        and instr.ordering is None:
                    fence = Fence("acquire")
                    fence.tags.add("lasagne")
                    block.insert(index + 1, fence)
                    index += 2
                    changed = True
                    continue
                if isinstance(instr, Store) and eligible(instr) \
                        and instr.ordering is None:
                    fence = Fence("release")
                    fence.tags.add("lasagne")
                    block.insert(index, fence)
                    index += 2
                    changed = True
                    continue
                index += 1
        return changed


class FenceMerge(Pass):
    """Merges adjacent fences with no memory operation between them."""

    name = "fence-merge"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Merge adjacent/redundant fences within a block."""
        changed = False
        for block in fn.blocks:
            to_remove: List[Fence] = []
            pending: Fence = None
            for instr in block.instructions:
                if isinstance(instr, Fence):
                    if pending is not None:
                        # Keep the stronger of the two orderings.
                        weaker = instr if _strength(instr) <= \
                            _strength(pending) else pending
                        keeper = pending if weaker is instr else instr
                        to_remove.append(weaker)
                        pending = keeper
                    else:
                        pending = instr
                    continue
                if isinstance(instr, (Load, Store, Cmpxchg, AtomicRMW,
                                      Call, CompilerBarrier)):
                    pending = None
            for fence in to_remove:
                block.remove(fence)
                changed = True
        return changed


def _strength(fence: Fence) -> int:
    return {"monotonic": 0, "acquire": 1, "release": 1, "acq_rel": 2,
            "seq_cst": 3}[fence.ordering]


def remove_lasagne_fences(module: Module) -> int:
    """Strip every fence the insertion pass added (§3.4 fence removal).

    Applied only after the spinloop analysis has shown the binary free
    of implicit synchronisation primitives.  Returns the count removed.
    """
    removed = 0
    for fn in module.functions:
        for block in fn.blocks:
            for instr in list(block.instructions):
                if isinstance(instr, Fence) and "lasagne" in instr.tags:
                    block.remove(instr)
                    removed += 1
    return removed


def count_fences(module: Module) -> int:
    """Total Fence instructions in the module."""
    return sum(1 for fn in module.functions
               for block in fn.blocks
               for instr in block.instructions
               if isinstance(instr, Fence))
