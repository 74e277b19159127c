"""Dead code elimination (mark and sweep, handles cyclic phi webs)."""

from __future__ import annotations

from typing import List, Set

from ..ir import Function, Instruction, Module
from .manager import Pass


class DCE(Pass):
    """Remove unused side-effect-free instructions (backwards sweep)."""
    name = "dce"

    def run_function(self, fn: Function, module: Module) -> bool:
        """One elimination sweep; returns True if anything died."""
        live: Set[Instruction] = set()
        work: List[Instruction] = []
        for instr in fn.instructions():
            if instr.has_side_effects:
                live.add(instr)
                work.append(instr)
        while work:
            instr = work.pop()
            for op in instr.operands:
                if isinstance(op, Instruction) and op not in live:
                    live.add(op)
                    work.append(op)
        changed = False
        for block in fn.blocks:
            for instr in list(block.instructions):
                if instr not in live:
                    block.remove(instr)
                    changed = True
        return changed
