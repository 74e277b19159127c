"""CFG simplification: unreachable-block removal, block merging,
empty-block threading and single-predecessor phi collapsing."""

from __future__ import annotations

from ..ir import (Br, Function, Module, predecessors, reachable_blocks,
                  replace_all_uses)
from .manager import Pass


class SimplifyCFG(Pass):
    """Remove unreachable blocks, merge straight-line chains, thread trivial jumps."""
    name = "simplifycfg"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Iterate CFG clean-ups until stable."""
        changed = False
        again = True
        while again:
            again = False
            again |= self._remove_unreachable(fn)
            again |= self._collapse_phis(fn)
            again |= self._merge_blocks(fn)
            again |= self._thread_empty_blocks(fn)
            changed |= again
        return changed

    def _remove_unreachable(self, fn: Function) -> bool:
        reachable = reachable_blocks(fn)
        dead = [block for block in fn.blocks if block not in reachable]
        if not dead:
            return False
        dead_set = set(dead)
        for block in fn.blocks:
            if block in dead_set:
                continue
            for phi in block.phis():
                for pred in list(phi.incoming_blocks):
                    if pred in dead_set:
                        phi.remove_incoming(pred)
        for block in dead:
            fn.remove_block(block)
        return True

    def _collapse_phis(self, fn: Function) -> bool:
        changed = False
        preds = predecessors(fn)
        for block in fn.blocks:
            for phi in list(block.phis()):
                if len(preds[block]) == 1 and len(phi.operands) == 1:
                    replace_all_uses(fn, phi, phi.operands[0])
                    block.remove(phi)
                    changed = True
        return changed

    def _merge_blocks(self, fn: Function) -> bool:
        """Merge A -> B when A's only successor is B and B's only
        predecessor is A."""
        changed = False
        preds = predecessors(fn)
        for block in list(fn.blocks):
            term = block.terminator
            if not isinstance(term, Br):
                continue
            succ = term.target
            if succ is block or succ is fn.entry:
                continue
            if len(preds[succ]) != 1:
                continue
            # Collapse phis in succ (single predecessor).
            for phi in list(succ.phis()):
                replace_all_uses(fn, phi, phi.operands[0])
                succ.remove(phi)
            block.remove(term)
            for instr in list(succ.instructions):
                succ.remove(instr)
                block.append(instr)
            # Successors of succ now flow from block; fix their phis.
            for nxt in block.successors():
                for phi in nxt.phis():
                    for i, pred in enumerate(phi.incoming_blocks):
                        if pred is succ:
                            phi.incoming_blocks[i] = block
            fn.remove_block(succ)
            changed = True
            preds = predecessors(fn)
        return changed

    def _thread_empty_blocks(self, fn: Function) -> bool:
        """Retarget branches through blocks containing only ``br X``."""
        changed = False
        preds = predecessors(fn)
        for block in list(fn.blocks):
            if block is fn.entry:
                continue
            if len(block.instructions) != 1:
                continue
            term = block.terminator
            if not isinstance(term, Br):
                continue
            target = term.target
            if target is block:
                continue
            # Don't thread if the target has phis and a predecessor of
            # `block` already reaches `target` (would create duplicate
            # incoming entries with possibly different values).
            target_phis = target.phis()
            skip = False
            for pred in preds[block]:
                if target_phis and target in pred.successors():
                    skip = True
                    break
            if skip or not preds[block]:
                continue
            for pred in list(preds[block]):
                pred.terminator.replace_successor(block, target)
                for phi in target_phis:
                    value = phi.incoming_for(block)
                    if value is not None:
                        phi.add_incoming(value, pred)
            for phi in target_phis:
                phi.remove_incoming(block)
            fn.remove_block(block)
            changed = True
            preds = predecessors(fn)
        return changed
