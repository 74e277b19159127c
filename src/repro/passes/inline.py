"""Function inlining.

Used in two places: as a size/benefit-driven optimisation during
recompilation (only for functions proven not to be external entry
points, §3.3.3), and exhaustively by the spinloop detector which
"recursively inlines all lifted functions in the body of their callers
to enable data flow tracking across procedure calls" (§3.4.2).
"""

from __future__ import annotations

from typing import Dict, List

from ..ir import (Block, Br, Call, ConstantInt, Function, Module, Phi, Ret,
                  Unreachable, replace_all_uses)
from .manager import Pass


def clone_function_body(fn: Function, value_map: Dict,
                        into: Function, suffix: str) -> List[Block]:
    """Clone ``fn``'s blocks into ``into``; returns the new blocks.

    ``value_map`` must pre-map every :class:`Argument` of ``fn``.
    """
    block_map: Dict[Block, Block] = {}
    new_blocks: List[Block] = []
    for block in fn.blocks:
        clone = into.add_block(f"{block.name}.{suffix}")
        clone.origin_addr = block.origin_addr
        block_map[block] = clone
        new_blocks.append(clone)

    import copy
    for block in fn.blocks:
        clone = block_map[block]
        for instr in block.instructions:
            new_instr = copy.copy(instr)
            new_instr.operands = list(instr.operands)
            new_instr.tags = set(instr.tags)
            new_instr.name = f"{instr.name}.{suffix}"
            if isinstance(instr, Phi):
                new_instr.incoming_blocks = [
                    block_map.get(b, b) for b in instr.incoming_blocks]
            for attr in ("target", "if_true", "if_false", "default"):
                if hasattr(new_instr, attr):
                    setattr(new_instr, attr,
                            block_map.get(getattr(new_instr, attr),
                                          getattr(new_instr, attr)))
            if hasattr(new_instr, "cases"):
                new_instr.cases = [(v, block_map.get(b, b))
                                   for v, b in new_instr.cases]
            if isinstance(new_instr, Call) and not new_instr.is_external:
                new_instr.callee = value_map.get(new_instr.callee,
                                                 new_instr.callee)
            value_map[instr] = new_instr
            clone.append(new_instr)

    # Remap operands.
    for clone in new_blocks:
        for instr in clone.instructions:
            for i, op in enumerate(instr.operands):
                instr.operands[i] = value_map.get(op, op)
    return new_blocks


def inline_call(call: Call, module: Module) -> bool:
    """Inline one direct internal call site.  Returns True on success."""
    if call.is_external:
        return False
    callee: Function = call.callee
    caller: Function = call.parent.parent
    if callee is caller or not callee.blocks:
        return False

    block = call.parent
    index = block.instructions.index(call)

    # Split the containing block after the call.
    cont = caller.add_block(f"{block.name}.cont")
    for instr in list(block.instructions[index + 1:]):
        block.remove(instr)
        cont.append(instr)
    # Phis in successors must now name the continuation block.
    for succ in cont.successors():
        for phi in succ.phis():
            for i, pred in enumerate(phi.incoming_blocks):
                if pred is block:
                    phi.incoming_blocks[i] = cont
    block.remove(call)

    value_map: Dict = {}
    for param, arg in zip(callee.params, call.operands):
        value_map[param] = arg
    # The suffix must be derived from stable facts about the call site,
    # never from object identity: cloned names feed name-ordered
    # decisions downstream (loop block ordering, exit sorting), and
    # recompilation promises bit-identical output across processes.
    # (block name, instruction index) is unique per inlined site — the
    # call is removed as part of inlining, so it cannot recur.
    suffix = f"inl.{block.name}.{index}"
    new_blocks = clone_function_body(callee, value_map, caller, suffix)
    entry_clone = new_blocks[0]
    block.append(Br(entry_clone))

    # Rewire returns to the continuation; merge return values via phi.
    ret_sites: List = []
    for clone in new_blocks:
        term = clone.terminator
        if isinstance(term, Ret):
            ret_sites.append((clone, term.value))
            clone.remove(term)
            clone.append(Br(cont))
    if not ret_sites:
        # Callee never returns; continuation unreachable.
        cont_term = cont.terminator
        if cont_term is None:
            cont.append(Unreachable())
    from ..ir import VoidType
    if isinstance(call.type, VoidType):
        return True
    values = [v for _, v in ret_sites if v is not None]
    if values:
        if len(ret_sites) == 1:
            replace_all_uses(caller, call, values[0])
        else:
            phi = Phi(call.type, name=f"retval.{suffix}")
            for site, value in ret_sites:
                phi.add_incoming(value if value is not None
                                 else ConstantInt(0, call.type), site)
            cont.insert(0, phi)
            replace_all_uses(caller, call, phi)
    else:
        replace_all_uses(caller, call, ConstantInt(0, call.type))
    return True


class Inliner(Pass):
    """Inlines calls to internal functions.

    ``only_single_use`` restricts to functions with exactly one call
    site (safe size-wise); ``max_blocks`` bounds callee size otherwise.
    ``respect_visibility`` skips external-visible functions (they must
    survive as callback entry points until the callback analysis clears
    them).

    With a :class:`repro.profile.ProfileGuide` attached, call sites in
    measured-hot blocks use the ``hot_max_blocks`` size budget instead:
    the call/ret + prologue/epilogue overhead is paid on every
    execution there, so a bigger callee is worth duplicating.  Cold
    sites keep the unguided threshold, bounding code growth.
    """

    name = "inline"

    def __init__(self, max_blocks: int = 8, respect_visibility: bool = True,
                 exhaustive: bool = False, profile=None,
                 hot_max_blocks: int = 32) -> None:
        self.max_blocks = max_blocks
        self.respect_visibility = respect_visibility
        self.exhaustive = exhaustive
        self.profile = profile          # a ProfileGuide, despite the name
        self.hot_max_blocks = hot_max_blocks

    def _size_budget(self, call: Call) -> int:
        """Callee-size cap for one call site."""
        if self.profile is not None and \
                self.profile.call_block_hot(call.parent):
            return max(self.max_blocks, self.hot_max_blocks)
        return self.max_blocks

    def run_module(self, module: Module) -> bool:
        """Inline eligible call sites across the module bottom-up."""
        changed = False
        progress = True
        rounds = 0
        while progress and rounds < (50 if self.exhaustive else 3):
            progress = False
            rounds += 1
            for fn in list(module.functions):
                for call in [i for i in fn.instructions()
                             if isinstance(i, Call) and not i.is_external]:
                    callee = call.callee
                    if callee not in module.functions:
                        continue
                    if self._recursive(callee):
                        continue
                    boosted = False
                    if not self.exhaustive:
                        if self.respect_visibility and callee.external_visible:
                            continue
                        budget = self._size_budget(call)
                        if len(callee.blocks) > budget:
                            continue
                        boosted = len(callee.blocks) > self.max_blocks
                    if inline_call(call, module):
                        progress = True
                        changed = True
                        if boosted:
                            self.profile.count("hot_inlines")
        return changed

    @staticmethod
    def _recursive(fn: Function) -> bool:
        for instr in fn.instructions():
            if isinstance(instr, Call) and not instr.is_external \
                    and instr.callee is fn:
                return True
        return False
