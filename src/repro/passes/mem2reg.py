"""SSA promotion of memory slots (allocas), LLVM's mem2reg.

A slot is promotable when its address never escapes: every use is
either the address operand of a same-width Load or Store.  Promotion
uses pruned SSA construction — phis at the iterated dominance frontier
of the definition blocks, then renaming along the dominator tree.

Thread-locality makes this sound across fences and atomics: a
non-escaping slot can never be observed by another thread, which is
exactly the paper's argument for lifting registers as SSA values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir import (Alloca, Block, ConstantInt, Function, Instruction, Load,
                  Module, Phi, Store, dominance_frontiers, dominators,
                  predecessors, reachable_blocks, replace_uses, type_for_width)
from .manager import Pass


def _promotable_slots(fn: Function) -> Dict[Alloca, int]:
    """Allocas whose every use is a direct full-width load/store address."""
    allocas: List[Alloca] = []
    users: Dict[Alloca, List[Instruction]] = {}
    for block in fn.blocks:
        for instr in block.instructions:
            if isinstance(instr, Alloca):
                allocas.append(instr)
            for op in instr.operands:
                if isinstance(op, Alloca):
                    users.setdefault(op, []).append(instr)
    slots: Dict[Alloca, int] = {}
    for instr in allocas:
        width: Optional[int] = None
        ok = True
        for user in users.get(instr, ()):
            if isinstance(user, Load) and user.addr is instr:
                access = user.width
            elif isinstance(user, Store) and user.addr is instr \
                    and user.value is not instr:
                access = user.width
            else:
                ok = False
                break
            if access != instr.size:
                ok = False
                break
            if width is None:
                width = access
            elif width != access:
                ok = False
                break
        if ok and width is not None:
            slots[instr] = width
        elif ok and width is None:
            slots[instr] = instr.size      # never accessed: trivially dead
    return slots


class Mem2Reg(Pass):
    """Promote non-escaping IR-global slots to SSA values with phis."""
    name = "mem2reg"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Standard SSA construction over the promotable slots."""
        slots = _promotable_slots(fn)
        if not slots:
            return False
        reachable = reachable_blocks(fn)
        frontiers = dominance_frontiers(fn)
        idom = dominators(fn)
        preds = predecessors(fn)

        # Dominator tree children.
        children: Dict[Block, List[Block]] = {b: [] for b in fn.blocks}
        for block, parent in idom.items():
            if parent is not None:
                children[parent].append(block)

        # Phi placement per slot.
        def_blocks: Dict[Alloca, Set[Block]] = {slot: set() for slot in slots}
        for instr in fn.instructions():
            if isinstance(instr, Store) and instr.addr in def_blocks:
                def_blocks[instr.addr].add(instr.parent)
        phis: Dict[Tuple[Alloca, Block], Phi] = {}
        for slot, width in slots.items():
            work = list(def_blocks[slot])
            placed: Set[Block] = set()
            while work:
                block = work.pop()
                for front in frontiers.get(block, ()):
                    if front in placed or front not in reachable:
                        continue
                    placed.add(front)
                    phi = Phi(type_for_width(width),
                              name=f"{slot.name}.phi")
                    front.insert(0, phi)
                    phis[(slot, front)] = phi
                    if front not in def_blocks[slot]:
                        work.append(front)

        phi_to_slot: Dict[Phi, Alloca] = {
            phi: slot for (slot, _block), phi in phis.items()}

        # Renaming.
        zero: Dict[Alloca, ConstantInt] = {
            slot: ConstantInt(0, type_for_width(width))
            for slot, width in slots.items()}
        replacements: Dict[Instruction, object] = {}
        to_remove: List[Instruction] = []

        def rename(block: Block, incoming: Dict[Alloca, object]) -> None:
            current = dict(incoming)
            for instr in list(block.instructions):
                phi_slot = phi_to_slot.get(instr) if isinstance(instr, Phi) \
                    else None
                if phi_slot is not None:
                    current[phi_slot] = instr
                    continue
                if isinstance(instr, Load) and instr.addr in slots:
                    replacements[instr] = current.get(instr.addr,
                                                      zero[instr.addr])
                    to_remove.append(instr)
                elif isinstance(instr, Store) and instr.addr in slots:
                    value = instr.value
                    value = replacements.get(value, value)
                    current[instr.addr] = value
                    to_remove.append(instr)
            for succ in block.successors():
                for slot in slots:
                    phi = phis.get((slot, succ))
                    if phi is not None:
                        value = current.get(slot, zero[slot])
                        value = replacements.get(value, value)
                        phi.add_incoming(value, block)
            for child in children.get(block, ()):
                rename(child, current)

        import sys
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10000 + 10 * len(fn.blocks)))
        try:
            rename(fn.entry, {})
        finally:
            sys.setrecursionlimit(old_limit)

        # Accesses in unreachable blocks never get renamed; neutralise
        # them so removing the alloca leaves no dangling operands.
        for block in fn.blocks:
            if block in reachable:
                continue
            for instr in list(block.instructions):
                if isinstance(instr, Load) and instr.addr in slots:
                    replacements[instr] = zero[instr.addr]
                    to_remove.append(instr)
                elif isinstance(instr, Store) and instr.addr in slots:
                    to_remove.append(instr)

        replace_uses(fn, replacements)
        dead = set(to_remove)
        dead.update(slots)
        for block in fn.blocks:
            block.remove_all(dead)
        # Phis in unreachable blocks or with missing predecessors are left
        # to simplifycfg/DCE.
        return True


