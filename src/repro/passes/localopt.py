"""Local memory and value optimisations whose reach is gated by fences.

These are the passes whose effectiveness the paper's fence-removal
optimisation "unlocks" (§3.4, Table 2 FO columns):

* :class:`LoadElim` — redundant-load elimination and store-to-load
  forwarding inside a block.  Any memory barrier (fence, atomic, call,
  compiler barrier) invalidates known memory contents, so IR carrying a
  fence after every load and before every store gets *no* benefit.
* :class:`DSE` — dead store elimination inside a block, equally gated.
* :class:`LocalCSE` — common subexpression elimination for pure ops
  (unaffected by fences; included for a realistic O2-level pipeline).

Aliasing uses :mod:`repro.passes.alias`: base+offset reasoning over SSA
roots plus the thread-exclusivity of the emulated stack, mirroring what
LLVM's basic AA recovers from lifted code.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir import (AtomicRMW, BinOp, Call, Cast, Cmpxchg, CompilerBarrier,
                  ConstantInt, Fence, Function, ICmp, Instruction, Load,
                  Module, Select, Store, Value, replace_uses,
                  resolve_operands)
from .alias import AddrKey, access_is_stack, may_alias, symbolic_addr
from .manager import Pass


class _Entry:
    __slots__ = ("key", "width", "stack", "value")

    def __init__(self, key: AddrKey, width: int, stack: bool, value) -> None:
        self.key = key
        self.width = width
        self.stack = stack
        self.value = value


class LoadElim(Pass):
    """Forward stores/loads to later same-location loads within a block."""
    name = "loadelim"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Forward within each block; fences and clobbers cut the window.

        ``replaced`` collects the forwarded loads of the blocks already
        visited.  A block's operands, and the address chains its
        accesses are keyed by, are read through it, which is what
        rewriting the function after every block would leave; the
        function is rewritten once at the end.
        """
        replaced: Dict[Value, Value] = {}
        for block in fn.blocks:
            if replaced:
                for instr in block.instructions:
                    resolve_operands(instr, replaced)
            available: List[_Entry] = []
            forwarded: Dict[Instruction, Value] = {}
            for instr in block.instructions:
                if isinstance(instr, (Fence, CompilerBarrier, Call,
                                      Cmpxchg, AtomicRMW)):
                    available = []
                    continue
                if isinstance(instr, Load):
                    if instr.ordering is not None:
                        available = []
                        continue
                    key = symbolic_addr(instr.addr, replaced)
                    stack = access_is_stack(instr)
                    known = None
                    for entry in available:
                        if entry.key == key and entry.width == instr.width:
                            known = entry.value
                            break
                    if known is not None and known.type == instr.type:
                        forwarded[instr] = known
                    else:
                        available.append(_Entry(key, instr.width, stack,
                                                instr))
                    continue
                if isinstance(instr, Store):
                    if instr.ordering is not None:
                        available = []
                        continue
                    key = symbolic_addr(instr.addr, replaced)
                    stack = access_is_stack(instr)
                    available = [
                        entry for entry in available
                        if not may_alias(key, instr.width, stack,
                                         entry.key, entry.width,
                                         entry.stack)]
                    available.append(_Entry(key, instr.width, stack,
                                            instr.value))
                    continue
            if forwarded:
                block.remove_all(forwarded)
                replaced.update(forwarded)
        replace_uses(fn, replaced)
        return bool(replaced)


class DSE(Pass):
    """Remove stores overwritten before any possible observation."""
    name = "dse"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Backward sweep per block; fences/calls keep stores alive."""
        changed = False
        for block in fn.blocks:
            overwritten: List[_Entry] = []
            dead: List[Store] = []
            for instr in reversed(block.instructions):
                if isinstance(instr, (Fence, CompilerBarrier, Call,
                                      Cmpxchg, AtomicRMW)):
                    overwritten = []
                    continue
                if isinstance(instr, Load):
                    if instr.ordering is not None:
                        overwritten = []
                        continue
                    key = symbolic_addr(instr.addr)
                    stack = access_is_stack(instr)
                    overwritten = [
                        entry for entry in overwritten
                        if not may_alias(key, instr.width, stack,
                                         entry.key, entry.width,
                                         entry.stack)]
                    continue
                if isinstance(instr, Store):
                    if instr.ordering is not None:
                        overwritten = []
                        continue
                    key = symbolic_addr(instr.addr)
                    stack = access_is_stack(instr)
                    covered = any(
                        entry.key == key and entry.width == instr.width
                        for entry in overwritten)
                    if covered:
                        dead.append(instr)
                    else:
                        overwritten.append(_Entry(key, instr.width, stack,
                                                  None))
            for store in dead:
                block.remove(store)
                changed = True
        return changed


class LocalCSE(Pass):
    """Reuse identical pure computations within a block."""
    name = "localcse"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Hash-and-replace sweep over each block.

        As in :class:`LoadElim`, a block's operands are read through the
        replacements of the blocks before it and the function is
        rewritten once at the end.
        """
        replaced: Dict[Value, Value] = {}
        for block in fn.blocks:
            if replaced:
                for instr in block.instructions:
                    resolve_operands(instr, replaced)
            seen: Dict[tuple, Instruction] = {}
            duplicates: Dict[Instruction, Instruction] = {}
            for instr in block.instructions:
                key = self._key(instr)
                if key is None:
                    continue
                prior = seen.get(key)
                if prior is not None:
                    duplicates[instr] = prior
                else:
                    seen[key] = instr
            if duplicates:
                block.remove_all(duplicates)
                replaced.update(duplicates)
        replace_uses(fn, replaced)
        return bool(replaced)

    @staticmethod
    def _key(instr: Instruction) -> Optional[tuple]:
        def op_key(op):
            if isinstance(op, ConstantInt):
                return ("c", op.value, op.type.bits)
            return id(op)

        if isinstance(instr, BinOp):
            return ("bin", instr.op, instr.type.bits,
                    tuple(op_key(o) for o in instr.operands))
        if isinstance(instr, ICmp):
            return ("icmp", instr.pred,
                    tuple(op_key(o) for o in instr.operands))
        if isinstance(instr, Cast):
            return ("cast", instr.kind, instr.type.bits,
                    op_key(instr.operands[0]))
        if isinstance(instr, Select):
            return ("select", tuple(op_key(o) for o in instr.operands))
        return None
