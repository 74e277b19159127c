"""Convenience builder for constructing Poly IR."""

from __future__ import annotations

from typing import Optional, Sequence

from .function import Block
from .instructions import (Alloca, AtomicRMW, BinOp, Br, Call, Cast, Cmpxchg,
                           CompilerBarrier, CondBr, Fence, ICmp, Instruction,
                           Load, Phi, Ret, Select, Store, Switch, Unreachable)
from .types import I64, IntType
from .values import ConstantInt, Value, const


class IRBuilder:
    """Appends instructions to a current block, LLVM-style."""

    def __init__(self, block: Optional[Block] = None) -> None:
        self.block = block
        #: Tags applied to every emitted instruction (e.g. "orig" for
        #: accesses belonging to the original program).
        self.default_tags: set = set()

    def position(self, block: Block) -> None:
        """Point the builder at the end of ``block``."""
        self.block = block

    def _emit(self, instr: Instruction) -> Instruction:
        instr.tags |= self.default_tags
        self.block.append(instr)
        return instr

    # -- memory -------------------------------------------------------------

    def alloca(self, size: int, name: str = "") -> Alloca:
        """Reserve ``size`` bytes of function-local storage."""
        return self._emit(Alloca(size, name))

    def load(self, addr: Value, width: int = 8,
             ordering: Optional[str] = None, name: str = "",
             tags: Sequence[str] = ()) -> Load:
        """Load ``width`` bytes from an i64 address."""
        instr = Load(addr, width, ordering, name)
        instr.tags |= set(tags)
        return self._emit(instr)

    def store(self, value: Value, addr: Value, width: int = 8,
              ordering: Optional[str] = None,
              tags: Sequence[str] = ()) -> Store:
        """Store the low ``width`` bytes of ``value`` to an i64 address."""
        instr = Store(value, addr, width, ordering)
        instr.tags |= set(tags)
        return self._emit(instr)

    def fence(self, ordering: str) -> Fence:
        """Insert a memory fence (acquire / release / seq_cst)."""
        return self._emit(Fence(ordering))

    def compiler_barrier(self) -> CompilerBarrier:
        """Insert a compiler-only reordering barrier (no machine cost)."""
        return self._emit(CompilerBarrier())

    def cmpxchg(self, addr: Value, expected: Value, new: Value,
                width: int = 8, name: str = "") -> Cmpxchg:
        """Sequentially-consistent compare-and-swap; yields the old value."""
        return self._emit(Cmpxchg(addr, expected, new, width, name))

    def atomicrmw(self, op: str, addr: Value, value: Value,
                  width: int = 8, name: str = "") -> AtomicRMW:
        """Sequentially-consistent read-modify-write; yields the old value."""
        return self._emit(AtomicRMW(op, addr, value, width, name))

    # -- computation -----------------------------------------------------------

    def binop(self, op: str, a: Value, b: Value, name: str = "") -> BinOp:
        """Emit an arbitrary two-operand arithmetic/logic instruction."""
        return self._emit(BinOp(op, a, b, name))

    def add(self, a: Value, b: Value, name: str = "") -> BinOp:
        """Emit an integer add."""
        return self.binop("add", a, b, name)

    def sub(self, a: Value, b: Value, name: str = "") -> BinOp:
        """Emit an integer subtract."""
        return self.binop("sub", a, b, name)

    def mul(self, a: Value, b: Value, name: str = "") -> BinOp:
        """Emit an integer multiply."""
        return self.binop("mul", a, b, name)

    def icmp(self, pred: str, a: Value, b: Value, name: str = "") -> ICmp:
        """Emit an integer comparison producing an i1."""
        return self._emit(ICmp(pred, a, b, name))

    def select(self, cond: Value, a: Value, b: Value, name: str = "") -> Select:
        """Emit ``cond ? a : b``."""
        return self._emit(Select(cond, a, b, name))

    def zext(self, value: Value, to_type: IntType, name: str = "") -> Cast:
        """Zero-extend to a wider type."""
        return self._emit(Cast("zext", value, to_type, name))

    def sext(self, value: Value, to_type: IntType, name: str = "") -> Cast:
        """Sign-extend to a wider type."""
        return self._emit(Cast("sext", value, to_type, name))

    def trunc(self, value: Value, to_type: IntType, name: str = "") -> Cast:
        """Truncate to a narrower type."""
        return self._emit(Cast("trunc", value, to_type, name))

    def phi(self, type_, name: str = "") -> Phi:
        """Emit an (initially empty) phi at the top of the current block."""
        instr = Phi(type_, name)
        # Phis go at the head of the block.
        self.block.insert(self.block.non_phi_index(), instr)
        instr.tags |= self.default_tags
        return instr

    # -- control flow --------------------------------------------------------------

    def br(self, target: Block) -> Br:
        """Terminate the block with an unconditional branch."""
        return self._emit(Br(target))

    def condbr(self, cond: Value, if_true: Block, if_false: Block) -> CondBr:
        """Terminate the block with a two-way conditional branch."""
        return self._emit(CondBr(cond, if_true, if_false))

    def switch(self, value: Value, default: Block, cases=()) -> Switch:
        """Terminate the block with a multi-way dispatch."""
        return self._emit(Switch(value, default, cases))

    def call(self, callee, args: Sequence[Value] = (), type_=I64,
             name: str = "") -> Call:
        """Emit a call to a lifted function or an external import."""
        return self._emit(Call(callee, args, type_, name))

    def ret(self, value: Optional[Value] = None) -> Ret:
        """Terminate the function, optionally with a value."""
        return self._emit(Ret(value))

    def unreachable(self) -> Unreachable:
        """Mark the current point as never executed."""
        return self._emit(Unreachable())

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def const(value: int, bits: int = 64) -> ConstantInt:
        """An integer constant of the given bit width (module-level helper)."""
        return const(value, bits)
