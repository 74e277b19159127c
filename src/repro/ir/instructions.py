"""Instruction classes of the Poly IR.

Each instruction is a :class:`Value` (its result) with an ``operands``
list forming the use-def chain.  Memory instructions carry an explicit
byte ``width`` and an optional atomic ``ordering``; fences carry only an
ordering.  ``tags`` distinguishes accesses belonging to the *original
program* from those synthesised by the lifting process — fence insertion
(§3.3.4) applies only to the former.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .types import I1, I64, IntType, VOID
from .values import Value

BINOPS = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor",
          "shl", "lshr", "ashr")
ICMP_PREDS = ("eq", "ne", "slt", "sle", "sgt", "sge",
              "ult", "ule", "ugt", "uge")
ORDERINGS = ("monotonic", "acquire", "release", "acq_rel", "seq_cst")
RMW_OPS = ("add", "sub", "and", "or", "xor", "xchg")


class Instruction(Value):
    """Base instruction.  Subclasses set ``opcode``."""

    opcode = "?"

    def __init__(self, type_, operands: Sequence[Value], name: str = "") -> None:
        super().__init__(type_, name)
        self.operands: List[Value] = list(operands)
        self.parent = None          # set by Block.append
        self.tags: set = set()

    # -- classification -----------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        """True for instructions that must end a block."""
        return isinstance(self, (Br, CondBr, Switch, Ret, Unreachable))

    @property
    def has_side_effects(self) -> bool:
        """True if the instruction cannot be removed even when unused."""
        return isinstance(self, (Store, Fence, CompilerBarrier, Cmpxchg,
                                 AtomicRMW, Call, Br, CondBr, Switch, Ret,
                                 Unreachable))

    @property
    def reads_memory(self) -> bool:
        """True if the instruction may observe memory."""
        return isinstance(self, (Load, Cmpxchg, AtomicRMW, Call))

    @property
    def writes_memory(self) -> bool:
        """True if the instruction may mutate memory."""
        return isinstance(self, (Store, Cmpxchg, AtomicRMW, Call))

    def replace_operand(self, old: Value, new: Value) -> None:
        """Swap one operand value for another, in place."""
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        from .printer import format_instr
        return format_instr(self)


# -- memory ---------------------------------------------------------------

class Alloca(Instruction):
    """Function-local scratch storage; yields the slot's i64 address."""
    opcode = "alloca"

    def __init__(self, size: int, name: str = "") -> None:
        super().__init__(I64, [], name)
        self.size = size


class Load(Instruction):
    """Read ``width`` bytes from an untyped i64 address."""
    opcode = "load"

    def __init__(self, addr: Value, width: int,
                 ordering: Optional[str] = None, name: str = "") -> None:
        from .types import type_for_width
        super().__init__(type_for_width(width), [addr], name)
        self.width = width
        self.ordering = ordering

    @property
    def addr(self) -> Value:
        """The slot's i64 address value (the Alloca itself)."""
        return self.operands[0]


class Store(Instruction):
    """Write the low ``width`` bytes of a value to an i64 address."""
    opcode = "store"

    def __init__(self, value: Value, addr: Value, width: int,
                 ordering: Optional[str] = None) -> None:
        super().__init__(VOID, [value, addr])
        self.width = width
        self.ordering = ordering

    @property
    def value(self) -> Value:
        """The loaded result (the Load itself)."""
        return self.operands[0]

    @property
    def addr(self) -> Value:
        """The address operand."""
        return self.operands[1]


class Fence(Instruction):
    """A memory fence with acquire/release/seq_cst ordering."""
    opcode = "fence"

    def __init__(self, ordering: str) -> None:
        super().__init__(VOID, [])
        assert ordering in ORDERINGS
        self.ordering = ordering


class CompilerBarrier(Instruction):
    """Prevents IR-level reordering; lowers to nothing (§3.3.1)."""

    opcode = "compiler_barrier"

    def __init__(self) -> None:
        super().__init__(VOID, [])


class Cmpxchg(Instruction):
    """Atomic compare-exchange; yields the *old* value (seq_cst)."""

    opcode = "cmpxchg"

    def __init__(self, addr: Value, expected: Value, new: Value,
                 width: int, name: str = "") -> None:
        from .types import type_for_width
        super().__init__(type_for_width(width), [addr, expected, new], name)
        self.width = width
        self.ordering = "seq_cst"

    @property
    def addr(self) -> Value:
        """The address operand."""
        return self.operands[0]


class AtomicRMW(Instruction):
    """Atomic read-modify-write; yields the *old* value (seq_cst)."""

    opcode = "atomicrmw"

    def __init__(self, op: str, addr: Value, value: Value, width: int,
                 name: str = "") -> None:
        from .types import type_for_width
        assert op in RMW_OPS
        super().__init__(type_for_width(width), [addr, value], name)
        self.op = op
        self.width = width
        self.ordering = "seq_cst"

    @property
    def addr(self) -> Value:
        """The address operand."""
        return self.operands[0]


# -- computation ------------------------------------------------------------

class BinOp(Instruction):
    """Two-operand integer arithmetic/logic (add, sub, mul, shifts, ...)."""
    opcode = "binop"

    def __init__(self, op: str, a: Value, b: Value, name: str = "") -> None:
        assert op in BINOPS, op
        super().__init__(a.type, [a, b], name)
        self.op = op


class ICmp(Instruction):
    """Integer comparison producing an i1 (eq/ne/slt/ult/...)."""
    opcode = "icmp"

    def __init__(self, pred: str, a: Value, b: Value, name: str = "") -> None:
        assert pred in ICMP_PREDS
        super().__init__(I1, [a, b], name)
        self.pred = pred


class Select(Instruction):
    """``cond ? a : b`` without control flow."""
    opcode = "select"

    def __init__(self, cond: Value, a: Value, b: Value, name: str = "") -> None:
        super().__init__(a.type, [cond, a, b], name)


class Cast(Instruction):
    """zext / sext / trunc."""

    opcode = "cast"

    def __init__(self, kind: str, value: Value, to_type: IntType,
                 name: str = "") -> None:
        assert kind in ("zext", "sext", "trunc")
        super().__init__(to_type, [value], name)
        self.kind = kind


class Phi(Instruction):
    """SSA merge point: one incoming value per predecessor block."""
    opcode = "phi"

    def __init__(self, type_, name: str = "") -> None:
        super().__init__(type_, [], name)
        self.incoming_blocks: List = []

    def add_incoming(self, value: Value, block) -> None:
        """Record that ``value`` flows in from ``block``."""
        self.operands.append(value)
        self.incoming_blocks.append(block)

    def incoming(self) -> List[Tuple[Value, object]]:
        """The (value, predecessor block) pairs in insertion order."""
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for(self, block) -> Optional[Value]:
        """The value flowing in from ``block``, or None."""
        for value, pred in self.incoming():
            if pred is block:
                return value
        return None

    def remove_incoming(self, block) -> None:
        """Drop the entry for ``block`` (after edge removal)."""
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                del self.incoming_blocks[i]
                del self.operands[i]
                return


# -- control flow -------------------------------------------------------------

class Br(Instruction):
    """Unconditional branch."""
    opcode = "br"

    def __init__(self, target) -> None:
        super().__init__(VOID, [])
        self.target = target

    def successors(self) -> List:
        """The branch targets."""
        return [self.target]

    def replace_successor(self, old, new) -> None:
        """Retarget one successor block."""
        if self.target is old:
            self.target = new


class CondBr(Instruction):
    """Two-way conditional branch on an i1."""
    opcode = "condbr"

    def __init__(self, cond: Value, if_true, if_false) -> None:
        super().__init__(VOID, [cond])
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self) -> Value:
        """The i1 branch condition."""
        return self.operands[0]

    def successors(self) -> List:
        """The branch targets (true then false)."""
        return [self.if_true, self.if_false]

    def replace_successor(self, old, new) -> None:
        """Retarget one successor block."""
        if self.if_true is old:
            self.if_true = new
        if self.if_false is old:
            self.if_false = new


class Switch(Instruction):
    """Multi-way dispatch on an integer value with a default target."""
    opcode = "switch"

    def __init__(self, value: Value, default, cases: Sequence[Tuple[int, object]]) -> None:
        super().__init__(VOID, [value])
        self.default = default
        self.cases: List[Tuple[int, object]] = list(cases)

    @property
    def value(self) -> Value:
        """The dispatched integer value."""
        return self.operands[0]

    def successors(self) -> List:
        """Default target followed by the case targets."""
        return [self.default] + [block for _, block in self.cases]

    def replace_successor(self, old, new) -> None:
        """Retarget one successor (default and matching cases)."""
        if self.default is old:
            self.default = new
        self.cases = [(const_value, new if block is old else block)
                      for const_value, block in self.cases]


class Call(Instruction):
    """Direct call to a lifted function or an external import.

    ``callee`` is a :class:`repro.ir.function.Function` for internal
    calls and a plain string for external (imported) functions.
    """

    opcode = "call"

    def __init__(self, callee, args: Sequence[Value],
                 type_=I64, name: str = "") -> None:
        super().__init__(type_, list(args), name)
        self.callee = callee

    @property
    def is_external(self) -> bool:
        """True when the callee is an imported library function."""
        return isinstance(self.callee, str)

    @property
    def callee_name(self) -> str:
        """The callee's name for internal and external calls alike."""
        return self.callee if self.is_external else self.callee.name


class Ret(Instruction):
    """Function return, optionally carrying a value."""
    opcode = "ret"

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        """The returned value, or None for ``ret void``."""
        return self.operands[0] if self.operands else None


class Unreachable(Instruction):
    """Terminator for paths that cannot execute (lifted ud2 / misses)."""
    opcode = "unreachable"

    def __init__(self) -> None:
        super().__init__(VOID, [])
