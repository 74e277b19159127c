"""Value hierarchy of the Poly IR.

Everything an instruction can reference is a :class:`Value`: constants,
function arguments, globals, other instructions, and functions.  Use-def
chains are the operand lists; def-use maps are computed on demand by
:func:`repro.ir.analysis.users_map`.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .types import I64, IntType

_counter = itertools.count()


class Value:
    """Base class for everything that can appear as an operand."""

    def __init__(self, type_, name: str = "") -> None:
        self.type = type_
        self.name = name or f"v{next(_counter)}"

    def short(self) -> str:
        """Compact rendering for use inside instruction operands."""
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return self.short()


class ConstantInt(Value):
    """An integer constant.  Stored in signed canonical form."""

    def __init__(self, value: int, type_: IntType = I64) -> None:
        super().__init__(type_, name=f"c{value}")
        bits = type_.bits
        value &= (1 << bits) - 1
        if bits > 1 and value >= 1 << (bits - 1):
            value -= 1 << bits
        self.value = value

    def short(self) -> str:
        """Compact rendering for use inside instruction operands."""
        return str(self.value)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConstantInt) and other.value == self.value
                and other.type == self.type)

    def __hash__(self) -> int:
        return hash(("const", self.value, self.type.bits))


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_, name: str, index: int) -> None:
        super().__init__(type_, name)
        self.index = index


class GlobalVar(Value):
    """A module-level variable.

    Two kinds exist in lifted modules:

    * virtual CPU state (registers, flags, the emulated stack pointer)
      — ``thread_local=True``, allocated in each thread's TLS block at
      ``tls_offset``;
    * runtime/process globals (e.g. the global lock of the naive atomic
      translation) — allocated in the recompiled binary's data section.

    The *value* of a GlobalVar operand is the variable's address (i64).
    """

    def __init__(self, name: str, size: int = 8, thread_local: bool = False,
                 promotable: bool = False,
                 init: Optional[bytes] = None) -> None:
        super().__init__(I64, name)
        self.size = size
        self.thread_local = thread_local
        #: Virtual-register globals that regpromote may turn into SSA values.
        self.promotable = promotable
        self.init = init
        self.tls_offset: Optional[int] = None
        self.address: Optional[int] = None

    def short(self) -> str:
        """Compact rendering for use inside instruction operands."""
        return f"@{self.name}"


def const(value: int, bits: int = 64) -> ConstantInt:
    """An integer constant of the given bit width."""
    from .types import int_type
    return ConstantInt(value, int_type(bits))
