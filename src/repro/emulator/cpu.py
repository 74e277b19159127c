"""Per-thread architectural CPU state."""

from __future__ import annotations

from typing import List

U64 = (1 << 64) - 1
U128 = (1 << 128) - 1


class CpuState:
    """Registers, flags and the TLS base of one hardware thread."""

    __slots__ = ("regs", "xmm", "zf", "sf", "cf", "of", "pc", "tls_base")

    def __init__(self) -> None:
        self.regs: List[int] = [0] * 16
        self.xmm: List[int] = [0] * 8          # 128-bit values
        self.zf = False
        self.sf = False
        self.cf = False
        self.of = False
        self.pc = 0
        self.tls_base = 0

    # -- register access (unsigned 64-bit canonical form) ------------------

    def get(self, index: int) -> int:
        """Read a GPR as an unsigned 64-bit value."""
        return self.regs[index]

    def set(self, index: int, value: int) -> None:
        """Write a GPR (value is truncated to 64 bits)."""
        self.regs[index] = value & U64

    def get_signed(self, index: int) -> int:
        """Read a GPR as a signed 64-bit value."""
        value = self.regs[index]
        return value - (1 << 64) if value >= (1 << 63) else value

    # -- flags as a packed nibble (used by context marshalling) ------------

    def pack_flags(self) -> int:
        """Encode ZF/SF/CF/OF into one integer (for snapshots)."""
        return (int(self.zf) | (int(self.sf) << 1)
                | (int(self.cf) << 2) | (int(self.of) << 3))

    def snapshot(self) -> dict:
        """A dict copy of the register file and flags, for tracing."""
        return {
            "regs": list(self.regs),
            "xmm": list(self.xmm),
            "flags": self.pack_flags(),
            "pc": self.pc,
            "tls_base": self.tls_base,
        }


class ProfiledCpuState(CpuState):
    """A :class:`CpuState` that counts register-file traffic.

    Used when the machine is built with ``profile_registers=True``
    (``polynima stats --profile-regs``): every GPR read/write is
    tallied so register pressure shows up in the perf counters
    (``emu.thread.<tid>.reg_reads`` / ``reg_writes``).  Kept out of
    the default :class:`CpuState` so the interpreter's hot loop pays
    nothing when profiling is off.
    """

    __slots__ = ("reg_reads", "reg_writes")

    def __init__(self) -> None:
        super().__init__()
        self.reg_reads = 0
        self.reg_writes = 0

    def get(self, index: int) -> int:
        self.reg_reads += 1
        return self.regs[index]

    def set(self, index: int, value: int) -> None:
        self.reg_writes += 1
        self.regs[index] = value & U64

    def get_signed(self, index: int) -> int:
        self.reg_reads += 1
        return super().get_signed(index)
