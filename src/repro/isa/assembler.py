"""Two-pass assembler for VX.

The assembler accepts a stream of :class:`Instruction` objects whose
branch targets and immediates may be symbolic :class:`Label` references,
plus label definitions and raw data directives.  Because instruction
sizes are independent of operand values, a first pass assigns addresses
and a second pass patches label references and emits bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from .encoding import encode, encoded_size
from .instructions import Imm, Instruction, Label, Mem, Operand
from .registers import Reg


class AssemblerError(Exception):
    """Raised for malformed streams: duplicate or unresolved labels."""
    pass


@dataclass
class _LabelDef:
    name: str


@dataclass
class _Data:
    payload: bytes


@dataclass
class _LabelRef:
    """An 8-byte data word holding the address of a label (jump tables)."""

    label: str


@dataclass
class _Align:
    boundary: int


_Item = Union[Instruction, _LabelDef, _Data, _LabelRef, _Align]


@dataclass
class AssembledCode:
    """Result of assembling a code stream."""

    base: int
    data: bytes
    symbols: Dict[str, int]
    #: Final addresses of instructions tagged via ``mark_access`` that
    #: survived to emission (sanitizer ordered-access metadata).
    marked: Tuple[int, ...] = ()

    @property
    def size(self) -> int:
        """Total encoded size of the item in bytes."""
        return len(self.data)


class Assembler:
    """Accumulates instructions/labels/data and assembles them at a base."""

    def __init__(self, base: int = 0x400000) -> None:
        self.base = base
        self._items: List[_Item] = []
        self._marked: List[Instruction] = []

    # -- construction ------------------------------------------------------

    def label(self, name: str) -> None:
        """Define ``name`` at the current position."""
        self._items.append(_LabelDef(name))

    def emit(self, instr: Instruction) -> None:
        """Append one instruction to the stream."""
        self._items.append(instr)

    def data(self, payload: bytes) -> None:
        """Append raw bytes (jump tables, literals) to the stream."""
        self._items.append(_Data(bytes(payload)))

    def label_ref(self, label: str) -> None:
        """Emit an 8-byte word holding ``label``'s resolved address."""
        self._items.append(_LabelRef(label))

    def align(self, boundary: int) -> None:
        """Pad with NOPs so the next item starts at a multiple of ``boundary``."""
        self._items.append(_Align(boundary))

    def extend(self, instrs) -> None:
        """Append a sequence of instructions."""
        for instr in instrs:
            self.emit(instr)

    def stream(self) -> List[_Item]:
        """The accumulated item stream — instructions interleaved with
        label definitions, in emission order.  Read-only view for
        analysers (e.g. the PGO cost model walks it to attribute
        instruction costs to source blocks by label)."""
        return list(self._items)

    def mark_access(self, instr: Instruction) -> None:
        """Tag an already-emitted instruction *object* so its final
        address is reported in :attr:`AssembledCode.marked`.

        Identity-based (``Instruction`` is frozen and hashes by value):
        only this exact object is marked; a peephole rewrite that
        replaces it — e.g. store-to-load forwarding turning a marked
        load into a register move — correctly drops the mark along with
        the memory access."""
        self._marked.append(instr)

    # -- peephole ----------------------------------------------------------

    def peephole(self) -> int:
        """Local clean-ups over the instruction stream (labels break
        windows): forward adjacent store/load pairs, drop identity
        moves, fuse adjacent push/pop, and remove jumps to the
        immediately following label.  Returns instructions removed."""
        from .instructions import Imm as _Imm
        removed = 0
        changed = True
        while changed:
            changed = False
            items = self._items
            i = 0
            while i < len(items) - 1:
                a, b = items[i], items[i + 1]
                if isinstance(a, Instruction) and \
                        isinstance(b, Instruction):
                    # mov [m], R ; mov R2, [m]  ->  mov [m], R ; mov R2, R
                    if a.mnemonic == "mov" and b.mnemonic == "mov" and \
                            a.width == 8 and b.width == 8 and \
                            isinstance(a.operands[0], Mem) and \
                            isinstance(a.operands[1], Reg) and \
                            isinstance(b.operands[1], Mem) and \
                            isinstance(b.operands[0], Reg) and \
                            a.operands[0] == b.operands[1]:
                        if b.operands[0] == a.operands[1]:
                            del items[i + 1]
                        else:
                            items[i + 1] = Instruction(
                                "mov", (b.operands[0], a.operands[1]))
                        removed += 1
                        changed = True
                        continue
                    # push R ; pop R2  ->  mov R2, R
                    if a.mnemonic == "push" and b.mnemonic == "pop" and \
                            isinstance(a.operands[0], Reg) and \
                            isinstance(b.operands[0], Reg):
                        if a.operands[0] == b.operands[0]:
                            del items[i:i + 2]
                            removed += 2
                        else:
                            items[i:i + 2] = [Instruction(
                                "mov", (b.operands[0], a.operands[0]))]
                            removed += 1
                        changed = True
                        continue
                    # mov R, R  ->  (nothing)
                    if a.mnemonic == "mov" and a.width == 8 and \
                            isinstance(a.operands[0], Reg) and \
                            a.operands[0] == a.operands[1]:
                        del items[i]
                        removed += 1
                        changed = True
                        continue
                # jmp L ; label L  ->  label L
                if isinstance(a, Instruction) and a.mnemonic == "jmp" and \
                        isinstance(a.operands[0], Label) and \
                        isinstance(b, _LabelDef) and \
                        a.operands[0].name == b.name:
                    del items[i]
                    removed += 1
                    changed = True
                    continue
                i += 1
        return removed

    # -- assembly ----------------------------------------------------------

    def _item_size(self, item: _Item, address: int) -> int:
        if isinstance(item, _LabelDef):
            return 0
        if isinstance(item, _Data):
            return len(item.payload)
        if isinstance(item, _LabelRef):
            return 8
        if isinstance(item, _Align):
            remainder = address % item.boundary
            return 0 if remainder == 0 else item.boundary - remainder
        return encoded_size(_strip_labels(item))

    def assemble(self) -> AssembledCode:
        """Fix addresses, resolve label references and encode the stream."""
        symbols: Dict[str, int] = {}
        # Pass 1: layout.
        address = self.base
        addresses: List[int] = []
        for item in self._items:
            addresses.append(address)
            if isinstance(item, _LabelDef):
                if item.name in symbols:
                    raise AssemblerError(f"duplicate label {item.name!r}")
                symbols[item.name] = address
            address += self._item_size(item, address)
        # Pass 2: emission.
        output = bytearray()
        for item, addr in zip(self._items, addresses):
            if isinstance(item, _LabelDef):
                continue
            if isinstance(item, _Data):
                output += item.payload
                continue
            if isinstance(item, _LabelRef):
                if item.label not in symbols:
                    raise AssemblerError(f"undefined label {item.label!r}")
                output += symbols[item.label].to_bytes(8, "little")
                continue
            if isinstance(item, _Align):
                target = addr
                remainder = target % item.boundary
                pad = 0 if remainder == 0 else item.boundary - remainder
                output += b"\x00" * pad
                continue
            resolved = _resolve(item, symbols)
            output += encode(resolved, address=addr)
        marked_ids = {id(instr) for instr in self._marked}
        marked = tuple(sorted(
            addr for item, addr in zip(self._items, addresses)
            if isinstance(item, Instruction) and id(item) in marked_ids))
        return AssembledCode(base=self.base, data=bytes(output),
                             symbols=symbols, marked=marked)


def _strip_labels(instr: Instruction) -> Instruction:
    """Replace label operands with dummy immediates for size computation."""
    if not any(isinstance(op, Label) for op in instr.operands):
        return instr
    ops: Tuple[Operand, ...] = tuple(
        Imm(0) if isinstance(op, Label) else op for op in instr.operands)
    return Instruction(instr.mnemonic, ops, lock=instr.lock, width=instr.width)


def _resolve(instr: Instruction, symbols: Dict[str, int]) -> Instruction:
    if not any(isinstance(op, Label) for op in instr.operands):
        return instr
    ops: List[Operand] = []
    for op in instr.operands:
        if isinstance(op, Label):
            if op.name not in symbols:
                raise AssemblerError(f"undefined label {op.name!r}")
            ops.append(Imm(symbols[op.name]))
        else:
            ops.append(op)
    return Instruction(instr.mnemonic, tuple(ops), lock=instr.lock,
                       width=instr.width)
