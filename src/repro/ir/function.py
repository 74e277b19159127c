"""Module / Function / Block containers of the Poly IR."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence

from .instructions import Instruction, Phi
from .types import I64
from .values import Argument, GlobalVar, Value

_block_counter = itertools.count()


class Block:
    """A basic block: a straight-line instruction list ending in a terminator."""

    def __init__(self, name: str = "") -> None:
        self.name = name or f"bb{next(_block_counter)}"
        self.instructions: List[Instruction] = []
        self.parent: Optional["Function"] = None
        #: Original binary address this block was lifted from (if any).
        self.origin_addr: Optional[int] = None

    def append(self, instr: Instruction) -> Instruction:
        """Append an instruction; phis must precede non-phis."""
        self.instructions.append(instr)
        instr.parent = self
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        """Insert an instruction at ``index``."""
        self.instructions.insert(index, instr)
        instr.parent = self
        return instr

    def remove(self, instr: Instruction) -> None:
        """Unlink an instruction from this block."""
        self.instructions.remove(instr)
        instr.parent = None

    def remove_all(self, dead) -> None:
        """Unlink every instruction of this block that is in ``dead``
        (a set or dict), in one pass over the block."""
        kept = []
        for instr in self.instructions:
            if instr in dead:
                instr.parent = None
            else:
                kept.append(instr)
        self.instructions[:] = kept

    @property
    def terminator(self) -> Optional[Instruction]:
        """The block's final control-flow instruction, or None while building."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["Block"]:
        """Blocks this block can branch to."""
        term = self.terminator
        if term is None or not hasattr(term, "successors"):
            return []
        return term.successors()

    def phis(self) -> List[Phi]:
        """The block's leading phi instructions."""
        out = []
        for instr in self.instructions:
            if isinstance(instr, Phi):
                out.append(instr)
            else:
                break
        return out

    def non_phi_index(self) -> int:
        """Index of the first non-phi instruction."""
        for i, instr in enumerate(self.instructions):
            if not isinstance(instr, Phi):
                return i
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<block {self.name} ({len(self.instructions)} instrs)>"


class Function(Value):
    """A lifted (or runtime) function."""

    def __init__(self, name: str, param_types: Sequence = (),
                 return_type=I64) -> None:
        super().__init__(I64, name)
        self.params: List[Argument] = [
            Argument(t, f"arg{i}", i) for i, t in enumerate(param_types)]
        self.return_type = return_type
        self.blocks: List[Block] = []
        #: Original entry address in the input binary, if lifted.
        self.origin_addr: Optional[int] = None
        #: Preserved as a possible external entry point (callbacks, §3.3.3).
        #: Externally-visible functions cannot be optimised interprocedurally.
        self.external_visible = True

    @property
    def entry(self) -> Block:
        """The function's entry block (always ``blocks[0]``)."""
        return self.blocks[0]

    def add_block(self, name: str = "", index: Optional[int] = None) -> Block:
        """Create and attach a new block, optionally at a specific index."""
        block = Block(name)
        block.parent = self
        if index is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(index, block)
        return block

    def remove_block(self, block: Block) -> None:
        """Detach a block from the function."""
        self.blocks.remove(block)
        block.parent = None

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over every instruction in block order."""
        for block in self.blocks:
            yield from list(block.instructions)

    def short(self) -> str:
        """One-line summary (name, block and instruction counts) for logs."""
        return f"@{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<function {self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A whole lifted program."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: List[Function] = []
        self.globals: List[GlobalVar] = []
        #: Names of external imports used (for binary emission).
        self.imports: List[str] = []
        #: Free-form metadata carried through the pipeline.
        self.metadata: Dict[str, object] = {}

    def add_function(self, fn: Function) -> Function:
        """Attach a function to the module."""
        self.functions.append(fn)
        return fn

    def add_global(self, var: GlobalVar) -> GlobalVar:
        """Attach a global variable to the module."""
        self.globals.append(var)
        return var

    def get_global(self, name: str) -> Optional[GlobalVar]:
        """Look a global variable up by name, or None."""
        for var in self.globals:
            if var.name == name:
                return var
        return None

    def ensure_import(self, name: str) -> str:
        """Register (idempotently) an external import and return its name."""
        if name not in self.imports:
            self.imports.append(name)
        return name

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<module {self.name}: {len(self.functions)} functions>"
