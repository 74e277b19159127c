"""Recompiled-binary construction: wrappers, trampolines, emission.

Produces the standalone replacement binary (§3.1): the original image
mapped at its original load address (so absolute code/data pointers in
data stay valid, and jump tables embedded in .text remain readable),
plus a new code section with the lowered lifted functions and their
callback wrappers, plus a runtime data section.

For every lifted function still marked externally visible, two things
are emitted (§3.3.3):

* a **wrapper** that transitions from native library context into
  lifted code — it calls ``__poly_enter`` (allocating the TLS block and
  a fresh per-thread emulated stack on first entry in a thread),
  marshals the native argument registers into the virtual state, calls
  the lowered function, and moves the virtual rax back to the native
  rax;
* a **trampoline** — ``jmp wrapper`` patched over the function's entry
  in the original .text — so function pointers held by external code
  (qsort comparators, pthread_create start routines, OpenMP outlined
  bodies) transparently divert into lifted code.
"""

from __future__ import annotations

import json
from typing import Dict

from ..binfmt import Image
from ..ir import Function, Module
from ..isa import Assembler, Imm, Label, Mem, Reg, encode, ins
from .lowering import FunctionLowering
from .vstate import EMUSTACK_SIZE, TLS_BLOCK_SIZE, TLS_GPR_BASE

PTEXT_BASE = 0x4000000
RTDATA_BASE = 0x5000000

_ARG_REG_NAMES = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
#: Virtual-register TLS offsets of the argument registers and rax.
_VREG_OFFSET = {"rax": 0, "rcx": 8, "rdx": 16, "rbx": 24, "rsp": 32,
                "rbp": 40, "rsi": 48, "rdi": 56, "r8": 64, "r9": 72}

RSP_TLS_OFFSET = TLS_GPR_BASE + 4 * 8


class BuildError(Exception):
    """Raised when the output image cannot be assembled."""
    pass


class RecompiledBinaryBuilder:
    """Assembles lowered code, wrappers, trampolines and runtime into the final VXE image."""
    def __init__(self, module: Module, input_image: Image,
                 emustack_size: int = EMUSTACK_SIZE,
                 scrub_blocks=None,
                 enter_import: str = "__poly_enter",
                 pgo=None) -> None:
        self.module = module
        self.input_image = input_image
        self.emustack_size = emustack_size
        #: Optional :class:`repro.profile.ProfileGuide` steering block
        #: layout and branch senses in each function's lowering.
        self.pgo = pgo
        #: Runtime entry hook used by wrappers.  Baseline recompilers
        #: substitute defective variants (__mcsema_enter shares one
        #: state block between all threads; __binrec_enter initialises
        #: only the main thread).
        self.enter_import = enter_import
        #: Iterable of (start, end) byte ranges of *discovered code* in
        #: the original .text.  These bytes are overwritten with invalid
        #: opcodes in the output: lifted code replaces them, and any
        #: stray control transfer into stale original code must fault
        #: observably instead of silently executing it.  Data embedded
        #: in .text (jump tables) lies outside discovered blocks and is
        #: preserved.
        self.scrub_blocks = list(scrub_blocks or [])
        self.output = Image()
        self.global_addrs: Dict[str, int] = {}
        self.fn_labels: Dict[str, str] = {
            fn.name: f"L_{fn.name}" for fn in module.functions}

    def build(self) -> Image:
        """Produce the standalone replacement image."""
        self._layout_rtdata()
        asm = Assembler(base=PTEXT_BASE)
        # Wrappers first (so their labels exist for trampolines), then
        # the lowered function bodies.
        wrapper_labels: Dict[int, str] = {}
        for fn in self.module.functions:
            if fn.external_visible and fn.origin_addr is not None:
                wrapper_labels[fn.origin_addr] = self._emit_wrapper(asm, fn)
        for fn in self.module.functions:
            if not fn.blocks:
                continue
            lowering = FunctionLowering(
                fn, self.module, asm, self.fn_labels[fn.name],
                self.global_addrs, self.output.import_slot, self.fn_labels,
                pgo=self.pgo)
            lowering.lower()
        asm.peephole()
        code = asm.assemble()

        # Original sections, with trampolines patched into .text.
        for section in self.input_image.sections:
            data = bytearray(section.data)
            if section.name == ".text":
                for start, end in self.scrub_blocks:
                    lo = max(start, section.addr) - section.addr
                    hi = min(end, section.addr + len(data)) - section.addr
                    if lo < hi:
                        data[lo:hi] = b"\xff" * (hi - lo)
                for origin, label in wrapper_labels.items():
                    wrapper_addr = code.symbols[label]
                    patch = encode(ins("jmp", Imm(wrapper_addr)),
                                   address=origin)
                    off = origin - section.addr
                    data[off:off + len(patch)] = patch
            self.output.add_section(section.name, section.addr, bytes(data),
                                    executable=section.executable,
                                    writable=section.writable)
        self.output.add_section(".ptext", code.base, code.data,
                                executable=True)
        if self._rtdata:
            self.output.add_section(".rtdata", RTDATA_BASE,
                                    bytes(self._rtdata), writable=True)

        self.output.entry = self.input_image.entry
        self.output.metadata.update(self.input_image.metadata)
        self.output.metadata["polynima"] = "1"
        self.output.metadata["poly_tls_size"] = str(TLS_BLOCK_SIZE)
        self.output.metadata["poly_emustack_size"] = str(self.emustack_size)
        self.output.metadata["poly_rsp_offset"] = str(RSP_TLS_OFFSET)
        # Final addresses of fence-ordered loads/stores (lowering marked
        # them; peephole rewrites legitimately drop marks).  Consumed by
        # the race detector's strict mode (repro.sanitizers).
        self.output.metadata["sanitizer_ordered_pcs"] = json.dumps(
            list(code.marked))
        # Imports used only by original (dead) code keep their names so
        # the import table stays complete.
        for name in self.input_image.imports:
            self.output.import_slot(name)
        for name in self.module.imports:
            self.output.import_slot(name)
        self.output.import_slot(self.enter_import)
        for fn_name, label in self.fn_labels.items():
            addr = code.symbols.get(label)
            if addr is not None:
                self.output.symbols[fn_name] = addr
        return self.output

    # -- runtime data (non-TLS globals) -------------------------------------------

    def _layout_rtdata(self) -> None:
        rtdata = bytearray()
        for var in self.module.globals:
            if var.thread_local:
                continue
            while len(rtdata) % 8:
                rtdata.append(0)
            self.global_addrs[var.name] = RTDATA_BASE + len(rtdata)
            var.address = RTDATA_BASE + len(rtdata)
            rtdata += (var.init or b"\x00" * var.size).ljust(var.size,
                                                             b"\x00")
        self._rtdata = rtdata

    # -- wrappers (§3.3.3) -----------------------------------------------------------

    def _emit_wrapper(self, asm: Assembler, fn: Function) -> str:
        label = f"wrap_{fn.origin_addr:x}"
        asm.align(8)
        asm.label(label)
        # Establish (or re-enter) this thread's virtual CPU state; the
        # runtime returns the TLS base in rax.  The native argument
        # registers are preserved by the runtime call.
        asm.emit(ins("call",
                     Imm(self.output.import_slot(self.enter_import))))
        # Marshal native argument registers into the virtual state.
        for name in _ARG_REG_NAMES:
            asm.emit(ins("mov", Mem(base=Reg("rax"),
                                    disp=_VREG_OFFSET[name]), Reg(name)))
        asm.emit(ins("call", Label(self.fn_labels[fn.name])))
        # Virtual rax -> native rax (callback return value).
        asm.emit(ins("rdtls", Reg("r11")))
        asm.emit(ins("mov", Reg("rax"),
                     Mem(base=Reg("r11"), disp=_VREG_OFFSET["rax"])))
        asm.emit(ins("ret"))
        return label
