"""Lasagne/mctoll-like baseline: static per-function stack recovery.

Models the documented limitations (§2.2.1, §4 Table 1):

* the per-function stack frame is recovered by a *static* maximum-
  frame-size analysis; inputs where a frame is unbounded (``alloca`` /
  VLA-style ``sub rsp, reg``) are refused;
* the analysis must prove no stack reference escapes the function —
  a frame-local address stored to memory or passed to an external call
  defeats it (this is why prior work "could not evaluate specific
  binaries from the Phoenix benchmark suite");
* threading knowledge is limited to the pthreads interface: binaries
  importing the OpenMP runtime are refused;
* hardware atomic instructions are not translated (mctoll has no
  lowering for LOCK-prefixed operations), so ConcurrencyKit-style
  binaries are refused.

Inputs passing all preconditions are recompiled with the common
pipeline (Lasagne's actual lifting is sound for that subset, including
its fence insertion — the strategy Polynima adopts).
"""

from __future__ import annotations

import time
from typing import Optional

from ..binfmt import Image
from ..core.cfg import RecoveredCFG
from ..core.disassembler import Disassembler
from ..core.recompiler import Recompiler
from ..isa import Imm, Mem, Reg
from ..isa.spec import SPEC
from .common import BaselineOutcome

_THREAD_STACK_SINKS = {"pthread_create"}
_UNSUPPORTED_IMPORTS = {"omp_parallel_for", "omp_get_max_threads"}


def _static_preconditions(image: Image,
                          cfg: RecoveredCFG) -> Optional[str]:
    """Return a refusal reason, or None if the input is in scope."""
    for name in image.imports:
        if name in _UNSUPPORTED_IMPORTS:
            return f"unsupported threading interface: {name}"
    disasm = Disassembler(image)
    for fn in cfg.functions.values():
        for block in fn.blocks.values():
            stack_regs = {"rsp", "rbp"}
            for instr in disasm.block_instructions(block.start, block.end):
                # Locked RMWs, implicitly-locked xchg-with-memory, and
                # the dedicated RMW primitives (cmpxchg/xadd even
                # unlocked) have no mctoll-style static lowering.
                if instr.is_atomic or SPEC[instr.mnemonic].hw_rmw:
                    return (f"hardware atomic instruction at "
                            f"{instr.address:#x} (no mctoll lowering)")
                # Unbounded frame: stack pointer adjusted by a register.
                if instr.mnemonic in ("sub", "add") and \
                        isinstance(instr.operands[0], Reg) and \
                        instr.operands[0].name == "rsp" and \
                        not isinstance(instr.operands[1], Imm):
                    return (f"dynamically sized stack frame at "
                            f"{instr.address:#x}")
                # Escaping stack reference: a frame address stored to
                # (non-stack) memory.
                if instr.mnemonic == "lea" and \
                        isinstance(instr.operands[1], Mem) and \
                        instr.operands[1].base is not None and \
                        instr.operands[1].base.name in ("rsp", "rbp"):
                    stack_regs.add(instr.operands[0].name)
                    continue
                if instr.mnemonic == "mov" and len(instr.operands) == 2 \
                        and isinstance(instr.operands[0], Mem) and \
                        isinstance(instr.operands[1], Reg) and \
                        instr.operands[1].name in stack_regs and \
                        instr.operands[1].name not in ("rsp", "rbp"):
                    base = instr.operands[0].base
                    if base is None or base.name not in ("rsp", "rbp"):
                        return (f"stack reference escapes at "
                                f"{instr.address:#x}")
                if instr.operands and isinstance(instr.operands[0], Reg) \
                        and instr.mnemonic not in ("cmp", "test", "lea") \
                        and not instr.is_branch:
                    stack_regs.discard(instr.operands[0].name)
            # pthread_create's arg pointer often targets the caller
            # frame; Lasagne special-cases the signature, so pointer
            # arguments into the frame are allowed for it.
    return None


def recompile_lasagne(image: Image) -> BaselineOutcome:
    """Static Lasagne model: recompile only if its preconditions hold."""
    started = time.perf_counter()
    recompiler = Recompiler(image, insert_fences=True, miss_mode="abort")
    try:
        cfg = recompiler.recover_cfg()
        reason = _static_preconditions(image, cfg)
        if reason is not None:
            return BaselineOutcome(
                "lasagne", supported=False, reason=reason,
                lift_seconds=time.perf_counter() - started)
        result = recompiler.recompile(cfg=cfg)
    except Exception as exc:
        return BaselineOutcome("lasagne", supported=False,
                               reason=f"lift failed: {exc}",
                               lift_seconds=time.perf_counter() - started)
    return BaselineOutcome("lasagne", supported=True, image=result.image,
                           lift_seconds=time.perf_counter() - started)
