"""BinRec-like baseline: dynamic lifting inside a tracing emulator.

Models the properties the paper attributes to BinRec (§2.1, §2.2.3, §4.4):

* control flow comes **only** from concrete traced executions — the
  CFG recovery and the IR translator are tightly coupled, so every
  traced basic block is (re)translated *during* the trace, inside an
  emulator whose per-instruction bookkeeping makes lifting orders of
  magnitude slower than static disassembly;
* thread entries are not handled: the virtual CPU state and emulated
  stack are initialised for the main thread only (``__binrec_enter``),
  so a callback executing in a new thread faults;
* control-flow misses trigger **incremental lifting**: a fresh
  full-program trace of the original binary per miss (modelled after
  the paper's Figure 4 comparison, where each incremental step pays
  the whole tracing cost again).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..binfmt import Image
from ..core.cfg import RecoveredCFG
from ..core.disassembler import Disassembler
from ..core.recompiler import Recompiler
from ..core.translator import BlockTranslator
from ..core.vstate import VirtualState
from ..emulator import EmulationFault, Machine
from ..ir import Function, IRBuilder, Module
from .common import BaselineOutcome


class BinRecTracer:
    """Full-system tracing frontend.

    Interprets the input binary while, per executed instruction,
    recording the dynamic basic-block trace and — BinRec's coupling —
    translating each newly seen block to IR immediately.  The real work
    done per instruction is what makes dynamic lifting expensive; no
    artificial sleeps are involved.
    """

    def __init__(self, image: Image) -> None:
        self.image = image
        self.disasm = Disassembler(image)

    def trace(self, library_factory: Callable[[], object], seed: int = 0,
              max_cycles: int = 200_000_000) -> Tuple[RecoveredCFG, int]:
        """Returns (CFG of traced code, instructions traced)."""
        machine = Machine(self.image, library_factory(), seed=seed)
        translated_blocks: Set[int] = set()
        block_trace: List[int] = []
        # Per-trace scratch module: blocks are translated as they are
        # discovered, exactly the coupling the paper criticises.
        scratch = Module("binrec-trace")
        vstate = VirtualState(scratch)
        scratch_fn = scratch.add_function(Function("trace"))
        builder = IRBuilder()
        edges: Dict[int, Set[int]] = {}
        call_sites: Dict[int, Set[int]] = {}
        jump_sites: Dict[int, Set[int]] = {}
        current_block_start: List[Optional[int]] = [None]

        instruction_log: List[int] = []
        state_snapshots: List[tuple] = []

        def step_hook(machine_, thread, instr) -> None:
            pc = instr.address
            # Full instruction trace: BinRec records every executed
            # instruction to deinstrument and stitch lifted bitcode.
            instruction_log.append(pc)
            if current_block_start[0] is None:
                current_block_start[0] = pc
                block_trace.append(pc)
                # State snapshot at block entry (restart points for
                # incremental lifting).
                state_snapshots.append((pc, tuple(thread.cpu.regs)))
                if pc not in translated_blocks:
                    translated_blocks.add(pc)
                    self._translate_block(pc, scratch_fn, vstate, builder)
            if instr.is_terminator:
                current_block_start[0] = None

        def indirect_hook(machine_, thread, source, target, kind) -> None:
            table = call_sites if kind == "call" else jump_sites
            table.setdefault(source, set()).add(target)

        machine.step_hook = step_hook
        machine.indirect_hooks.append(indirect_hook)
        try:
            machine.run(max_cycles=max_cycles)
        except EmulationFault:
            pass

        cfg = RecoveredCFG()
        for site, targets in jump_sites.items():
            for target in targets:
                cfg.add_indirect_target(site, target, traced=True)
        for site, targets in call_sites.items():
            for target in targets:
                cfg.add_indirect_target(site, target, traced=True)
                cfg.dynamic_entries.add(target)
        return cfg, machine.instructions

    def _translate_block(self, start: int, fn, vstate, builder) -> None:
        """Translate one traced block to IR (then discard — the real
        BinRec keeps per-trace bitcode; we only pay the cost)."""
        block = fn.add_block(f"t_{start:x}")
        builder.position(block)
        translator = BlockTranslator(vstate, builder, {"rsp"})
        addr = start
        for _ in range(512):
            try:
                instr, size = self.disasm.decode_at(addr)
            except Exception:
                break
            if instr.is_terminator:
                break
            try:
                translator.translate(instr)
            except Exception:
                break
            addr += size
        builder.ret()


def recompile_binrec(image: Image,
                     library_factory: Callable[[], object],
                     seed: int = 0,
                     max_cycles: int = 200_000_000) -> BaselineOutcome:
    """One full BinRec-style lift: trace, then recompile traced code."""
    started = time.perf_counter()
    tracer = BinRecTracer(image)
    try:
        cfg_seed, traced = tracer.trace(library_factory, seed=seed,
                                        max_cycles=max_cycles)
    except Exception as exc:
        return BaselineOutcome("binrec", supported=False,
                               reason=f"trace failed: {exc}",
                               lift_seconds=time.perf_counter() - started)
    try:
        recompiler = Recompiler(
            image,
            insert_fences=False,        # predates any concurrency model
            miss_mode="runtime",        # misses trigger incremental lifting
            enter_import="__binrec_enter",
        )
        cfg = recompiler.recover_cfg(seed_cfg=cfg_seed)
        result = recompiler.recompile(cfg=cfg)
    except Exception as exc:
        return BaselineOutcome("binrec", supported=False,
                               reason=f"lift failed: {exc}",
                               lift_seconds=time.perf_counter() - started,
                               trace_instructions=traced)
    return BaselineOutcome("binrec", supported=True, image=result.image,
                           lift_seconds=time.perf_counter() - started,
                           trace_instructions=traced)


def incremental_lift(image: Image, library_factory: Callable[[], object],
                     seed: int = 0, max_loops: int = 32,
                     max_cycles: int = 200_000_000):
    """BinRec's incremental lifting loop (Figure 4 comparison).

    Every control-flow miss restarts a *full trace of the original
    binary* before recompiling — the cost the paper's additive lifting
    avoids by re-running the recompiled output natively.
    Returns (outcome, total_seconds, loops).
    """
    from ..emulator.extlib import ControlFlowMiss
    from ..core.runner import run_image

    started = time.perf_counter()
    outcome = recompile_binrec(image, library_factory, seed=seed,
                               max_cycles=max_cycles)
    loops = 0
    while outcome.supported and loops < max_loops:
        try:
            run_image(outcome.image, library=library_factory(), seed=seed,
                      max_cycles=max_cycles, catch_faults=False)
            break
        except ControlFlowMiss:
            loops += 1
            outcome = recompile_binrec(image, library_factory, seed=seed,
                                       max_cycles=max_cycles)
        except EmulationFault:
            break
    return outcome, time.perf_counter() - started, loops
