"""Stitching lifted basic blocks into IR functions (§3.2, §4 "Environment").

Consumes the recovered CFG, translates every machine block with
:class:`BlockTranslator`, and wires up terminators:

* direct jumps/branches become ``br``/``condbr``;
* direct internal calls become IR calls (state flows through the
  thread-local virtual globals, so lifted functions are ``void()``);
* external calls marshal the virtual argument registers to the import
  and store the result to the virtual rax;
* indirect jumps and calls become ``switch`` statements over the
  emulated PC with one case per known target and a default case that
  reports a control-flow miss to the runtime (additive lifting's hook).

A forward dataflow over machine blocks tracks which registers hold
stack-derived values so rbp-framed code gets its stack accesses tagged
``emustack`` (enabling Lasagne's stack-exclusive fence removal).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..binfmt import Image
from ..ir import (Block, Function, GlobalVar, IRBuilder, Module, VOID,
                  const, verify_module)
from ..isa import Imm, Instruction, Mem, Reg
from .cfg import BlockInfo, FunctionCFG, RecoveredCFG
from .disassembler import Disassembler
from .translator import BlockTranslator
from .vstate import VirtualState

#: Import names of the Polynima runtime linked into recompiled output.
RT_MISS = "__poly_cf_miss"
RT_ENTER = "__poly_enter"

ARG_REG_NAMES = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")

#: Registers whose contents survive a call (SysV-flavoured).
CALLEE_SAVED_NAMES = {"rbx", "rbp", "rsp", "r12", "r13", "r14", "r15"}


class LiftError(Exception):
    """Raised when a recovered CFG cannot be lifted."""
    pass


class Lifter:
    """Drives BlockTranslator over a recovered CFG to build the module."""
    def __init__(self, image: Image, cfg: RecoveredCFG,
                 atomic_mode: str = "builtin",
                 miss_mode: str = "runtime",
                 lazy_flags: bool = True,
                 pgo=None) -> None:
        self.image = image
        self.cfg = cfg
        self.atomic_mode = atomic_mode
        #: Optional :class:`repro.profile.ProfileGuide`: orders each
        #: indirect site's dispatch cases hottest-first (guarded
        #: devirtualisation — the dominant target costs one compare,
        #: the rest remain as the fallback chain).
        self.pgo = pgo
        #: "runtime": misses call the additive-lifting hook (§3.2);
        #: "abort": no miss handling — the program dies on unknown
        #: transfers, as with the static baseline recompilers.
        self.miss_mode = miss_mode
        self.lazy_flags = lazy_flags
        self.disasm = Disassembler(image)
        self.module = Module(name=image.metadata.get("name", "lifted"))
        self.vstate = VirtualState(self.module)
        self.global_lock: Optional[GlobalVar] = None
        if atomic_mode == "naive":
            self.global_lock = GlobalVar("global_lock", size=8,
                                         thread_local=False,
                                         init=b"\x00" * 8)
            self.module.add_global(self.global_lock)
        self.fn_map: Dict[int, Function] = {}
        #: (function entry, site addr) of every miss default emitted.
        self.miss_sites: List[Tuple[int, int]] = []

    # -- public API -----------------------------------------------------------

    def lift(self) -> Module:
        """Lift every recovered function; returns the new module."""
        for entry in sorted(self.cfg.functions):
            fn = Function(f"fn_{entry:x}", return_type=VOID)
            fn.origin_addr = entry
            fn.external_visible = True     # until callback analysis says not
            self.fn_map[entry] = fn
            self.module.add_function(fn)
        for entry, fncfg in self.cfg.functions.items():
            self.lift_function(fncfg, self.fn_map[entry])
        self.module.metadata["entry_addr"] = self.image.entry
        self.module.metadata["atomic_mode"] = self.atomic_mode
        if self.atomic_mode == "naive":
            self._expand_naive_locks()
        verify_module(self.module)
        return self.module

    # -- stack-derivation dataflow -----------------------------------------------

    def _stack_regs_per_block(self, fncfg: FunctionCFG) -> Dict[int, Set[str]]:
        """Forward dataflow: which registers are stack-derived at block
        entry (meet = intersection)."""
        in_sets: Dict[int, Optional[Set[str]]] = {
            addr: None for addr in fncfg.blocks}
        in_sets[fncfg.entry] = {"rsp"}
        work = [fncfg.entry]
        while work:
            addr = work.pop()
            block = fncfg.blocks[addr]
            current = set(in_sets[addr] or ())
            out = self._transfer_stack_regs(block, current)
            for succ in block.succs:
                if succ not in in_sets:
                    continue
                existing = in_sets[succ]
                new = set(out) if existing is None else existing & out
                if existing is None or new != existing:
                    in_sets[succ] = new
                    work.append(succ)
        return {addr: (s if s is not None else {"rsp"})
                for addr, s in in_sets.items()}

    def _transfer_stack_regs(self, block: BlockInfo,
                             regs: Set[str]) -> Set[str]:
        for instr in self.disasm.block_instructions(block.start, block.end):
            if instr.mnemonic == "mov" and len(instr.operands) == 2 and \
                    isinstance(instr.operands[0], Reg) and \
                    isinstance(instr.operands[1], Reg):
                dst, src = instr.operands
                if src.name in regs:
                    regs.add(dst.name)
                else:
                    regs.discard(dst.name)
                continue
            if instr.mnemonic == "lea" and \
                    isinstance(instr.operands[1], Mem):
                dst, mem = instr.operands
                if mem.base is not None and mem.base.name in regs \
                        and mem.index is None:
                    regs.add(dst.name)
                else:
                    regs.discard(dst.name)
                continue
            if instr.mnemonic in ("add", "sub") and \
                    isinstance(instr.operands[0], Reg) and \
                    isinstance(instr.operands[1], Imm):
                continue        # offset adjustment keeps derivation
            if instr.mnemonic in ("push", "pop"):
                if instr.mnemonic == "pop" and \
                        isinstance(instr.operands[0], Reg):
                    # pop restores a spilled value; conservatively keep
                    # rsp/rbp only if they were already derived.
                    name = instr.operands[0].name
                    if name not in ("rsp",):
                        regs.discard(name)
                continue
            if instr.is_call:
                # Caller-saved registers are clobbered by the callee.
                regs.intersection_update(CALLEE_SAVED_NAMES)
                continue
            # Any other write to a register drops derivation.
            if instr.operands and isinstance(instr.operands[0], Reg):
                if instr.mnemonic not in ("cmp", "test", "jmp", "call") and \
                        not instr.mnemonic.startswith("j"):
                    regs.discard(instr.operands[0].name)
        return regs

    # -- per-function lifting --------------------------------------------------------

    def lift_function(self, fncfg: FunctionCFG, fn: Function) -> None:
        """Lift one function's blocks, edges and miss handlers."""
        stack_in = self._stack_regs_per_block(fncfg)
        blocks: Dict[int, Block] = {}
        order = [fncfg.entry] + sorted(a for a in fncfg.blocks
                                       if a != fncfg.entry)
        for addr in order:
            block = fn.add_block(f"b_{addr:x}")
            block.origin_addr = addr
            blocks[addr] = block
        builder = IRBuilder()
        for addr in order:
            info = fncfg.blocks[addr]
            builder.position(blocks[addr])
            translator = BlockTranslator(
                self.vstate, builder, stack_in.get(addr, {"rsp"}),
                atomic_mode=self.atomic_mode, global_lock=self.global_lock,
                lazy_flags=self.lazy_flags)
            instrs = self.disasm.block_instructions(info.start, info.end)
            body, terminator = self._split_terminator(instrs, info)
            for instr in body:
                translator.translate(instr)
            self._lift_terminator(fn, fncfg, info, blocks, builder,
                                  translator, terminator)

    @staticmethod
    def _split_terminator(instrs: List[Instruction], info: BlockInfo):
        if instrs and instrs[-1].is_terminator:
            return instrs[:-1], instrs[-1]
        return instrs, None

    # -- terminator lifting -------------------------------------------------------------

    def _miss_block(self, fn: Function, builder: IRBuilder, site: int,
                    target_value) -> Block:
        """A default switch case reporting a control-flow miss (§3.2)."""
        block = fn.add_block(f"miss_{site:x}_{len(fn.blocks)}")
        saved = builder.block
        builder.position(block)
        if self.miss_mode == "runtime":
            self.module.ensure_import(RT_MISS)
            builder.call(RT_MISS, [const(site), target_value], type_=VOID)
        else:
            self.module.ensure_import("abort")
            builder.call("abort", [], type_=VOID)
        builder.unreachable()
        builder.position(saved)
        self.miss_sites.append((fn.origin_addr, site))
        return block

    def _external_call(self, builder: IRBuilder,
                       translator: BlockTranslator, name: str) -> None:
        """Marshal virtual argument registers to an import and the
        result back to the virtual rax (§3.1 external calls)."""
        self.module.ensure_import(name)
        args = [translator.read_reg(reg) for reg in ARG_REG_NAMES]
        call = builder.call(name, args, name=f"ext_{name}")
        call.tags.add("extcall")
        translator.write_reg("rax", call)

    def _lift_terminator(self, fn: Function, fncfg: FunctionCFG,
                         info: BlockInfo, blocks: Dict[int, Block],
                         builder: IRBuilder, translator: BlockTranslator,
                         terminator: Optional[Instruction]) -> None:
        kind = info.terminator
        site = info.end - (0 if terminator is None else 1)
        if terminator is not None and terminator.address is not None:
            site = terminator.address

        if kind in ("jmp", "fall"):
            target = info.succs[0]
            if target in blocks:
                builder.br(blocks[target])
            else:
                miss = self._miss_block(fn, builder, site, const(target))
                builder.br(miss)
            return
        if kind == "jcc":
            cond = translator.condition(terminator.mnemonic)
            target, fall = info.succs[0], info.succs[1]
            t_block = blocks.get(target)
            f_block = blocks.get(fall)
            if t_block is None:
                t_block = self._miss_block(fn, builder, site, const(target))
            if f_block is None:
                f_block = self._miss_block(fn, builder, site, const(fall))
            builder.condbr(cond, t_block, f_block)
            return
        if kind == "call":
            if info.external_call is not None:
                self._external_call(builder, translator, info.external_call)
            else:
                callee = self.fn_map.get(info.call_target)
                if callee is None:
                    miss = self._miss_block(fn, builder, site,
                                            const(info.call_target))
                    builder.br(miss)
                    return
                builder.call(callee, [], type_=VOID)
            fall = info.fallthrough
            if fall in blocks:
                builder.br(blocks[fall])
            else:
                builder.br(self._miss_block(fn, builder, site, const(fall)))
            return
        if kind == "indcall":
            value = translator.read_operand(terminator.operands[0], 8)
            fall = info.fallthrough
            fall_block = blocks.get(fall)
            if fall_block is None:
                fall_block = self._miss_block(fn, builder, site, const(fall))
            cases = []
            for target in self._dispatch_order(site, "call"):
                callee = self.fn_map.get(target)
                if callee is None:
                    continue
                case_block = fn.add_block(
                    f"icall_{site:x}_{target:x}_{len(fn.blocks)}")
                saved = builder.block
                builder.position(case_block)
                builder.call(callee, [], type_=VOID)
                builder.br(fall_block)
                builder.position(saved)
                cases.append((target, case_block))
            miss = self._miss_block(fn, builder, site, value)
            builder.switch(value, miss, cases)
            return
        if kind == "indjmp":
            value = translator.read_operand(terminator.operands[0], 8)
            cases = []
            for target in self._dispatch_order(site, "jump"):
                if target in blocks:
                    cases.append((target, blocks[target]))
            miss = self._miss_block(fn, builder, site, value)
            builder.switch(value, miss, cases)
            return
        if kind == "ret":
            builder.ret()
            return
        if kind == "hlt":
            self.module.ensure_import("exit")
            builder.call("exit", [translator.read_reg("rax")], type_=VOID)
            builder.unreachable()
            return
        if kind == "ud2":
            self.module.ensure_import("abort")
            builder.call("abort", [], type_=VOID)
            builder.unreachable()
            return
        raise LiftError(f"unknown terminator kind {kind!r}")

    def _dispatch_order(self, site: int, kind: str) -> List[int]:
        """Candidate targets of an indirect site, in dispatch order.

        Unguided: sorted by address (bit-identical to the historical
        behaviour).  Profile-guided: hottest traced target first, so
        the compare-and-branch chain the switch lowers into tests the
        dominant target with a single compare.
        """
        targets = self.cfg.indirect_targets.get(site, ())
        if self.pgo is None:
            return sorted(targets)
        return self.pgo.ordered_targets(site, kind, targets)

    # -- naive-atomics spin loop expansion (Listing 1) -------------------------------------

    def _expand_naive_locks(self) -> None:
        """Wrap each ``naive_lock_spin`` exchange in a retry loop.

        The straight-line translator emits a single atomic exchange for
        the global-lock acquisition; here we split the block so the
        exchange retries until the lock was observed free.
        """
        from ..ir import AtomicRMW, CondBr, ICmp

        for fn in self.module.functions:
            changed = True
            while changed:
                changed = False
                for block in list(fn.blocks):
                    for index, instr in enumerate(block.instructions):
                        if not (isinstance(instr, AtomicRMW)
                                and "naive_lock_spin" in instr.tags):
                            continue
                        instr.tags.discard("naive_lock_spin")
                        spin = fn.add_block(f"{block.name}.spin")
                        post = fn.add_block(f"{block.name}.acq")
                        for moved in list(block.instructions[index:]):
                            block.remove(moved)
                            (spin if moved is instr
                             else post).append(moved)
                        # spin: old = xchg(lock, 1); if old != 0 retry
                        busy = ICmp("ne", instr, const(0), name="gl_busy")
                        spin.append(busy)
                        spin.append(CondBr(busy, spin, post))
                        from ..ir import Br
                        block.append(Br(spin))
                        # Phis in successors of the original block now
                        # come from `post`.
                        for succ in post.successors():
                            for phi in succ.phis():
                                for i, pred in enumerate(
                                        phi.incoming_blocks):
                                    if pred is block:
                                        phi.incoming_blocks[i] = post
                        changed = True
                        break
                    if changed:
                        break
