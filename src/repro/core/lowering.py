"""Lowering Poly IR back to VX machine code.

A classic small backend: out-of-SSA conversion (phis become copies
through dedicated virtual registers, staged through temporaries to
dodge the parallel-copy problem), block-level liveness, linear-scan
register allocation with call-aware assignment (intervals live across a
call must take callee-saved registers), and per-instruction selection.

Reserved registers: ``r10``/``r11`` are spill/memory scratch, ``r15``
holds the TLS base (loaded once per function with ``rdtls``), and
``rsp``/``rbp`` frame the native stack.  Everything else is
allocatable.

Fences lower to *nothing* on this TSO target (except seq_cst fences,
which become ``mfence``) — their entire cost was constraining the
optimiser, which is the mechanism behind the paper's fence-removal
speedups.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir import (Alloca, AtomicRMW, BinOp, Block, Br, Call, Cast, Cmpxchg,
                  CompilerBarrier, CondBr, ConstantInt, Fence, Function,
                  GlobalVar, ICmp, Instruction, Load, Module, Phi, Ret, Select,
                  Store, Switch, Unreachable, VoidType, users_map)
from ..ir import predecessors as ir_predecessors
from ..isa import ARG_REGS, Assembler, Imm, Label, Mem, Reg, ins
from ..isa.spec import SPEC

ALLOCATABLE = ("rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9",
               "rbx", "r12", "r13", "r14")
CALLEE_SAVED = ("rbx", "r12", "r13", "r14")
CALLER_SAVED = ("rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9")
SCRATCH = ("r10", "r11")
TLS_REG = Reg("r15")

#: icmp predicate -> jcc mnemonic, inverted from the spec's per-jcc
#: ``cmp_pred`` declarations (js/jns carry no fused-compare predicate).
_JCC_FOR_PRED = {spec.cmp_pred: name for name, spec in SPEC.items()
                 if spec.cmp_pred is not None}

#: icmp predicate -> the predicate of the opposite outcome, used by
#: profile-guided branch-sense selection to fall through to (or jump
#: toward) the hot successor.  Keys are IR predicates, not mnemonics.
_INVERSE_PRED = {"eq": "ne", "ne": "eq",
                 "slt": "sge", "sge": "slt", "sle": "sgt", "sgt": "sle",
                 "ult": "uge", "uge": "ult", "ule": "ugt", "ugt": "ule"}


class LoweringError(Exception):
    """Raised when IR cannot be mapped to machine code."""
    pass


#: IR kinds that end a fence's coverage of an adjacent access.
_FENCE_SCAN_BARRIERS = (Load, Store, Cmpxchg, AtomicRMW, Call)


def _fence_ordered_accesses(fn: Function) -> Set[Instruction]:
    """The Loads/Stores the final (optimised) IR orders with fences.

    A Load is *ordered* when a Fence follows it in its block before any
    other memory or call operation; a Store when a Fence precedes it
    likewise (the shapes ``FenceInsertion`` produces, surviving
    ``FenceMerge``).  Accesses carrying an explicit atomic ordering
    count too.  The lowered movs of ordered accesses are tagged in the
    image's ``sanitizer_ordered_pcs`` metadata, which the race detector
    treats as "the recompiler ordered this access": in strict mode only
    these (and hardware atomics) suppress race reports, making the
    detector a differential oracle for fence insertion.
    """
    ordered: Set[Instruction] = set()
    for block in fn.blocks:
        instrs = block.instructions
        for i, instr in enumerate(instrs):
            if not isinstance(instr, (Load, Store)):
                continue
            if getattr(instr, "ordering", None) is not None:
                ordered.add(instr)
                continue
            if isinstance(instr, Load):
                scan = instrs[i + 1:]
            else:
                scan = reversed(instrs[:i])
            for other in scan:
                if isinstance(other, Fence):
                    ordered.add(instr)
                    break
                if isinstance(other, _FENCE_SCAN_BARRIERS):
                    break
    return ordered


class _VReg:
    """A virtual register (one per SSA value that needs storage)."""

    _ids = itertools.count()

    def __init__(self, name: str) -> None:
        self.id = next(_VReg._ids)
        self.name = name
        self.phys: Optional[str] = None
        self.slot: Optional[int] = None      # frame slot index if spilled

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"vr{self.id}({self.name})"


class FunctionLowering:
    """Lowers one IR function into the shared assembler stream."""

    def __init__(self, fn: Function, module: Module, asm: Assembler,
                 label_prefix: str, global_addrs: Dict[str, int],
                 import_slot, fn_labels: Dict[str, str],
                 pgo=None) -> None:
        self.fn = fn
        self.module = module
        self.asm = asm
        self.prefix = label_prefix
        self.global_addrs = global_addrs
        self.import_slot = import_slot
        self.fn_labels = fn_labels
        #: Optional :class:`repro.profile.ProfileGuide`.  When absent
        #: every decision below is byte-for-byte the unguided one.
        self.pgo = pgo
        self.vregs: Dict[Instruction, _VReg] = {}
        self.copies: Dict[Block, List[Tuple[object, _VReg]]] = {}
        self.alloca_slots: Dict[Alloca, int] = {}
        self.num_slots = 0
        self._label_counter = 0
        self._uses_tls = False
        self._linear: List[Tuple[Block, Instruction]] = []
        self._pos: Dict[Instruction, int] = {}
        self._fused_cmps: Set[ICmp] = set()

    # -- helpers ----------------------------------------------------------------

    def _new_label(self, stem: str) -> str:
        self._label_counter += 1
        return f"{self.prefix}_{stem}_{self._label_counter}"

    def block_label(self, block: Block) -> str:
        """The unique assembler label for a block."""
        return f"{self.prefix}_{block.name}"

    def _new_slot(self) -> int:
        slot = self.num_slots
        self.num_slots += 1
        return slot

    # -- driver -------------------------------------------------------------------

    def lower(self) -> None:
        """Run the whole backend pipeline for this function."""
        self._split_critical_edges()
        self._assign_vregs()
        self._plan_phi_copies()
        self._fuse_compares()
        self._fuse_addressing()
        self._linearize()
        intervals, call_positions, rax_clobbers = self._intervals()
        self._allocate(intervals, call_positions, rax_clobbers)
        self._ordered_ir = _fence_ordered_accesses(self.fn)
        self._plan_layout()
        self._emit()

    def _plan_layout(self) -> None:
        """Choose the block emission order.

        Unguided, blocks are emitted in function order (the lifter's
        address order), exactly as before.  With a profile, a greedy
        hot-chain layout makes the hottest successor of each block its
        fall-through: the assembler's peephole then deletes the
        ``jmp``-to-next, so hot edges stop paying an executed jump and
        cold blocks sink to the bottom.  Register allocation is
        unaffected — liveness is a property of the CFG, not of where
        blocks sit in the stream.
        """
        blocks = self.fn.blocks
        self._pgo_weights = {}
        if self.pgo is None or len(blocks) < 3:
            self._layout = list(blocks)
        else:
            weights = self.pgo.ir_block_weights(self.fn)
            self._pgo_weights = weights
            order = {block: i for i, block in enumerate(blocks)}
            # Tie-break on original position so layout is deterministic
            # and degenerates to the unguided order when all weights tie.
            rank = lambda b: (weights.get(b, 0), -order[b])
            placed = []
            placed_set = set()
            current = blocks[0]         # entry stays first (prologue
            while True:                 # falls through into it)
                placed.append(current)
                placed_set.add(current)
                succs = [s for s in current.successors()
                         if s not in placed_set]
                if succs:
                    current = max(succs, key=rank)
                    continue
                rest = [b for b in blocks if b not in placed_set]
                if not rest:
                    break
                current = max(rest, key=rank)
            self._layout = placed
            if placed != list(blocks):
                self.pgo.count("functions_relaid")
        self._next_in_layout = {
            block: (self._layout[i + 1] if i + 1 < len(self._layout)
                    else None)
            for i, block in enumerate(self._layout)}

    def _split_critical_edges(self) -> None:
        """Split edges from a multi-successor block into a multi-
        predecessor block with phis.  Phi copies are emitted at the end
        of the predecessor; on a critical edge that would execute them
        on the *other* successor's path too (e.g. a rotating loop's
        exit would observe one extra rotation), so such edges get a
        dedicated copy block."""
        preds = ir_predecessors(self.fn)
        for block in list(self.fn.blocks):
            term = block.terminator
            if not isinstance(term, (CondBr, Switch)) or \
                    len(set(term.successors())) < 2:
                continue
            # Dedupe in successor order, NOT via a set: Block hashes by
            # identity, so set iteration order varies per process and
            # the split blocks' positions — and hence the emitted bytes
            # — would too, breaking the pipeline's bit-determinism.
            for succ in dict.fromkeys(term.successors()):
                if not succ.phis() or len(preds.get(succ, ())) < 2:
                    continue
                index = self.fn.blocks.index(block) + 1
                edge = self.fn.add_block(f"{block.name}.to.{succ.name}",
                                         index=index)
                edge.append(Br(succ))
                term.replace_successor(succ, edge)
                for phi in succ.phis():
                    for i, pred in enumerate(phi.incoming_blocks):
                        if pred is block:
                            phi.incoming_blocks[i] = edge

    # -- addressing-mode fusion ---------------------------------------------------

    def _fuse_addressing(self) -> None:
        """Fold ``base + index*scale + disp`` address trees into memory
        operands, like any isel does.  Fused accesses record their
        (base, index, scale, disp) parts; interior address computations
        left without other users are not emitted at all."""
        self._fusion: Dict[Instruction, tuple] = {}
        users = users_map(self.fn)

        def match(addr):
            """Return (base_val|None, index_val|None, scale, disp)."""
            if isinstance(addr, BinOp) and addr.op == "add" and \
                    addr.type.bits == 64:
                a, b = addr.operands
                # add(x, const)
                if isinstance(b, ConstantInt) and \
                        -(1 << 31) <= b.value < (1 << 31):
                    inner = match_mul(a)
                    if inner is not None:
                        return (None, inner[0], inner[1], b.value, [addr, a])
                    return (a, None, 1, b.value, [addr])
                if isinstance(a, ConstantInt) and \
                        -(1 << 31) <= a.value < (1 << 31):
                    inner = match_mul(b)
                    if inner is not None:
                        return (None, inner[0], inner[1], a.value, [addr, b])
                    return (b, None, 1, a.value, [addr])
                # add(x, mul(y, s))
                inner = match_mul(b)
                if inner is not None:
                    return (a, inner[0], inner[1], 0, [addr, b])
                inner = match_mul(a)
                if inner is not None:
                    return (b, inner[0], inner[1], 0, [addr, a])
            return None

        def match_mul(value):
            if isinstance(value, BinOp) and value.op in ("mul", "shl") and \
                    isinstance(value.operands[1], ConstantInt):
                c = value.operands[1].value
                if value.op == "shl":
                    if c in (0, 1, 2, 3):
                        return (value.operands[0], 1 << c)
                    return None
                if c in (1, 2, 4, 8):
                    return (value.operands[0], c)
            return None

        # fusion_parent[mul_node] = its addr node; addr nodes map to the
        # accesses that fused them.
        addr_accesses: Dict[Instruction, List[Instruction]] = {}
        mul_parents: Dict[Instruction, List[Instruction]] = {}
        for fn_block in self.fn.blocks:
            for instr in fn_block.instructions:
                if not isinstance(instr, (Load, Store)):
                    continue
                addr = instr.addr
                if not isinstance(addr, BinOp):
                    continue
                parts = match(addr)
                if parts is None:
                    continue
                base, index, scale, disp, interior = parts
                self._fusion[instr] = (base, index, scale, disp)
                addr_accesses.setdefault(interior[0], []).append(instr)
                if len(interior) > 1:
                    mul_parents.setdefault(interior[1], []) \
                        .append(interior[0])

        # Interior nodes whose every user reaches them only through a
        # fused access need no code.  Fixpoint, since a mul child is
        # skippable only if its parent addr node is.
        self._skippable: Set[Instruction] = set()
        changed = True
        while changed:
            changed = False
            for node in list(addr_accesses) + list(mul_parents):
                if node in self._skippable:
                    continue
                ok = True
                for user in users.get(node, []):
                    if user in self._fusion and user.addr is node:
                        continue
                    if user in addr_accesses.get(node, ()):  # pragma: no cover
                        continue
                    if user in mul_parents.get(node, ()) and \
                            user in self._skippable:
                        continue
                    ok = False
                    break
                if ok:
                    self._skippable.add(node)
                    self.vregs.pop(node, None)
                    changed = True

    # -- value storage assignment ------------------------------------------------------

    def _assign_vregs(self) -> None:
        for block in self.fn.blocks:
            for instr in block.instructions:
                if isinstance(instr, Alloca):
                    size_slots = max(1, (instr.size + 7) // 8)
                    base = self.num_slots
                    self.num_slots += size_slots
                    self.alloca_slots[instr] = base
                elif not isinstance(instr.type, VoidType):
                    self.vregs[instr] = _VReg(instr.name)

    def _plan_phi_copies(self) -> None:
        """Out-of-SSA: copies on predecessor edges, staged via temps."""
        for block in self.fn.blocks:
            phis = block.phis()
            if not phis:
                continue
            for phi in phis:
                for value, pred in phi.incoming():
                    self.copies.setdefault(pred, []).append(
                        (value, self.vregs[phi]))

    def _fuse_compares(self) -> None:
        """ICmp whose only user is the same-block terminating CondBr can
        branch on flags directly (no boolean materialisation)."""
        users = users_map(self.fn)
        for block in self.fn.blocks:
            term = block.terminator
            if not isinstance(term, CondBr):
                continue
            cond = term.cond
            if isinstance(cond, ICmp) and cond.parent is block and \
                    len(users.get(cond, [])) == 1:
                self._fused_cmps.add(cond)
                self.vregs.pop(cond, None)

    # -- liveness and intervals -----------------------------------------------------------

    def _linearize(self) -> None:
        self._linear = []
        for block in self.fn.blocks:
            for instr in block.instructions:
                self._pos[instr] = len(self._linear)
                self._linear.append((block, instr))

    def _block_range(self, block: Block) -> Tuple[int, int]:
        first = self._pos[block.instructions[0]]
        last = self._pos[block.instructions[-1]]
        return first, last

    def _value_uses(self, instr: Instruction) -> List[Instruction]:
        fusion = self._fusion.get(instr) if hasattr(self, "_fusion") else None
        if fusion is not None:
            base, index, _scale, _disp = fusion
            ops = [v for v in (base, index) if isinstance(v, Instruction)]
            if isinstance(instr, Store) and \
                    isinstance(instr.value, Instruction):
                ops.append(instr.value)
            return ops
        return [op for op in instr.operands if isinstance(op, Instruction)]

    def _intervals(self):
        # Per-block use/def of vregs (phi copies count as uses at the
        # end of the predecessor and defs of the phi vreg there).
        live_in: Dict[Block, Set[_VReg]] = {b: set() for b in self.fn.blocks}
        gen: Dict[Block, Set[_VReg]] = {}
        kill: Dict[Block, Set[_VReg]] = {}
        for block in self.fn.blocks:
            g: Set[_VReg] = set()
            k: Set[_VReg] = set()
            for instr in block.instructions:
                if isinstance(instr, Phi):
                    k.add(self.vregs[instr])   # defined at block entry
                    continue
                for op in self._value_uses(instr):
                    vreg = self.vregs.get(op)
                    if vreg is not None and vreg not in k:
                        g.add(vreg)
                vreg = self.vregs.get(instr)
                if vreg is not None:
                    k.add(vreg)
            for value, target in self.copies.get(block, ()):
                if isinstance(value, Instruction):
                    vreg = self.vregs.get(value)
                    if vreg is not None and vreg not in k:
                        g.add(vreg)
                k.add(target)
            gen[block] = g
            kill[block] = k
        changed = True
        while changed:
            changed = False
            for block in reversed(self.fn.blocks):
                live_out: Set[_VReg] = set()
                for succ in block.successors():
                    live_out |= live_in[succ]
                new_in = gen[block] | (live_out - kill[block])
                if new_in != live_in[block]:
                    live_in[block] = new_in
                    changed = True

        starts: Dict[_VReg, int] = {}
        ends: Dict[_VReg, int] = {}

        def touch(vreg: _VReg, pos: int) -> None:
            if vreg not in starts or pos < starts[vreg]:
                starts[vreg] = pos
            if vreg not in ends or pos > ends[vreg]:
                ends[vreg] = pos

        for block in self.fn.blocks:
            first, last = self._block_range(block)
            live_out: Set[_VReg] = set()
            for succ in block.successors():
                live_out |= live_in[succ]
            for vreg in live_in[block]:
                touch(vreg, first)
            for vreg in live_out:
                touch(vreg, last + 1)   # live through the edge copies
            for instr in block.instructions:
                pos = self._pos[instr]
                vreg = self.vregs.get(instr)
                if vreg is not None:
                    touch(vreg, pos)
                # A fused ICmp is *emitted* at the terminator (after the
                # phi edge copies), so its operands stay live to the end
                # of the block.
                use_pos = last if instr in self._fused_cmps else pos
                for op in self._value_uses(instr):
                    use_vreg = self.vregs.get(op)
                    if use_vreg is not None:
                        touch(use_vreg, use_pos)
            for value, target in self.copies.get(block, ()):
                touch(target, last)
                if isinstance(value, Instruction):
                    vreg = self.vregs.get(value)
                    if vreg is not None:
                        touch(vreg, last)

        call_positions = [self._pos[i] for _b, i in self._linear
                          if isinstance(i, Call)]
        rax_clobbers = [self._pos[i] for _b, i in self._linear
                        if isinstance(i, (Cmpxchg, AtomicRMW))]
        # ``starts`` insertion order follows live-set iteration, which is
        # identity-hash (heap-address) dependent; break (start, end) ties
        # by vreg creation order so allocation — and hence the emitted
        # register bytes — is identical across processes.
        intervals = [(starts[v], ends[v], v) for v in starts]
        intervals.sort(key=lambda t: (t[0], t[1], t[2].id))
        return intervals, sorted(call_positions), sorted(rax_clobbers)

    def _allocate(self, intervals, call_positions, rax_clobbers) -> None:
        active: List[Tuple[int, str, _VReg]] = []   # (end, reg, vreg)

        def crosses(positions, start, end, inclusive=False) -> bool:
            if inclusive:
                return any(start < p <= end for p in positions)
            return any(start < p < end for p in positions)

        # Which registers an active interval may be evicted from by the
        # incoming interval (pool-compatible eviction only).
        def evict_from(active, pool, end):
            candidates = [(e, r, v) for e, r, v in active if r in pool]
            candidates.sort(reverse=True)
            if candidates and candidates[0][0] > end:
                return candidates[0]
            return None

        for start, end, vreg in intervals:
            active = [(e, r, v) for e, r, v in active if e >= start]
            in_use = {r for _e, r, _v in active}
            needs_cs = crosses(call_positions, start, end)
            # rax is staged by cmpxchg/atomicrmw sequences before the
            # instruction's own operand reads, so an interval whose last
            # use *is* such an instruction must avoid rax too.
            avoid_rax = crosses(rax_clobbers, start, end, inclusive=True) \
                or crosses(call_positions, start, end)
            pool: Sequence[str]
            if needs_cs:
                pool = CALLEE_SAVED
            else:
                pool = [r for r in ALLOCATABLE
                        if not (avoid_rax and r == "rax")]
            chosen = None
            for reg in pool:
                if reg not in in_use:
                    chosen = reg
                    break
            if chosen is None:
                # Standard linear-scan eviction: spill the active
                # interval with the furthest end (a long-lived, cold
                # value) rather than the incoming (often hot, short)
                # one.  Only evict from registers the incoming interval
                # may legally use; the evictee must itself be safe to
                # spill (its slot round-trips via scratch regs).
                victim = evict_from(active, set(pool), end)
                if victim is not None:
                    e, r, v = victim
                    v.phys = None
                    v.slot = self._new_slot()
                    active.remove(victim)
                    chosen = r
            if chosen is None:
                vreg.slot = self._new_slot()
                continue
            vreg.phys = chosen
            active.append((end, chosen, vreg))

    # -- emission --------------------------------------------------------------------------

    def _emit(self) -> None:
        asm = self.asm
        used_cs = sorted({v.phys for v in self.vregs.values()
                          if v.phys in CALLEE_SAVED})
        frame_size = (self.num_slots * 8 + 15) & ~15

        asm.align(8)
        asm.label(self.prefix)
        asm.emit(ins("push", Reg("rbp")))
        asm.emit(ins("mov", Reg("rbp"), Reg("rsp")))
        for name in used_cs:
            asm.emit(ins("push", Reg(name)))
        asm.emit(ins("push", TLS_REG))
        if frame_size:
            asm.emit(ins("sub", Reg("rsp"), Imm(frame_size)))
        asm.emit(ins("rdtls", TLS_REG))
        self._epilogue_label = self._new_label("epi")
        self._used_cs = used_cs
        self._frame_size = frame_size
        # Slot addressing: below saved regs.
        self._slot_base = -(len(used_cs) * 8 + 8)   # below saved r15

        for block in self._layout:
            asm.label(self.block_label(block))
            for instr in block.instructions:
                self._emit_instr(block, instr)

        asm.label(self._epilogue_label)
        if frame_size:
            asm.emit(ins("add", Reg("rsp"), Imm(frame_size)))
        asm.emit(ins("pop", TLS_REG))
        for name in reversed(used_cs):
            asm.emit(ins("pop", Reg(name)))
        asm.emit(ins("pop", Reg("rbp")))
        asm.emit(ins("ret"))

    # -- operand access ----------------------------------------------------------------------

    def _slot_mem(self, slot: int) -> Mem:
        return Mem(base=Reg("rbp"), disp=self._slot_base - slot * 8 - 8)

    def _global_operand(self, var: GlobalVar):
        """Address *value* of a global (its location, not contents)."""
        if var.thread_local:
            return ("tls", var.tls_offset)
        addr = self.global_addrs.get(var.name)
        if addr is None:
            raise LoweringError(f"global @{var.name} has no address")
        return ("abs", addr)

    def _use(self, value, scratch: str = "r10") -> Reg:
        """Materialise an operand into a register."""
        asm = self.asm
        if isinstance(value, ConstantInt):
            asm.emit(ins("mov", Reg(scratch), Imm(value.value)))
            return Reg(scratch)
        if isinstance(value, GlobalVar):
            kind, addr = self._global_operand(value)
            if kind == "tls":
                asm.emit(ins("lea", Reg(scratch),
                             Mem(base=TLS_REG, disp=addr)))
            else:
                asm.emit(ins("mov", Reg(scratch), Imm(addr)))
            return Reg(scratch)
        if isinstance(value, Alloca):
            base = self.alloca_slots[value]
            asm.emit(ins("lea", Reg(scratch),
                         self._slot_mem(base + (value.size + 7) // 8 - 1)))
            return Reg(scratch)
        if isinstance(value, Function):
            label = self.fn_labels.get(value.name)
            if label is None:
                raise LoweringError(f"no label for @{value.name}")
            asm.emit(ins("mov", Reg(scratch), Label(label)))
            return Reg(scratch)
        vreg = self.vregs.get(value)
        if vreg is None:
            raise LoweringError(f"no storage for %{value.name}")
        if vreg.phys is not None:
            return Reg(vreg.phys)
        asm.emit(ins("mov", Reg(scratch), self._slot_mem(vreg.slot)))
        return Reg(scratch)

    def _def_reg(self, instr: Instruction) -> Tuple[Reg, Optional[_VReg]]:
        vreg = self.vregs.get(instr)
        if vreg is None:
            return Reg("r10"), None
        if vreg.phys is not None:
            return Reg(vreg.phys), vreg
        return Reg("r10"), vreg

    def _finish_def(self, reg: Reg, vreg: Optional[_VReg]) -> None:
        if vreg is not None and vreg.phys is None:
            self.asm.emit(ins("mov", self._slot_mem(vreg.slot), reg))

    def _mem_for_addr(self, addr, scratch: str = "r11") -> Mem:
        """Memory operand for an address value."""
        if isinstance(addr, ConstantInt):
            if -(1 << 31) <= addr.value < (1 << 31):
                return Mem(disp=addr.value)
            reg = self._use(addr, scratch)
            return Mem(base=reg)
        if isinstance(addr, GlobalVar):
            kind, offset = self._global_operand(addr)
            if kind == "tls":
                return Mem(base=TLS_REG, disp=offset)
            return Mem(disp=offset)
        reg = self._use(addr, scratch)
        return Mem(base=reg)

    @staticmethod
    def _width_of(type_) -> int:
        bits = getattr(type_, "bits", 64)
        return max(1, bits // 8)

    # -- instruction emission --------------------------------------------------------------------

    def _access_mem(self, instr) -> Mem:
        """Memory operand for a Load/Store, honouring fused addressing."""
        fusion = self._fusion.get(instr)
        if fusion is None:
            return self._mem_for_addr(instr.addr)
        base, index, scale, disp = fusion
        base_reg = self._use(base, "r11") if base is not None else None
        index_reg = self._use(index, "r10") if index is not None else None
        return Mem(base=base_reg, index=index_reg, scale=scale, disp=disp)

    def _emit_instr(self, block: Block, instr: Instruction) -> None:
        asm = self.asm
        if instr in self._skippable:
            return      # folded into an addressing mode
        if isinstance(instr, Phi):
            return      # handled by edge copies
        if isinstance(instr, Alloca):
            return
        if isinstance(instr, (Fence,)):
            if instr.ordering == "seq_cst":
                asm.emit(ins("mfence"))
            return
        if isinstance(instr, CompilerBarrier):
            return
        if isinstance(instr, BinOp):
            self._emit_binop(instr)
            return
        if isinstance(instr, ICmp):
            if instr in self._fused_cmps:
                return      # emitted with the condbr
            self._emit_icmp_materialise(instr)
            return
        if isinstance(instr, Cast):
            self._emit_cast(instr)
            return
        if isinstance(instr, Select):
            self._emit_select(instr)
            return
        if isinstance(instr, Load):
            width = instr.width
            mem = self._access_mem(instr)
            dst, vreg = self._def_reg(instr)
            mov = ins("mov", dst, mem, width=width)
            asm.emit(mov)
            if instr in self._ordered_ir:
                asm.mark_access(mov)
            self._finish_def(dst, vreg)
            return
        if isinstance(instr, Store):
            width = instr.width
            value = instr.value
            value_needs_scratch = not isinstance(value, ConstantInt) and \
                (self.vregs.get(value) is None
                 or self.vregs[value].phys is None)
            mem = self._access_mem(instr)
            if value_needs_scratch and mem.index is not None and \
                    mem.index.name == "r10":
                # Free r10 for the value by flattening the address.
                asm.emit(ins("lea", Reg("r11"), mem))
                mem = Mem(base=Reg("r11"))
            if isinstance(value, ConstantInt):
                mov = ins("mov", mem, Imm(value.value), width=width)
            else:
                reg = self._use(value, "r10")
                mov = ins("mov", mem, reg, width=width)
            asm.emit(mov)
            if instr in self._ordered_ir:
                asm.mark_access(mov)
            return
        if isinstance(instr, Cmpxchg):
            self._emit_cmpxchg(instr)
            return
        if isinstance(instr, AtomicRMW):
            self._emit_atomicrmw(instr)
            return
        if isinstance(instr, Call):
            self._emit_call(instr)
            return
        if isinstance(instr, Br):
            self._emit_edge_copies(block)
            asm.emit(ins("jmp", Label(self.block_label(instr.target))))
            return
        if isinstance(instr, CondBr):
            self._emit_condbr(block, instr)
            return
        if isinstance(instr, Switch):
            self._emit_edge_copies(block)
            value = self._use(instr.value, "r10")
            for case_value, target in instr.cases:
                asm.emit(ins("cmp", value, Imm(case_value)))
                asm.emit(ins("je", Label(self.block_label(target))))
            asm.emit(ins("jmp", Label(self.block_label(instr.default))))
            return
        if isinstance(instr, Ret):
            if instr.value is not None:
                reg = self._use(instr.value, "r10")
                if reg.name != "rax":
                    asm.emit(ins("mov", Reg("rax"), reg))
            asm.emit(ins("jmp", Label(self._epilogue_label)))
            return
        if isinstance(instr, Unreachable):
            asm.emit(ins("ud2"))
            return
        raise LoweringError(f"cannot lower {instr.opcode}")

    def _emit_binop(self, instr: BinOp) -> None:
        asm = self.asm
        width = self._width_of(instr.type)
        a, b = instr.operands
        dst, vreg = self._def_reg(instr)
        op = {"add": "add", "sub": "sub", "mul": "imul", "sdiv": "idiv",
              "srem": "irem", "and": "and", "or": "or", "xor": "xor",
              "shl": "shl", "lshr": "shr", "ashr": "sar"}[instr.op]
        b_is_dst = (isinstance(b, Instruction) and
                    self.vregs.get(b) is not None and
                    self.vregs[b].phys == dst.name)
        if b_is_dst:
            asm.emit(ins("mov", Reg("r11"), Reg(dst.name)))
            b_operand = Reg("r11")
        elif isinstance(b, ConstantInt) and \
                -(1 << 31) <= b.value < (1 << 31) and \
                op not in ("idiv", "irem"):
            b_operand = Imm(b.value)
        else:
            b_operand = self._use(b, "r11")
        a_reg = self._use(a, "r10")
        if a_reg.name != dst.name:
            asm.emit(ins("mov", dst, a_reg))
        asm.emit(ins(op, dst, b_operand, width=width))
        self._finish_def(dst, vreg)

    def _emit_icmp_materialise(self, instr: ICmp) -> None:
        asm = self.asm
        width = self._width_of(instr.operands[0].type)
        a = self._use(instr.operands[0], "r10")
        b = instr.operands[1]
        if isinstance(b, ConstantInt) and -(1 << 31) <= b.value < (1 << 31):
            b_operand = Imm(b.value)
        else:
            b_operand = self._use(b, "r11")
        dst, vreg = self._def_reg(instr)
        true_label = self._new_label("ict")
        end_label = self._new_label("ice")
        asm.emit(ins("cmp", a, b_operand, width=width))
        asm.emit(ins(_JCC_FOR_PRED[instr.pred], Label(true_label)))
        asm.emit(ins("mov", dst, Imm(0)))
        asm.emit(ins("jmp", Label(end_label)))
        asm.label(true_label)
        asm.emit(ins("mov", dst, Imm(1)))
        asm.label(end_label)
        self._finish_def(dst, vreg)

    def _emit_cast(self, instr: Cast) -> None:
        asm = self.asm
        src = instr.operands[0]
        dst, vreg = self._def_reg(instr)
        from_width = self._width_of(src.type)
        to_width = self._width_of(instr.type)
        reg = self._use(src, "r10")
        if instr.kind == "sext" and from_width < 8:
            asm.emit(ins("movsx", dst, reg, width=from_width))
        elif instr.kind == "trunc" and to_width < 8:
            # mov at the target width zero-extends, establishing the
            # canonical narrow representation.
            asm.emit(ins("mov", dst, reg, width=to_width))
        else:       # zext or no-op width change
            if reg.name != dst.name:
                asm.emit(ins("mov", dst, reg))
        self._finish_def(dst, vreg)

    def _emit_select(self, instr: Select) -> None:
        asm = self.asm
        cond, a, b = instr.operands
        dst, vreg = self._def_reg(instr)
        cond_reg = self._use(cond, "r10")
        else_label = self._new_label("sel")
        end_label = self._new_label("sele")
        asm.emit(ins("test", cond_reg, cond_reg))
        asm.emit(ins("je", Label(else_label)))
        a_reg = self._use(a, "r11")
        if a_reg.name != dst.name:
            asm.emit(ins("mov", dst, a_reg))
        asm.emit(ins("jmp", Label(end_label)))
        asm.label(else_label)
        b_reg = self._use(b, "r11")
        if b_reg.name != dst.name:
            asm.emit(ins("mov", dst, b_reg))
        asm.label(end_label)
        self._finish_def(dst, vreg)

    def _emit_cmpxchg(self, instr: Cmpxchg) -> None:
        asm = self.asm
        width = instr.width
        addr, expected, new = instr.operands
        mem = self._mem_for_addr(addr, "r11")
        new_reg = self._use(new, "r10")
        if new_reg.name == "r10":
            pass
        else:
            asm.emit(ins("mov", Reg("r10"), new_reg))
        exp_reg = self._use(expected, "rax")
        if exp_reg.name != "rax":
            asm.emit(ins("mov", Reg("rax"), exp_reg))
        asm.emit(ins("cmpxchg", mem, Reg("r10"), lock=True, width=width))
        dst, vreg = self._def_reg(instr)
        if dst.name != "rax":
            asm.emit(ins("mov", dst, Reg("rax")))
        self._finish_def(dst, vreg)

    def _emit_atomicrmw(self, instr: AtomicRMW) -> None:
        asm = self.asm
        width = instr.width
        addr, value = instr.operands
        mem = self._mem_for_addr(addr, "r11")
        if instr.op in ("add", "sub"):
            val = self._use(value, "r10")
            if val.name != "r10":
                asm.emit(ins("mov", Reg("r10"), val))
            if instr.op == "sub":
                asm.emit(ins("neg", Reg("r10")))
            asm.emit(ins("xadd", mem, Reg("r10"), lock=True, width=width))
            dst, vreg = self._def_reg(instr)
            if dst.name != "r10":
                asm.emit(ins("mov", dst, Reg("r10")))
            self._finish_def(dst, vreg)
            return
        if instr.op == "xchg":
            val = self._use(value, "r10")
            if val.name != "r10":
                asm.emit(ins("mov", Reg("r10"), val))
            asm.emit(ins("xchg", mem, Reg("r10"), width=width))
            dst, vreg = self._def_reg(instr)
            if dst.name != "r10":
                asm.emit(ins("mov", dst, Reg("r10")))
            self._finish_def(dst, vreg)
            return
        # and/or/xor: CAS loop clobbering rax.  When the address itself
        # was materialised into r11, stage the "new value" through rbx
        # (saved/restored) to avoid the scratch conflict.
        op = {"and": "and", "or": "or", "xor": "xor"}[instr.op]
        val = self._use(value, "r10")
        if val.name != "r10":
            asm.emit(ins("mov", Reg("r10"), val))
        temp = "r11"
        if mem.base is not None and mem.base.name == "r11":
            temp = "rbx"
            asm.emit(ins("push", Reg("rbx")))
        retry = self._new_label("rmw")
        asm.label(retry)
        asm.emit(ins("mov", Reg("rax"), mem, width=width))
        asm.emit(ins("mov", Reg(temp), Reg("rax")))
        asm.emit(ins(op, Reg(temp), Reg("r10"), width=width))
        asm.emit(ins("cmpxchg", mem, Reg(temp), lock=True, width=width))
        asm.emit(ins("jne", Label(retry)))
        if temp == "rbx":
            asm.emit(ins("pop", Reg("rbx")))
        dst, vreg = self._def_reg(instr)
        if dst.name != "rax":
            asm.emit(ins("mov", dst, Reg("rax")))
        self._finish_def(dst, vreg)

    def _emit_call(self, instr: Call) -> None:
        asm = self.asm
        if instr.is_external:
            # Push argument values, then pop into the argument registers
            # (reads happen before any argument register is clobbered).
            for arg in instr.operands:
                if isinstance(arg, ConstantInt):
                    asm.emit(ins("mov", Reg("r10"), Imm(arg.value)))
                    asm.emit(ins("push", Reg("r10")))
                else:
                    asm.emit(ins("push", self._use(arg, "r10")))
            for index in reversed(range(len(instr.operands))):
                asm.emit(ins("pop", ARG_REGS[index]))
            asm.emit(ins("call", Imm(self.import_slot(instr.callee))))
        else:
            label = self.fn_labels.get(instr.callee.name)
            if label is None:
                raise LoweringError(f"no label for @{instr.callee.name}")
            asm.emit(ins("call", Label(label)))
        if not isinstance(instr.type, VoidType):
            dst, vreg = self._def_reg(instr)
            if dst.name != "rax":
                asm.emit(ins("mov", dst, Reg("rax")))
            self._finish_def(dst, vreg)

    def _emit_edge_copies(self, block: Block) -> None:
        """Phi copies at the end of a predecessor.

        When no copy target doubles as another copy's source (and
        dropping identity moves), plain moves suffice; otherwise the
        parallel copies are staged through the native stack."""
        copies = self.copies.get(block)
        if not copies:
            return
        asm = self.asm

        def location(value):
            if isinstance(value, ConstantInt):
                return ("const", value.value)
            vreg = self.vregs.get(value)
            if vreg is not None and vreg.phys is not None:
                return ("reg", vreg.phys)
            if vreg is not None:
                return ("slot", vreg.slot)
            return None

        live = []
        for value, target in copies:
            src = location(value)
            dst = ("reg", target.phys) if target.phys is not None \
                else ("slot", target.slot)
            if src == dst:
                continue        # identity move
            live.append((value, target, src, dst))
        if not live:
            return

        sources = {src for _v, _t, src, _d in live if src and src[0] != "const"}
        targets = {dst for _v, _t, _s, dst in live}
        if not (sources & targets):
            for value, target, _src, _dst in live:
                if target.phys is not None:
                    dst_reg = Reg(target.phys)
                    if isinstance(value, ConstantInt):
                        asm.emit(ins("mov", dst_reg, Imm(value.value)))
                    else:
                        src_reg = self._use(value, "r10")
                        asm.emit(ins("mov", dst_reg, src_reg))
                else:
                    src_reg = self._use(value, "r10") \
                        if not isinstance(value, ConstantInt) else None
                    if src_reg is None:
                        asm.emit(ins("mov", Reg("r10"), Imm(value.value)))
                        src_reg = Reg("r10")
                    asm.emit(ins("mov", self._slot_mem(target.slot),
                                 src_reg))
            return

        for value, _target, _src, _dst in live:
            if isinstance(value, ConstantInt):
                asm.emit(ins("mov", Reg("r10"), Imm(value.value)))
                asm.emit(ins("push", Reg("r10")))
            else:
                asm.emit(ins("push", self._use(value, "r10")))
        for value, target, _src, _dst in reversed(live):
            if target.phys is not None:
                asm.emit(ins("pop", Reg(target.phys)))
            else:
                asm.emit(ins("pop", Reg("r10")))
                asm.emit(ins("mov", self._slot_mem(target.slot),
                             Reg("r10")))

    def _should_invert_branch(self, block: Block, instr: CondBr) -> bool:
        """Profile-guided jcc sense: jump toward the *cold* outcome.

        ``jcc X; jmp Y`` charges the Y path an extra executed jump, so
        the hot successor should be X — or, better, the fall-through
        (the peephole then deletes ``jmp Y`` entirely).  Inverting when
        the layout put ``if_true`` next, or when neither is next but
        ``if_false`` is measurably hotter, keeps the hot path jumpless.
        """
        if self.pgo is None or instr.if_true is instr.if_false:
            return False
        nxt = self._next_in_layout.get(block)
        if nxt is instr.if_true:
            return True
        if nxt is instr.if_false:
            return False
        weights = self._pgo_weights
        return weights.get(instr.if_false, 0) > weights.get(instr.if_true, 0)

    def _emit_condbr(self, block: Block, instr: CondBr) -> None:
        asm = self.asm
        cond = instr.cond
        true_label = Label(self.block_label(instr.if_true))
        false_label = Label(self.block_label(instr.if_false))
        # Edge copies first: they stage through r10, which the compare
        # operands may need afterwards.
        self._emit_edge_copies(block)
        invert = self._should_invert_branch(block, instr)
        if isinstance(cond, ICmp) and cond in self._fused_cmps:
            width = self._width_of(cond.operands[0].type)
            a = self._use(cond.operands[0], "r10")
            b = cond.operands[1]
            if isinstance(b, ConstantInt) and \
                    -(1 << 31) <= b.value < (1 << 31):
                b_operand = Imm(b.value)
            else:
                b_operand = self._use(b, "r11")
            asm.emit(ins("cmp", a, b_operand, width=width))
            inverse = _INVERSE_PRED.get(cond.pred) if invert else None
            if inverse is not None and inverse in _JCC_FOR_PRED:
                self.pgo.count("branches_inverted")
                asm.emit(ins(_JCC_FOR_PRED[inverse], false_label))
                asm.emit(ins("jmp", true_label))
            else:
                asm.emit(ins(_JCC_FOR_PRED[cond.pred], true_label))
                asm.emit(ins("jmp", false_label))
            return
        reg = self._use(cond, "r10")
        asm.emit(ins("test", reg, reg))
        if invert:
            self.pgo.count("branches_inverted")
            asm.emit(ins("je", false_label))
            asm.emit(ins("jmp", true_label))
        else:
            asm.emit(ins("jne", true_label))
            asm.emit(ins("jmp", false_label))
