"""Machine-code to IR translation on emulated CPU state (§2.2.1, §3.3.1).

Every VX instruction is translated line-by-line into loads/stores of
the virtual-state globals plus the IR operations implementing its
semantics, including flag computation.  The resulting IR is verbose and
unrefined — exactly the shape real lifters produce — and relies on the
optimiser (regpromote + DCE) to strip dead flag computations and
redundant state traffic.

Atomic instructions get two translation strategies:

* ``builtin`` (default, Listing 2): map to IR ``cmpxchg``/``atomicrmw``
  marked seq_cst, surrounded by compiler barriers;
* ``naive`` (Listing 1, ablation): decompose into plain loads/stores
  under a single global spinlock.

Memory accesses belonging to the original program are tagged ``orig``;
accesses whose address is derived from the emulated stack pointer are
additionally tagged ``emustack`` (tracked with a per-function forward
dataflow through register copies, so rbp-framed O0 code is covered).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..ir import (ConstantInt, GlobalVar, I8, I32, I64, IRBuilder, Value,
                  const, type_for_width)
from ..isa import Imm, Instruction, Mem, Reg
from ..isa.spec import SPEC
from .vstate import VirtualState


class TranslationError(Exception):
    """Raised when an instruction cannot be lifted to IR."""


def _mask_const(width: int):
    return const((1 << (width * 8)) - 1)


class BlockTranslator:
    """Translates the straight-line body of one machine basic block."""

    def __init__(self, vstate: VirtualState, builder: IRBuilder,
                 stack_regs: Set[str], atomic_mode: str = "builtin",
                 global_lock: Optional[GlobalVar] = None,
                 lazy_flags: bool = True) -> None:
        self.vstate = vstate
        self.b = builder
        #: Registers currently holding stack-derived values.
        self.stack_regs = set(stack_regs)
        #: Block-local model of the emulated operand stack: one flag per
        #: pushed value, recording whether it was stack-derived.  pops
        #: restore the flag into the destination register, so O0-style
        #: lea/push/pop address plumbing keeps its derivation (and its
        #: accesses keep the emustack tag).  Resets at block entry;
        #: unbalanced pops fall back to "unknown".
        self._push_flags: List[bool] = []
        self.atomic_mode = atomic_mode
        self.global_lock = global_lock
        # Lazy-flag state: the symbolic producer of the current flag
        # values, used to translate a same-block jcc directly into an
        # icmp over the compared values instead of reassembling the
        # condition from the stored flag bits (the standard "flag
        # thunk" trick of real lifters).  The flag globals are still
        # written, so cross-block consumers stay correct; dead flag
        # computation is removed later by DCE.
        #   ("cmp", a, b, width)  after cmp/sub-like instructions
        #   ("val", result, width) after arithmetic/logic (ZF/SF valid)
        #   ("bit", i1)            after cmpxchg (ZF = success)
        self._last_flags: Optional[tuple] = None
        #: Ablation toggle (§3.3.1 discussion): with lazy flags off,
        #: every jcc reconstructs its condition from the stored flag
        #: globals, exactly like a naive lifter.
        self.lazy_flags = lazy_flags

    # -- virtual state access -------------------------------------------------

    def read_reg(self, name: str) -> Value:
        """Current SSA value of a guest register (loads virtual state once)."""
        load = self.b.load(self.vstate.reg(name), 8, name=f"r_{name}")
        load.tags.add("vstate")
        return load

    def write_reg(self, name: str, value: Value) -> None:
        """Set a guest register's SSA value (stored back at block end)."""
        store = self.b.store(value, self.vstate.reg(name), 8)
        store.tags.add("vstate")

    def read_flag(self, name: str) -> Value:
        """Current SSA value of a guest flag, materialising lazy flags."""
        load = self.b.load(self.vstate.flag(name), 1, name=f"f_{name}")
        load.tags.add("vstate")
        return self.b.icmp("ne", load, const(0, 8), name=f"{name}_set")

    def write_flag(self, name: str, value: Value) -> None:
        """Set a guest flag's SSA value."""
        as_byte = self.b.zext(value, I8) if value.type.bits == 1 else value
        store = self.b.store(as_byte, self.vstate.flag(name), 1)
        store.tags.add("vstate")

    # -- operand handling ---------------------------------------------------------

    def mem_addr(self, mem: Mem) -> Tuple[Value, bool]:
        """Compute the effective address; returns (value, stack_derived)."""
        stack_derived = False
        addr: Optional[Value] = None
        if mem.base is not None:
            addr = self.read_reg(mem.base.name)
            stack_derived = mem.base.name in self.stack_regs
        if mem.index is not None:
            idx = self.read_reg(mem.index.name)
            if mem.scale != 1:
                idx = self.b.mul(idx, const(mem.scale))
            addr = idx if addr is None else self.b.add(addr, idx)
            stack_derived = False     # indexed: not "directly derived"
        if mem.disp or addr is None:
            addr = (const(mem.disp) if addr is None
                    else self.b.add(addr, const(mem.disp)))
        return addr, stack_derived

    def _mem_tags(self, stack_derived: bool) -> Tuple[str, ...]:
        return ("orig", "emustack") if stack_derived else ("orig",)

    def read_operand(self, op, width: int) -> Value:
        """Zero-extended 64-bit value of an operand."""
        if isinstance(op, Imm):
            return const(op.value & ((1 << (8 * width)) - 1)
                         if width < 8 else op.value)
        if isinstance(op, Reg):
            value = self.read_reg(op.name)
            if width < 8:
                value = self.b.binop("and", value, _mask_const(width))
            return value
        if isinstance(op, Mem):
            addr, stack = self.mem_addr(op)
            load = self.b.load(addr, width, tags=self._mem_tags(stack))
            if width < 8:
                load = self.b.zext(load, I64)
            return load
        raise TranslationError(f"bad operand {op!r}")

    def write_operand(self, op, value: Value, width: int) -> None:
        """Write a value to a register or memory operand."""
        if isinstance(op, Reg):
            if width < 8:
                value = self.b.binop("and", value, _mask_const(width))
            self.write_reg(op.name, value)
            self.stack_regs.discard(op.name)
            return
        if isinstance(op, Mem):
            addr, stack = self.mem_addr(op)
            narrow = value
            if width < 8:
                narrow = self.b.trunc(value, type_for_width(width))
            self.b.store(narrow, addr, width, tags=self._mem_tags(stack))
            return
        raise TranslationError(f"bad destination {op!r}")

    # -- flag computation ------------------------------------------------------------

    def set_zs(self, result: Value, width: int) -> None:
        """Set ZF/SF from a result (the common arithmetic tail)."""
        masked = result
        if width < 8:
            masked = self.b.binop("and", result, _mask_const(width))
        self.write_flag("zf", self.b.icmp("eq", masked, const(0)))
        bit = self.b.binop("lshr", masked, const(width * 8 - 1))
        bit = self.b.binop("and", bit, const(1))
        self.write_flag("sf", self.b.icmp("ne", bit, const(0)))

    def _sign_bit(self, value: Value, width: int) -> Value:
        bit = self.b.binop("lshr", value, const(width * 8 - 1))
        return self.b.binop("and", bit, const(1))

    def flags_add(self, a: Value, b_val: Value, width: int) -> Value:
        """Full flag computation for addition (CF/OF included)."""
        full = self.b.add(a, b_val)
        result = full
        if width < 8:
            result = self.b.binop("and", full, _mask_const(width))
            self.write_flag("cf", self.b.icmp("ugt", full,
                                              _mask_const(width)))
        else:
            self.write_flag("cf", self.b.icmp("ult", full, a))
        xa = self.b.binop("xor", result, a)
        xb = self.b.binop("xor", result, b_val)
        both = self.b.binop("and", xa, xb)
        self.write_flag("of", self.b.icmp(
            "ne", self._of_bit(both, width), const(0)))
        self.set_zs(result, width)
        self._last_flags = ("val", result, width)
        return result

    def _of_bit(self, value: Value, width: int) -> Value:
        bit = self.b.binop("lshr", value, const(width * 8 - 1))
        return self.b.binop("and", bit, const(1))

    def flags_sub(self, a: Value, b_val: Value, width: int) -> Value:
        """Full flag computation for subtraction/compare."""
        result = self.b.sub(a, b_val)
        if width < 8:
            result = self.b.binop("and", result, _mask_const(width))
        self.write_flag("cf", self.b.icmp("ult", a, b_val))
        xab = self.b.binop("xor", a, b_val)
        xar = self.b.binop("xor", a, result)
        both = self.b.binop("and", xab, xar)
        self.write_flag("of", self.b.icmp(
            "ne", self._of_bit(both, width), const(0)))
        self.set_zs(result, width)
        self._last_flags = ("val", result, width)
        return result

    def flags_logic(self, result: Value, width: int) -> Value:
        """Flag computation for and/or/xor (CF=OF=0)."""
        if width < 8:
            result = self.b.binop("and", result, _mask_const(width))
        self.write_flag("cf", const(0, 1))
        self.write_flag("of", const(0, 1))
        self.set_zs(result, width)
        self._last_flags = ("val", result, width)
        return result

    # -- instruction dispatch ------------------------------------------------------------

    def translate(self, instr: Instruction) -> None:
        """Translate one decoded instruction into IR."""
        handler = getattr(self, f"tr_{instr.mnemonic}", None)
        if handler is None:
            raise TranslationError(
                f"unsupported instruction {instr.mnemonic!r} at "
                f"{instr.address:#x}" if instr.address is not None
                else f"unsupported instruction {instr.mnemonic!r}")
        handler(instr)

    # -- data movement -----------------------------------------------------------------

    def tr_mov(self, instr: Instruction) -> None:
        """mov: plain data movement, any operand mix."""
        dst, src = instr.operands
        value = self.read_operand(src, instr.width)
        # Track stack-pointer propagation (mov rbp, rsp and friends).
        if isinstance(dst, Reg) and isinstance(src, Reg):
            if src.name in self.stack_regs:
                self.write_reg(dst.name, value)
                self.stack_regs.add(dst.name)
                return
        self.write_operand(dst, value, instr.width)

    def tr_movsx(self, instr: Instruction) -> None:
        """movsx: sign-extending load/move."""
        dst, src = instr.operands
        value = self.read_operand(src, instr.width)
        if instr.width < 8:
            narrow = self.b.trunc(value, type_for_width(instr.width))
            value = self.b.sext(narrow, I64)
        self.write_operand(dst, value, 8)

    def tr_lea(self, instr: Instruction) -> None:
        """lea: materialise the effective address."""
        dst, src = instr.operands
        addr, stack = self.mem_addr(src)
        self.write_reg(dst.name, addr)
        if stack:
            self.stack_regs.add(dst.name)
        else:
            self.stack_regs.discard(dst.name)

    def tr_push(self, instr: Instruction) -> None:
        """push: decrement vrsp, store to the emulated stack."""
        value = self.read_operand(instr.operands[0], 8)
        source = instr.operands[0]
        derived = isinstance(source, Reg) and source.name in self.stack_regs
        self._push_flags.append(derived)
        rsp = self.read_reg("rsp")
        new_rsp = self.b.sub(rsp, const(8))
        self.write_reg("rsp", new_rsp)
        self.b.store(value, new_rsp, 8, tags=("orig", "emustack"))

    def tr_pop(self, instr: Instruction) -> None:
        """pop: load from the emulated stack, increment vrsp."""
        rsp = self.read_reg("rsp")
        value = self.b.load(rsp, 8, tags=("orig", "emustack"))
        self.write_reg("rsp", self.b.add(rsp, const(8)))
        self.write_operand(instr.operands[0], value, 8)
        dest = instr.operands[0]
        if isinstance(dest, Reg):
            derived = self._push_flags.pop() if self._push_flags else False
            if derived:
                self.stack_regs.add(dest.name)
            else:
                self.stack_regs.discard(dest.name)

    def tr_xchg(self, instr: Instruction) -> None:
        """xchg: atomic swap with memory (plain swap reg-reg)."""
        a, b_op = instr.operands
        if isinstance(a, Mem) or isinstance(b_op, Mem):
            # Implicitly locked: lift as an atomic exchange (§3.3.1).
            mem = a if isinstance(a, Mem) else b_op
            reg = b_op if isinstance(a, Mem) else a
            self.b.compiler_barrier()
            addr, _ = self.mem_addr(mem)
            value = self.read_operand(reg, instr.width)
            if instr.width < 8:
                value = self.b.trunc(value, type_for_width(instr.width))
            if self.atomic_mode == "naive":
                old = self._naive_rmw("xchg", addr, value, instr.width)
            elif self.atomic_mode == "nonatomic":
                old = self._plain_rmw("xchg", addr, value, instr.width)
            else:
                old = self.b.atomicrmw("xchg", addr, value, instr.width)
            wide = self.b.zext(old, I64) if instr.width < 8 else old
            self.write_operand(reg, wide, instr.width)
            self.b.compiler_barrier()
            return
        va = self.read_operand(a, instr.width)
        vb = self.read_operand(b_op, instr.width)
        self.write_operand(a, vb, instr.width)
        self.write_operand(b_op, va, instr.width)

    # -- arithmetic -----------------------------------------------------------------------

    def _binary(self, instr: Instruction, flags_fn) -> None:
        dst, src = instr.operands
        if instr.lock and isinstance(dst, Mem):
            self._locked_binop(instr)
            return
        a = self.read_operand(dst, instr.width)
        b_val = self.read_operand(src, instr.width)
        result = flags_fn(a, b_val, instr.width)
        self.write_operand(dst, result, instr.width)
        if isinstance(dst, Reg):
            self.stack_regs.discard(dst.name)

    def tr_add(self, instr: Instruction) -> None:
        """add + flags."""
        dst, src = instr.operands
        # add/sub of a constant keeps a stack-derived register stack-
        # derived (the "directly derived" rule of §3.3.4).
        keep_stack = (isinstance(dst, Reg) and dst.name in self.stack_regs
                      and isinstance(src, Imm))
        self._binary(instr, self.flags_add)
        if keep_stack:
            self.stack_regs.add(dst.name)

    def tr_sub(self, instr: Instruction) -> None:
        """sub + flags."""
        dst, src = instr.operands
        keep_stack = (isinstance(dst, Reg) and dst.name in self.stack_regs
                      and isinstance(src, Imm))
        self._binary(instr, self.flags_sub)
        if keep_stack:
            self.stack_regs.add(dst.name)

    def tr_and(self, instr: Instruction) -> None:
        """and + logic flags."""
        self._binary(instr, lambda a, b, w: self.flags_logic(
            self.b.binop("and", a, b), w))

    def tr_or(self, instr: Instruction) -> None:
        """or + logic flags."""
        self._binary(instr, lambda a, b, w: self.flags_logic(
            self.b.binop("or", a, b), w))

    def tr_xor(self, instr: Instruction) -> None:
        """xor + logic flags."""
        self._binary(instr, lambda a, b, w: self.flags_logic(
            self.b.binop("xor", a, b), w))

    def tr_shl(self, instr: Instruction) -> None:
        """shl + ZF/SF."""
        self._binary(instr, lambda a, b, w: self.flags_logic(
            self.b.binop("shl", a, self.b.binop("and", b, const(63))), w))

    def tr_shr(self, instr: Instruction) -> None:
        """shr (logical) + ZF/SF."""
        def fn(a, b, w):
            if w < 8:
                a = self.b.binop("and", a, _mask_const(w))
            return self.flags_logic(
                self.b.binop("lshr", a, self.b.binop("and", b, const(63))), w)
        self._binary(instr, fn)

    def tr_sar(self, instr: Instruction) -> None:
        """sar (arithmetic) + ZF/SF."""
        def fn(a, b, w):
            if w < 8:
                narrow = self.b.trunc(a, type_for_width(w))
                a = self.b.sext(narrow, I64)
            shifted = self.b.binop("ashr", a,
                                   self.b.binop("and", b, const(63)))
            return self.flags_logic(shifted, w)
        self._binary(instr, fn)

    def tr_imul(self, instr: Instruction) -> None:
        """imul + ZF/SF."""
        def fn(a, b, w):
            return self.flags_logic(self.b.mul(a, b), w)
        self._binary(instr, fn)

    def _signed_value(self, value: Value, width: int) -> Value:
        if width == 8:
            return value
        narrow = self.b.trunc(value, type_for_width(width))
        return self.b.sext(narrow, I64)

    def tr_idiv(self, instr: Instruction) -> None:
        """idiv (signed quotient)."""
        def fn(a, b, w):
            sa = self._signed_value(a, w)
            sb = self._signed_value(b, w)
            return self.flags_logic(self.b.binop("sdiv", sa, sb), w)
        self._binary(instr, fn)

    def tr_irem(self, instr: Instruction) -> None:
        """irem (signed remainder)."""
        def fn(a, b, w):
            sa = self._signed_value(a, w)
            sb = self._signed_value(b, w)
            return self.flags_logic(self.b.binop("srem", sa, sb), w)
        self._binary(instr, fn)

    def tr_neg(self, instr: Instruction) -> None:
        """neg + flags."""
        dst = instr.operands[0]
        a = self.read_operand(dst, instr.width)
        result = self.flags_sub(const(0), a, instr.width)
        self.write_operand(dst, result, instr.width)

    def tr_not(self, instr: Instruction) -> None:
        """not (no flags)."""
        dst = instr.operands[0]
        a = self.read_operand(dst, instr.width)
        result = self.b.binop("xor", a, const(-1))
        if instr.width < 8:
            result = self.b.binop("and", result, _mask_const(instr.width))
        self.write_operand(dst, result, instr.width)

    def _inc_dec(self, instr: Instruction, is_inc: bool) -> None:
        dst = instr.operands[0]
        if instr.lock and isinstance(dst, Mem):
            self._locked_binop(instr, forced_value=const(1),
                               forced_op="add" if is_inc else "sub",
                               preserve_cf=True)
            return
        saved_cf = self.read_flag("cf")
        a = self.read_operand(dst, instr.width)
        fn = self.flags_add if is_inc else self.flags_sub
        result = fn(a, const(1), instr.width)
        self.write_flag("cf", saved_cf)     # INC/DEC preserve CF
        self.write_operand(dst, result, instr.width)

    def tr_inc(self, instr: Instruction) -> None:
        """inc (CF preserved)."""
        self._inc_dec(instr, True)

    def tr_dec(self, instr: Instruction) -> None:
        """dec (CF preserved)."""
        self._inc_dec(instr, False)

    def tr_cmp(self, instr: Instruction) -> None:
        """cmp: flags only, records the lazy-compare pair."""
        a = self.read_operand(instr.operands[0], instr.width)
        b_val = self.read_operand(instr.operands[1], instr.width)
        self.flags_sub(a, b_val, instr.width)
        self._last_flags = ("cmp", a, b_val, instr.width)

    def tr_test(self, instr: Instruction) -> None:
        """test: logic flags of a & b."""
        a = self.read_operand(instr.operands[0], instr.width)
        b_val = self.read_operand(instr.operands[1], instr.width)
        self.flags_logic(self.b.binop("and", a, b_val), instr.width)

    # -- atomics (§3.3.1) ---------------------------------------------------------------------

    def _locked_binop(self, instr: Instruction,
                      forced_value: Optional[Value] = None,
                      forced_op: Optional[str] = None,
                      preserve_cf: bool = False) -> None:
        """LOCK add/sub/and/or/xor/inc/dec with a memory destination."""
        op = forced_op or SPEC[instr.mnemonic].alu_op
        if op is None:
            raise TranslationError(
                f"no atomic RMW lowering for {instr.mnemonic!r}")
        dst = instr.operands[0]
        saved_cf = self.read_flag("cf") if preserve_cf else None
        self.b.compiler_barrier()
        addr, _ = self.mem_addr(dst)
        value = forced_value if forced_value is not None else \
            self.read_operand(instr.operands[1], instr.width)
        narrow = value
        if instr.width < 8 and not isinstance(value, ConstantInt):
            narrow = self.b.trunc(value, type_for_width(instr.width))
        elif instr.width < 8:
            narrow = ConstantInt(value.value, type_for_width(instr.width))
        if self.atomic_mode == "naive":
            old = self._naive_rmw(op, addr, narrow, instr.width)
        elif self.atomic_mode == "nonatomic":
            old = self._plain_rmw(op, addr, narrow, instr.width)
        else:
            old = self.b.atomicrmw(op, addr, narrow, instr.width)
        wide_old = self.b.zext(old, I64) if instr.width < 8 else old
        wide_val = self.b.zext(narrow, I64) \
            if instr.width < 8 and narrow.type.bits < 64 else value
        # Flags reflect the result of the arithmetic.
        if op == "add":
            self.flags_add(wide_old, wide_val, instr.width)
        elif op == "sub":
            self.flags_sub(wide_old, wide_val, instr.width)
        else:
            self.flags_logic(self.b.binop(op, wide_old, wide_val),
                             instr.width)
        if saved_cf is not None:
            self.write_flag("cf", saved_cf)
        self.b.compiler_barrier()

    def tr_xadd(self, instr: Instruction) -> None:
        """lock xadd -> AtomicRMW add returning the old value."""
        dst, src = instr.operands
        if isinstance(dst, Mem) and instr.lock:
            self.b.compiler_barrier()
            addr, _ = self.mem_addr(dst)
            value = self.read_operand(src, instr.width)
            narrow = value
            if instr.width < 8:
                narrow = self.b.trunc(value, type_for_width(instr.width))
            if self.atomic_mode == "naive":
                old = self._naive_rmw("add", addr, narrow, instr.width)
            elif self.atomic_mode == "nonatomic":
                old = self._plain_rmw("add", addr, narrow, instr.width)
            else:
                old = self.b.atomicrmw("add", addr, narrow, instr.width)
            wide_old = self.b.zext(old, I64) if instr.width < 8 else old
            self.flags_add(wide_old, value, instr.width)
            self.write_operand(src, wide_old, instr.width)
            self.b.compiler_barrier()
            return
        # Non-locked xadd: plain read-modify-write.
        a = self.read_operand(dst, instr.width)
        b_val = self.read_operand(src, instr.width)
        result = self.flags_add(a, b_val, instr.width)
        self.write_operand(dst, result, instr.width)
        self.write_operand(src, a, instr.width)

    def tr_cmpxchg(self, instr: Instruction) -> None:
        """Listing 2: builtin translation of ``lock cmpxchg``.

        The write to the virtual rax happens as a separate instruction
        that depends on the cmpxchg result; compiler barriers stop the
        surrounding virtual-register traffic from being reordered
        across it, and the cmpxchg itself is seq_cst.
        """
        dst, src = instr.operands
        width = instr.width
        self.b.compiler_barrier()
        expected_full = self.read_reg("rax")
        expected = expected_full
        if width < 8:
            expected = self.b.binop("and", expected_full, _mask_const(width))
        new = self.read_operand(src, width)
        nexpected = expected
        nnew = new
        if width < 8:
            nexpected = self.b.trunc(expected, type_for_width(width))
            nnew = self.b.trunc(new, type_for_width(width))
        if isinstance(dst, Mem):
            addr, _ = self.mem_addr(dst)
            if self.atomic_mode == "naive":
                old = self._naive_cmpxchg(addr, nexpected, nnew, width)
            elif self.atomic_mode == "nonatomic":
                old = self._plain_cmpxchg(addr, nexpected, nnew, width)
            else:
                old = self.b.cmpxchg(addr, nexpected, nnew, width,
                                     name="cx_old")
        else:
            # Register form (no memory, no atomicity needed).
            current = self.read_operand(dst, width)
            eq = self.b.icmp("eq", current, expected)
            self.write_operand(dst, self.b.select(eq, new, current), width)
            old = self.b.trunc(current, type_for_width(width)) \
                if width < 8 else current
        wide_old = self.b.zext(old, I64) if width < 8 else old
        # Full compare flags of (expected - observed), exactly as the
        # emulator computes them; ZF doubles as the success bit.
        self.flags_sub(expected, wide_old, width)
        success = self.b.icmp("eq", wide_old, expected, name="cx_eq")
        self._last_flags = ("bit", success)
        # rax is updated with the observed value only on failure.
        rax_new = self.b.select(success, expected_full, wide_old)
        self.write_reg("rax", rax_new)
        self.b.compiler_barrier()

    # -- the naive (Listing 1) translation, used for the ablation ------------------------------

    def _naive_lock(self) -> None:
        # Spin on the global lock with an atomic exchange.  The lock
        # itself must still be hardware-atomic, so even the "naive"
        # strategy needs one RMW primitive — the point of the ablation
        # is the *global serialisation*, not lock-freedom.
        assert self.global_lock is not None
        spin = self.b.atomicrmw("xchg", self.global_lock, const(1), 8,
                                name="gl_old")
        spin.tags.add("naive_lock_spin")

    def _naive_unlock(self) -> None:
        self.b.store(const(0), self.global_lock, 8, ordering="release")

    def _naive_rmw(self, op: str, addr: Value, value: Value,
                   width: int) -> Value:
        # NOTE: the straight-line translator cannot emit a spin *loop*;
        # the lifter wraps blocks containing naive_lock_spin markers in
        # a retry loop during stitching (see lifter._expand_naive).
        self._naive_lock()
        old = self.b.load(addr, width, name="nv_old", tags=("orig",))
        if op == "xchg":
            new = value
        else:
            wide_old = self.b.zext(old, I64) if width < 8 else old
            wide_val = self.b.zext(value, I64) if value.type.bits < 64 \
                else value
            result = self.b.binop(op, wide_old, wide_val)
            new = self.b.trunc(result, type_for_width(width)) \
                if width < 8 else result
        self.b.store(new, addr, width, tags=("orig",))
        self._naive_unlock()
        return old

    def _plain_rmw(self, op: str, addr: Value, value: Value,
                   width: int) -> Value:
        """Non-atomic decomposition (McSema's experimental path): the
        read-modify-write loses hardware atomicity entirely, so
        concurrent threads race between the load and the store."""
        old = self.b.load(addr, width, name="pl_old", tags=("orig",))
        if op == "xchg":
            new = value
        else:
            wide_old = self.b.zext(old, I64) if width < 8 else old
            wide_val = self.b.zext(value, I64) if value.type.bits < 64 \
                else value
            result = self.b.binop(op, wide_old, wide_val)
            new = self.b.trunc(result, type_for_width(width)) \
                if width < 8 else result
        self.b.store(new, addr, width, tags=("orig",))
        return old

    def _plain_cmpxchg(self, addr: Value, expected: Value, new: Value,
                       width: int) -> Value:
        old = self.b.load(addr, width, name="pl_old", tags=("orig",))
        wide_old = self.b.zext(old, I64) if width < 8 else old
        wide_exp = self.b.zext(expected, I64) if expected.type.bits < 64 \
            else expected
        eq = self.b.icmp("eq", wide_old, wide_exp)
        stored = self.b.select(eq, new, old)
        self.b.store(stored, addr, width, tags=("orig",))
        return old

    def _naive_cmpxchg(self, addr: Value, expected: Value, new: Value,
                       width: int) -> Value:
        self._naive_lock()
        old = self.b.load(addr, width, name="nv_old", tags=("orig",))
        wide_old = self.b.zext(old, I64) if width < 8 else old
        wide_exp = self.b.zext(expected, I64) if expected.type.bits < 64 \
            else expected
        eq = self.b.icmp("eq", wide_old, wide_exp)
        stored = self.b.select(eq, new, old)
        self.b.store(stored, addr, width, tags=("orig",))
        self._naive_unlock()
        return old

    # -- fences / misc ---------------------------------------------------------------------------

    def tr_mfence(self, instr: Instruction) -> None:
        """mfence -> seq_cst fence."""
        fence = self.b.fence("seq_cst")
        fence.tags.add("orig")

    def tr_nop(self, instr: Instruction) -> None:
        """nop: nothing."""
        pass

    def tr_rdtls(self, instr: Instruction) -> None:
        """rdtls: read the thread-local-storage base register."""
        raise TranslationError(
            f"rdtls at {instr.address:#x}: TLS-base reads cannot be lifted")

    # -- SIMD (lane-by-lane scalarisation, §4.2 performance discussion) ------------------------

    def _xmm_lane_addr(self, reg: Reg, lane: int) -> Value:
        base = self.vstate.xmm[reg.name]
        if lane == 0:
            return base
        return self.b.add(base, const(lane * 4))

    def _read_xmm_lane(self, reg: Reg, lane: int) -> Value:
        load = self.b.load(self._xmm_lane_addr(reg, lane), 4,
                           name=f"{reg.name}_l{lane}")
        load.tags.add("vstate")
        return load

    def _write_xmm_lane(self, reg: Reg, lane: int, value: Value) -> None:
        store = self.b.store(value, self._xmm_lane_addr(reg, lane), 4)
        store.tags.add("vstate")

    def tr_movdq(self, instr: Instruction) -> None:
        """movdq: 128-bit lane move (two i64 halves)."""
        dst, src = instr.operands
        if isinstance(dst, Reg) and isinstance(src, Mem):
            addr, stack = self.mem_addr(src)
            for lane in range(4):
                lane_addr = addr if lane == 0 else \
                    self.b.add(addr, const(lane * 4))
                value = self.b.load(lane_addr, 4,
                                    tags=self._mem_tags(stack))
                self._write_xmm_lane(dst, lane, value)
            return
        if isinstance(dst, Mem) and isinstance(src, Reg):
            addr, stack = self.mem_addr(dst)
            for lane in range(4):
                lane_addr = addr if lane == 0 else \
                    self.b.add(addr, const(lane * 4))
                value = self._read_xmm_lane(src, lane)
                self.b.store(value, lane_addr, 4,
                             tags=self._mem_tags(stack))
            return
        for lane in range(4):
            self._write_xmm_lane(dst, lane, self._read_xmm_lane(src, lane))

    def _vec_binop(self, instr: Instruction, op: str) -> None:
        dst, src = instr.operands
        for lane in range(4):
            a = self._read_xmm_lane(dst, lane)
            if isinstance(src, Reg) and src.is_vector:
                b_val = self._read_xmm_lane(src, lane)
            elif isinstance(src, Mem):
                addr, stack = self.mem_addr(src)
                lane_addr = addr if lane == 0 else \
                    self.b.add(addr, const(lane * 4))
                b_val = self.b.load(lane_addr, 4,
                                    tags=self._mem_tags(stack))
            else:
                raise TranslationError(f"bad SIMD operand {src!r}")
            result = self.b.binop(op, a, b_val)
            self._write_xmm_lane(dst, lane, result)

    def tr_paddd(self, instr: Instruction) -> None:
        """paddd: 4 x i32 lane add."""
        self._vec_binop(instr, "add")

    def tr_psubd(self, instr: Instruction) -> None:
        """psubd: 4 x i32 lane subtract."""
        self._vec_binop(instr, "sub")

    def tr_pmulld(self, instr: Instruction) -> None:
        """pmulld: 4 x i32 lane multiply."""
        self._vec_binop(instr, "mul")

    def tr_pxor(self, instr: Instruction) -> None:
        """pxor: 128-bit xor."""
        self._vec_binop(instr, "xor")

    def tr_pextrd(self, instr: Instruction) -> None:
        """pextrd: extract one i32 lane."""
        dst, src, lane = instr.operands
        value = self._read_xmm_lane(src, lane.value & 3)
        self.write_reg(dst.name, self.b.zext(value, I64))

    def tr_pinsrd(self, instr: Instruction) -> None:
        """pinsrd: insert one i32 lane."""
        dst, src, lane = instr.operands
        value = self.read_operand(src, 4)
        narrow = self.b.trunc(value, I32)
        self._write_xmm_lane(dst, lane.value & 3, narrow)

    def tr_pbroadcastd(self, instr: Instruction) -> None:
        """pbroadcastd: splat one i32 across lanes."""
        dst, src = instr.operands
        value = self.read_operand(src, 4)
        narrow = self.b.trunc(value, I32)
        for lane in range(4):
            self._write_xmm_lane(dst, lane, narrow)

    # -- conditions for jcc terminators ------------------------------------------------------------
    # All three paths (fused compare, value test, generic flag
    # reconstruction) are driven by the ISA spec's per-jcc declarations
    # (cmp_pred / val_pred / cond_expr) — the same records the emulator
    # evaluates, so the two layers cannot drift.

    def _at_width(self, value: Value, width: int) -> Value:
        if width == 8:
            return value
        if isinstance(value, ConstantInt):
            return ConstantInt(value.value, type_for_width(width))
        return self.b.trunc(value, type_for_width(width))

    def _cond_ir(self, expr) -> Value:
        """Lower a spec condition expression over the flag globals.

        Leaves are flag reads (i1); inner nodes combine them at i8 so
        regpromote sees plain integer traffic, mirroring the shapes the
        old hand-written reconstruction produced.
        """
        b = self.b
        if isinstance(expr, str):
            return self.read_flag(expr)
        op = expr[0]
        if op == "not":
            inner = self._cond_ir(expr[1])
            return b.icmp("eq", b.zext(inner, I8), const(0, 8))
        lhs = b.zext(self._cond_ir(expr[1]), I8)
        rhs = b.zext(self._cond_ir(expr[2]), I8)
        if op in ("eq", "ne"):
            return b.icmp(op, lhs, rhs)
        if op in ("and", "or"):
            return b.icmp("ne", b.binop(op, lhs, rhs), const(0, 8))
        raise TranslationError(f"bad condition expression {expr!r}")

    def condition(self, mnemonic: str) -> Value:
        """The i1 for a jCC mnemonic (fused-compare fast path aware)."""
        b = self.b
        spec = SPEC.get(mnemonic)
        if spec is None or spec.cond_expr is None:
            raise TranslationError(f"bad condition {mnemonic}")
        last = self._last_flags if self.lazy_flags else None
        if last is not None:
            if last[0] == "cmp" and spec.cmp_pred is not None:
                _tag, lhs, rhs, width = last
                return b.icmp(spec.cmp_pred,
                              self._at_width(lhs, width),
                              self._at_width(rhs, width))
            if last[0] == "val" and spec.val_pred is not None:
                _tag, result, width = last
                narrow = self._at_width(result, width)
                return b.icmp(spec.val_pred, narrow,
                              ConstantInt(0, type_for_width(width)))
            if last[0] == "bit":
                if mnemonic == "je":
                    return last[1]
                if mnemonic == "jne":
                    return b.icmp("eq", b.zext(last[1], I8), const(0, 8))
        return self._cond_ir(spec.cond_expr)
