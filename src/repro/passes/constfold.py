"""Constant folding and instruction simplification.

Folds binops/icmps/casts/selects over constants, applies algebraic
identities, folds constant conditional branches to unconditional ones,
and collapses single-value phis.  Width semantics match the VX machine:
results are truncated to the type width and kept in signed canonical
form.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir import (BinOp, Br, Cast, CondBr, ConstantInt, Function, ICmp,
                  Instruction, Module, Phi, Select, Switch, Value, replace_uses,
                  resolve_operands)
from ..intmath import trunc_divmod
from .manager import Pass


def _unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def _signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if bits > 1 and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def eval_binop(op: str, a: int, b: int, bits: int) -> Optional[int]:
    """Evaluate a binop over signed-canonical constants; None if undefined."""
    ua, ub = _unsigned(a, bits), _unsigned(b, bits)
    if op == "add":
        return _signed(ua + ub, bits)
    if op == "sub":
        return _signed(ua - ub, bits)
    if op == "mul":
        return _signed(ua * ub, bits)
    if op in ("sdiv", "srem"):
        if b == 0:
            return None
        quot, rem = trunc_divmod(a, b)
        return _signed(quot if op == "sdiv" else rem, bits)
    if op == "and":
        return _signed(ua & ub, bits)
    if op == "or":
        return _signed(ua | ub, bits)
    if op == "xor":
        return _signed(ua ^ ub, bits)
    if op == "shl":
        return _signed(ua << (ub & 63), bits)
    if op == "lshr":
        return _signed(ua >> (ub & 63), bits)
    if op == "ashr":
        return _signed(a >> (ub & 63), bits)
    raise ValueError(op)


def eval_icmp(pred: str, a: int, b: int, bits: int) -> bool:
    """Evaluate a comparison over signed-canonical constants."""
    ua, ub = _unsigned(a, bits), _unsigned(b, bits)
    sa, sb = _signed(a, bits), _signed(b, bits)
    return {
        "eq": ua == ub, "ne": ua != ub,
        "slt": sa < sb, "sle": sa <= sb, "sgt": sa > sb, "sge": sa >= sb,
        "ult": ua < ub, "ule": ua <= ub, "ugt": ua > ub, "uge": ua >= ub,
    }[pred]


class ConstFold(Pass):
    """Constant folding, algebraic identities and offset reassociation."""
    name = "constfold"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Iterate folding over the function until a fixpoint.

        A sweep records each fold in ``replaced`` instead of rewriting
        the function's uses at once.  Every operand is resolved through
        the map just before a decision reads it, so each fold sees the
        operands an eager rewrite would have left; the map is applied
        to the whole function once at the end of the sweep.
        """
        changed = False
        again = True
        while again:
            again = False
            replaced: Dict[Value, Value] = {}
            for block in fn.blocks:
                kept: List[Instruction] = []
                for instr in block.instructions:
                    # Resolving the terminator here also readies it for
                    # the CondBr/Switch checks below.
                    if replaced:
                        resolve_operands(instr, replaced)
                    replacement = self._simplify(instr, replaced)
                    if replacement is not None and replacement is not instr:
                        if isinstance(replacement, Instruction) and \
                                replacement.parent is None:
                            # A rewritten instruction takes the old
                            # one's position in the block.
                            replacement.parent = block
                            kept.append(replacement)
                        replaced[instr] = replacement
                        instr.parent = None
                        changed = True
                        again = True
                    else:
                        kept.append(instr)
                block.instructions[:] = kept
                term = block.terminator
                if isinstance(term, CondBr) and \
                        isinstance(term.cond, ConstantInt):
                    target = term.if_true if term.cond.value else term.if_false
                    dropped = term.if_false if term.cond.value else term.if_true
                    block.remove(term)
                    block.append(Br(target))
                    if dropped is not target:
                        for phi in dropped.phis():
                            phi.remove_incoming(block)
                    changed = True
                    again = True
                elif isinstance(term, CondBr) and term.if_true is term.if_false:
                    target = term.if_true
                    block.remove(term)
                    block.append(Br(target))
                    changed = True
                    again = True
                elif isinstance(term, Switch) and \
                        isinstance(term.value, ConstantInt):
                    target = term.default
                    for case_value, case_block in term.cases:
                        if case_value == term.value.value:
                            target = case_block
                            break
                    for succ in set(term.successors()):
                        if succ is not target:
                            for phi in succ.phis():
                                phi.remove_incoming(block)
                    block.remove(term)
                    block.append(Br(target))
                    changed = True
                    again = True
            replace_uses(fn, replaced)
        return changed

    def _simplify(self, instr: Instruction, replaced: Dict[Value, Value]):
        if isinstance(instr, BinOp):
            a, b = instr.operands
            bits = instr.type.bits
            if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
                value = eval_binop(instr.op, a.value, b.value, bits)
                if value is not None:
                    return ConstantInt(value, instr.type)
                return None
            if isinstance(b, ConstantInt):
                if b.value == 0 and instr.op in ("add", "sub", "or", "xor",
                                                 "shl", "lshr", "ashr"):
                    return a
                if b.value == 1 and instr.op in ("mul", "sdiv"):
                    return a
                if b.value == 0 and instr.op in ("mul", "and"):
                    return ConstantInt(0, instr.type)
            if isinstance(a, ConstantInt):
                if a.value == 0 and instr.op in ("add", "or", "xor"):
                    return b
                if a.value == 0 and instr.op in ("mul", "and", "shl",
                                                 "lshr", "ashr"):
                    return ConstantInt(0, instr.type)
                if a.value == 1 and instr.op == "mul":
                    return b
            if a is b:
                if instr.op in ("sub", "xor"):
                    return ConstantInt(0, instr.type)
                if instr.op in ("and", "or"):
                    return a
            # Canonicalise offset arithmetic: sub x, c -> add x, -c and
            # reassociate add(add(x, c1), c2) -> add(x, c1+c2).  This is
            # what lets balanced push/pop chains ((rsp - 8) + 8) fold to
            # rsp, collapse the loop's stack-pointer phi, and expose
            # loop-invariant frame-slot addresses to scalar promotion.
            if instr.op == "sub" and isinstance(b, ConstantInt):
                return BinOp("add", a,
                             ConstantInt(-b.value, instr.type),
                             name=instr.name)
            if instr.op == "add" and isinstance(b, ConstantInt) and \
                    isinstance(a, BinOp) and a.op == "add":
                if replaced:
                    resolve_operands(a, replaced)
                if not isinstance(a.operands[1], ConstantInt):
                    return None
                combined = eval_binop("add", a.operands[1].value, b.value,
                                      instr.type.bits)
                return BinOp("add", a.operands[0],
                             ConstantInt(combined, instr.type),
                             name=instr.name)
            return None
        if isinstance(instr, ICmp):
            a, b = instr.operands
            if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
                bits = a.type.bits
                return ConstantInt(
                    int(eval_icmp(instr.pred, a.value, b.value, bits)),
                    instr.type)
            if a is b:
                truth = instr.pred in ("eq", "sle", "sge", "ule", "uge")
                return ConstantInt(int(truth), instr.type)
            return None
        if isinstance(instr, Cast):
            value = instr.operands[0]
            if isinstance(value, ConstantInt):
                from_bits = value.type.bits
                to_bits = instr.type.bits
                raw = _unsigned(value.value, from_bits)
                if instr.kind == "zext":
                    return ConstantInt(raw, instr.type)
                if instr.kind == "sext":
                    return ConstantInt(_signed(value.value, from_bits),
                                       instr.type)
                if instr.kind == "trunc":
                    return ConstantInt(_signed(raw, to_bits), instr.type)
            if value.type.bits == instr.type.bits:
                return value
            return None
        if isinstance(instr, Select):
            cond, a, b = instr.operands
            if isinstance(cond, ConstantInt):
                return a if cond.value else b
            if a is b:
                return a
            return None
        if isinstance(instr, Phi):
            values = [v for v in instr.operands]
            distinct = [v for v in values if v is not instr]
            if distinct and all(v is distinct[0] for v in distinct):
                return distinct[0]
            return None
        return None
