"""Structural verifier for Poly IR.

Checks the invariants passes rely on: every block ends in exactly one
terminator, phis match predecessor edges, operands are defined before
use (via dominance), and operand types are coherent.  Run in tests and
after each pass when ``PassManager(verify=True)``.
"""

from __future__ import annotations

from typing import Dict, Set

from .analysis import dominates, dominators, predecessors, reachable_blocks
from .function import Block, Function, Module
from .instructions import Instruction, Phi
from .values import Argument, ConstantInt, GlobalVar, Value


class VerificationError(Exception):
    """Raised when IR structural invariants are violated."""
    pass


def verify_function(fn: Function, module: Module = None) -> None:
    """Check SSA dominance, phi shape, terminators and operand links."""
    if not fn.blocks:
        raise VerificationError(f"@{fn.name}: no blocks")
    block_set = set(fn.blocks)
    defined: Dict[Value, Block] = {}
    for block in fn.blocks:
        if block.parent is not fn:
            raise VerificationError(
                f"@{fn.name}/{block.name}: wrong parent")
        term = block.terminator
        if term is None:
            raise VerificationError(
                f"@{fn.name}/{block.name}: missing terminator")
        for i, instr in enumerate(block.instructions):
            if instr.is_terminator and i != len(block.instructions) - 1:
                raise VerificationError(
                    f"@{fn.name}/{block.name}: terminator mid-block")
            if isinstance(instr, Phi) and i >= block.non_phi_index():
                raise VerificationError(
                    f"@{fn.name}/{block.name}: phi after non-phi")
            if instr in defined:
                raise VerificationError(
                    f"@{fn.name}: instruction %{instr.name} appears twice")
            defined[instr] = block
        for succ in block.successors():
            if succ not in block_set:
                raise VerificationError(
                    f"@{fn.name}/{block.name}: successor {succ.name} "
                    f"not in function")

    reachable = reachable_blocks(fn)
    preds = predecessors(fn)
    idom = dominators(fn)

    for block in fn.blocks:
        if block not in reachable:
            continue
        for phi in block.phis():
            incoming_preds = set(phi.incoming_blocks)
            actual_preds = set(preds[block])
            if incoming_preds != actual_preds:
                raise VerificationError(
                    f"@{fn.name}/{block.name}: phi %{phi.name} incoming "
                    f"{sorted(b.name for b in incoming_preds)} != preds "
                    f"{sorted(b.name for b in actual_preds)}")
        for instr in block.instructions:
            for op_index, op in enumerate(instr.operands):
                _check_operand(fn, block, instr, op_index, op, defined,
                               reachable, idom)


def _check_operand(fn, block, instr, op_index, op, defined, reachable,
                   idom) -> None:
    if isinstance(op, (ConstantInt, GlobalVar)):
        return
    if isinstance(op, Argument):
        if op not in fn.params:
            raise VerificationError(
                f"@{fn.name}: foreign argument %{op.name}")
        return
    if isinstance(op, Function):
        return
    if isinstance(op, Instruction):
        def_block = defined.get(op)
        if def_block is None:
            raise VerificationError(
                f"@{fn.name}/{block.name}: use of undefined value "
                f"%{op.name} in %{instr.name}")
        if isinstance(instr, Phi):
            pred = instr.incoming_blocks[op_index]
            if pred in reachable and def_block in reachable and \
                    not dominates(def_block, pred, idom):
                raise VerificationError(
                    f"@{fn.name}/{block.name}: phi %{instr.name} incoming "
                    f"%{op.name} does not dominate edge from {pred.name}")
            return
        if def_block is block:
            if block.instructions.index(op) >= block.instructions.index(instr):
                raise VerificationError(
                    f"@{fn.name}/{block.name}: %{op.name} used before "
                    f"definition by %{instr.name}")
        elif block in reachable and def_block in reachable and \
                not dominates(def_block, block, idom):
            raise VerificationError(
                f"@{fn.name}/{block.name}: %{op.name} (defined in "
                f"{def_block.name}) does not dominate use in %{instr.name}")
        return
    raise VerificationError(
        f"@{fn.name}/{block.name}: bad operand {op!r} in %{instr.name}")


def verify_module(module: Module) -> None:
    """Run verify_function over every function in the module."""
    names: Set[str] = set()
    for fn in module.functions:
        if fn.name in names:
            raise VerificationError(f"duplicate function @{fn.name}")
        names.add(fn.name)
        verify_function(fn, module)
