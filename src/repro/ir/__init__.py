"""Poly IR: an SSA intermediate representation for lifted machine code.

Modelled after the subset of LLVM IR that binary recompilers target:
integer-only types, untyped i64 addresses, explicit access widths,
atomic orderings on loads/stores/RMWs, and acquire/release fences whose
only effect is to constrain IR-level reordering (they lower to nothing
on a TSO target, matching §3.3.4 of the paper).
"""

from .analysis import (Loop, back_edge_loops, dominance_frontiers,
                       dominates, dominators, natural_loops, predecessors,
                       reachable_blocks, replace_all_uses, replace_uses,
                       resolve, resolve_operands, reverse_postorder,
                       users_map)
from .builder import IRBuilder
from .function import Block, Function, Module
from .instructions import (Alloca, AtomicRMW, BINOPS, BinOp, Br, Call, Cast,
                           Cmpxchg, CompilerBarrier, CondBr, Fence, ICmp,
                           ICMP_PREDS, Instruction, Load, Phi, Ret, RMW_OPS,
                           Select, Store, Switch, Unreachable)
from .printer import format_block, format_function, format_instr, format_module
from .types import I1, I8, I16, I32, I64, I128, IntType, VOID, VoidType, \
    int_type, type_for_width
from .values import Argument, ConstantInt, GlobalVar, Value, const
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "Loop", "back_edge_loops", "dominance_frontiers", "dominates", "dominators",
    "natural_loops", "predecessors", "reachable_blocks", "replace_all_uses",
    "replace_uses", "resolve", "resolve_operands", "reverse_postorder",
    "users_map",
    "IRBuilder", "Block", "Function", "Module",
    "Alloca", "AtomicRMW", "BINOPS", "BinOp", "Br", "Call", "Cast",
    "Cmpxchg", "CompilerBarrier", "CondBr", "Fence", "ICmp", "ICMP_PREDS",
    "Instruction", "Load", "Phi", "Ret", "RMW_OPS", "Select", "Store",
    "Switch", "Unreachable",
    "format_block", "format_function", "format_instr", "format_module",
    "I1", "I8", "I16", "I32", "I64", "I128", "IntType", "VOID", "VoidType",
    "int_type", "type_for_width",
    "Argument", "ConstantInt", "GlobalVar", "Value", "const",
    "VerificationError", "verify_function", "verify_module",
]
