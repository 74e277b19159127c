"""Auto-vectorisation of simple MiniC loops (O3 only).

Recognises two shapes over ``int32`` arrays with a unit-stride
induction variable:

* elementwise:  ``for (i = s; i < n; i += 1) d[i] = a[i] OP b[i];``
  with OP in ``+ - * ^``;
* reduction:    ``for (i = s; i < n; i += 1) acc += a[i];`` or
  ``acc += a[i] * b[i];``

and emits a 4-lane SIMD main loop plus a scalar tail.  The lifted IR
must later scalarise these packed instructions lane by lane (QEMU-
helper style), which is what produces the paper's large slowdown on
*linear_regression* (Table 2).
"""

from __future__ import annotations

from typing import Optional

from ..isa import Imm, Label, Mem, Reg, ins
from .ast import (Assign, Binary, Call, Expr, ExprStmt, ForStmt, Ident, Index,
                  IntLit)

_VECTOR_OPS = {"+": "paddd", "-": "psubd", "*": "pmulld", "^": "pxor"}


def _contains_call(expr) -> bool:
    if expr is None:
        return False
    if isinstance(expr, Call):
        return True
    for attr in ("operand", "left", "right", "target", "value", "base",
                 "index", "cond", "if_true", "if_false"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr) and _contains_call(child):
            return True
    return False


def _induction_var(cg, stmt: ForStmt) -> Optional[str]:
    """Return the loop-variable key ('local:name') if the loop has the
    canonical ``for (i = ...; i < bound; i += 1)`` shape with ``i`` in a
    register."""
    # step must be i += 1 (or i = i + 1, which the parser desugars).
    step = stmt.step
    if not (isinstance(step, Assign) and isinstance(step.target, Ident)
            and step.target.binding and step.target.binding[0] == "local"):
        return None
    if step.op == "+=" and isinstance(step.value, IntLit) \
            and step.value.value == 1:
        pass
    elif step.op == "=" and isinstance(step.value, Binary) \
            and step.value.op == "+" \
            and isinstance(step.value.left, Ident) \
            and step.value.left.binding == step.target.binding \
            and isinstance(step.value.right, IntLit) \
            and step.value.right.value == 1:
        pass
    else:
        return None
    name = step.target.binding[1]
    key = f"local:{name}"
    if key not in cg.reg_locals:
        return None
    cond = stmt.cond
    if not (isinstance(cond, Binary) and cond.op == "<"
            and isinstance(cond.left, Ident)
            and cond.left.binding == step.target.binding):
        return None
    if _contains_call(cond.right):
        return None
    return name


def _array_operand(cg, expr: Expr, ivar_name: str,
                   index_reg: Reg) -> Optional[Mem]:
    """Memory operand for ``arr[i]`` when arr is a global int32 array or
    an int32* in a register home."""
    if not isinstance(expr, Index):
        return None
    if not (isinstance(expr.index, Ident) and expr.index.binding
            and expr.index.binding[0] == "local"
            and expr.index.binding[1] == ivar_name):
        return None
    base = expr.base
    if not isinstance(base, Ident) or base.type is None \
            or not base.type.is_pointer or base.type.element().size != 4:
        return None
    binding = base.binding
    if binding[0] == "global":
        decl = cg.sema.globals[binding[1]]
        if decl.array_size is None:
            return None
        return Mem(index=index_reg, scale=4,
                   disp=cg.global_addrs[binding[1]])
    if binding[0] in ("local", "param"):
        home = cg._ident_home(base)
        if isinstance(home, Reg):
            return Mem(base=home, index=index_reg, scale=4)
    return None


def try_vectorize_for(cg, stmt: ForStmt) -> bool:
    """Attempt to emit a vectorised loop; returns False to fall back."""
    if len(stmt.body.body) != 1 or not isinstance(stmt.body.body[0],
                                                  ExprStmt):
        return False
    body_expr = stmt.body.body[0].expr
    if _contains_call(body_expr):
        return False
    ivar = _induction_var(cg, stmt)
    if ivar is None:
        return False
    i_reg = cg.reg_locals[f"local:{ivar}"]

    plan = _match_elementwise(cg, body_expr, ivar, i_reg) \
        or _match_reduction(cg, body_expr, ivar, i_reg)
    if plan is None:
        return False
    kind = plan[0]

    asm = cg.asm
    # Loop setup: run the init statement normally, evaluate the bound
    # once into a scratch register that stays live for the whole loop.
    if stmt.init is not None:
        cg.gen_stmt(stmt.init)
    bound_reg = cg.acquire()
    cg.gen_expr(stmt.cond.right, bound_reg)

    vec_head = cg.new_label("vec")
    tail_head = cg.new_label("vtail")
    tail_loop = cg.new_label("vtloop")
    end = cg.new_label("vend")
    limit_reg = cg.acquire()

    if kind == "reduction":
        asm.emit(ins("pxor", Reg("xmm0"), Reg("xmm0"), width=16))

    asm.label(vec_head)
    asm.emit(ins("mov", limit_reg, i_reg))
    asm.emit(ins("add", limit_reg, Imm(4)))
    asm.emit(ins("cmp", limit_reg, bound_reg))
    asm.emit(ins("jg", Label(tail_head)))

    if kind == "elementwise":
        _, dst_mem, a_mem, b_mem, vop = plan
        asm.emit(ins("movdq", Reg("xmm1"), a_mem, width=16))
        asm.emit(ins("movdq", Reg("xmm2"), b_mem, width=16))
        asm.emit(ins(vop, Reg("xmm1"), Reg("xmm2"), width=16))
        asm.emit(ins("movdq", dst_mem, Reg("xmm1"), width=16))
    else:
        _, acc_home, a_mem, b_mem = plan
        asm.emit(ins("movdq", Reg("xmm1"), a_mem, width=16))
        if b_mem is not None:
            asm.emit(ins("movdq", Reg("xmm2"), b_mem, width=16))
            asm.emit(ins("pmulld", Reg("xmm1"), Reg("xmm2"), width=16))
        asm.emit(ins("paddd", Reg("xmm0"), Reg("xmm1"), width=16))

    asm.emit(ins("add", i_reg, Imm(4)))
    asm.emit(ins("jmp", Label(vec_head)))

    asm.label(tail_head)
    if kind == "reduction":
        _, acc_home, a_mem, b_mem = plan
        # Horizontal sum of the 4 lanes (sign-extended) into the scalar
        # accumulator.
        lane_reg = limit_reg
        for lane in range(4):
            asm.emit(ins("pextrd", lane_reg, Reg("xmm0"), Imm(lane)))
            asm.emit(ins("movsx", lane_reg, lane_reg, width=4))
            if isinstance(acc_home, Reg):
                asm.emit(ins("add", acc_home, lane_reg))
            else:
                asm.emit(ins("add", acc_home, lane_reg))

    # Scalar tail loop for the remaining 0-3 iterations.
    asm.label(tail_loop)
    asm.emit(ins("cmp", i_reg, bound_reg))
    asm.emit(ins("jge", Label(end)))
    cg.gen_expr_discard(body_expr)
    asm.emit(ins("add", i_reg, Imm(1)))
    asm.emit(ins("jmp", Label(tail_loop)))
    asm.label(end)
    cg.release(limit_reg)
    cg.release(bound_reg)
    return True


def _match_elementwise(cg, expr, ivar: str, i_reg: Reg):
    if not (isinstance(expr, Assign) and expr.op == "="
            and isinstance(expr.target, Index)
            and isinstance(expr.value, Binary)
            and expr.value.op in _VECTOR_OPS):
        return None
    dst = _array_operand(cg, expr.target, ivar, i_reg)
    a = _array_operand(cg, expr.value.left, ivar, i_reg)
    b = _array_operand(cg, expr.value.right, ivar, i_reg)
    if dst is None or a is None or b is None:
        return None
    return ("elementwise", dst, a, b, _VECTOR_OPS[expr.value.op])


def _match_reduction(cg, expr, ivar: str, i_reg: Reg):
    if not (isinstance(expr, Assign) and expr.op == "+="
            and isinstance(expr.target, Ident)
            and expr.target.binding
            and expr.target.binding[0] in ("local", "param")):
        return None
    acc_home = cg._ident_home(expr.target)
    if not isinstance(acc_home, Reg):
        return None
    value = expr.value
    if isinstance(value, Index):
        a = _array_operand(cg, value, ivar, i_reg)
        if a is None:
            return None
        return ("reduction", acc_home, a, None)
    if isinstance(value, Binary) and value.op == "*":
        a = _array_operand(cg, value.left, ivar, i_reg)
        b = _array_operand(cg, value.right, ivar, i_reg)
        if a is None or b is None:
            return None
        return ("reduction", acc_home, a, b)
    return None
