"""MiniC optimising backend (O2/O3).

Differences from the O0 stack machine, mirroring what ``gcc -O3`` does
to small C programs:

* hot scalar locals live in callee-saved registers (rbx, r12–r15);
* expressions evaluate through a scratch-register stack, not push/pop;
* comparisons branch on flags directly instead of materialising 0/1;
* constant subtrees are folded at generation time;
* array indexing uses scaled addressing modes;
* dense ``switch`` statements compile to jump tables — the indirect
  jumps whose targets static CFG recovery must then rediscover;
* simple elementwise and reduction loops over ``int32`` arrays are
  auto-vectorised to 4-lane SIMD — the code the lifter later has to
  scalarise, reproducing the paper's *linear_regression* slowdown.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..intmath import trunc_divmod
from ..isa import ARG_REGS, Imm, Label, Mem, Reg, ins
from .ast import (Assign, Binary, BlockStmt, BreakStmt, Call, CastExpr,
                  ContinueStmt, Decl, Expr, ExprStmt, ForStmt, FuncDef,
                  Ident, IfStmt, Index, IntLit, ReturnStmt, SizeofExpr,
                  StrLit, SwitchStmt, Ternary, Type, Unary, WhileStmt)
from .codegen import (CodegenBase, CodegenError, _ARITH_OPS, _CMP_INVERSE,
                      _CMP_JCC)
from .sema import SemaResult

CALLEE_SAVED_POOL = ("rbx", "r12", "r13", "r14", "r15")
SCRATCH_POOL = ("rax", "r10", "r11", "rcx", "rdx", "rsi", "rdi", "r8", "r9")


class CodegenO3(CodegenBase):
    """The gcc -O3 stand-in: register locals, scratch-pool expressions, jump tables, auto-vectorisation."""
    def __init__(self, sema: SemaResult, vectorize: bool = True) -> None:
        super().__init__(sema, opt_level=3)
        self.vectorize = vectorize
        self.current: Optional[FuncDef] = None
        self.reg_locals: Dict[str, Reg] = {}       # local/param -> register
        self.slot_offsets: Dict[str, int] = {}     # stack-resident locals
        self.frame_size = 0
        self.used_callee_saved: List[Reg] = []
        self.break_labels: List[str] = []
        self.continue_labels: List[str] = []
        self.epilogue_label = ""
        self._scratch_free: List[str] = []
        self._scratch_live: List[str] = []
        self._pending_tables: List[Tuple[str, List[str]]] = []

    def run(self):
        """Generate the whole program and return its VXE image."""
        for func in self.sema.program.functions:
            self.gen_function(func)
        return self.finish()

    # -- register bookkeeping -------------------------------------------------

    def acquire(self) -> Reg:
        """Take a scratch register from the expression pool."""
        if not self._scratch_free:
            raise CodegenError(
                f"{self.current.name}: expression too deep for scratch pool")
        name = self._scratch_free.pop(0)
        self._scratch_live.append(name)
        return Reg(name)

    def release(self, reg: Reg) -> None:
        """Return a scratch register to the expression pool."""
        self._scratch_live.remove(reg.name)
        self._scratch_free.insert(0, reg.name)

    # -- functions ----------------------------------------------------------------

    def _count_uses(self, func: FuncDef) -> Dict[str, int]:
        counts: Dict[str, int] = {}

        def walk_expr(expr, weight):
            if expr is None:
                return
            if isinstance(expr, Ident) and expr.binding:
                kind, key = expr.binding[0], expr.binding
                if kind in ("local", "param"):
                    counts[str(key)] = counts.get(str(key), 0) + weight
            for attr in ("operand", "left", "right", "target", "value",
                         "callee", "base", "index", "cond", "if_true",
                         "if_false"):
                child = getattr(expr, attr, None)
                if isinstance(child, Expr):
                    walk_expr(child, weight)
            for arg in getattr(expr, "args", []) or []:
                walk_expr(arg, weight)

        def walk_stmt(stmt, weight):
            if isinstance(stmt, BlockStmt):
                for child in stmt.body:
                    walk_stmt(child, weight)
            elif isinstance(stmt, Decl):
                walk_expr(stmt.init, weight)
            elif isinstance(stmt, ExprStmt):
                walk_expr(stmt.expr, weight)
            elif isinstance(stmt, IfStmt):
                walk_expr(stmt.cond, weight)
                walk_stmt(stmt.then, weight)
                if stmt.otherwise:
                    walk_stmt(stmt.otherwise, weight)
            elif isinstance(stmt, WhileStmt):
                walk_expr(stmt.cond, weight * 8)
                walk_stmt(stmt.body, weight * 8)
            elif isinstance(stmt, ForStmt):
                if stmt.init:
                    walk_stmt(stmt.init, weight)
                walk_expr(stmt.cond, weight * 8)
                walk_expr(stmt.step, weight * 8)
                walk_stmt(stmt.body, weight * 8)
            elif isinstance(stmt, SwitchStmt):
                walk_expr(stmt.value, weight)
                for _, body in stmt.cases:
                    walk_stmt(body, weight)
                if stmt.default:
                    walk_stmt(stmt.default, weight)
            elif isinstance(stmt, ReturnStmt):
                walk_expr(stmt.value, weight)

        walk_stmt(func.body, 1)
        return counts

    def gen_function(self, func: FuncDef) -> None:
        """Emit one function with callee-saved register-allocated locals."""
        if len(func.params) > len(ARG_REGS):
            raise CodegenError(
                f"{func.name}: {len(func.params)} parameters "
                f"(max {len(ARG_REGS)})")
        self.current = func
        info = self.sema.functions[func.name]
        counts = self._count_uses(func)
        self.reg_locals = {}
        self.slot_offsets = {}
        self.used_callee_saved = []
        self._scratch_free = list(SCRATCH_POOL)
        self._scratch_live = []

        # Assign the hottest non-address-taken scalars to callee-saved regs.
        candidates: List[Tuple[int, str, str]] = []
        for name, var in info.locals.items():
            if var.address_taken or var.array_size is not None:
                continue
            if not var.type.is_pointer and var.type.size < 8:
                # Narrow types need their memory round-trip to get
                # wraparound/sign semantics; keep them in the frame.
                continue
            key = str(("local", name))
            candidates.append((counts.get(key, 0), "local", name))
        for index, (ptype, pname) in enumerate(func.params):
            key = str(("param", index))
            candidates.append((counts.get(key, 1), "param", str(index)))
        candidates.sort(reverse=True)
        pool = list(CALLEE_SAVED_POOL)
        for _count, kind, name in candidates:
            if not pool:
                break
            reg = Reg(pool.pop(0))
            self.reg_locals[f"{kind}:{name}"] = reg
            self.used_callee_saved.append(reg)

        # Remaining locals get stack slots.
        offset = 0
        for name, var in info.locals.items():
            if f"local:{name}" in self.reg_locals:
                continue
            offset += (var.storage_size + 7) & ~7
            self.slot_offsets[f"local:{name}"] = -offset
        for index in range(len(func.params)):
            if f"param:{index}" in self.reg_locals:
                continue
            offset += 8
            self.slot_offsets[f"param:{index}"] = -offset
        self.frame_size = (offset + 15) & ~15
        self.epilogue_label = self.new_label(f"epi_{func.name}")

        asm = self.asm
        asm.align(8)
        asm.label(f"fn_{func.name}")
        for reg in self.used_callee_saved:
            asm.emit(ins("push", reg))
        if self.frame_size:
            asm.emit(ins("push", Reg("rbp")))
            asm.emit(ins("mov", Reg("rbp"), Reg("rsp")))
            asm.emit(ins("sub", Reg("rsp"), Imm(self.frame_size)))
        for index in range(len(func.params)):
            home = self._home(f"param:{index}")
            if isinstance(home, Reg):
                asm.emit(ins("mov", home, ARG_REGS[index]))
            else:
                asm.emit(ins("mov", home, ARG_REGS[index]))
        self.gen_block(func.body)
        asm.emit(ins("mov", Reg("rax"), Imm(0)))
        asm.label(self.epilogue_label)
        if self.frame_size:
            asm.emit(ins("mov", Reg("rsp"), Reg("rbp")))
            asm.emit(ins("pop", Reg("rbp")))
        for reg in reversed(self.used_callee_saved):
            asm.emit(ins("pop", reg))
        asm.emit(ins("ret"))
        # Jump tables are placed after the function body.
        for table_label, case_labels in self._pending_tables:
            asm.align(8)
            asm.label(table_label)
            for case_label in case_labels:
                asm.label_ref(case_label)
        self._pending_tables = []

    def _home(self, key: str):
        """Register or memory operand where a local/param lives."""
        reg = self.reg_locals.get(key)
        if reg is not None:
            return reg
        return Mem(base=Reg("rbp"), disp=self.slot_offsets[key])

    def _ident_home(self, expr: Ident):
        kind = expr.binding[0]
        if kind == "local":
            return self._home(f"local:{expr.binding[1]}")
        if kind == "param":
            return self._home(f"param:{expr.binding[1]}")
        return None

    # -- statements ------------------------------------------------------------------

    def gen_block(self, block: BlockStmt) -> None:
        """Emit a braced block, opening and closing its scope."""
        for stmt in block.body:
            self.gen_stmt(stmt)

    def gen_stmt(self, stmt) -> None:
        """Emit one statement (vectorising eligible for-loops first)."""
        asm = self.asm
        if isinstance(stmt, BlockStmt):
            self.gen_block(stmt)
        elif isinstance(stmt, Decl):
            if stmt.init is not None:
                info = self.sema.functions[self.current.name]
                var = info.locals[stmt.name]
                home = self._home(f"local:{stmt.name}") \
                    if var.array_size is None else None
                if home is None:
                    raise CodegenError("array initialiser not supported")
                value = self._const_eval(stmt.init)
                if value is not None and isinstance(home, Reg):
                    asm.emit(ins("mov", home, Imm(value)))
                elif isinstance(home, Reg):
                    self.gen_expr(stmt.init, home)
                else:
                    tmp = self.acquire()
                    self.gen_expr(stmt.init, tmp)
                    asm.emit(ins("mov", home, tmp,
                                 width=8 if var.type.is_pointer
                                 else var.type.size))
                    self.release(tmp)
        elif isinstance(stmt, ExprStmt):
            self.gen_expr_discard(stmt.expr)
        elif isinstance(stmt, IfStmt):
            else_label = self.new_label("else")
            end_label = self.new_label("endif")
            self.gen_cond_branch(stmt.cond, false_label=else_label)
            self.gen_block(stmt.then)
            if stmt.otherwise is not None:
                asm.emit(ins("jmp", Label(end_label)))
                asm.label(else_label)
                self.gen_block(stmt.otherwise)
                asm.label(end_label)
            else:
                asm.label(else_label)
        elif isinstance(stmt, WhileStmt):
            head = self.new_label("while")
            end = self.new_label("wend")
            self.break_labels.append(end)
            self.continue_labels.append(head)
            asm.label(head)
            if stmt.is_do_while:
                self.gen_block(stmt.body)
                self.gen_cond_branch(stmt.cond, true_label=head)
            else:
                self.gen_cond_branch(stmt.cond, false_label=end)
                self.gen_block(stmt.body)
                asm.emit(ins("jmp", Label(head)))
            asm.label(end)
            self.break_labels.pop()
            self.continue_labels.pop()
        elif isinstance(stmt, ForStmt):
            if self.vectorize and self._try_vectorize(stmt):
                return
            head = self.new_label("for")
            step_label = self.new_label("fstep")
            end = self.new_label("fend")
            if stmt.init is not None:
                self.gen_stmt(stmt.init)
            asm.label(head)
            if stmt.cond is not None:
                self.gen_cond_branch(stmt.cond, false_label=end)
            self.break_labels.append(end)
            self.continue_labels.append(step_label)
            self.gen_block(stmt.body)
            asm.label(step_label)
            if stmt.step is not None:
                self.gen_expr_discard(stmt.step)
            asm.emit(ins("jmp", Label(head)))
            asm.label(end)
            self.break_labels.pop()
            self.continue_labels.pop()
        elif isinstance(stmt, SwitchStmt):
            self.gen_switch(stmt)
        elif isinstance(stmt, BreakStmt):
            asm.emit(ins("jmp", Label(self.break_labels[-1])))
        elif isinstance(stmt, ContinueStmt):
            asm.emit(ins("jmp", Label(self.continue_labels[-1])))
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                # rax is in the scratch pool; claim it explicitly.
                if "rax" in self._scratch_free:
                    self._scratch_free.remove("rax")
                    self._scratch_live.append("rax")
                    self.gen_expr(stmt.value, Reg("rax"))
                    self.release(Reg("rax"))
                else:
                    tmp = self.acquire()
                    self.gen_expr(stmt.value, tmp)
                    asm.emit(ins("mov", Reg("rax"), tmp))
                    self.release(tmp)
            else:
                asm.emit(ins("mov", Reg("rax"), Imm(0)))
            asm.emit(ins("jmp", Label(self.epilogue_label)))
        else:
            raise CodegenError(f"unsupported statement {stmt!r}")

    # -- switch ---------------------------------------------------------------------

    def gen_switch(self, stmt: SwitchStmt) -> None:
        """Emit a switch as a bounds-checked jump table when dense."""
        asm = self.asm
        end = self.new_label("swend")
        default_label = self.new_label("swdef")
        value_reg = self.acquire()
        self.gen_expr(stmt.value, value_reg)
        case_values = [v for v, _ in stmt.cases]
        dense = (len(stmt.cases) >= 4 and
                 max(case_values) - min(case_values) + 1
                 <= 3 * len(stmt.cases))
        case_labels = [self.new_label("case") for _ in stmt.cases]
        if dense:
            low, high = min(case_values), max(case_values)
            table_label = self.new_label("jt")
            span = high - low + 1
            slot_labels = [default_label] * span
            for (value, _), label in zip(stmt.cases, case_labels):
                slot_labels[value - low] = label
            if low:
                asm.emit(ins("sub", value_reg, Imm(low)))
            asm.emit(ins("cmp", value_reg, Imm(span)))
            asm.emit(ins("jae", Label(default_label)))
            # The classic jump-table idiom: an indirect jump through a
            # table of code pointers.
            asm.emit(ins("shl", value_reg, Imm(3)))
            table_reg = self.acquire()
            asm.emit(ins("mov", table_reg, Label(table_label)))
            asm.emit(ins("add", table_reg, value_reg))
            asm.emit(ins("jmp", Mem(base=table_reg)))
            self.release(table_reg)
            self._pending_tables.append((table_label, slot_labels))
        else:
            for (value, _), label in zip(stmt.cases, case_labels):
                asm.emit(ins("cmp", value_reg, Imm(value)))
                asm.emit(ins("je", Label(label)))
            asm.emit(ins("jmp", Label(default_label)))
        self.release(value_reg)
        self.break_labels.append(end)
        for (_, body), label in zip(stmt.cases, case_labels):
            asm.label(label)
            self.gen_block(body)
            asm.emit(ins("jmp", Label(end)))
        asm.label(default_label)
        if stmt.default is not None:
            self.gen_block(stmt.default)
        self.break_labels.pop()
        asm.label(end)

    # -- conditions --------------------------------------------------------------------

    def gen_cond_branch(self, cond: Expr,
                        true_label: Optional[str] = None,
                        false_label: Optional[str] = None) -> None:
        """Emit a condition directly as compare+branch, incl. &&/|| trees."""
        asm = self.asm
        if isinstance(cond, Binary) and cond.op in _CMP_JCC:
            left = self.acquire()
            self.gen_expr(cond.left, left)
            rhs_const = self._const_eval(cond.right)
            if rhs_const is not None and -(1 << 31) <= rhs_const < (1 << 31):
                asm.emit(ins("cmp", left, Imm(rhs_const)))
            else:
                right = self.acquire()
                self.gen_expr(cond.right, right)
                asm.emit(ins("cmp", left, right))
                self.release(right)
            self.release(left)
            if true_label is not None:
                asm.emit(ins(_CMP_JCC[cond.op], Label(true_label)))
            if false_label is not None:
                asm.emit(ins(_CMP_INVERSE[cond.op], Label(false_label)))
            return
        if isinstance(cond, Binary) and cond.op == "&&":
            if false_label is not None:
                self.gen_cond_branch(cond.left, false_label=false_label)
                self.gen_cond_branch(cond.right, true_label=true_label,
                                     false_label=false_label)
            else:
                skip = self.new_label("andskip")
                self.gen_cond_branch(cond.left, false_label=skip)
                self.gen_cond_branch(cond.right, true_label=true_label)
                asm.label(skip)
            return
        if isinstance(cond, Binary) and cond.op == "||":
            if true_label is not None:
                self.gen_cond_branch(cond.left, true_label=true_label)
                self.gen_cond_branch(cond.right, true_label=true_label,
                                     false_label=false_label)
            else:
                skip = self.new_label("orskip")
                self.gen_cond_branch(cond.left, true_label=skip)
                self.gen_cond_branch(cond.right, false_label=false_label)
                asm.label(skip)
            return
        if isinstance(cond, Unary) and cond.op == "!":
            self.gen_cond_branch(cond.operand, true_label=false_label,
                                 false_label=true_label)
            return
        tmp = self.acquire()
        self.gen_expr(cond, tmp)
        asm.emit(ins("test", tmp, tmp))
        self.release(tmp)
        if true_label is not None:
            asm.emit(ins("jne", Label(true_label)))
        if false_label is not None:
            asm.emit(ins("je", Label(false_label)))

    # -- expressions --------------------------------------------------------------------

    def _const_eval(self, expr: Expr) -> Optional[int]:
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, SizeofExpr):
            return expr.of.size
        if isinstance(expr, Unary) and expr.op in ("-", "~"):
            inner = self._const_eval(expr.operand)
            if inner is None:
                return None
            return -inner if expr.op == "-" else ~inner
        if isinstance(expr, Binary):
            left = self._const_eval(expr.left)
            right = self._const_eval(expr.right)
            if left is None or right is None:
                return None
            try:
                return {
                    "+": left + right, "-": left - right, "*": left * right,
                    "/": trunc_divmod(left, right)[0] if right else None,
                    "%": trunc_divmod(left, right)[1] if right else None,
                    "&": left & right, "|": left | right, "^": left ^ right,
                    "<<": left << right, ">>": left >> right,
                }[expr.op]
            except (KeyError, ZeroDivisionError, ValueError):
                return None
        return None

    def gen_expr_discard(self, expr: Expr) -> None:
        """Evaluate an expression only for its side effects."""
        if isinstance(expr, Assign):
            self.gen_assign(expr, want_value=False)
            return
        tmp = self.acquire()
        self.gen_expr(expr, tmp)
        self.release(tmp)

    def gen_expr(self, expr: Expr, dst: Reg) -> None:
        """Evaluate an expression into a specific destination register."""
        asm = self.asm
        value = self._const_eval(expr)
        if value is not None:
            asm.emit(ins("mov", dst, Imm(value)))
            return
        if isinstance(expr, StrLit):
            asm.emit(ins("mov", dst, Imm(self.string_addrs[expr.value])))
        elif isinstance(expr, Ident):
            self.gen_ident_load(expr, dst)
        elif isinstance(expr, Unary):
            self.gen_unary(expr, dst)
        elif isinstance(expr, Binary):
            self.gen_binary(expr, dst)
        elif isinstance(expr, Assign):
            self.gen_assign(expr, want_value=True, dst=dst)
        elif isinstance(expr, Call):
            self.gen_call(expr, dst)
        elif isinstance(expr, Index):
            mem = self.gen_index_operand(expr)
            self._load(dst, mem, expr.type)
            self._release_mem(mem)
        elif isinstance(expr, Ternary):
            else_label = self.new_label("telse")
            end_label = self.new_label("tend")
            self.gen_cond_branch(expr.cond, false_label=else_label)
            self.gen_expr(expr.if_true, dst)
            asm.emit(ins("jmp", Label(end_label)))
            asm.label(else_label)
            self.gen_expr(expr.if_false, dst)
            asm.label(end_label)
        elif isinstance(expr, CastExpr):
            self.gen_expr(expr.operand, dst)
            if not expr.to.is_pointer and expr.to.size < 8:
                if expr.to.size == 4:
                    asm.emit(ins("movsx", dst, dst, width=4))
                else:
                    asm.emit(ins("and", dst,
                                 Imm((1 << (8 * expr.to.size)) - 1)))
        else:
            raise CodegenError(f"unsupported expression {expr!r}")

    def _load(self, dst: Reg, src, type_: Optional[Type]) -> None:
        asm = self.asm
        if type_ is None or type_.is_pointer or type_.size == 8:
            asm.emit(ins("mov", dst, src))
        elif type_.kind == "int32":
            asm.emit(ins("movsx", dst, src, width=4))
        else:
            asm.emit(ins("mov", dst, src, width=type_.size))

    def gen_ident_load(self, expr: Ident, dst: Reg) -> None:
        """Load an identifier from its register home or memory."""
        asm = self.asm
        kind = expr.binding[0]
        if kind == "func":
            asm.emit(ins("mov", dst, Label(f"fn_{expr.binding[1]}")))
            return
        if kind in ("local", "param"):
            home = self._ident_home(expr)
            if isinstance(home, Reg):
                asm.emit(ins("mov", dst, home))
                return
            info = self.sema.functions[self.current.name]
            if kind == "local":
                var = info.locals[expr.binding[1]]
                if var.array_size is not None:
                    asm.emit(ins("lea", dst, home))
                    return
                self._load(dst, home, var.type)
            else:
                asm.emit(ins("mov", dst, home))
            return
        if kind == "global":
            decl = self.sema.globals[expr.binding[1]]
            addr = self.global_addrs[expr.binding[1]]
            if decl.array_size is not None:
                asm.emit(ins("mov", dst, Imm(addr)))
            else:
                self._load(dst, Mem(disp=addr), decl.type)
            return
        raise CodegenError(f"cannot load {expr.binding}")

    def gen_index_operand(self, expr: Index) -> Mem:
        """Build a (possibly scaled) memory operand for ``base[index]``."""
        elem = expr.base.type.element()
        base_reg = self.acquire()
        self.gen_expr(expr.base, base_reg)
        index_const = self._const_eval(expr.index)
        if index_const is not None:
            return Mem(base=base_reg, disp=index_const * elem.size)
        index_reg = self.acquire()
        self.gen_expr(expr.index, index_reg)
        if elem.size in (1, 2, 4, 8):
            return Mem(base=base_reg, index=index_reg, scale=elem.size)
        asm = self.asm
        asm.emit(ins("imul", index_reg, Imm(elem.size)))
        return Mem(base=base_reg, index=index_reg, scale=1)

    def _release_mem(self, mem: Mem) -> None:
        if mem.index is not None and mem.index.name in self._scratch_live:
            self.release(mem.index)
        if mem.base is not None and mem.base.name in self._scratch_live:
            self.release(mem.base)

    def gen_lvalue_operand(self, expr: Expr):
        """Return a Reg (register home) or Mem operand for an lvalue."""
        if isinstance(expr, Ident):
            kind = expr.binding[0]
            if kind in ("local", "param"):
                return self._ident_home(expr)
            if kind == "global":
                return Mem(disp=self.global_addrs[expr.binding[1]])
            raise CodegenError(f"cannot assign {expr.binding}")
        if isinstance(expr, Unary) and expr.op == "*":
            reg = self.acquire()
            self.gen_expr(expr.operand, reg)
            return Mem(base=reg)
        if isinstance(expr, Index):
            return self.gen_index_operand(expr)
        raise CodegenError(f"not an lvalue: {expr!r}")

    def gen_assign(self, expr: Assign, want_value: bool,
                   dst: Optional[Reg] = None) -> None:
        """Emit an assignment, optionally keeping the value in ``dst``."""
        asm = self.asm
        width = 8 if (expr.target.type is None or expr.target.type.is_pointer) \
            else expr.target.type.size
        home = self.gen_lvalue_operand(expr.target)
        value_reg = dst if (want_value and dst is not None) else self.acquire()
        if expr.op == "=":
            self.gen_expr(expr.value, value_reg)
            if isinstance(home, Reg):
                asm.emit(ins("mov", home, value_reg))
            else:
                asm.emit(ins("mov", home, value_reg, width=width))
        else:
            op = _ARITH_OPS[expr.op[:-1]]
            scale = 1
            if expr.target.type is not None and expr.target.type.is_pointer \
                    and expr.op in ("+=", "-="):
                scale = expr.target.type.element().size
            rhs_const = self._const_eval(expr.value)
            if rhs_const is not None and isinstance(home, Reg) and \
                    op not in ("idiv", "irem") and \
                    -(1 << 31) <= rhs_const * scale < (1 << 31):
                asm.emit(ins(op, home, Imm(rhs_const * scale)))
                if want_value:
                    asm.emit(ins("mov", value_reg, home))
            else:
                self.gen_expr(expr.value, value_reg)
                if scale > 1:
                    asm.emit(ins("imul", value_reg, Imm(scale)))
                if isinstance(home, Reg):
                    if op in ("idiv", "irem"):
                        tmp = self.acquire()
                        asm.emit(ins("mov", tmp, home))
                        asm.emit(ins(op, tmp, value_reg))
                        asm.emit(ins("mov", home, tmp))
                        self.release(tmp)
                        if want_value:
                            asm.emit(ins("mov", value_reg, home))
                    else:
                        asm.emit(ins(op, home, value_reg))
                        if want_value:
                            asm.emit(ins("mov", value_reg, home))
                else:
                    if op in ("idiv", "irem"):
                        tmp = self.acquire()
                        self._load(tmp, home,
                                   expr.target.type)
                        asm.emit(ins(op, tmp, value_reg))
                        asm.emit(ins("mov", home, tmp, width=width))
                        self.release(tmp)
                        if want_value:
                            asm.emit(ins("mov", value_reg, tmp))
                    else:
                        asm.emit(ins(op, home, value_reg, width=width))
                        if want_value:
                            self._load(value_reg, home, expr.target.type)
        if isinstance(home, Mem):
            self._release_mem(home)
        if not (want_value and dst is not None):
            self.release(value_reg)

    def gen_unary(self, expr: Unary, dst: Reg) -> None:
        """Emit a prefix operator into ``dst``."""
        asm = self.asm
        if expr.op == "*":
            self.gen_expr(expr.operand, dst)
            self._load(dst, Mem(base=dst), expr.type)
            return
        if expr.op == "&":
            target = expr.operand
            if isinstance(target, Ident) and target.binding[0] in \
                    ("local", "param"):
                home = self._ident_home(target)
                if isinstance(home, Reg):
                    raise CodegenError(
                        "address of register variable (sema should have "
                        "pinned it to memory)")
                asm.emit(ins("lea", dst, home))
                return
            if isinstance(target, Ident) and target.binding[0] == "global":
                asm.emit(ins("mov", dst,
                             Imm(self.global_addrs[target.binding[1]])))
                return
            if isinstance(target, Index):
                mem = self.gen_index_operand(target)
                asm.emit(ins("lea", dst, mem))
                self._release_mem(mem)
                return
            if isinstance(target, Unary) and target.op == "*":
                self.gen_expr(target.operand, dst)
                return
            raise CodegenError(f"cannot take address of {target!r}")
        self.gen_expr(expr.operand, dst)
        if expr.op == "-":
            asm.emit(ins("neg", dst))
        elif expr.op == "~":
            asm.emit(ins("not", dst))
        elif expr.op == "!":
            true_label = self.new_label("nz")
            end = self.new_label("nend")
            asm.emit(ins("test", dst, dst))
            asm.emit(ins("jne", Label(true_label)))
            asm.emit(ins("mov", dst, Imm(1)))
            asm.emit(ins("jmp", Label(end)))
            asm.label(true_label)
            asm.emit(ins("mov", dst, Imm(0)))
            asm.label(end)
        else:
            raise CodegenError(f"bad unary {expr.op}")

    def gen_binary(self, expr: Binary, dst: Reg) -> None:
        """Emit an infix operator into ``dst``."""
        asm = self.asm
        if expr.op in _CMP_JCC or expr.op in ("&&", "||"):
            true_label = self.new_label("bt")
            end = self.new_label("bend")
            self.gen_cond_branch(expr, true_label=true_label)
            asm.emit(ins("mov", dst, Imm(0)))
            asm.emit(ins("jmp", Label(end)))
            asm.label(true_label)
            asm.emit(ins("mov", dst, Imm(1)))
            asm.label(end)
            return
        self.gen_expr(expr.left, dst)
        scale = 1
        if expr.op in ("+", "-") and expr.left.type is not None \
                and expr.left.type.is_pointer:
            scale = expr.left.type.element().size
        rhs_const = self._const_eval(expr.right)
        op = _ARITH_OPS[expr.op]
        if rhs_const is not None and op not in ("idiv", "irem") and \
                -(1 << 31) <= rhs_const * scale < (1 << 31):
            asm.emit(ins(op, dst, Imm(rhs_const * scale)))
            return
        tmp = self.acquire()
        self.gen_expr(expr.right, tmp)
        if scale > 1:
            asm.emit(ins("imul", tmp, Imm(scale)))
        asm.emit(ins(op, dst, tmp))
        self.release(tmp)

    # -- calls ------------------------------------------------------------------------

    def gen_call(self, expr: Call, dst: Reg) -> None:
        """Emit a call, preserving live scratch registers around it."""
        asm = self.asm
        callee = expr.callee
        if isinstance(callee, Ident) and callee.binding is not None and \
                callee.binding[0] == "builtin":
            self.gen_atomic_builtin(callee.binding[1], expr, dst)
            return
        # Save live scratch registers and in-register locals that the
        # callee may clobber (all scratch regs are caller-saved).
        live = [name for name in self._scratch_live if name != dst.name]
        for name in live:
            asm.emit(ins("push", Reg(name)))
        for arg in expr.args:
            tmp = self.acquire()
            self.gen_expr(arg, tmp)
            asm.emit(ins("push", tmp))
            self.release(tmp)
        indirect_reg: Optional[str] = None
        if not (isinstance(callee, Ident) and callee.binding is not None
                and callee.binding[0] in ("func", "import")):
            tmp = self.acquire()
            self.gen_expr(callee, tmp)
            asm.emit(ins("mov", Reg("r11"), tmp))
            self.release(tmp)
            indirect_reg = "r11"
        for index in reversed(range(len(expr.args))):
            asm.emit(ins("pop", ARG_REGS[index]))
        if indirect_reg is not None:
            asm.emit(ins("call", Reg(indirect_reg)))
        elif callee.binding[0] == "func":
            asm.emit(ins("call", Label(f"fn_{callee.binding[1]}")))
        else:
            asm.emit(self.import_call(callee.binding[1]))
        if dst.name != "rax":
            asm.emit(ins("mov", dst, Reg("rax")))
        for name in reversed(live):
            asm.emit(ins("pop", Reg(name)))

    # -- atomic builtins -----------------------------------------------------------------

    def gen_atomic_builtin(self, name: str, expr: Call, dst: Reg) -> None:
        """O3 lowers the builtins with the same instruction sequences as
        O0 (they are already minimal); delegate via a tiny shim that
        ends with the result in rax, then move it to ``dst``."""
        asm = self.asm
        live = [n for n in self._scratch_live if n != dst.name]
        for n in live:
            asm.emit(ins("push", Reg(n)))
        # Reserve the registers the O0 expansion clobbers so nested
        # operand evaluation cannot pick them as temporaries.
        reserved = [n for n in ("rax", "rcx", "rdx", "rsi")
                    if n in self._scratch_free]
        for n in reserved:
            self._scratch_free.remove(n)
            self._scratch_live.append(n)
        shim = _O0Shim(self)
        shim.gen_atomic_builtin(name, expr)
        for n in reserved:
            self.release(Reg(n))
        if dst.name != "rax":
            asm.emit(ins("mov", dst, Reg("rax")))
        for n in reversed(live):
            asm.emit(ins("pop", Reg(n)))

    # -- vectorizer (see vectorize.py) ----------------------------------------------------

    def _try_vectorize(self, stmt: ForStmt) -> bool:
        from .vectorize import try_vectorize_for
        return try_vectorize_for(self, stmt)


class _O0Shim:
    """Adapter exposing the O0 expression evaluator (result in rax) for
    atomic builtin expansion inside the O3 backend."""

    def __init__(self, parent: CodegenO3) -> None:
        from .codegen import CodegenO0
        self._codegen_o0 = CodegenO0
        self.parent = parent
        self._o0 = CodegenO0.__new__(CodegenO0)
        self._o0.sema = parent.sema
        self._o0.asm = parent.asm
        self._o0.image = parent.image
        self._o0.global_addrs = parent.global_addrs
        self._o0.string_addrs = parent.string_addrs
        self._o0._label_counter = parent._label_counter
        self._o0.current = parent.current
        self._o0.opt_level = 3

    def gen_atomic_builtin(self, name: str, expr: Call) -> None:
        """Emit a ``__sync_*`` builtin via the shared O0 sequence shim."""
        o0 = self._o0

        # The O0 evaluator needs rax-centric expression eval; route its
        # gen_expr through the O3 backend so operands honour register
        # homes.  rax/rcx/rdx/rsi are reserved by the caller.
        def gen_expr(e, _parent=self.parent):
            _parent.gen_expr(e, Reg("rax"))

        codegen_o0 = self._codegen_o0
        o0.gen_expr = gen_expr
        o0.new_label = self.parent.new_label
        o0.gen_load_from_rax = \
            lambda t, w: codegen_o0.gen_load_from_rax(o0, t, w)
        codegen_o0.gen_atomic_builtin(o0, name, expr)
