"""MiniC code generation, shared infrastructure + the O0 backend.

The O0 backend is a classic stack machine: every value travels through
``rax``, temporaries are pushed/popped, all locals live in the stack
frame, booleans are materialised with branches.  This produces exactly
the kind of redundant memory traffic that real ``gcc -O0`` output has —
which the paper's recompiler is then able to *out-optimise* (Table 2's
O0 speedups).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..binfmt import Image
from ..isa import ARG_REGS, Assembler, Imm, Instruction, Label, Mem, Reg, ins
from .ast import (Assign, Binary, BlockStmt, BreakStmt, Call, CastExpr,
                  ContinueStmt, Decl, Expr, ExprStmt, ForStmt, FuncDef, Ident,
                  IfStmt, Index, IntLit, ReturnStmt, SizeofExpr, StrLit,
                  SwitchStmt, Ternary, Type, Unary, WhileStmt)
from .sema import SemaResult

TEXT_BASE = 0x400000
RODATA_BASE = 0x680000
DATA_BASE = 0x700000

_CMP_JCC = {"==": "je", "!=": "jne", "<": "jl", "<=": "jle",
            ">": "jg", ">=": "jge"}
_CMP_INVERSE = {"==": "jne", "!=": "je", "<": "jge", "<=": "jg",
                ">": "jle", ">=": "jl"}
_ARITH_OPS = {"+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor",
              "<<": "shl", ">>": "sar", "*": "imul", "/": "idiv",
              "%": "irem"}


class CodegenError(Exception):
    """Raised for constructs the code generator does not support."""
    pass


class CodegenBase:
    """Shared layout and helpers for both backends."""

    def __init__(self, sema: SemaResult, opt_level: int = 0) -> None:
        self.sema = sema
        self.opt_level = opt_level
        self.asm = Assembler(base=TEXT_BASE)
        self.image = Image()
        self.global_addrs: Dict[str, int] = {}
        self.string_addrs: Dict[str, int] = {}
        self._label_counter = 0
        self._layout_data()

    # -- data layout --------------------------------------------------------

    def _layout_data(self) -> None:
        rodata = bytearray()
        for text in self.sema.strings:
            self.string_addrs[text] = RODATA_BASE + len(rodata)
            rodata += text.encode("latin1") + b"\x00"
        self._rodata = bytes(rodata)

        data = bytearray()
        for name, decl in self.sema.globals.items():
            # Natural alignment preserves the ISA atomicity guarantees
            # for naturally-aligned loads/stores (§3.3.1).
            align = min(decl.type.size if decl.array_size is None else
                        decl.type.size, 8) or 1
            while len(data) % max(align, 8):
                data.append(0)
            self.global_addrs[name] = DATA_BASE + len(data)
            size = decl.type.size * (decl.array_size or 1)
            blob = bytearray(size)
            if isinstance(decl.init, int):
                blob[:decl.type.size] = (decl.init & (1 << (8 * decl.type.size)) - 1) \
                    .to_bytes(decl.type.size, "little")
            elif isinstance(decl.init, list):
                esize = decl.type.size
                for i, value in enumerate(decl.init):
                    blob[i * esize:(i + 1) * esize] = \
                        (value & ((1 << (8 * esize)) - 1)).to_bytes(esize, "little")
            data += blob
        self._data = bytes(data)

    def new_label(self, stem: str) -> str:
        """A fresh unique assembler label with the given stem."""
        self._label_counter += 1
        return f".{stem}_{self._label_counter}"

    def import_call(self, name: str) -> Instruction:
        """A call instruction through the named import's stub."""
        return ins("call", Imm(self.image.import_slot(name)))

    # -- finalisation --------------------------------------------------------------

    def finish(self, entry_func: str = "main") -> Image:
        """Assemble sections, wire the entry point and build the Image."""
        code = self.asm.assemble()
        self.image.add_section(".text", code.base, code.data, executable=True)
        if self._rodata:
            self.image.add_section(".rodata", RODATA_BASE, self._rodata)
        if self._data:
            self.image.add_section(".data", DATA_BASE, self._data,
                                   writable=True)
        for name, addr in code.symbols.items():
            if name.startswith("fn_"):
                self.image.symbols[name[3:]] = addr
        entry = f"fn_{entry_func}"
        if entry not in code.symbols:
            raise CodegenError(f"no entry function {entry_func!r}")
        self.image.entry = code.symbols[entry]
        self.image.metadata["opt_level"] = str(self.opt_level)
        return self.image


class CodegenO0(CodegenBase):
    """Unoptimised stack-machine backend."""

    def __init__(self, sema: SemaResult) -> None:
        super().__init__(sema, opt_level=0)
        self.current: Optional[FuncDef] = None
        self.local_offsets: Dict[str, int] = {}
        self.frame_size = 0
        self.break_labels: List[str] = []
        self.continue_labels: List[str] = []
        self.epilogue_label = ""

    def run(self) -> Image:
        """Generate the whole program and return its VXE image."""
        for func in self.sema.program.functions:
            self.gen_function(func)
        return self.finish()

    # -- functions -------------------------------------------------------------

    def gen_function(self, func: FuncDef) -> None:
        """Emit one function: prologue, body, epilogue."""
        if len(func.params) > len(ARG_REGS):
            raise CodegenError(
                f"{func.name}: {len(func.params)} parameters "
                f"(max {len(ARG_REGS)})")
        self.current = func
        info = self.sema.functions[func.name]
        self.local_offsets = {}
        offset = 0
        for name, var in info.locals.items():
            offset += (var.storage_size + 7) & ~7
            self.local_offsets[name] = -offset
        for index, (ptype, pname) in enumerate(func.params):
            offset += 8
            self.local_offsets[f"__param{index}"] = -offset
        self.frame_size = (offset + 15) & ~15
        self.epilogue_label = self.new_label(f"epi_{func.name}")

        asm = self.asm
        asm.align(8)
        asm.label(f"fn_{func.name}")
        asm.emit(ins("push", Reg("rbp")))
        asm.emit(ins("mov", Reg("rbp"), Reg("rsp")))
        if self.frame_size:
            asm.emit(ins("sub", Reg("rsp"), Imm(self.frame_size)))
        for index in range(len(func.params)):
            asm.emit(ins("mov",
                         Mem(base=Reg("rbp"),
                             disp=self.local_offsets[f"__param{index}"]),
                         ARG_REGS[index]))
        self.gen_block(func.body)
        # Implicit `return 0` fallthrough.
        asm.emit(ins("mov", Reg("rax"), Imm(0)))
        asm.label(self.epilogue_label)
        asm.emit(ins("mov", Reg("rsp"), Reg("rbp")))
        asm.emit(ins("pop", Reg("rbp")))
        asm.emit(ins("ret"))

    # -- statements ----------------------------------------------------------------

    def gen_block(self, block: BlockStmt) -> None:
        """Emit a braced block, opening and closing its scope."""
        for stmt in block.body:
            self.gen_stmt(stmt)

    def gen_stmt(self, stmt) -> None:
        """Emit one statement."""
        asm = self.asm
        if isinstance(stmt, BlockStmt):
            self.gen_block(stmt)
        elif isinstance(stmt, Decl):
            if stmt.init is not None:
                self.gen_expr(stmt.init)
                var = self.sema.functions[self.current.name].locals[stmt.name]
                asm.emit(ins("mov",
                             Mem(base=Reg("rbp"),
                                 disp=self.local_offsets[stmt.name]),
                             Reg("rax"), width=var.type.size
                             if var.array_size is None else 8))
        elif isinstance(stmt, ExprStmt):
            self.gen_expr(stmt.expr)
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
            if stmt.is_do_while:
                body_label = self.new_label("dobody")
                asm.label(body_label)
                self.gen_block(stmt.body)
                asm.label(head)
                self.gen_cond_branch(stmt.cond, true_label=body_label)
            else:
                asm.label(head)
                self.gen_cond_branch(stmt.cond, false_label=end)
                self.gen_block(stmt.body)
                asm.emit(ins("jmp", Label(head)))
            asm.label(end)
            self.break_labels.pop()
            self.continue_labels.pop()
        elif isinstance(stmt, ForStmt):
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
                self.gen_expr(stmt.step)
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
                self.gen_expr(stmt.value)
            else:
                asm.emit(ins("mov", Reg("rax"), Imm(0)))
            asm.emit(ins("jmp", Label(self.epilogue_label)))
        else:
            raise CodegenError(f"unsupported statement {stmt!r}")

    def gen_switch(self, stmt: SwitchStmt) -> None:
        """O0 lowers switch to a compare chain (no jump table)."""
        asm = self.asm
        end = self.new_label("swend")
        self.gen_expr(stmt.value)
        case_labels = [self.new_label("case") for _ in stmt.cases]
        default_label = self.new_label("swdef")
        for (value, _), label in zip(stmt.cases, case_labels):
            asm.emit(ins("cmp", Reg("rax"), Imm(value)))
            asm.emit(ins("je", Label(label)))
        asm.emit(ins("jmp", Label(default_label)))
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

    # -- conditions -------------------------------------------------------------------

    def gen_cond_branch(self, cond: Expr,
                        true_label: Optional[str] = None,
                        false_label: Optional[str] = None) -> None:
        """Branch on a condition without materialising a boolean."""
        asm = self.asm
        if isinstance(cond, Binary) and cond.op in _CMP_JCC:
            self.gen_expr(cond.left)
            asm.emit(ins("push", Reg("rax")))
            self.gen_expr(cond.right)
            asm.emit(ins("mov", Reg("rcx"), Reg("rax")))
            asm.emit(ins("pop", Reg("rax")))
            asm.emit(ins("cmp", Reg("rax"), Reg("rcx")))
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
        self.gen_expr(cond)
        asm.emit(ins("test", Reg("rax"), Reg("rax")))
        if true_label is not None:
            asm.emit(ins("jne", Label(true_label)))
        if false_label is not None:
            asm.emit(ins("je", Label(false_label)))

    # -- expressions ------------------------------------------------------------------

    def gen_expr(self, expr: Expr) -> None:
        """Evaluate ``expr`` into rax."""
        asm = self.asm
        if isinstance(expr, IntLit):
            asm.emit(ins("mov", Reg("rax"), Imm(expr.value)))
        elif isinstance(expr, StrLit):
            asm.emit(ins("mov", Reg("rax"),
                         Imm(self.string_addrs[expr.value])))
        elif isinstance(expr, SizeofExpr):
            asm.emit(ins("mov", Reg("rax"), Imm(expr.of.size)))
        elif isinstance(expr, Ident):
            self.gen_ident_load(expr)
        elif isinstance(expr, Unary):
            self.gen_unary(expr)
        elif isinstance(expr, Binary):
            self.gen_binary(expr)
        elif isinstance(expr, Assign):
            self.gen_assign(expr)
        elif isinstance(expr, Call):
            self.gen_call(expr)
        elif isinstance(expr, Index):
            self.gen_lvalue_address(expr)
            width = expr.type.size if not expr.type.is_pointer else 8
            self.gen_load_from_rax(expr.type, width)
        elif isinstance(expr, Ternary):
            else_label = self.new_label("telse")
            end_label = self.new_label("tend")
            self.gen_cond_branch(expr.cond, false_label=else_label)
            self.gen_expr(expr.if_true)
            asm.emit(ins("jmp", Label(end_label)))
            asm.label(else_label)
            self.gen_expr(expr.if_false)
            asm.label(end_label)
        elif isinstance(expr, CastExpr):
            self.gen_expr(expr.operand)
            if not expr.to.is_pointer and expr.to.size < 8:
                if expr.to.size == 4:
                    asm.emit(ins("movsx", Reg("rax"), Reg("rax"), width=4))
                else:
                    asm.emit(ins("and", Reg("rax"),
                                 Imm((1 << (8 * expr.to.size)) - 1)))
        else:
            raise CodegenError(f"unsupported expression {expr!r}")

    def gen_load_from_rax(self, type_: Type, width: int) -> None:
        """rax = *[rax] with the access width of ``type_``."""
        asm = self.asm
        if width == 8 or type_.is_pointer:
            asm.emit(ins("mov", Reg("rax"), Mem(base=Reg("rax")), width=8))
        elif type_.kind == "int32":
            asm.emit(ins("movsx", Reg("rax"), Mem(base=Reg("rax")), width=4))
        else:
            asm.emit(ins("mov", Reg("rax"), Mem(base=Reg("rax")),
                         width=width))

    def gen_ident_load(self, expr: Ident) -> None:
        """Push an identifier's value (or address for arrays/functions)."""
        asm = self.asm
        kind = expr.binding[0]
        if kind == "func":
            asm.emit(ins("mov", Reg("rax"), Label(f"fn_{expr.binding[1]}")))
            return
        info = self.sema.functions[self.current.name]
        if kind == "local":
            var = info.locals[expr.binding[1]]
            disp = self.local_offsets[expr.binding[1]]
            if var.array_size is not None:
                asm.emit(ins("lea", Reg("rax"),
                             Mem(base=Reg("rbp"), disp=disp)))
            elif var.type.is_pointer or var.type.size == 8:
                asm.emit(ins("mov", Reg("rax"),
                             Mem(base=Reg("rbp"), disp=disp)))
            elif var.type.kind == "int32":
                asm.emit(ins("movsx", Reg("rax"),
                             Mem(base=Reg("rbp"), disp=disp), width=4))
            else:
                asm.emit(ins("mov", Reg("rax"),
                             Mem(base=Reg("rbp"), disp=disp),
                             width=var.type.size))
        elif kind == "param":
            disp = self.local_offsets[f"__param{expr.binding[1]}"]
            asm.emit(ins("mov", Reg("rax"), Mem(base=Reg("rbp"), disp=disp)))
        elif kind == "global":
            decl = self.sema.globals[expr.binding[1]]
            addr = self.global_addrs[expr.binding[1]]
            if decl.array_size is not None:
                asm.emit(ins("mov", Reg("rax"), Imm(addr)))
            elif decl.type.is_pointer or decl.type.size == 8:
                asm.emit(ins("mov", Reg("rax"), Mem(disp=addr)))
            elif decl.type.kind == "int32":
                asm.emit(ins("movsx", Reg("rax"), Mem(disp=addr), width=4))
            else:
                asm.emit(ins("mov", Reg("rax"), Mem(disp=addr),
                             width=decl.type.size))
        else:
            raise CodegenError(f"cannot load {expr.binding}")

    def gen_lvalue_address(self, expr: Expr) -> None:
        """Evaluate the address of an lvalue into rax."""
        asm = self.asm
        if isinstance(expr, Ident):
            kind = expr.binding[0]
            if kind == "local":
                disp = self.local_offsets[expr.binding[1]]
                asm.emit(ins("lea", Reg("rax"),
                             Mem(base=Reg("rbp"), disp=disp)))
            elif kind == "param":
                disp = self.local_offsets[f"__param{expr.binding[1]}"]
                asm.emit(ins("lea", Reg("rax"),
                             Mem(base=Reg("rbp"), disp=disp)))
            elif kind == "global":
                asm.emit(ins("mov", Reg("rax"),
                             Imm(self.global_addrs[expr.binding[1]])))
            else:
                raise CodegenError(f"cannot take address of {expr.binding}")
            return
        if isinstance(expr, Unary) and expr.op == "*":
            self.gen_expr(expr.operand)
            return
        if isinstance(expr, Index):
            self.gen_expr(expr.base)
            asm.emit(ins("push", Reg("rax")))
            self.gen_expr(expr.index)
            elem = expr.base.type.element()
            if elem.size > 1:
                asm.emit(ins("imul", Reg("rax"), Imm(elem.size)))
            asm.emit(ins("pop", Reg("rcx")))
            asm.emit(ins("add", Reg("rax"), Reg("rcx")))
            return
        raise CodegenError(f"not an lvalue: {expr!r}")

    def _lvalue_width(self, target: Expr) -> int:
        if target.type is None:
            return 8
        if target.type.is_pointer:
            return 8
        return target.type.size

    def gen_assign(self, expr: Assign) -> None:
        """Emit an assignment (plain or compound) leaving the value pushed."""
        asm = self.asm
        width = self._lvalue_width(expr.target)
        self.gen_lvalue_address(expr.target)
        asm.emit(ins("push", Reg("rax")))
        self.gen_expr(expr.value)
        asm.emit(ins("pop", Reg("rcx")))
        if expr.op == "=":
            asm.emit(ins("mov", Mem(base=Reg("rcx")), Reg("rax"),
                         width=width))
            return
        op = _ARITH_OPS[expr.op[:-1]]
        # Pointer compound assignment scales the operand.
        if expr.target.type is not None and expr.target.type.is_pointer \
                and expr.op in ("+=", "-="):
            elem = expr.target.type.element()
            if elem.size > 1:
                asm.emit(ins("imul", Reg("rax"), Imm(elem.size)))
        if op in ("idiv", "irem"):
            asm.emit(ins("mov", Reg("rdx"), Reg("rax")))
            asm.emit(ins("mov", Reg("rax"), Mem(base=Reg("rcx")),
                         width=width))
            asm.emit(ins(op, Reg("rax"), Reg("rdx")))
            asm.emit(ins("mov", Mem(base=Reg("rcx")), Reg("rax"),
                         width=width))
        else:
            asm.emit(ins(op, Mem(base=Reg("rcx")), Reg("rax"), width=width))
            asm.emit(ins("mov", Reg("rax"), Mem(base=Reg("rcx")),
                         width=width))

    def gen_unary(self, expr: Unary) -> None:
        """Emit a prefix operator."""
        asm = self.asm
        if expr.op == "*":
            self.gen_expr(expr.operand)
            width = expr.type.size if not expr.type.is_pointer else 8
            self.gen_load_from_rax(expr.type, width)
            return
        if expr.op == "&":
            self.gen_lvalue_address(expr.operand)
            return
        self.gen_expr(expr.operand)
        if expr.op == "-":
            asm.emit(ins("neg", Reg("rax")))
        elif expr.op == "~":
            asm.emit(ins("not", Reg("rax")))
        elif expr.op == "!":
            true_label = self.new_label("nz")
            end = self.new_label("nend")
            asm.emit(ins("test", Reg("rax"), Reg("rax")))
            asm.emit(ins("jne", Label(true_label)))
            asm.emit(ins("mov", Reg("rax"), Imm(1)))
            asm.emit(ins("jmp", Label(end)))
            asm.label(true_label)
            asm.emit(ins("mov", Reg("rax"), Imm(0)))
            asm.label(end)
        else:
            raise CodegenError(f"bad unary {expr.op}")

    def gen_binary(self, expr: Binary) -> None:
        """Emit an infix operator (short-circuit for && / ||)."""
        asm = self.asm
        if expr.op in _CMP_JCC:
            true_label = self.new_label("cmpt")
            end = self.new_label("cmpe")
            self.gen_cond_branch(expr, true_label=true_label)
            asm.emit(ins("mov", Reg("rax"), Imm(0)))
            asm.emit(ins("jmp", Label(end)))
            asm.label(true_label)
            asm.emit(ins("mov", Reg("rax"), Imm(1)))
            asm.label(end)
            return
        if expr.op in ("&&", "||"):
            short_label = self.new_label("sc")
            end = self.new_label("scend")
            if expr.op == "&&":
                self.gen_cond_branch(expr, false_label=short_label)
                asm.emit(ins("mov", Reg("rax"), Imm(1)))
                asm.emit(ins("jmp", Label(end)))
                asm.label(short_label)
                asm.emit(ins("mov", Reg("rax"), Imm(0)))
            else:
                self.gen_cond_branch(expr, true_label=short_label)
                asm.emit(ins("mov", Reg("rax"), Imm(0)))
                asm.emit(ins("jmp", Label(end)))
                asm.label(short_label)
                asm.emit(ins("mov", Reg("rax"), Imm(1)))
            asm.label(end)
            return
        self.gen_expr(expr.left)
        asm.emit(ins("push", Reg("rax")))
        self.gen_expr(expr.right)
        # Pointer arithmetic scaling.
        if expr.op in ("+", "-") and expr.left.type is not None \
                and expr.left.type.is_pointer:
            elem = expr.left.type.element()
            if elem.size > 1:
                asm.emit(ins("imul", Reg("rax"), Imm(elem.size)))
        asm.emit(ins("mov", Reg("rcx"), Reg("rax")))
        asm.emit(ins("pop", Reg("rax")))
        asm.emit(ins(_ARITH_OPS[expr.op], Reg("rax"), Reg("rcx")))

    # -- calls -----------------------------------------------------------------------

    def gen_call(self, expr: Call) -> None:
        """Emit a direct, builtin or function-pointer call."""
        asm = self.asm
        callee = expr.callee
        if isinstance(callee, Ident) and callee.binding is not None and \
                callee.binding[0] == "builtin":
            self.gen_atomic_builtin(callee.binding[1], expr)
            return
        if len(expr.args) > len(ARG_REGS):
            raise CodegenError(
                f"call with {len(expr.args)} arguments (max "
                f"{len(ARG_REGS)}; MiniC passes arguments in registers)")
        for arg in expr.args:
            self.gen_expr(arg)
            asm.emit(ins("push", Reg("rax")))
        for index in reversed(range(len(expr.args))):
            asm.emit(ins("pop", ARG_REGS[index]))
        if isinstance(callee, Ident) and callee.binding is not None:
            kind = callee.binding[0]
            if kind == "func":
                asm.emit(ins("call", Label(f"fn_{callee.binding[1]}")))
                return
            if kind == "import":
                asm.emit(self.import_call(callee.binding[1]))
                return
        # Indirect call through a function pointer value.
        self.gen_expr_saving_args(callee, len(expr.args))
        asm.emit(ins("call", Reg("r10")))

    def gen_expr_saving_args(self, callee: Expr, argc: int) -> None:
        """Evaluate a callee expression without clobbering argument regs."""
        asm = self.asm
        for index in range(argc):
            asm.emit(ins("push", ARG_REGS[index]))
        self.gen_expr(callee)
        asm.emit(ins("mov", Reg("r10"), Reg("rax")))
        for index in reversed(range(argc)):
            asm.emit(ins("pop", ARG_REGS[index]))

    # -- atomic builtins (§3.3.1) -------------------------------------------------------

    def _atomic_width(self, expr: Call) -> int:
        ptr_type = expr.args[0].type
        if ptr_type is not None and ptr_type.is_pointer:
            return ptr_type.element().size
        return 8

    def gen_atomic_builtin(self, name: str, expr: Call) -> None:
        """Emit a ``__sync_*`` builtin as its LOCK-prefixed sequence."""
        asm = self.asm
        if name == "__sync_synchronize":
            asm.emit(ins("mfence"))
            asm.emit(ins("mov", Reg("rax"), Imm(0)))
            return
        if name == "__builtin_rdtls":
            asm.emit(ins("rdtls", Reg("rax")))
            return
        width = self._atomic_width(expr)
        if name == "__atomic_load_n":
            self.gen_expr(expr.args[0])
            self.gen_load_from_rax(expr.args[0].type.element(), width)
            return
        if name == "__atomic_store_n":
            self.gen_expr(expr.args[0])
            asm.emit(ins("push", Reg("rax")))
            self.gen_expr(expr.args[1])
            asm.emit(ins("pop", Reg("rcx")))
            asm.emit(ins("mov", Mem(base=Reg("rcx")), Reg("rax"),
                         width=width))
            return
        if name == "__sync_lock_release":
            self.gen_expr(expr.args[0])
            asm.emit(ins("mov", Mem(base=Reg("rax")), Imm(0), width=width))
            asm.emit(ins("mov", Reg("rax"), Imm(0)))
            return
        if name in ("__sync_fetch_and_add", "__sync_add_and_fetch",
                    "__sync_fetch_and_sub", "__sync_sub_and_fetch"):
            self.gen_expr(expr.args[0])
            asm.emit(ins("push", Reg("rax")))
            self.gen_expr(expr.args[1])
            asm.emit(ins("mov", Reg("rdx"), Reg("rax")))
            asm.emit(ins("mov", Reg("rsi"), Reg("rax")))   # saved operand
            asm.emit(ins("pop", Reg("rcx")))
            if "sub" in name:
                asm.emit(ins("neg", Reg("rdx")))
            asm.emit(ins("xadd", Mem(base=Reg("rcx")), Reg("rdx"),
                         lock=True, width=width))
            asm.emit(ins("mov", Reg("rax"), Reg("rdx")))   # old value
            if name == "__sync_add_and_fetch":
                asm.emit(ins("add", Reg("rax"), Reg("rsi")))
            elif name == "__sync_sub_and_fetch":
                asm.emit(ins("sub", Reg("rax"), Reg("rsi")))
            return
        if name == "__sync_lock_test_and_set":
            self.gen_expr(expr.args[0])
            asm.emit(ins("push", Reg("rax")))
            self.gen_expr(expr.args[1])
            asm.emit(ins("pop", Reg("rcx")))
            asm.emit(ins("xchg", Mem(base=Reg("rcx")), Reg("rax"),
                         width=width))
            return
        if name in ("__sync_val_compare_and_swap",
                    "__sync_bool_compare_and_swap"):
            self.gen_expr(expr.args[0])
            asm.emit(ins("push", Reg("rax")))
            self.gen_expr(expr.args[1])
            asm.emit(ins("push", Reg("rax")))
            self.gen_expr(expr.args[2])
            asm.emit(ins("mov", Reg("rdx"), Reg("rax")))
            asm.emit(ins("pop", Reg("rax")))       # expected
            asm.emit(ins("pop", Reg("rcx")))       # address
            asm.emit(ins("cmpxchg", Mem(base=Reg("rcx")), Reg("rdx"),
                         lock=True, width=width))
            if name == "__sync_bool_compare_and_swap":
                true_label = self.new_label("casok")
                end = self.new_label("casend")
                asm.emit(ins("je", Label(true_label)))
                asm.emit(ins("mov", Reg("rax"), Imm(0)))
                asm.emit(ins("jmp", Label(end)))
                asm.label(true_label)
                asm.emit(ins("mov", Reg("rax"), Imm(1)))
                asm.label(end)
            return
        if name in ("__sync_fetch_and_or", "__sync_fetch_and_and",
                    "__sync_fetch_and_xor"):
            op = {"__sync_fetch_and_or": "or",
                  "__sync_fetch_and_and": "and",
                  "__sync_fetch_and_xor": "xor"}[name]
            self.gen_expr(expr.args[0])
            asm.emit(ins("push", Reg("rax")))
            self.gen_expr(expr.args[1])
            asm.emit(ins("mov", Reg("rsi"), Reg("rax")))
            asm.emit(ins("pop", Reg("rcx")))
            retry = self.new_label("rmw")
            asm.label(retry)
            asm.emit(ins("mov", Reg("rax"), Mem(base=Reg("rcx")),
                         width=width))
            asm.emit(ins("mov", Reg("rdx"), Reg("rax")))
            asm.emit(ins(op, Reg("rdx"), Reg("rsi")))
            asm.emit(ins("cmpxchg", Mem(base=Reg("rcx")), Reg("rdx"),
                         lock=True, width=width))
            asm.emit(ins("jne", Label(retry)))
            return
        raise CodegenError(f"unsupported builtin {name}")
