"""Semantic analysis for MiniC: symbol resolution and type annotation.

Binds every :class:`Ident` to one of ``("local", name)``,
``("param", index)``, ``("global", name)``, ``("func", name)`` or
``("import", name)``, computes expression types, and collects the
string literal pool.  Unresolved function names become library imports,
as in pre-C99 C.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .ast import (Assign, Binary, BlockStmt, BreakStmt, Call, CastExpr,
                  ContinueStmt, Decl, Expr, ExprStmt, ForStmt, FuncDef,
                  GlobalDecl, Ident, IfStmt, Index, IntLit, Program,
                  ReturnStmt, SizeofExpr, StrLit, SwitchStmt, Ternary, Type,
                  Unary, WhileStmt, INT)

#: Compiler builtins that lower to hardware atomic instructions.
ATOMIC_BUILTINS = {
    "__sync_fetch_and_add", "__sync_add_and_fetch",
    "__sync_fetch_and_sub", "__sync_sub_and_fetch",
    "__sync_fetch_and_or", "__sync_fetch_and_and", "__sync_fetch_and_xor",
    "__sync_val_compare_and_swap", "__sync_bool_compare_and_swap",
    "__sync_lock_test_and_set", "__sync_lock_release",
    "__sync_synchronize",
    "__atomic_load_n", "__atomic_store_n",
    # Reads the TLS base register; lifted IR has no representation for
    # it, so code containing it defeats strict translators (the
    # xalancbmk-style failure).
    "__builtin_rdtls",
}


class SemaError(Exception):
    """Raised on type errors, undeclared names and bad builtins."""
    pass


class LocalVar:
    """A local variable or array (storage decided by codegen)."""

    def __init__(self, name: str, type_: Type,
                 array_size: Optional[int]) -> None:
        self.name = name
        self.type = type_
        self.array_size = array_size
        #: Address-of taken or array: must live in memory.
        self.address_taken = array_size is not None

    @property
    def storage_size(self) -> int:
        """Frame bytes this local needs (arrays included)."""
        if self.array_size is not None:
            return self.array_size * self.type.size
        return self.type.size

    @property
    def value_type(self) -> Type:
        """Type when the name is used in an expression (arrays decay)."""
        if self.array_size is not None:
            return self.type.pointer_to()
        return self.type


class FunctionInfo:
    """Resolved signature plus the function's local-variable layout."""
    def __init__(self, func: FuncDef) -> None:
        self.func = func
        self.locals: Dict[str, LocalVar] = {}
        self.imports_used: Set[str] = set()
        #: Functions whose address is taken (callback candidates).
        self.address_taken_funcs: Set[str] = set()


class SemaResult:
    """Analysis output: per-function info and global layout."""
    def __init__(self, program: Program) -> None:
        self.program = program
        self.functions: Dict[str, FunctionInfo] = {}
        self.globals: Dict[str, GlobalDecl] = {}
        self.strings: List[str] = []
        self.imports: Set[str] = set()
        #: All function names whose address is taken somewhere.
        self.callback_funcs: Set[str] = set()


def analyze(program: Program) -> SemaResult:
    """Type-check a Program and compute storage layouts."""
    result = SemaResult(program)
    func_names = {f.name for f in program.functions}
    for decl in program.globals:
        if decl.name in result.globals:
            raise SemaError(f"duplicate global {decl.name!r}")
        result.globals[decl.name] = decl
    for func in program.functions:
        info = FunctionInfo(func)
        result.functions[func.name] = info
        _Analyzer(result, info, func_names).run()
    return result


class _Analyzer:
    def __init__(self, result: SemaResult, info: FunctionInfo,
                 func_names: Set[str]) -> None:
        self.result = result
        self.info = info
        self.func_names = func_names
        self.scopes: List[Dict[str, str]] = []   # name -> unique local name
        self.param_names = [p for _, p in info.func.params]

    def run(self) -> None:
        """Analyse every global and function."""
        self.scopes.append({})
        self.visit_block(self.info.func.body)
        self.scopes.pop()

    # -- scope helpers -----------------------------------------------------

    def declare_local(self, name: str, type_: Type,
                      array_size: Optional[int]) -> str:
        """Add a local to the current scope (rejecting duplicates)."""
        scope = self.scopes[-1]
        if name in scope:
            raise SemaError(
                f"{self.info.func.name}: redeclaration of {name!r}")
        unique = name
        counter = 1
        while unique in self.info.locals:
            unique = f"{name}.{counter}"
            counter += 1
        scope[name] = unique
        self.info.locals[unique] = LocalVar(unique, type_, array_size)
        return unique

    def lookup(self, name: str) -> Optional[tuple]:
        """Resolve a name through the scope stack, then globals/functions."""
        for scope in reversed(self.scopes):
            if name in scope:
                return ("local", scope[name])
        if name in self.param_names:
            return ("param", self.param_names.index(name))
        if name in self.result.globals:
            return ("global", name)
        if name in self.func_names:
            return ("func", name)
        return None

    # -- statements -----------------------------------------------------------

    def visit_block(self, block: BlockStmt) -> None:
        """Analyse a braced block in a fresh scope."""
        self.scopes.append({})
        for stmt in block.body:
            self.visit_stmt(stmt)
        self.scopes.pop()

    def visit_stmt(self, stmt) -> None:
        """Analyse one statement."""
        if isinstance(stmt, BlockStmt):
            self.visit_block(stmt)
        elif isinstance(stmt, Decl):
            if stmt.init is not None:
                self.visit_expr(stmt.init)
            unique = self.declare_local(stmt.name, stmt.type,
                                        stmt.array_size)
            stmt.name = unique
        elif isinstance(stmt, ExprStmt):
            self.visit_expr(stmt.expr)
        elif isinstance(stmt, IfStmt):
            self.visit_expr(stmt.cond)
            self.visit_block(stmt.then)
            if stmt.otherwise is not None:
                self.visit_block(stmt.otherwise)
        elif isinstance(stmt, WhileStmt):
            self.visit_expr(stmt.cond)
            self.visit_block(stmt.body)
        elif isinstance(stmt, ForStmt):
            self.scopes.append({})
            if stmt.init is not None:
                self.visit_stmt(stmt.init)
            if stmt.cond is not None:
                self.visit_expr(stmt.cond)
            if stmt.step is not None:
                self.visit_expr(stmt.step)
            self.visit_block(stmt.body)
            self.scopes.pop()
        elif isinstance(stmt, SwitchStmt):
            self.visit_expr(stmt.value)
            for _, body in stmt.cases:
                self.visit_block(body)
            if stmt.default is not None:
                self.visit_block(stmt.default)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self.visit_expr(stmt.value)
        elif isinstance(stmt, (BreakStmt, ContinueStmt)):
            pass
        else:
            raise SemaError(f"unknown statement {stmt!r}")

    # -- expressions --------------------------------------------------------------

    def visit_expr(self, expr: Expr) -> Type:
        """Analyse one expression and return its type."""
        if isinstance(expr, IntLit):
            expr.type = INT
        elif isinstance(expr, StrLit):
            if expr.value not in self.result.strings:
                self.result.strings.append(expr.value)
            expr.type = Type("char", 1)
        elif isinstance(expr, Ident):
            binding = self.lookup(expr.name)
            if binding is None:
                raise SemaError(
                    f"{self.info.func.name}: undefined name {expr.name!r} "
                    f"(line {expr.line})")
            expr.binding = binding
            kind = binding[0]
            if kind == "local":
                expr.type = self.info.locals[binding[1]].value_type
            elif kind == "param":
                expr.type = self.info.func.params[binding[1]][0]
            elif kind == "global":
                decl = self.result.globals[binding[1]]
                expr.type = (decl.type.pointer_to()
                             if decl.array_size is not None else decl.type)
            else:   # func
                self.result.callback_funcs.add(binding[1])
                self.info.address_taken_funcs.add(binding[1])
                expr.type = INT
        elif isinstance(expr, Unary):
            inner = self.visit_expr(expr.operand)
            if expr.op == "*":
                if not inner.is_pointer:
                    raise SemaError(
                        f"line {expr.line}: dereference of non-pointer")
                expr.type = inner.element()
            elif expr.op == "&":
                expr.type = self._lvalue_type(expr.operand).pointer_to()
                self._mark_address_taken(expr.operand)
            else:
                expr.type = INT
        elif isinstance(expr, Binary):
            left = self.visit_expr(expr.left)
            right = self.visit_expr(expr.right)
            if expr.op in ("+", "-") and left.is_pointer:
                expr.type = left
            elif expr.op == "+" and right.is_pointer:
                expr.type = right
            else:
                expr.type = INT
        elif isinstance(expr, Assign):
            self.visit_expr(expr.target)
            self.visit_expr(expr.value)
            expr.type = expr.target.type
        elif isinstance(expr, Call):
            for arg in expr.args:
                self.visit_expr(arg)
            callee = expr.callee
            if isinstance(callee, Ident):
                binding = self.lookup(callee.name)
                if binding is None:
                    if callee.name in ATOMIC_BUILTINS:
                        callee.binding = ("builtin", callee.name)
                    else:
                        # Implicit library import.
                        callee.binding = ("import", callee.name)
                        self.result.imports.add(callee.name)
                        self.info.imports_used.add(callee.name)
                    callee.type = INT
                elif binding[0] == "func":
                    callee.binding = binding
                    callee.type = INT
                else:
                    # Call through a function-pointer variable.
                    self.visit_expr(callee)
            else:
                self.visit_expr(callee)
            expr.type = INT
        elif isinstance(expr, Index):
            base = self.visit_expr(expr.base)
            self.visit_expr(expr.index)
            if not base.is_pointer:
                raise SemaError(f"line {expr.line}: subscript of non-pointer")
            expr.type = base.element()
        elif isinstance(expr, Ternary):
            self.visit_expr(expr.cond)
            t = self.visit_expr(expr.if_true)
            self.visit_expr(expr.if_false)
            expr.type = t
        elif isinstance(expr, CastExpr):
            self.visit_expr(expr.operand)
            expr.type = expr.to
        elif isinstance(expr, SizeofExpr):
            expr.type = INT
        else:
            raise SemaError(f"unknown expression {expr!r}")
        return expr.type

    def _lvalue_type(self, expr: Expr) -> Type:
        if isinstance(expr, Ident):
            if expr.binding and expr.binding[0] == "local":
                var = self.info.locals[expr.binding[1]]
                if var.array_size is not None:
                    return var.type          # &arr == arr decayed
                return var.type
            return expr.type
        if isinstance(expr, (Index, Unary)):
            return expr.type
        raise SemaError(f"line {expr.line}: cannot take address")

    def _mark_address_taken(self, expr: Expr) -> None:
        if isinstance(expr, Ident) and expr.binding \
                and expr.binding[0] == "local":
            self.info.locals[expr.binding[1]].address_taken = True
        elif isinstance(expr, Ident) and expr.binding \
                and expr.binding[0] == "func":
            self.result.callback_funcs.add(expr.binding[1])
