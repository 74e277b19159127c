"""Single-source declarative specification of the VX ISA.

One frozen :class:`InstrSpec` record per mnemonic declares everything
the rest of the code base needs to know about an instruction: opcode,
legal operand shapes, operand widths, flags read and written, branch
and terminator classification, the jCC condition predicate (shared by
the emulator and the lifter), atomicity (lock-prefixable mnemonics and
the implicitly-locked XCHG-with-memory), memory access behaviour for
the sanitizer, fence semantics, base cycle cost and perf-counter
class.

Every consumer *derives* its tables from :data:`SPEC`:

* ``isa/instructions.py`` — MNEMONICS/BRANCHES/TERMINATORS/LOCKABLE/
  SIMD_MNEMONICS and the ``Instruction`` classification properties;
* ``isa/encoding.py`` — decode-time arity and operand-shape checks;
* ``emulator/costs.py`` — BASE_COSTS / INSTR_CLASS / ``classify()``;
* ``emulator/machine.py`` — jcc dispatch, condition evaluation and the
  sanitizer access plans;
* ``emulator/engine.py`` — specialized jcc and ALU handlers;
* ``core/translator.py`` — fused compare predicates and the generic
  flag-expression lowering of jCC conditions;
* ``core/disassembler.py`` / ``core/lifter.py`` — terminator kinds;
* ``core/lowering.py`` — predicate-to-jcc selection;
* ``baselines/lasagne.py`` — hardware-atomicity preconditions.

``tests/conformance`` holds the cross-layer differential harness that
keeps the layers honest, and ``tests/conformance/test_single_source.py``
fails if a per-mnemonic literal table reappears outside this module.

The per-mnemonic reference table in ``docs/ISA.md`` is generated from
this module (``python -m repro.isa.spec``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Tuple, Union

#: The four condition flags, in canonical order.
FLAG_NAMES = ("zf", "sf", "cf", "of")

#: Perf-counter instruction classes (``emu.cycles.<class>`` counters).
#: "external" is synthetic: it accounts import-stub dispatch, never a
#: decoded mnemonic.
PERF_CLASS_NAMES = ("mov", "alu", "branch", "atomic", "fence", "simd",
                    "misc", "external")

#: Operand-kind letters used in shape declarations:
#: R = general-purpose register, V = vector register, I = immediate,
#: M = memory.
OPERAND_KINDS = ("R", "V", "I", "M")

#: A condition expression: either a flag name, or a tuple
#: ``("not", e)`` / ``("and", e1, e2)`` / ``("or", e1, e2)`` /
#: ``("eq", e1, e2)`` / ``("ne", e1, e2)``.
CondExpr = Union[str, tuple]


def cond_source(expr: CondExpr) -> str:
    """Render a condition expression to Python source: a predicate over
    a CPU-like object ``c``.  Every consumer — machine dispatch, engine
    specializer, lifter — derives from the same declarative expression,
    so they agree by construction.
    """
    if isinstance(expr, str):
        if expr not in FLAG_NAMES:
            raise ValueError(f"unknown flag {expr!r}")
        return f"c.{expr}"
    op = expr[0]
    if op == "not":
        return f"(not {cond_source(expr[1])})"
    if op in ("and", "or"):
        return f"({cond_source(expr[1])} {op} {cond_source(expr[2])})"
    if op in ("eq", "ne"):
        cmp = "==" if op == "eq" else "!="
        return f"({cond_source(expr[1])} {cmp} {cond_source(expr[2])})"
    raise ValueError(f"bad condition expression {expr!r}")


def compile_cond(expr: CondExpr) -> Callable:
    """Compile a condition expression to a flat predicate over a CPU
    (or any object with boolean ``zf``/``sf``/``cf``/``of``).

    Compiled through source + ``eval`` so the emulator hot loop pays
    for one flat lambda, not an AST interpreter, per evaluation.
    """
    return eval(f"lambda c: {cond_source(expr)}",  # noqa: S307 - static source
                {"__builtins__": {}})


def cond_flags(expr: CondExpr) -> FrozenSet[str]:
    """The set of flags a condition expression reads."""
    if isinstance(expr, str):
        return frozenset((expr,))
    out = frozenset()
    for sub in expr[1:]:
        out |= cond_flags(sub)
    return out


@dataclass(frozen=True)
class InstrSpec:
    """Everything the code base knows about one VX mnemonic."""

    name: str
    opcode: int
    #: Legal operand-kind tuples, e.g. (("R","R"), ("R","I"), ...).
    shapes: Tuple[Tuple[str, ...], ...]
    #: Operand widths the instruction is meaningful at.
    widths: Tuple[int, ...] = (1, 2, 4, 8)
    #: Flags consumed / produced (produced includes flags cleared).
    flags_read: FrozenSet[str] = frozenset()
    flags_written: FrozenSet[str] = frozenset()
    #: "jmp" | "jcc" | "call" for branches, else None.
    branch_kind: Optional[str] = None
    #: "ret" | "hlt" | "ud2" for non-branch terminators, else None.
    terminator_kind: Optional[str] = None
    #: jCC condition as a declarative expression plus its compiled form.
    cond_expr: Optional[CondExpr] = None
    cond: Optional[Callable] = field(default=None, compare=False)
    #: Fused-compare predicate: the icmp predicate equivalent to this
    #: jCC when the flags came from ``cmp a, b`` (None for js/jns).
    cmp_pred: Optional[str] = None
    #: Value predicate: the icmp-against-zero predicate equivalent to
    #: this jCC when the flags came from an arithmetic result.
    val_pred: Optional[str] = None
    #: May carry a LOCK prefix (atomic read-modify-write).
    lockable: bool = False
    #: Implicitly locked when a memory operand is present (XCHG).
    implicit_lock_mem: bool = False
    #: Dedicated hardware RMW primitive (CMPXCHG/XADD), locked or not —
    #: what mctoll-style static lowerings refuse to translate.
    hw_rmw: bool = False
    #: Per-operand-position memory roles ("r" / "w" / "rw") when a
    #: memory operand appears there; None = no explicit-operand memory
    #: semantics (LEA computes an address but never accesses it).
    mem_roles: Optional[Tuple[str, ...]] = None
    #: Fixed memory access width in bytes; None = the instruction width.
    mem_width: Optional[int] = None
    #: Implicit stack access: "r" (pop/ret), "w" (push/call), or None.
    implicit_stack: Optional[str] = None
    #: Memory fence (serialising, no data access).
    fence: bool = False
    #: Base cycle cost (see emulator/costs.py for the calibration note).
    cost: int = 1
    perf_class: str = "alu"
    simd: bool = False
    #: False for instructions the lifter must refuse (rdtls: TLS-base
    #: reads cannot be expressed in the portable IR).
    liftable: bool = True
    #: IR binop implementing this mnemonic's arithmetic, for the ALU
    #: group shared by the engine specializer and the locked-RMW
    #: translation (None elsewhere).
    alu_op: Optional[str] = None

    # -- derived classification ------------------------------------------

    @property
    def is_branch(self) -> bool:
        return self.branch_kind is not None

    @property
    def is_conditional(self) -> bool:
        return self.branch_kind == "jcc"

    @property
    def is_terminator(self) -> bool:
        return self.branch_kind is not None or self.terminator_kind is not None

    @property
    def arities(self) -> FrozenSet[int]:
        return frozenset(len(shape) for shape in self.shapes)


def _shapes(compact: str) -> Tuple[Tuple[str, ...], ...]:
    """Parse "RR RI MR" into ((("R","R"), ("R","I"), ("M","R"))."""
    if not compact:
        return ((),)
    return tuple(tuple(word) for word in compact.split())


_SPEC_LIST = []

_ALL_FLAGS = frozenset(FLAG_NAMES)
_W1248 = (1, 2, 4, 8)
_W8 = (8,)
_W16 = (16,)


def _spec(name: str, shapes: str, **kwargs) -> None:
    cond_expr = kwargs.get("cond_expr")
    if cond_expr is not None:
        kwargs.setdefault("cond", compile_cond(cond_expr))
        kwargs.setdefault("flags_read", cond_flags(cond_expr))
    _SPEC_LIST.append(InstrSpec(name=name, opcode=len(_SPEC_LIST),
                                shapes=_shapes(shapes), **kwargs))


def _jcc(name: str, cond_expr: CondExpr, cmp_pred: Optional[str],
         val_pred: Optional[str] = None) -> None:
    _spec(name, "I R M", widths=_W8, branch_kind="jcc",
          cond_expr=cond_expr, cmp_pred=cmp_pred, val_pred=val_pred,
          mem_roles=("r",), mem_width=8, perf_class="branch")


# --- the table ---------------------------------------------------------------
# Declaration order IS the opcode numbering (the encoding layer indexes
# MNEMONICS by opcode byte); append only, never reorder.

# data movement
_spec("mov", "RR RI RM MR MI", mem_roles=("w", "r"), perf_class="mov")
_spec("movsx", "RR RM", mem_roles=("w", "r"), perf_class="mov")
_spec("lea", "RM", widths=_W8, perf_class="mov")
_spec("push", "R I M", widths=_W8, mem_roles=("r",), mem_width=8,
      implicit_stack="w", cost=2, perf_class="mov")
_spec("pop", "R M", widths=_W8, mem_roles=("w",), mem_width=8,
      implicit_stack="r", cost=2, perf_class="mov")
_spec("xchg", "RR RM MR", mem_roles=("rw", "rw"), lockable=True,
      implicit_lock_mem=True, cost=2, perf_class="atomic")

# integer arithmetic / logic
_spec("add", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"), lockable=True, alu_op="add")
_spec("sub", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"), lockable=True, alu_op="sub")
_spec("and", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"), lockable=True, alu_op="and")
_spec("or", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"), lockable=True, alu_op="or")
_spec("xor", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"), lockable=True, alu_op="xor")
_spec("shl", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"))
_spec("shr", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"))
_spec("sar", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"))
_spec("imul", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"), cost=3)
_spec("idiv", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"), cost=22)
_spec("irem", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"), cost=22)
_spec("neg", "R M", flags_written=_ALL_FLAGS, mem_roles=("rw",))
_spec("not", "R M", mem_roles=("rw",))
_spec("inc", "R M", flags_written=frozenset(("zf", "sf", "of")),
      mem_roles=("rw",), lockable=True)
_spec("dec", "R M", flags_written=frozenset(("zf", "sf", "of")),
      mem_roles=("rw",), lockable=True)
_spec("cmp", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("r", "r"))
_spec("test", "RR RI RM MR MI", flags_written=_ALL_FLAGS,
      mem_roles=("r", "r"))

# control transfer
_spec("jmp", "I R M", widths=_W8, branch_kind="jmp", mem_roles=("r",),
      mem_width=8, perf_class="branch")
_jcc("je", "zf", "eq", "eq")
_jcc("jne", ("not", "zf"), "ne", "ne")
_jcc("jl", ("ne", "sf", "of"), "slt")
_jcc("jle", ("or", "zf", ("ne", "sf", "of")), "sle")
_jcc("jg", ("and", ("not", "zf"), ("eq", "sf", "of")), "sgt")
_jcc("jge", ("eq", "sf", "of"), "sge")
_jcc("jb", "cf", "ult")
_jcc("jbe", ("or", "cf", "zf"), "ule")
_jcc("ja", ("and", ("not", "cf"), ("not", "zf")), "ugt")
_jcc("jae", ("not", "cf"), "uge")
_jcc("js", "sf", None, "slt")
_jcc("jns", ("not", "sf"), None, "sge")
_spec("call", "I R M", widths=_W8, branch_kind="call", mem_roles=("r",),
      mem_width=8, implicit_stack="w", cost=2, perf_class="branch")
_spec("ret", "", widths=_W8, terminator_kind="ret", implicit_stack="r",
      cost=2, perf_class="branch")

# atomics (combined with the lock prefix) and fences
_spec("cmpxchg", "MR MI RR RI", flags_written=_ALL_FLAGS,
      mem_roles=("rw", "r"), lockable=True, hw_rmw=True, cost=4,
      perf_class="atomic")
_spec("xadd", "MR RR", flags_written=_ALL_FLAGS, mem_roles=("rw", "r"),
      lockable=True, hw_rmw=True, cost=2, perf_class="atomic")
_spec("mfence", "", widths=_W8, fence=True, cost=12, perf_class="fence")

# 128-bit SIMD
_spec("movdq", "VV VM MV", widths=_W16, mem_roles=("w", "r"),
      mem_width=16, simd=True, perf_class="simd")
_spec("paddd", "VV VM", widths=_W16, mem_roles=("rw", "r"),
      mem_width=16, simd=True, perf_class="simd")
_spec("psubd", "VV VM", widths=_W16, mem_roles=("rw", "r"),
      mem_width=16, simd=True, perf_class="simd")
_spec("pmulld", "VV VM", widths=_W16, mem_roles=("rw", "r"),
      mem_width=16, simd=True, cost=2, perf_class="simd")
_spec("pxor", "VV VM", widths=_W16, mem_roles=("rw", "r"),
      mem_width=16, simd=True, perf_class="simd")
_spec("pextrd", "RVI", widths=_W16, mem_roles=("w", "r", "r"),
      mem_width=8, simd=True, cost=2, perf_class="simd")
_spec("pinsrd", "VRI", widths=_W16, mem_roles=("rw", "r", "r"),
      mem_width=4, simd=True, cost=2, perf_class="simd")
_spec("pbroadcastd", "VR VM", widths=_W16, mem_roles=("w", "r"),
      mem_width=4, simd=True, perf_class="simd")

# misc
_spec("nop", "", widths=_W8, perf_class="misc")
_spec("hlt", "", widths=_W8, terminator_kind="hlt", perf_class="misc")
_spec("ud2", "", widths=_W8, terminator_kind="ud2", perf_class="misc")
_spec("rdtls", "R", widths=_W8, liftable=False, perf_class="misc")


#: name -> spec, in opcode order (dicts preserve insertion order).
SPEC: Dict[str, InstrSpec] = {spec.name: spec for spec in _SPEC_LIST}

#: opcode -> spec.
SPEC_BY_OPCODE: Tuple[InstrSpec, ...] = tuple(_SPEC_LIST)


def _validate() -> None:
    """Totality and consistency checks, run once at import."""
    assert len(SPEC) == len(SPEC_BY_OPCODE), "duplicate mnemonic"
    for opcode, spec in enumerate(SPEC_BY_OPCODE):
        ctx = f"spec[{spec.name}]"
        assert spec.opcode == opcode, f"{ctx}: opcode out of order"
        assert spec.cost >= 1, f"{ctx}: cost must be positive"
        assert spec.perf_class in PERF_CLASS_NAMES[:-1], \
            f"{ctx}: unknown perf class {spec.perf_class!r}"
        assert spec.shapes, f"{ctx}: no operand shapes"
        assert len({len(s) for s in spec.shapes}) == 1, \
            f"{ctx}: shapes of mixed arity"
        for shape in spec.shapes:
            assert all(kind in OPERAND_KINDS for kind in shape), \
                f"{ctx}: bad shape {shape!r}"
        assert spec.widths and all(w in (1, 2, 4, 8, 16)
                                   for w in spec.widths), \
            f"{ctx}: bad widths {spec.widths!r}"
        if spec.branch_kind == "jcc":
            assert spec.cond is not None, f"{ctx}: jcc without condition"
        else:
            assert spec.cond is None, f"{ctx}: condition on non-jcc"
        assert not (spec.branch_kind and spec.terminator_kind), \
            f"{ctx}: both branch and terminator kind"
        if spec.mem_roles is not None:
            arity = len(spec.shapes[0])
            assert len(spec.mem_roles) == arity, \
                f"{ctx}: mem_roles arity mismatch"
            assert all(role in ("r", "w", "rw")
                       for role in spec.mem_roles), \
                f"{ctx}: bad mem role"
        assert spec.implicit_stack in (None, "r", "w"), \
            f"{ctx}: bad implicit_stack"
        assert not spec.flags_read - _ALL_FLAGS, f"{ctx}: bad flags_read"
        assert not spec.flags_written - _ALL_FLAGS, \
            f"{ctx}: bad flags_written"


_validate()


# --- documentation generator -------------------------------------------------

def _fmt_flags(flags: FrozenSet[str]) -> str:
    if not flags:
        return "—"
    return " ".join(f.upper() for f in FLAG_NAMES if f in flags)


def _fmt_atomicity(spec: InstrSpec) -> str:
    parts = []
    if spec.lockable:
        parts.append("lockable")
    if spec.implicit_lock_mem:
        parts.append("implicit with mem")
    if spec.hw_rmw:
        parts.append("hw RMW")
    return ", ".join(parts) if parts else "—"


def _fmt_control(spec: InstrSpec) -> str:
    if spec.branch_kind is not None:
        return spec.branch_kind
    if spec.terminator_kind is not None:
        return f"terminator ({spec.terminator_kind})"
    return "—"


def _fmt_memory(spec: InstrSpec) -> str:
    parts = []
    if spec.mem_roles is not None and any(
            "M" in shape for shape in spec.shapes):
        roles = [f"op{i}:{role}" for i, role in enumerate(spec.mem_roles)
                 if any(len(s) > i and s[i] == "M" for s in spec.shapes)]
        parts.append(" ".join(roles))
    if spec.implicit_stack is not None:
        parts.append(f"stack:{spec.implicit_stack}")
    if spec.fence:
        parts.append("fence")
    return "; ".join(parts) if parts else "—"


def render_reference() -> str:
    """The per-mnemonic markdown reference table for docs/ISA.md."""
    lines = [
        "| Op | Mnemonic | Operand shapes | Widths | Flags written | "
        "Flags read | Atomicity | Control | Memory | Cost | Class |",
        "|---:|----------|----------------|--------|---------------|"
        "------------|-----------|---------|--------|-----:|-------|",
    ]
    for spec in SPEC_BY_OPCODE:
        shapes = " ".join("".join(s) if s else "(none)"
                          for s in spec.shapes)
        widths = ",".join(str(w) for w in spec.widths)
        lines.append(
            f"| {spec.opcode} | `{spec.name}` | {shapes} | {widths} | "
            f"{_fmt_flags(spec.flags_written)} | "
            f"{_fmt_flags(spec.flags_read)} | {_fmt_atomicity(spec)} | "
            f"{_fmt_control(spec)} | {_fmt_memory(spec)} | {spec.cost} | "
            f"{spec.perf_class} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":  # pragma: no cover - doc generation helper
    print(render_reference())
