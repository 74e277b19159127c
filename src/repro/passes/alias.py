"""Lightweight alias analysis for lifted memory accesses.

Addresses are canonicalised to ``(kind, root, offset)`` by chasing
constant add/sub chains:

* ``("const", None, a)`` — absolute address ``a`` (original data);
* ``("global", id(var), o)`` — offset into a module global (virtual
  CPU state, runtime data);
* ``("sym", id(value), o)`` — offset from an arbitrary SSA value.

Disambiguation rules (each grounded in a system invariant):

* same root, disjoint ``[offset, offset+width)`` ranges → no alias;
* distinct globals → no alias (distinct storage, accesses in bounds);
* a global vs anything else → no alias (virtual registers are never
  accessed indirectly — the paper's §3.3.1 argument);
* an ``emustack``-tagged access vs an untagged one → no alias (the
  emulated stack is thread-exclusive and disjoint from program data —
  the same reasoning Lasagne uses to drop stack fences);
* otherwise → may alias.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ..ir import BinOp, ConstantInt, GlobalVar, Instruction, Value, resolve

AddrKey = Tuple[str, Optional[int], int]


def symbolic_addr(addr: Value,
                  replaced: Optional[Mapping[Value, Value]] = None) -> AddrKey:
    """Canonicalise an address to (root value, constant offset).

    ``replaced`` holds pending use replacements (see
    :func:`repro.ir.replace_uses`) that the chase reads operands through.
    """
    offset = 0
    node = addr
    for _ in range(64):     # bounded chase
        if isinstance(node, BinOp) and node.op in ("add", "sub"):
            a, b = node.operands
            if replaced:
                a, b = resolve(replaced, a), resolve(replaced, b)
            if isinstance(b, ConstantInt):
                offset += b.value if node.op == "add" else -b.value
                node = a
                continue
            if node.op == "add" and isinstance(a, ConstantInt):
                offset += a.value
                node = b
                continue
        break
    if isinstance(node, ConstantInt):
        return ("const", None, node.value + offset)
    if isinstance(node, GlobalVar):
        return ("global", id(node), offset)
    return ("sym", id(node), offset)


def _ranges_overlap(a_off: int, a_width: int, b_off: int,
                    b_width: int) -> bool:
    return a_off < b_off + b_width and b_off < a_off + a_width


def may_alias(a_key: AddrKey, a_width: int, a_stack: bool,
              b_key: AddrKey, b_width: int, b_stack: bool) -> bool:
    """Conservative overlap test between two canonicalised accesses."""
    a_kind, a_root, a_off = a_key
    b_kind, b_root, b_off = b_key
    if a_kind == b_kind and a_root == b_root:
        return _ranges_overlap(a_off, a_width, b_off, b_width)
    if a_kind == "global" or b_kind == "global":
        # Distinct globals never alias, and globals (virtual state,
        # runtime data) are never the target of computed program
        # pointers.
        return False
    if a_stack != b_stack and (a_kind == "const" or b_kind == "const"):
        # A stack access never aliases original *data-section* memory
        # (constant addresses): the emulated stack is runtime-allocated.
        # An untagged *symbolic* address, however, may well point into
        # the stack (e.g. a frame address that travelled through
        # memory), so sym-vs-sym with differing tags must stay MAY.
        return False
    return True


def access_is_stack(instr: Instruction) -> bool:
    """True if the access is tagged as emulated-stack traffic."""
    return "emustack" in instr.tags


def same_location(a_key: AddrKey, a_width: int,
                  b_key: AddrKey, b_width: int) -> bool:
    """True only when both accesses are provably the same bytes."""
    return a_key == b_key and a_width == b_width
