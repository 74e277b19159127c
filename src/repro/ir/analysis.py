"""Analyses over Poly IR functions: CFG orders, dominators, loops, users.

Dominators use the Cooper–Harvey–Kennedy iterative algorithm; natural
loops are derived from back edges.  All results are plain dictionaries —
passes recompute them after mutating the CFG.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from .function import Block, Function
from .instructions import Instruction
from .values import Value


def predecessors(fn: Function) -> Dict[Block, List[Block]]:
    """Map each block to the blocks that branch to it."""
    preds: Dict[Block, List[Block]] = {block: [] for block in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            preds[succ].append(block)
    return preds


def reverse_postorder(fn: Function) -> List[Block]:
    """Blocks in reverse postorder from the entry (dominators converge fast)."""
    seen: Set[Block] = set()
    order: List[Block] = []

    def visit(block: Block) -> None:
        """DFS helper for the postorder walk."""
        stack = [(block, iter(block.successors()))]
        seen.add(block)
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    if fn.blocks:
        visit(fn.entry)
    order.reverse()
    return order


def reachable_blocks(fn: Function) -> Set[Block]:
    """The set of blocks reachable from the entry."""
    return set(reverse_postorder(fn))


def dominators(fn: Function) -> Dict[Block, Optional[Block]]:
    """Immediate dominators (entry maps to None)."""
    order = reverse_postorder(fn)
    index = {block: i for i, block in enumerate(order)}
    preds = predecessors(fn)
    idom: Dict[Block, Optional[Block]] = {block: None for block in order}
    entry = fn.entry
    idom[entry] = entry
    changed = True
    while changed:
        changed = False
        for block in order:
            if block is entry:
                continue
            new_idom = None
            for pred in preds[block]:
                if pred not in index or idom.get(pred) is None:
                    continue
                if new_idom is None:
                    new_idom = pred
                else:
                    new_idom = _intersect(pred, new_idom, idom, index)
            if new_idom is not None and idom[block] is not new_idom:
                idom[block] = new_idom
                changed = True
    idom[entry] = None
    return idom


def _intersect(a: Block, b: Block, idom, index) -> Block:
    while a is not b:
        while index[a] > index[b]:
            a = idom[a]
        while index[b] > index[a]:
            b = idom[b]
    return a


def dominance_frontiers(fn: Function) -> Dict[Block, Set[Block]]:
    """Cytron-style dominance frontiers, used for phi placement."""
    idom = dominators(fn)
    preds = predecessors(fn)
    frontiers: Dict[Block, Set[Block]] = {block: set() for block in fn.blocks}
    for block in fn.blocks:
        if block not in idom:
            continue
        if len(preds[block]) >= 2:
            for pred in preds[block]:
                runner = pred
                while runner is not None and runner is not idom[block]:
                    frontiers.setdefault(runner, set()).add(block)
                    runner = idom.get(runner)
    return frontiers


def dominates(a: Block, b: Block, idom: Dict[Block, Optional[Block]]) -> bool:
    """Does block ``a`` dominate block ``b``?"""
    runner: Optional[Block] = b
    while runner is not None:
        if runner is a:
            return True
        runner = idom.get(runner)
    return False


class Loop:
    """A natural loop: header + body blocks + exits.

    ``blocks`` is kept as a set-like view in *function order* (layout
    order of the parent function).  Plain ``Set[Block]`` iteration
    follows object identity hashes, which vary between processes; loop
    transforms (LICM, scalar promotion) visit ``loop.blocks`` and the
    recompiler promises bit-identical output for identical inputs, so
    the iteration order must be deterministic.
    """

    def __init__(self, header: Block, blocks: Set[Block]) -> None:
        self.header = header
        fn = header.parent
        if fn is not None:
            position = {block: i for i, block in enumerate(fn.blocks)}
            ordered = sorted(blocks,
                             key=lambda b: position.get(b, len(position)))
        else:       # synthetic loops in tests: fall back to names
            ordered = sorted(blocks, key=lambda b: b.name)
        # dict keys preserve order and behave as a read-only set
        # (membership, len, iteration, set algebra).
        self.blocks = dict.fromkeys(ordered).keys()

    def exit_edges(self) -> List[Tuple[Block, Block]]:
        """Edges leaving the loop: (inside block, outside successor) pairs."""
        edges = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks:
                    edges.append((block, succ))
        return edges

    def exiting_blocks(self) -> List[Block]:
        """Loop blocks with at least one successor outside the loop."""
        return sorted({src for src, _ in self.exit_edges()},
                      key=lambda b: b.name)

    def latches(self, preds: Dict[Block, List[Block]]) -> List[Block]:
        """Loop blocks that branch back to the header."""
        return [p for p in preds[self.header] if p in self.blocks]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<loop header={self.header.name} size={len(self.blocks)}>"


def natural_loops(fn: Function) -> List[Loop]:
    """Find natural loops via back edges (target dominates source).

    Back edges sharing a header are merged into one loop, as LLVM's
    LoopInfo does.
    """
    idom = dominators(fn)
    preds = predecessors(fn)
    loops: Dict[Block, Set[Block]] = {}
    reachable = set(reverse_postorder(fn))
    for block in fn.blocks:
        if block not in reachable:
            continue
        for succ in block.successors():
            if dominates(succ, block, idom):
                # back edge block -> succ; collect body
                body = loops.setdefault(succ, {succ})
                stack = [block]
                while stack:
                    node = stack.pop()
                    if node in body:
                        continue
                    body.add(node)
                    stack.extend(p for p in preds[node] if p in reachable)
    return [Loop(header, body) for header, body in loops.items()]


def back_edge_loops(fn: Function) -> List[Loop]:
    """One loop per *back edge* (no same-header merging).

    A loop merged from several back edges can hide a spinning inner
    cycle behind a well-behaved outer exit, so termination analyses
    must consider each cycle separately.
    """
    idom = dominators(fn)
    preds = predecessors(fn)
    reachable = set(reverse_postorder(fn))
    loops: List[Loop] = []
    for block in fn.blocks:
        if block not in reachable:
            continue
        for succ in block.successors():
            if dominates(succ, block, idom):
                body: Set[Block] = {succ}
                stack = [block]
                while stack:
                    node = stack.pop()
                    if node in body:
                        continue
                    body.add(node)
                    stack.extend(p for p in preds[node] if p in reachable)
                loops.append(Loop(succ, body))
    return loops


def users_map(fn: Function) -> Dict[Value, List[Instruction]]:
    """Def-use map: value -> instructions using it."""
    users: Dict[Value, List[Instruction]] = {}
    for instr in fn.instructions():
        for op in instr.operands:
            users.setdefault(op, []).append(instr)
    return users


def resolve(replacements: Mapping[Value, Value], value: Value) -> Value:
    """Follow ``value`` through a replacement chain to its final value.

    A cycle stops the walk at the first value seen twice (the point
    where the chain enters the cycle), so a value on a cycle resolves
    to itself.
    """
    seen: Set[int] = set()
    while value in replacements and id(value) not in seen:
        seen.add(id(value))
        value = replacements[value]
    return value


def resolve_operands(instr: Instruction,
                     replacements: Mapping[Value, Value]) -> None:
    """Rewrite one instruction's operands through ``replacements``."""
    operands = instr.operands
    for i, op in enumerate(operands):
        if op in replacements:
            operands[i] = resolve(replacements, op)


def _resolve_keys(replacements: Mapping[Value, Value]) -> Dict[int, Value]:
    """``resolve`` of every key, in time linear in the map: each walk
    stops at a key already resolved and shares its answer."""
    final: Dict[int, Value] = {}
    for start in replacements:
        if id(start) in final:
            continue
        path: List[Value] = []
        position: Dict[int, int] = {}
        node = start
        while node in replacements and id(node) not in final \
                and id(node) not in position:
            position[id(node)] = len(path)
            path.append(node)
            node = replacements[node]
        if id(node) in final:
            target = final[id(node)]
            cycle_at = len(path)
        elif id(node) in position:
            # The chain enters a cycle at ``node``: the tail resolves
            # to it, every value on the cycle to itself.
            target = node
            cycle_at = position[id(node)]
        else:
            target = node
            cycle_at = len(path)
        for index, key in enumerate(path):
            final[id(key)] = target if index < cycle_at else key
    return final


def replace_uses(fn: Function, replacements: Mapping[Value, Value]) -> int:
    """Rewrite every operand of ``fn`` through ``replacements`` in one scan.

    Keys are instructions; each operand becomes ``resolve(replacements,
    op)``, so a chain ``a -> b -> c`` sends uses of ``a`` and ``b`` to
    ``c``.  Returns the number of operands rewritten.
    """
    if not replacements:
        return 0
    lookup = _resolve_keys(replacements).get
    count = 0
    for block in fn.blocks:
        for instr in block.instructions:
            operands = instr.operands
            for i, op in enumerate(operands):
                new = lookup(id(op))
                if new is not None and new is not op:
                    operands[i] = new
                    count += 1
    return count


def replace_all_uses(fn: Function, old: Value, new: Value) -> int:
    """Rewrite every use of ``old`` to ``new``; returns the use count."""
    return replace_uses(fn, {old: new})
