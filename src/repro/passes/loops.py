"""Loop passes: canonicalisation, LICM and profile-gated unrolling.

LoopSimplify is also a prerequisite of the spinloop detector (§3.4.2):
"we perform the LLVM-provided loop simplification pass to restructure
loops such that they have dedicated exit blocks", enabling precise
analysis of their termination conditions.
"""

from __future__ import annotations

import copy

from typing import Dict, List

from ..ir import (AtomicRMW, BinOp, Block, Br, Call, Cast, Cmpxchg,
                  CompilerBarrier, CondBr, Fence, Function, ICmp, Instruction,
                  Load, Loop, Module, Phi, Select, Store, natural_loops,
                  predecessors, users_map)
from .manager import Pass


class LoopSimplify(Pass):
    """Give every natural loop a dedicated preheader and normal form."""
    name = "loopsimplify"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Insert preheaders where missing; returns True on change."""
        changed = False
        # Recompute loops after each structural change.
        progress = True
        while progress:
            progress = False
            preds = predecessors(fn)
            for loop in natural_loops(fn):
                if self._ensure_preheader(fn, loop, preds):
                    progress = True
                    changed = True
                    break
                if self._ensure_dedicated_exits(fn, loop, preds):
                    progress = True
                    changed = True
                    break
        return changed

    def _ensure_preheader(self, fn: Function, loop: Loop,
                          preds: Dict[Block, List[Block]]) -> bool:
        header = loop.header
        outside = [p for p in preds[header] if p not in loop.blocks]
        if len(outside) == 1 and len(outside[0].successors()) == 1:
            return False    # already has a dedicated preheader
        if not outside:
            return False    # unreachable loop; leave for simplifycfg
        index = fn.blocks.index(header)
        preheader = fn.add_block(f"{header.name}.preheader", index=index)
        # Split header phis between outside and latch edges.
        for phi in header.phis():
            outside_pairs = [(v, b) for v, b in phi.incoming()
                             if b in outside]
            for _, b in outside_pairs:
                phi.remove_incoming(b)
            if len(outside_pairs) == 1:
                merged = outside_pairs[0][0]
            else:
                pre_phi = Phi(phi.type, name=f"{phi.name}.pre")
                for v, b in outside_pairs:
                    pre_phi.add_incoming(v, b)
                preheader.insert(0, pre_phi)
                merged = pre_phi
            phi.add_incoming(merged, preheader)
        preheader.append(Br(header))
        for pred in outside:
            pred.terminator.replace_successor(header, preheader)
        return True

    def _ensure_dedicated_exits(self, fn: Function, loop: Loop,
                                preds: Dict[Block, List[Block]]) -> bool:
        for src, exit_block in loop.exit_edges():
            outside_preds = [p for p in preds[exit_block]
                             if p not in loop.blocks]
            if not outside_preds:
                continue
            # Exit block also reachable from outside the loop: give the
            # loop its own landing block.
            index = fn.blocks.index(exit_block)
            landing = fn.add_block(f"{exit_block.name}.loopexit", index=index)
            landing.append(Br(exit_block))
            inside_preds = [p for p in preds[exit_block]
                            if p in loop.blocks]
            for phi in exit_block.phis():
                landing_phi = Phi(phi.type, name=f"{phi.name}.le")
                for pred in inside_preds:
                    value = phi.incoming_for(pred)
                    landing_phi.add_incoming(value, pred)
                    phi.remove_incoming(pred)
                landing.insert(0, landing_phi)
                phi.add_incoming(landing_phi, landing)
            for pred in inside_preds:
                pred.terminator.replace_successor(exit_block, landing)
            return True
        return False


class LICM(Pass):
    """Hoists loop-invariant pure computations into the preheader.

    Loads are hoisted only when the loop body is entirely free of
    stores, fences, atomics and calls — matching an optimiser that must
    treat lifted memory opaquely.  Consequently fences pin loads inside
    loops, and their removal unlocks this transformation.
    """

    name = "licm"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Hoist loop-invariant pure instructions into the preheader."""
        changed = False
        preds = predecessors(fn)
        for loop in natural_loops(fn):
            outside = [p for p in preds[loop.header]
                       if p not in loop.blocks]
            if len(outside) != 1 or len(outside[0].successors()) != 1:
                continue        # requires LoopSimplify first
            preheader = outside[0]
            has_barrier = any(
                isinstance(i, (Store, Fence, CompilerBarrier, Call,
                               Cmpxchg, AtomicRMW))
                for block in loop.blocks for i in block.instructions)

            def defined_in_loop(value) -> bool:
                return (isinstance(value, Instruction)
                        and value.parent in loop.blocks)

            hoisted = True
            while hoisted:
                hoisted = False
                for block in list(loop.blocks):
                    for instr in list(block.instructions):
                        if isinstance(instr, (BinOp, ICmp, Cast, Select)):
                            movable = not any(defined_in_loop(op)
                                              for op in instr.operands)
                        elif isinstance(instr, Load) and not has_barrier \
                                and instr.ordering is None:
                            movable = not defined_in_loop(instr.addr)
                        else:
                            continue
                        if movable:
                            block.remove(instr)
                            preheader.insert(
                                len(preheader.instructions) - 1, instr)
                            hoisted = True
                            changed = True
        return changed


#: Instruction kinds a loop body may contain and still be unrolled.
#: Fences and barriers are fine — unrolling replays the per-iteration
#: instruction sequence verbatim, so every iteration still executes
#: exactly the fences it did before (contrast LICM, which *moves*
#: them).  Calls and atomics disqualify the loop: their cost dwarfs
#: the back-edge overhead the unroll removes, so the wager is bad.
_UNROLLABLE_BODY = (BinOp, ICmp, Cast, Select, Load, Store, Phi,
                    Fence, CompilerBarrier)


class LoopUnroll(Pass):
    """Profile-gated unrolling of hot one- and two-block loops.

    Handles the two canonical shapes the lifter + SimplifyCFG leave
    behind: a rotated do-while (single block, conditional back edge)
    and a test-at-top while loop (header tests and exits, a dedicated
    latch does the work and jumps back).

    Without a profile this pass is a strict no-op — unrolling is the
    one transform here that is a pure wager on trip counts, and the
    measured ``loop_trips`` summaries are what make the wager safe: a
    loop is unrolled only when it is hot and its average trip count
    comfortably exceeds the factor.  The win under the emulated cost
    model is structural, not speculative: ``factor - 1`` of every
    ``factor`` iterations stop paying the back-edge jump and the
    header-phi copy movs, because intermediate copies pass their
    loop-carried values in SSA registers and fall through.  Every copy
    keeps the original exit test, so a trip count that is not a
    multiple of the factor still exits on the exact same iteration.
    """

    name = "loopunroll"

    def __init__(self, profile=None, factor: int = 4, min_trip: int = 8,
                 max_body: int = 64, select=None) -> None:
        self.profile = profile          # a ProfileGuide
        self.factor = factor
        self.min_trip = min_trip
        self.max_body = max_body
        #: Optional ``{(fn_name, header_name): factor}`` whitelist.  Set
        #: by the cost-model trial driver
        #: (:class:`repro.profile.costmodel.CostGuidedUnroll`) to apply
        #: only the unrolls its lowering trials proved beneficial, each
        #: at its winning factor.
        self.select = select

    def run_function(self, fn: Function, module: Module) -> bool:
        """Unroll eligible hot loops of ``fn``; True on change."""
        if self.profile is None:
            return False
        changed = False
        # Snapshot: unrolling adds blocks, but never creates new
        # small natural loops, so one sweep suffices.
        for loop in natural_loops(fn):
            if self.select is not None:
                factor = self.select.get((fn.name, loop.header.name), 0)
            else:
                factor = self.factor
            if factor < 2:
                continue
            if self._unroll(fn, loop, factor):
                changed = True
        return changed

    def _candidate(self, fn: Function, loop: Loop):
        """(header, latch, exit, term) when unrollable, else None.

        ``latch`` is the block carrying the back edge — the header
        itself for a rotated single-block loop.
        """
        header = loop.header
        blocks = list(loop.blocks)
        if len(blocks) == 1:
            latch = header
        elif len(blocks) == 2:
            latch = blocks[0] if blocks[1] is header else blocks[1]
            # Test-at-top form only: the latch does the work and
            # unconditionally returns to the header.
            if not isinstance(latch.terminator, Br) or \
                    latch.terminator.target is not header:
                return None
            if latch.phis():
                return None
        else:
            return None             # bigger bodies: not worth the
        term = header.terminator    # clone complexity here
        if not isinstance(term, CondBr) or term.if_true is term.if_false:
            return None
        back = header if latch is header else latch
        if term.if_true is back:
            exit_block = term.if_false
        elif term.if_false is back:
            exit_block = term.if_true
        else:
            return None
        if exit_block in loop.blocks:
            return None
        # The exit must be reachable from the header alone, so every
        # escaping value can be funnelled through an exit phi keyed on
        # the (multiplied) header edge.  LoopSimplify's dedicated exits
        # give hot loops this shape.
        preds = predecessors(fn)
        if set(preds.get(exit_block, ())) != {header}:
            return None
        addr = header.origin_addr
        # A loop qualifies when hot by the mean threshold, or when a
        # skewed profile hides real weight below the mean (one mega-hot
        # sibling loop drags the mean over everything else).
        if not (self.profile.is_hot(addr)
                or self.profile.weight_fraction(addr) >= 0.01):
            return None
        if self.profile.avg_trip(addr) < self.min_trip:
            return None
        body = [i for b in blocks for i in b.instructions
                if not isinstance(i, Phi)]
        if len(body) > self.max_body:
            return None
        if not all(isinstance(i, _UNROLLABLE_BODY) for i in body
                   if i is not term and i is not latch.terminator):
            return None
        if latch is not header and not self._latch_values_stay_inside(
                fn, loop, latch):
            return None
        return header, latch, exit_block, term

    @staticmethod
    def _latch_values_stay_inside(fn: Function, loop: Loop,
                                  latch: Block) -> bool:
        """Latch-defined values must not escape the loop.  The only
        exit edge leaves the *header*, before the latch of the current
        iteration runs, so an outside use of a latch value is already
        dubious SSA — and the unroller has no edge to route it over."""
        users = users_map(fn)
        for instr in latch.instructions:
            for user in users.get(instr, ()):
                if user.parent not in loop.blocks:
                    return False
        return True

    @staticmethod
    def _insert_exit_phis(fn: Function, loop: Loop, header: Block,
                          exit_block: Block) -> None:
        """Put the loop into LCSSA form along its single exit edge.

        Every header-defined value used outside the loop gets a
        dedicated phi in the exit block (incoming over the header
        edge), and the outside users are rewired to it.  Unrolling then
        only needs to extend *exit phis* per copy; direct dominance
        uses — which would silently keep reading the original header's
        value for iterations that exited from a clone — no longer
        exist."""
        users = users_map(fn)
        for instr in list(header.instructions):
            if instr is header.terminator:
                continue
            rewire = []
            for user in users.get(instr, ()):
                if user.parent in loop.blocks:
                    continue
                if isinstance(user, Phi) and user.parent is exit_block:
                    continue        # already a retargetable exit phi
                rewire.append(user)
            if not rewire:
                continue
            lcssa = Phi(instr.type, name=f"{instr.name}.lcssa")
            lcssa.add_incoming(instr, header)
            exit_block.insert(0, lcssa)
            for user in rewire:
                for i, op in enumerate(user.operands):
                    if op is instr:
                        user.operands[i] = lcssa

    def _unroll(self, fn: Function, loop: Loop, factor: int) -> bool:
        candidate = self._candidate(fn, loop)
        if candidate is None:
            return False
        header, latch, exit_block, term = candidate
        self._insert_exit_phis(fn, loop, header, exit_block)

        phis = header.phis()
        latch_val = {phi: phi.incoming_for(latch) for phi in phis}
        exit_phi_vals = [(phi, phi.incoming_for(header))
                         for phi in exit_block.phis()
                         if header in phi.incoming_blocks]

        def clone_instrs(src: Block, dst: Block, vmap: Dict, k: int):
            """Copy ``src``'s non-phi, non-terminator instructions."""
            for instr in src.instructions:
                if isinstance(instr, Phi) or instr is src.terminator:
                    continue
                new_instr = copy.copy(instr)
                new_instr.operands = [vmap.get(op, op)
                                      for op in instr.operands]
                new_instr.tags = set(instr.tags)
                new_instr.name = f"{instr.name}.u{k}"
                vmap[instr] = new_instr
                dst.append(new_instr)

        prev = latch
        # carry: header phi -> its value at the end of the previous copy.
        carry = dict(latch_val)
        for k in range(1, factor):
            index = fn.blocks.index(prev) + 1
            h_clone = fn.add_block(f"{header.name}.unroll{k}", index=index)
            h_clone.origin_addr = header.origin_addr
            vmap: Dict[Instruction, object] = dict(carry)
            clone_instrs(header, h_clone, vmap, k)
            if latch is header:
                # Rotated form: the conditional back edge lives in the
                # clone itself.  Both successor slots still name
                # (header, exit); the back-edge slot is retargeted to
                # the *next* copy when it is created, leaving the final
                # copy as the real latch.
                new_term = CondBr(vmap.get(term.cond, term.cond),
                                  term.if_true, term.if_false)
                h_clone.append(new_term)
                new_latch = h_clone
            else:
                l_clone = fn.add_block(f"{latch.name}.unroll{k}",
                                       index=index + 1)
                l_clone.origin_addr = latch.origin_addr
                new_term = CondBr(vmap.get(term.cond, term.cond),
                                  term.if_true, term.if_false)
                new_term.replace_successor(latch, l_clone)
                h_clone.append(new_term)
                clone_instrs(latch, l_clone, vmap, k)
                l_clone.append(Br(header))
                new_latch = l_clone
            prev.terminator.replace_successor(header, h_clone)
            for phi, value in exit_phi_vals:
                phi.add_incoming(vmap.get(value, value), h_clone)
            carry = {phi: vmap.get(latch_val[phi], latch_val[phi])
                     for phi in phis}
            prev = new_latch

        # The back edge now leaves the last copy: header phis take their
        # loop-carried values from it.
        for phi in phis:
            phi.remove_incoming(latch)
            phi.add_incoming(carry[phi], prev)
        self.profile.count("loops_unrolled")
        return True
