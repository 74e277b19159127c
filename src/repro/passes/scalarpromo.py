"""Loop scalar promotion (LLVM's LICM promoteLoopAccessesToScalars).

O0-compiled code round-trips every local through its stack slot on
every loop iteration.  Block-local load/store elimination cannot remove
the loop-carried traffic; promotion can: when every access to a
location inside a loop is a plain (non-atomic) load/store to the *same*
symbolic address, nothing else in the loop may alias it, and the loop
contains no barriers, the location is promoted to an SSA value — a
preheader load, a header phi, and write-backs on the exit edges.

Safety arguments, mirroring the paper's:

* the promoted locations are emulated-stack slots (or IR globals),
  which are **thread-exclusive** — no other thread can observe the
  deferred stores (§3.3.4's stack-exclusivity);
* speculative preheader loads are safe: the emulated stack and the
  virtual-state globals are always mapped;
* barriers (fences/calls/atomics) in the loop veto promotion, so the
  pass stays fence-gated exactly like the other memory optimisations —
  this is a large part of what the §3.4 fence removal "unlocks".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir import (AtomicRMW, Block, Call, Cmpxchg, CompilerBarrier,
                  ConstantInt, Fence, Function, GlobalVar, Instruction, Load,
                  Loop, Module, Phi, Store, natural_loops, predecessors,
                  replace_all_uses)
from .alias import AddrKey, access_is_stack, may_alias, symbolic_addr
from .manager import Pass


class ScalarPromotion(Pass):
    """Keep a loop-invariant thread-exclusive location in a register across a loop (load before, phi inside, store after)."""
    name = "scalar-promotion"

    def run_function(self, fn: Function, module: Module) -> bool:
        """Promote eligible locations in each natural loop."""
        changed = False
        # Innermost-first: natural_loops returns arbitrary order; sort
        # by body size so small (inner) loops promote first.
        for loop in sorted(natural_loops(fn), key=lambda l: len(l.blocks)):
            changed |= self._promote_loop(fn, loop)
        return changed

    # -- per-loop -----------------------------------------------------------

    def _promote_loop(self, fn: Function, loop: Loop) -> bool:
        preds = predecessors(fn)
        outside = [p for p in preds[loop.header] if p not in loop.blocks]
        if len(outside) != 1 or len(outside[0].successors()) != 1:
            return False        # needs LoopSimplify's preheader
        preheader = outside[0]
        exits = loop.exit_edges()
        if not exits:
            return False
        # Dedicated exits required so the write-back runs only when the
        # loop actually executed.
        exit_blocks = {dst for _src, dst in exits}
        for dst in exit_blocks:
            if any(p not in loop.blocks for p in preds[dst]):
                return False

        candidates = self._candidates(loop)
        if not candidates:
            return False

        changed = False
        for key, accesses in candidates.items():
            changed |= self._promote_location(fn, loop, preheader,
                                              exit_blocks, key, accesses)
        return changed

    # -- candidate discovery -----------------------------------------------------

    def _candidates(self, loop: Loop):
        """Locations safe to promote: same symbolic address for every
        access, address computable at the preheader, no barriers in the
        loop, and no other access may-aliasing the location."""
        barriers = False
        accesses: Dict[AddrKey, List[Instruction]] = {}
        all_accesses: List[Instruction] = []
        for block in loop.blocks:
            for instr in block.instructions:
                if isinstance(instr, (Fence, CompilerBarrier, Call,
                                      Cmpxchg, AtomicRMW)):
                    barriers = True
                    break
                if isinstance(instr, Load):
                    if instr.ordering is not None:
                        barriers = True
                        break
                    all_accesses.append(instr)
                elif isinstance(instr, Store):
                    if instr.ordering is not None:
                        barriers = True
                        break
                    all_accesses.append(instr)
            if barriers:
                break
        if barriers:
            return {}

        for instr in all_accesses:
            key = symbolic_addr(instr.addr)
            accesses.setdefault((key, instr.width), []).append(instr)

        result = {}
        for (key, width), group in accesses.items():
            kind, root, _offset = key
            # Only thread-exclusive storage: emulated-stack slots and
            # module globals (virtual state is per-thread by design).
            if not (kind == "global"
                    or all(access_is_stack(i) for i in group)):
                continue
            # Uniform width, and an address value usable from the
            # preheader.
            if any(i.width != width for i in group):
                continue
            addr_value = self._preheader_addr(loop, group)
            if addr_value is None:
                continue
            # No *other* access in the loop may alias this location.
            stack = access_is_stack(group[0])
            clean = True
            for other in all_accesses:
                if other in group:
                    continue
                other_key = symbolic_addr(other.addr)
                if may_alias(key, width, stack, other_key, other.width,
                             access_is_stack(other)):
                    clean = False
                    break
            if clean:
                result[(key, width, addr_value)] = group
        return result

    @staticmethod
    def _preheader_addr(loop: Loop, group) -> Optional[object]:
        """An address operand whose definition dominates the preheader
        (constants/globals always; instructions defined outside)."""
        for instr in group:
            addr = instr.addr
            if isinstance(addr, (ConstantInt, GlobalVar)):
                return addr
            if isinstance(addr, Instruction) and \
                    addr.parent not in loop.blocks:
                return addr
        return None

    # -- the transformation ----------------------------------------------------------

    def _promote_location(self, fn: Function, loop: Loop, preheader: Block,
                          exit_blocks: Set[Block], key_info,
                          accesses) -> bool:
        _key, width, addr_value = key_info
        loads = [i for i in accesses if isinstance(i, Load)]
        stores = [i for i in accesses if isinstance(i, Store)]
        if not loads and not stores:
            return False
        if not stores:
            # Read-only location: a plain preheader load suffices.
            init = Load(addr_value, width, name="promo.ro")
            init.tags |= set(loads[0].tags)
            preheader.insert(len(preheader.instructions) - 1, init)
            for load in loads:
                replace_all_uses(fn, load, init)
                load.parent.remove(load)
            return True

        # General case: preheader load + per-block SSA renaming of the
        # location, phis at the header and at join points inside the
        # loop, write-back in every dedicated exit block.
        init = Load(addr_value, width, name="promo.in")
        init.tags |= set(accesses[0].tags)
        preheader.insert(len(preheader.instructions) - 1, init)

        preds = predecessors(fn)
        current: Dict[Block, object] = {}
        # Place a phi in every loop block with multiple predecessors
        # (pruned placement is an optimisation; full placement inside
        # the loop is simpler and DCE cleans the rest).
        phis: Dict[Block, Phi] = {}
        for block in loop.blocks:
            if len(preds[block]) > 1:
                phi = Phi(loads[0].type if loads else stores[0].value.type,
                          name="promo.phi")
                block.insert(0, phi)
                phis[block] = phi

        # Rewrite accesses in reverse postorder restricted to the loop,
        # so every forward predecessor is final before its successors
        # (back edges always target phi-carrying blocks).
        from ..ir import reverse_postorder
        order = [b for b in reverse_postorder(fn) if b in loop.blocks]

        for block in order:
            if block in phis:
                value = phis[block]
            else:
                inside = [p for p in preds[block] if p in loop.blocks]
                value = current.get(inside[0], init) if inside else init
            for instr in list(block.instructions):
                if instr in accesses:
                    if isinstance(instr, Load):
                        replace_all_uses(fn, instr, value)
                        block.remove(instr)
                    else:
                        value = instr.value
                        block.remove(instr)
            current[block] = value

        # Wire phi incomings.
        for block, phi in phis.items():
            for pred in preds[block]:
                if pred in loop.blocks:
                    phi.add_incoming(current.get(pred, init), pred)
                else:
                    phi.add_incoming(init, pred)

        # Write-backs on the dedicated exits.
        for exit_block in exit_blocks:
            inside = [p for p in preds[exit_block] if p in loop.blocks]
            if len(inside) == 1:
                outgoing = current.get(inside[0], init)
            else:
                phi = Phi(init.type, name="promo.out")
                for pred in inside:
                    phi.add_incoming(current.get(pred, init), pred)
                exit_block.insert(0, phi)
                outgoing = phi
            store = Store(outgoing, addr_value, width)
            store.tags |= set(accesses[0].tags)
            exit_block.insert(exit_block.non_phi_index(), store)
        return True
