"""Promotion of virtual CPU state globals to SSA values (§3.3.2, §3.4.2).

Lifted code models registers and flags as thread-local globals, making
every machine instruction a cluster of global loads and stores.  Since
no other thread can write a thread's virtual registers (they are never
accessed indirectly), their accesses can be promoted to SSA *within a
function*, with spills to the real global at the boundaries where other
lifted code observes them.

Which boundaries need which globals is decided by a conservative
version of the Elwazeer et al. prototype-recovery algorithm, as in the
paper: every lifted function gets an **input** set (state globals it
may read before writing, transitively through callees) and an
**output** set (state globals it may write).  Around an internal call,
the caller spills the callee's inputs and reloads the callee's outputs;
at returns, a function stores back its own outputs.  External library
calls need no glue at all — argument marshalling is explicit in the IR
(the translator loads the virtual argument registers into the call) and
the library touches no virtual state.

Implementation: each promotable global is demoted to a function-local
alloca (init load for inputs at entry, targeted spill/reload around
calls, output stores before returns) after which :class:`Mem2Reg`
performs the actual SSA construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir import (Alloca, Block, Call, Function, GlobalVar, Instruction,
                  Load, Module, Ret, Store)
from .manager import Pass
from .mem2reg import Mem2Reg


def _is_glue(instr: Instruction) -> bool:
    return "rp-glue" in instr.tags


class StateSummaries:
    """Per-function input/output sets over promotable globals.

    ``observed`` filters outputs down to globals some caller actually
    reads after a call before overwriting (plus the virtual rax, which
    the callback wrapper reads).  Compiled code never keeps condition
    flags live across a call, so this is what lets the flag-computation
    chains die: a function whose flag writes are never observed does
    not store them back at returns.
    """

    def __init__(self, inputs: Dict[Function, Set[GlobalVar]],
                 outputs: Dict[Function, Set[GlobalVar]],
                 observed: Set[GlobalVar]) -> None:
        self.inputs = inputs
        self.outputs = outputs
        self.observed = observed

    def call_inputs(self, call: Call) -> Set[GlobalVar]:
        """Inputs of the callee (external calls have no virtual-state
        footprint: their argument marshalling is explicit IR)."""
        if call.is_external:
            return set()
        return self.inputs.get(call.callee, set())

    def call_outputs(self, call: Call) -> Set[GlobalVar]:
        """Virtual-state globals a call may redefine (its summary outputs)."""
        if call.is_external:
            return set()
        return self.outputs.get(call.callee, set()) & self.observed

    def stored_outputs(self, fn: Function) -> Set[GlobalVar]:
        """Virtual-state globals a function itself stores."""
        return self.outputs.get(fn, set()) & self.observed


def compute_state_summaries(module: Module) -> StateSummaries:
    """Fixpoint computation of may-read-before-write (inputs) and
    may-write (outputs) over the lifted call graph, then of the
    module-wide observed set."""
    promotable = {g for g in module.globals if g.promotable}
    inputs: Dict[Function, Set[GlobalVar]] = {f: set()
                                              for f in module.functions}
    outputs: Dict[Function, Set[GlobalVar]] = {f: set()
                                               for f in module.functions}
    changed = True
    while changed:
        changed = False
        for fn in module.functions:
            if not fn.blocks:
                continue
            new_in, new_out = _function_liveness(fn, promotable, inputs,
                                                 outputs)
            if new_in != inputs[fn]:
                inputs[fn] = new_in
                changed = True
            if new_out != outputs[fn]:
                outputs[fn] = new_out
                changed = True

    observed: Set[GlobalVar] = set()
    rax = module.get_global("vreg_rax")
    if rax is not None:
        observed.add(rax)
    # Monotone fixpoint: Ret glue reads outputs(f) & observed, so a
    # growing observed set can surface more reads-after-call.
    changed = True
    while changed:
        changed = False
        for fn in module.functions:
            if not fn.blocks:
                continue
            found = _observed_after_calls(fn, promotable, inputs, outputs,
                                          observed)
            if not found <= observed:
                observed |= found
                changed = True
    return StateSummaries(inputs, outputs, observed)


def _observed_after_calls(fn: Function, promotable, inputs, outputs,
                          observed) -> Set[GlobalVar]:
    """Globals live immediately after some internal call site in fn.

    Backward liveness with calls treated conservatively as non-killing
    (uses = callee inputs) and rets as uses of the function's currently
    observed outputs.
    """
    live_in: Dict[Block, Set[GlobalVar]] = {b: set() for b in fn.blocks}
    result: Set[GlobalVar] = set()
    changed = True
    while changed:
        changed = False
        for block in reversed(fn.blocks):
            live: Set[GlobalVar] = set()
            for succ in block.successors():
                live |= live_in[succ]
            for instr in reversed(block.instructions):
                if isinstance(instr, Ret):
                    live |= outputs.get(fn, set()) & observed
                elif isinstance(instr, Call):
                    if not instr.is_external:
                        result |= live & promotable
                        live |= inputs.get(instr.callee, set())
                elif isinstance(instr, Store) and instr.addr in promotable:
                    live.discard(instr.addr)
                elif isinstance(instr, Load) and instr.addr in promotable:
                    live.add(instr.addr)
            if live != live_in[block]:
                live_in[block] = live
                changed = True
    return result


def _function_liveness(fn: Function, promotable: Set[GlobalVar],
                       inputs, outputs) -> Tuple[Set[GlobalVar],
                                                 Set[GlobalVar]]:
    """Backward liveness of promotable globals at function entry, and
    the set of globals the function may write (incl. callees)."""
    # Per-block gen/kill.
    gen: Dict[Block, Set[GlobalVar]] = {}
    kill: Dict[Block, Set[GlobalVar]] = {}
    may_write: Set[GlobalVar] = set()
    for block in fn.blocks:
        g: Set[GlobalVar] = set()
        k: Set[GlobalVar] = set()
        for instr in block.instructions:
            if isinstance(instr, Load) and instr.addr in promotable:
                if instr.addr not in k:
                    g.add(instr.addr)
            elif isinstance(instr, Store) and instr.addr in promotable:
                k.add(instr.addr)
                may_write.add(instr.addr)
            elif isinstance(instr, Call):
                if instr.is_external:
                    continue
                callee_in = inputs.get(instr.callee, set())
                callee_out = outputs.get(instr.callee, set())
                g |= callee_in - k
                k |= callee_out
                may_write |= callee_out
            else:
                # Loads/stores through computed addresses never touch
                # virtual state (registers are not accessed indirectly).
                pass
        gen[block] = g
        kill[block] = k
    live_in: Dict[Block, Set[GlobalVar]] = {b: set() for b in fn.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(fn.blocks):
            live_out: Set[GlobalVar] = set()
            for succ in block.successors():
                live_out |= live_in[succ]
            new = gen[block] | (live_out - kill[block])
            if new != live_in[block]:
                live_in[block] = new
                changed = True
    return live_in[fn.entry], may_write


class RegPromote(Pass):
    """Promote guest-register loads/stores of virtual state to SSA."""
    name = "regpromote"

    def __init__(self) -> None:
        self._summaries: Optional[StateSummaries] = None

    def run_module(self, module: Module) -> bool:
        """Compute state summaries, then promote every function."""
        self._summaries = compute_state_summaries(module)
        changed = False
        for fn in module.functions:
            if fn.blocks:
                changed |= self.run_function(fn, module)
        return changed

    def run_function(self, fn: Function, module: Module) -> bool:
        """Promote one function against the module-wide summaries."""
        if self._summaries is None:
            self._summaries = compute_state_summaries(module)
        summaries = self._summaries
        promotable = [g for g in module.globals if g.promotable]
        if not promotable:
            return False

        # Re-promotion is a full rewrite: glue from a previous round is
        # treated as ordinary accesses and replaced by fresh glue at the
        # current boundaries.  (Partial re-runs that skip old glue are
        # unsound: new spills of stale entry values would overwrite the
        # old, correct ones.)
        operands = {id(op) for block in fn.blocks
                    for instr in block.instructions for op in instr.operands
                    if isinstance(op, GlobalVar)}
        used = [var for var in promotable if id(var) in operands]
        if not used:
            return False
        used_set = set(used)
        my_inputs = summaries.inputs.get(fn, set()) & used_set
        my_outputs = summaries.stored_outputs(fn)

        slots: Dict[GlobalVar, Alloca] = {
            var: Alloca(var.size, name=f"{var.name}.slot") for var in used}

        for block in fn.blocks:
            i = 0
            while i < len(block.instructions):
                instr = block.instructions[i]
                if isinstance(instr, Load) and instr.addr in slots:
                    instr.operands[0] = slots[instr.addr]
                elif isinstance(instr, Store) and instr.addr in slots \
                        and instr.value not in slots:
                    instr.operands[1] = slots[instr.addr]
                elif isinstance(instr, Call):
                    spill = summaries.call_inputs(instr) & used_set
                    reload = summaries.call_outputs(instr) & used_set
                    i = self._spill_reload(block, i, instr, slots,
                                           spill, reload)
                elif isinstance(instr, Ret):
                    i = self._store_outputs(block, i, slots,
                                            my_outputs & used_set)
                i += 1

        entry = fn.entry
        insert_at = 0
        for var in used:
            slot = slots[var]
            entry.insert(insert_at, slot)
            insert_at += 1
            if var in my_inputs:
                init = Load(var, var.size, name=f"{var.name}.init")
                init.tags.update(("vstate", "rp-glue"))
                entry.insert(insert_at, init)
                insert_at += 1
                spill = Store(init, slot, var.size)
                spill.tags.update(("vstate", "rp-glue"))
                entry.insert(insert_at, spill)
                insert_at += 1
        Mem2Reg().run_function(fn, module)
        return True

    @staticmethod
    def _spill_reload(block: Block, index: int, call: Call,
                      slots: Dict[GlobalVar, Alloca],
                      spill_vars: Set[GlobalVar],
                      reload_vars: Set[GlobalVar]) -> int:
        """Insert targeted spills before / reloads after a call;
        returns the new index of the call."""
        before: List[Instruction] = []
        after: List[Instruction] = []
        for var in sorted(spill_vars, key=lambda v: v.name):
            slot = slots[var]
            cur = Load(slot, var.size, name=f"{var.name}.spill")
            cur.tags.update(("vstate", "rp-glue"))
            spill = Store(cur, var, var.size)
            spill.tags.update(("vstate", "rp-glue"))
            before += [cur, spill]
        for var in sorted(reload_vars, key=lambda v: v.name):
            slot = slots[var]
            reload = Load(var, var.size, name=f"{var.name}.reload")
            reload.tags.update(("vstate", "rp-glue"))
            refill = Store(reload, slot, var.size)
            refill.tags.update(("vstate", "rp-glue"))
            after += [reload, refill]
        for j, instr in enumerate(before):
            block.insert(index + j, instr)
        call_index = index + len(before)
        for j, instr in enumerate(after):
            block.insert(call_index + 1 + j, instr)
        return call_index + len(after)

    @staticmethod
    def _store_outputs(block: Block, index: int,
                       slots: Dict[GlobalVar, Alloca],
                       output_vars: Set[GlobalVar]) -> int:
        before: List[Instruction] = []
        for var in sorted(output_vars, key=lambda v: v.name):
            slot = slots[var]
            cur = Load(slot, var.size, name=f"{var.name}.out")
            cur.tags.update(("vstate", "rp-glue"))
            spill = Store(cur, var, var.size)
            spill.tags.update(("vstate", "rp-glue"))
            before += [cur, spill]
        for j, instr in enumerate(before):
            block.insert(index + j, instr)
        return index + len(before)
