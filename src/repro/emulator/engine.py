"""Two-tier execution engine for the VX machine.

Tier 1 — **ExecPlan cache**.  A plan is a per-PC tuple computed once at
decode time::

    (handler, instr, size, cost, klass, atomic)

``handler`` is the unbound dispatch function for the mnemonic, ``cost``
the fully evaluated static cycle cost (base + lock penalty + memory
operand traffic), ``klass`` the perf-counter class name and ``atomic``
whether the instruction counts as an atomic RMW.  With a plan in hand,
the steady-state step is one dict lookup plus the handler call — none
of the per-step cost recomputation (two generator expressions and three
dict probes per instruction) the seed interpreter performed.

Tier 2 — **superblock dispatch** (:func:`run_fast`).  Within one
scheduling quantum the current thread executes straight-line (and
branchy) guest code without re-entering the outer ``run()`` loop: the
chain executor in :func:`_run_chain` keeps every per-instruction
counter in a local variable and publishes them when the chain breaks.
The seed loop's per-instruction runnable-thread rescan is replaced by
the machine's incrementally maintained ``_runnable`` counter, updated
only on thread state transitions (spawn/block/wake/done) and resynced
for free at every ``_pick_thread``.  Calls to the library's *leaf
intrinsics* (the fence optimisation's ``__poly_record_access``
recorder, pre-resolved per import stub in ``Machine._leaf_stubs``) also stay in
the chain: a leaf cannot change thread states, so the chain charges
the import-stub cost and emulates the ``ret`` itself.

Determinism is a hard invariant, bit for bit:

* the RNG is consumed in exactly the seed sequence — one
  ``randrange(len(runnable))`` per pick plus one ``randrange(quantum)``
  per budget draw, and nothing else;
* preemption happens at the same instruction boundaries (the budget is
  decremented once per retired instruction, planned or not);
* ``wall_cycles`` is accumulated with the identical sequence of float
  additions ``cost / max(1, min(runnable, cores))`` — the divisor stays
  an int, and planned instructions cannot change the runnable count,
  so hoisting it out of the chain loop preserves every intermediate
  rounding;
* faults are raised at the same instruction with the same recorded
  ``machine.fault``.

Opt-in layers compose structurally: a machine with a ``step_hook`` or
an instance-level ``_step`` (the sanitizer's wrapper) never enters the
chain executor — every instruction takes the hook-preserving single
step path, which still benefits from the incremental runnable counter.
``invalidate_decode_cache()`` drops plans together with decodes, and
``call_guest`` re-enters via ``_step`` which shares the same plan
cache.  ``tests/integration/test_engine_equivalence.py`` pins the
invariant against the seed loop; ``docs/PERFORMANCE.md`` documents the
design and the throughput benchmark.
"""

from __future__ import annotations

from ..binfmt import IMPORT_STUB_BASE
from ..isa.instructions import Imm, Instruction, Mem
from ..isa.registers import Reg
from ..isa.spec import SPEC
from .cpu import U64
from .machine import (CycleLimitExceeded, EmulationFault, EXIT_ADDR,
                      RAX, RDI, RSI, RSP, THREAD_EXIT_ADDR, ThreadContext)
from .memory import MemoryFault

__all__ = ["run_fast", "specialize"]


def run_fast(machine, max_cycles: int) -> int:
    """The fast engine's outer scheduling loop.

    Mirrors the seed ``Machine._run_reference`` decision for decision —
    same RNG draws, same context-switch accounting, same fault points —
    but hands runnable quanta to the superblock chain executor whenever
    no per-step hook is installed.
    """
    current = None
    budget = 0
    rng = machine.rng
    quantum = machine.quantum
    cores = machine.cores
    while not machine.exited:
        if machine.total_cycles > max_cycles:
            machine.fault = CycleLimitExceeded("cycle budget exceeded", 0, -1)
            raise machine.fault
        if current is None or budget <= 0 or \
                current.state != ThreadContext.RUNNABLE:
            previous = current
            current = machine._pick_thread()
            if current is None:
                break
            if previous is not None and current is not previous:
                machine.context_switches += 1
            budget = quantum + rng.randrange(quantum)
        if machine.step_hook is None and "_step" not in machine.__dict__:
            pc = current.cpu.pc
            if pc < IMPORT_STUB_BASE and pc != EXIT_ADDR \
                    and pc != THREAD_EXIT_ADDR:
                budget = _run_chain(machine, current, budget, max_cycles)
                continue
        # Single-step path: magic return addresses, import stubs, or a
        # hooked/sanitized machine.  Exactly the seed loop's body, with
        # the incremental runnable counter replacing the O(threads)
        # rescan (external calls may block/wake/spawn, so the counter
        # is re-read after every step).
        try:
            cost = machine._step(current)
        except MemoryFault as exc:
            machine.fault = EmulationFault(str(exc), current.cpu.pc,
                                           current.tid)
            raise machine.fault from exc
        except EmulationFault as exc:
            machine.fault = exc
            raise
        budget -= 1
        machine.wall_cycles += cost / max(1, min(machine._runnable, cores))
    return machine.exit_code


def _run_chain(machine, thread, budget: int, max_cycles: int) -> int:
    """Execute planned guest instructions and leaf-intrinsic calls on
    ``thread`` until the quantum budget runs out, an unplanned PC (magic
    return address or other import stub) is reached, the machine exits,
    or a fault propagates.

    Returns the remaining budget.  All per-instruction counters live in
    locals for the duration of the chain and are published in the
    ``finally`` block, so observable machine state is exact at every
    exit — including fault exits mid-chain.
    """
    cpu = thread.cpu
    plans = machine._plans
    plan_at = machine._plan_at
    leaves = machine._leaf_stubs
    memory = machine.memory
    by_class = machine.cycles_by_class
    # Planned instructions never change thread states, so the wall-clock
    # divisor is loop-invariant.  It must stay an *int* divisor: the
    # reference loop computes ``cost / max(1, min(runnable, cores))``
    # and bit-identical wall_cycles requires the identical division.
    denom = machine._runnable
    if denom > machine.cores:
        denom = machine.cores
    if denom < 1:
        denom = 1
    total = machine.total_cycles
    wall = machine.wall_cycles
    t_cycles = thread.cycles
    t_instr = thread.instructions
    n_instr = machine.instructions
    atomics = machine.atomic_rmws
    try:
        while budget > 0:
            if total > max_cycles:
                machine.fault = CycleLimitExceeded(
                    "cycle budget exceeded", 0, -1)
                raise machine.fault
            pc = cpu.pc
            plan = plans.get(pc)
            if plan is None:
                if pc >= IMPORT_STUB_BASE:
                    leaf = leaves.get(pc)
                    if leaf is None:
                        break
                    # A leaf intrinsic: exactly _external_call's effects
                    # in its order, minus the name lookup, dispatch and
                    # six-register argument tuple.
                    handler, cost = leaf
                    result = handler(thread, cpu.get(RDI), cpu.get(RSI))
                    t_cycles += cost
                    total += cost
                    by_class["external"] += cost
                    cpu.set(RAX, result & U64)
                    sp = cpu.get(RSP)
                    ret = memory.read_int(sp, 8)
                    cpu.set(RSP, sp + 8)
                    cpu.pc = ret
                    budget -= 1
                    wall += cost / denom
                    continue
                if pc == EXIT_ADDR or pc == THREAD_EXIT_ADDR:
                    break
                plan = plan_at(pc)
            handler, instr, size, cost, klass, atomic = plan
            if atomic:
                atomics += 1
            cpu.pc = pc + size
            handler(machine, thread, instr)
            budget -= 1
            t_cycles += cost
            t_instr += 1
            total += cost
            n_instr += 1
            by_class[klass] += cost
            wall += cost / denom
            if machine.exited:
                break
    except MemoryFault as exc:
        # Same wrapping (and same post-advance pc) as the seed loop.
        machine.fault = EmulationFault(str(exc), cpu.pc, thread.tid)
        raise machine.fault from exc
    except CycleLimitExceeded:
        raise
    except EmulationFault as exc:
        machine.fault = exc
        raise
    finally:
        machine.total_cycles = total
        machine.wall_cycles = wall
        machine.instructions = n_instr
        machine.atomic_rmws = atomics
        thread.cycles = t_cycles
        thread.instructions = t_instr
    return budget


# --- plan-time handler specialization ----------------------------------------
#
# The second half of "pre-specialized execution plans": at plan-build
# time the operand *shapes* of an instruction are known, so the generic
# handler's per-retire isinstance dispatch and width branching can be
# compiled away into a closure over precomputed indices, masks, and
# address formulas.  Specialized handlers keep the generic calling
# convention ``handler(machine, thread, instr)`` and go through
# ``cpu.get``/``cpu.set`` and ``memory.read_int``/``write_int``, so
# register-traffic profiling (ProfiledCpuState) and fault behaviour
# are bit-identical to the generic path — the specializer only removes
# work that cannot change observable state.  Anything without a
# specialization (vector operands, indirect branches, shifts, atomics,
# SIMD) falls back to the generic dispatch handler unchanged.

#: jcc mnemonic -> flag predicate.  The compiled spec predicates are
#: the very callables Machine._cond evaluates, so both engines agree
#: by construction.
_CONDITIONS = {name: spec.cond for name, spec in SPEC.items()
               if spec.branch_kind == "jcc"}


def _alu_flags_fn(alu_op: str):
    """The flag-producing evaluator for a spec ``alu_op``, specialized
    through the machine's flag helpers (semantics stay in one place)."""
    if alu_op == "add":
        return lambda m, cpu, a, b, w: m._flags_add(cpu, a, b, w)
    if alu_op == "sub":
        return lambda m, cpu, a, b, w: m._flags_sub(cpu, a, b, w)
    if alu_op == "and":
        return lambda m, cpu, a, b, w: m._flags_logic(cpu, a & b, w)
    if alu_op == "or":
        return lambda m, cpu, a, b, w: m._flags_logic(cpu, a | b, w)
    if alu_op == "xor":
        return lambda m, cpu, a, b, w: m._flags_logic(cpu, a ^ b, w)
    raise ValueError(f"no ALU evaluator for {alu_op!r}")


#: mnemonic -> flag-producing ALU evaluator, for the spec's ALU group.
_ALU_FLAGS = {name: _alu_flags_fn(spec.alu_op)
              for name, spec in SPEC.items() if spec.alu_op}


def _addr_fn(mem: Mem):
    """Compile a Mem operand's effective-address formula to a closure.

    Same register read sequence as Machine._mem_addr (base before
    index), so profiled register traffic is unchanged.
    """
    disp = mem.disp
    base = mem.base.index if mem.base is not None else None
    index = mem.index.index if mem.index is not None else None
    scale = mem.scale
    if base is None and index is None:
        const = disp & U64
        return lambda cpu: const
    if index is None:
        return lambda cpu: (disp + cpu.get(base)) & U64
    if base is None:
        return lambda cpu: (disp + cpu.get(index) * scale) & U64
    return lambda cpu: (disp + cpu.get(base)
                        + cpu.get(index) * scale) & U64


def _reader(op, width: int):
    """A closure reading ``op`` exactly as Machine._read_operand would,
    or None when no specialization applies (vector registers)."""
    if isinstance(op, Reg):
        if op.is_vector:
            return None
        idx = op.index
        if width == 8:
            return lambda m, t: t.cpu.get(idx)
        mask = (1 << (width * 8)) - 1
        return lambda m, t: t.cpu.get(idx) & mask
    if isinstance(op, Imm):
        value = op.value & ((1 << (width * 8)) - 1)
        return lambda m, t: value
    if isinstance(op, Mem):
        addr = _addr_fn(op)
        return lambda m, t: m.memory.read_int(addr(t.cpu), width)
    return None


def _writer(op, width: int):
    """A closure writing ``op`` exactly as Machine._write_operand would,
    or None when no specialization applies."""
    if isinstance(op, Reg):
        if op.is_vector:
            return None
        idx = op.index
        if width < 8:
            mask = (1 << (width * 8)) - 1
            return lambda m, t, v: t.cpu.set(idx, v & mask)
        return lambda m, t, v: t.cpu.set(idx, v)
    if isinstance(op, Mem):
        addr = _addr_fn(op)
        return lambda m, t, v: m.memory.write_int(addr(t.cpu), v, width)
    return None


def specialize(instr: Instruction, generic):
    """Return a handler specialized to ``instr``'s operand shapes, or
    ``generic`` when the shape has no specialization."""
    mnemonic = instr.mnemonic
    width = instr.width
    ops = instr.operands

    if mnemonic == "mov":
        read = _reader(ops[1], width)
        write = _writer(ops[0], width)
        if read is None or write is None:
            return generic

        def h_mov(m, t, i, read=read, write=write):
            write(m, t, read(m, t))
        return h_mov

    if mnemonic == "lea":
        if not (isinstance(ops[0], Reg) and not ops[0].is_vector
                and isinstance(ops[1], Mem)):
            return generic
        idx = ops[0].index
        addr = _addr_fn(ops[1])

        def h_lea(m, t, i, idx=idx, addr=addr):
            cpu = t.cpu
            cpu.set(idx, addr(cpu))
        return h_lea

    if mnemonic in ("cmp", "test"):
        read_a = _reader(ops[0], width)
        read_b = _reader(ops[1], width)
        if read_a is None or read_b is None:
            return generic
        if mnemonic == "cmp":
            def h_cmp(m, t, i, ra=read_a, rb=read_b, w=width):
                m._flags_sub(t.cpu, ra(m, t), rb(m, t), w)
            return h_cmp

        def h_test(m, t, i, ra=read_a, rb=read_b, w=width):
            m._flags_logic(t.cpu, ra(m, t) & rb(m, t), w)
        return h_test

    if mnemonic in _ALU_FLAGS:
        read_d = _reader(ops[0], width)
        read_s = _reader(ops[1], width)
        write_d = _writer(ops[0], width)
        if read_d is None or read_s is None or write_d is None:
            return generic
        flags = _ALU_FLAGS[mnemonic]

        def h_alu(m, t, i, rd=read_d, rs=read_s, wd=write_d,
                  flags=flags, w=width):
            result = flags(m, t.cpu, rd(m, t), rs(m, t), w)
            wd(m, t, result)
        return h_alu

    if mnemonic in ("inc", "dec"):
        read_d = _reader(ops[0], width)
        write_d = _writer(ops[0], width)
        if read_d is None or write_d is None:
            return generic
        add = mnemonic == "inc"

        def h_incdec(m, t, i, rd=read_d, wd=write_d, add=add, w=width):
            cpu = t.cpu
            saved_cf = cpu.cf
            if add:
                result = m._flags_add(cpu, rd(m, t), 1, w)
            else:
                result = m._flags_sub(cpu, rd(m, t), 1, w)
            cpu.cf = saved_cf          # INC/DEC leave CF unchanged
            wd(m, t, result)
        return h_incdec

    if mnemonic in _CONDITIONS and isinstance(ops[0], Imm):
        target = ops[0].value & U64
        cond = _CONDITIONS[mnemonic]

        def h_jcc(m, t, i, cond=cond, target=target):
            cpu = t.cpu
            if cond(cpu):
                cpu.pc = target
        return h_jcc

    if mnemonic == "jmp" and isinstance(ops[0], Imm):
        target = ops[0].value & U64

        def h_jmp(m, t, i, target=target):
            t.cpu.pc = target
        return h_jmp

    if mnemonic == "call" and isinstance(ops[0], Imm):
        target = ops[0].value & U64

        def h_call(m, t, i, target=target):
            cpu = t.cpu
            sp = cpu.get(4) - 8        # RSP
            cpu.set(4, sp)
            m.memory.write_int(sp, cpu.pc, 8)
            cpu.pc = target
        return h_call

    if mnemonic == "push":
        read = _reader(ops[0], 8)
        if read is None:
            return generic

        def h_push(m, t, i, read=read):
            cpu = t.cpu
            value = read(m, t)
            sp = cpu.get(4) - 8
            cpu.set(4, sp)
            m.memory.write_int(sp, value, 8)
        return h_push

    if mnemonic == "pop":
        write = _writer(ops[0], 8)
        if write is None:
            return generic

        def h_pop(m, t, i, write=write):
            cpu = t.cpu
            sp = cpu.get(4)
            value = m.memory.read_int(sp, 8)
            cpu.set(4, sp + 8)
            write(m, t, value)
        return h_pop

    return generic
