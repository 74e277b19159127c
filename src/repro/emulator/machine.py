"""The VX machine: a multithreaded interpreter for VXE images.

Threads are green threads scheduled preemptively with a seeded,
jittered quantum, which makes interleavings deterministic per seed
while still exposing the nondeterministic control flows (and data
races) that motivate the paper.  Each instruction executes atomically
with respect to scheduling, so races manifest at instruction
granularity — exactly the level at which LOCK-prefixed read-modify-
write instructions differ from plain load/op/store sequences.

A simulated wall clock advances by ``cost / min(runnable, cores)`` per
instruction, so multithreaded speedups and slowdowns show up in
normalised runtimes the way they do on real hardware.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..binfmt import IMPORT_STUB_BASE, Image
from ..intmath import trunc_divmod
from ..isa import decode
from ..isa.instructions import Imm, Instruction, Mem
from ..isa.registers import Reg
from ..isa.spec import SPEC
from ..observability import Counters
from .costs import (BASE_COSTS, EXTERNAL_CALL_COST, INSTR_CLASS,
                    INSTR_CLASS_NAMES, LOCK_COST, MEMORY_ACCESS_COST,
                    static_cost)
from .cpu import CpuState, ProfiledCpuState, U64
from .memory import Memory, MemoryFault

#: Magic return addresses recognised by the interpreter.
EXIT_ADDR = 0xDEAD0000          # return here == main returned
THREAD_EXIT_ADDR = 0xDEAD1000   # return here == thread start routine returned

STACK_AREA_TOP = 0x7000_0000
STACK_SIZE = 1 << 18            # 256 KiB per thread
HEAP_BASE = 0x1000_0000
HEAP_SIZE = 1 << 24             # 16 MiB

RSP = 4   # register indices used directly for speed
RAX = 0
RDI = 7
RSI = 6
RDX = 2
RCX = 1
R8 = 8
R9 = 9

_ARG_REG_INDICES = (RDI, RSI, RDX, RCX, R8, R9)


class EmulationFault(Exception):
    """A hardware-level fault in the emulated program (not a host bug)."""

    def __init__(self, message: str, pc: int = 0, thread_id: int = -1) -> None:
        super().__init__(f"{message} (pc={pc:#x}, thread={thread_id})")
        self.message = message
        self.pc = pc
        self.thread_id = thread_id


class CycleLimitExceeded(EmulationFault):
    """The machine's cycle budget ran out (likely deadlock/livelock)."""


class ThreadContext:
    """One emulated thread of execution."""

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"

    def __init__(self, tid: int, cpu: CpuState, stack_base: int) -> None:
        self.tid = tid
        self.cpu = cpu
        self.stack_base = stack_base
        self.state = self.RUNNABLE
        self.block_key: Optional[object] = None
        self.exit_value = 0
        self.joiners: List[int] = []
        self.cycles = 0
        self.instructions = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<thread {self.tid} {self.state} pc={self.cpu.pc:#x}>"


class Machine:
    """Interprets a VXE image with full multithreading support."""

    #: Valid values for the ``engine`` constructor argument: "fast" is
    #: the two-tier plan-cache + superblock engine (repro.emulator.engine),
    #: "reference" the seed per-step loop kept as the determinism oracle.
    ENGINES = ("fast", "reference")

    def __init__(self, image: Image, library=None, seed: int = 0,
                 cores: int = 4, quantum: int = 40,
                 profile_registers: bool = False,
                 sanitizer=None, engine: str = "fast") -> None:
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r} "
                             f"(expected one of {self.ENGINES})")
        self.engine = engine
        self.image = image
        self.memory = Memory()
        self.seed = seed
        self.cores = cores
        self.quantum = quantum
        self.rng = random.Random(seed)
        self.threads: List[ThreadContext] = []
        self.stdout = bytearray()
        self.exited = False
        self.exit_code = 0
        self.fault: Optional[EmulationFault] = None
        self.total_cycles = 0
        self.wall_cycles = 0.0
        self.instructions = 0
        # Perf counters (published via perf_counters()).  Plain ints /
        # one dict increment per step keep the hot loop cheap; the
        # register-traffic counters cost more and are opt-in.
        self.atomic_rmws = 0
        self.fences_executed = 0
        self.context_switches = 0
        self.cycles_by_class: Dict[str, int] = {
            name: 0 for name in INSTR_CLASS_NAMES}
        self.profile_registers = profile_registers
        self._cpu_cls = ProfiledCpuState if profile_registers else CpuState
        self._decode_cache: Dict[int, Tuple[Instruction, int]] = {}
        # pc -> (handler, instr, size, cost, class, atomic) execution
        # plans (see repro.emulator.engine): decode-time precomputation
        # of everything the seed _step re-derived on every retire.
        self._plans: Dict[int, Tuple] = {}
        # Runnable-thread count, maintained incrementally on state
        # transitions (spawn/block/wake/done) and resynced at every
        # _pick_thread; replaces the seed loop's per-instruction rescan.
        self._runnable = 0
        self._next_stack_top = STACK_AREA_TOP
        self._next_tid = 0
        # Hooks: called as hook(machine, thread, from_pc, target, kind)
        # for kind in {"jump", "call"} on *indirect* transfers.
        self.indirect_hooks: List[Callable] = []
        # Optional per-instruction hook (expensive; used by the BinRec
        # baseline's full-system tracer model).
        self.step_hook: Optional[Callable] = None
        # Called as hook(machine, thread) when a thread finishes.
        self.thread_done_hooks: List[Callable] = []
        # Guest functions entered from outside guest code: the program
        # entry, every spawned thread's start routine and every
        # call_guest target -- the callback analysis's input (§3.3.3).
        self.external_entries: Set[int] = set()
        # Opt-in dynamic sanitizer (repro.sanitizers).  When one is
        # attached, the bound-method assignment below shadows the class
        # ``_step`` for this instance only, so unsanitized machines run
        # the exact hot loop with zero extra per-step work.
        self.sanitizer = sanitizer
        self._access_plans: Dict[int, object] = {}

        for section in image.sections:
            self.memory.map(section.addr, bytes(section.data), section.name)
        self.memory.map(HEAP_BASE, HEAP_SIZE, "heap")

        if library is None:
            from .extlib import ExternalLibrary
            library = ExternalLibrary()
        self.library = library
        library.attach(self)
        # Import stub -> (handler, total cost) of the library's leaf
        # intrinsics, which the fast engine's chain runs inline instead
        # of leaving for _external_call (see repro.emulator.engine).
        # Register profiling counts the import path's six argument
        # reads, so a profiled machine keeps that path for every call.
        self._leaf_stubs: Dict[int, Tuple[Callable, int]] = {}
        if not profile_registers:
            for name, (handler, cost) in library.leaf_intrinsics().items():
                if name in image.imports:
                    self._leaf_stubs[image.import_slot(name)] = (
                        handler, EXTERNAL_CALL_COST + cost)

        if sanitizer is not None:
            sanitizer.attach(self)
            self._step = self._step_sanitized

        self._spawn(image.entry, args=(), magic_ret=EXIT_ADDR)

    # -- thread management ---------------------------------------------------

    def _alloc_stack(self) -> int:
        top = self._next_stack_top
        base = top - STACK_SIZE
        self._next_stack_top = base - 0x1000   # guard gap
        self.memory.map(base, STACK_SIZE, f"stack{self._next_tid}")
        return top

    def _spawn(self, entry: int, args: Tuple[int, ...],
               magic_ret: int) -> ThreadContext:
        self.external_entries.add(entry)
        cpu = self._cpu_cls()
        top = self._alloc_stack()
        # 16-byte aligned stack with the magic return address on top,
        # preserving the ISA-mandated alignment the paper relies on for
        # atomicity of naturally-aligned accesses.
        sp = (top - 16) & ~0xF
        sp -= 8
        self.memory.write_int(sp, magic_ret, 8)
        cpu.set(RSP, sp)
        cpu.pc = entry
        for reg, value in zip(_ARG_REG_INDICES, args):
            cpu.set(reg, value)
        thread = ThreadContext(self._next_tid, cpu, top - STACK_SIZE)
        self._next_tid += 1
        self.threads.append(thread)
        self._runnable += 1
        return thread

    def spawn_thread(self, entry: int, args: Tuple[int, ...] = ()) -> ThreadContext:
        """Create a new emulated thread (used by pthread_create et al.)."""
        return self._spawn(entry, args, magic_ret=THREAD_EXIT_ADDR)

    def thread(self, tid: int) -> ThreadContext:
        """Look a thread context up by id."""
        return self.threads[tid]

    @property
    def main_thread(self) -> ThreadContext:
        """The initial thread (tid 0)."""
        return self.threads[0]

    def block(self, thread: ThreadContext, key: object) -> None:
        """Park a thread on a wait key until another thread wakes it."""
        if thread.state == ThreadContext.RUNNABLE:
            self._runnable -= 1
        thread.state = ThreadContext.BLOCKED
        thread.block_key = key

    def wake(self, key: object, limit: Optional[int] = None) -> int:
        """Wake up to ``limit`` threads blocked on ``key``; returns count."""
        woken = 0
        for thread in self.threads:
            if thread.state == ThreadContext.BLOCKED and thread.block_key == key:
                thread.state = ThreadContext.RUNNABLE
                thread.block_key = None
                self._runnable += 1
                woken += 1
                if limit is not None and woken >= limit:
                    break
        return woken

    # -- main loop -----------------------------------------------------------

    def run(self, max_cycles: int = 200_000_000) -> int:
        """Run until exit, a fault, or the cycle budget is exhausted.

        Returns the exit code.  Faults are recorded in :attr:`fault` and
        re-raised — callers that *expect* failure (e.g. validating a
        broken baseline recompilation) catch :class:`EmulationFault`.

        Which loop runs is the constructor's ``engine`` choice; both
        consume the RNG in the same sequence and preempt at the same
        instruction boundaries, so results are bit-identical per seed
        (pinned by tests/integration/test_engine_equivalence.py).
        """
        if self.engine == "fast":
            from .engine import run_fast
            return run_fast(self, max_cycles)
        return self._run_reference(max_cycles)

    def _run_reference(self, max_cycles: int) -> int:
        """The seed interpreter loop, verbatim: one ``_step`` per
        iteration and an O(threads) runnable rescan after each retire.
        Kept as the determinism oracle the fast engine is tested
        against and as the throughput benchmark's "before" engine."""
        step = self.__dict__.get("_step") or self._step_reference
        current: Optional[ThreadContext] = None
        budget = 0
        while not self.exited:
            if self.total_cycles > max_cycles:
                self.fault = CycleLimitExceeded(
                    "cycle budget exceeded", 0, -1)
                raise self.fault
            if current is None or budget <= 0 or \
                    current.state != ThreadContext.RUNNABLE:
                previous = current
                current = self._pick_thread()
                if current is None:
                    break
                if previous is not None and current is not previous:
                    self.context_switches += 1
                budget = self.quantum + self.rng.randrange(self.quantum)
            try:
                cost = step(current)
            except MemoryFault as exc:
                self.fault = EmulationFault(str(exc), current.cpu.pc,
                                            current.tid)
                raise self.fault from exc
            except EmulationFault as exc:
                self.fault = exc
                raise
            budget -= 1
            runnable = sum(1 for t in self.threads
                           if t.state == ThreadContext.RUNNABLE)
            self.wall_cycles += cost / max(1, min(runnable, self.cores))
        return self.exit_code

    # -- perf counters --------------------------------------------------------

    def perf_counters(self) -> Counters:
        """Publish the machine's perf counters into a fresh
        :class:`~repro.observability.Counters` registry.

        Built on demand from the plain attribute counters the hot loop
        maintains, so each call returns an independent snapshot and
        successive runs never share state (naming conventions in
        ``docs/OBSERVABILITY.md``)."""
        counters = Counters()
        counters.put("emu.instructions", self.instructions)
        counters.put("emu.cycles", self.total_cycles)
        counters.put("emu.wall_cycles", self.wall_cycles)
        counters.put("emu.atomic_rmws", self.atomic_rmws)
        counters.put("emu.fences", self.fences_executed)
        counters.put("emu.context_switches", self.context_switches)
        counters.put("emu.threads", len(self.threads))
        for name in INSTR_CLASS_NAMES:
            counters.put(f"emu.cycles.{name}", self.cycles_by_class[name])
        for thread in self.threads:
            base = f"emu.thread.{thread.tid}"
            counters.put(f"{base}.instructions", thread.instructions)
            counters.put(f"{base}.cycles", thread.cycles)
            if isinstance(thread.cpu, ProfiledCpuState):
                counters.put(f"{base}.reg_reads", thread.cpu.reg_reads)
                counters.put(f"{base}.reg_writes", thread.cpu.reg_writes)
        if self.sanitizer is not None:
            self.sanitizer.publish(counters)
        return counters

    def _pick_thread(self) -> Optional[ThreadContext]:
        runnable = [t for t in self.threads if t.state == ThreadContext.RUNNABLE]
        # Free resync point for the incremental counter: any direct
        # state mutation from outside the machine heals here, at the
        # latest by the next scheduling decision.
        self._runnable = len(runnable)
        if not runnable:
            if any(t.state == ThreadContext.BLOCKED for t in self.threads):
                blocked = [t.tid for t in self.threads
                           if t.state == ThreadContext.BLOCKED]
                self.fault = EmulationFault(
                    f"deadlock: threads {blocked} all blocked", 0, -1)
                raise self.fault
            return None
        picked = runnable[self.rng.randrange(len(runnable))]
        # Swap the memory fast path's one-entry segment cache to the
        # picked thread's last hit (pure optimisation, no observable
        # effect — see Memory.select_thread).
        self.memory.select_thread(picked.tid)
        return picked

    # -- single-instruction execution -----------------------------------------

    def _decode_at(self, pc: int) -> Tuple[Instruction, int]:
        cached = self._decode_cache.get(pc)
        if cached is not None:
            return cached
        section = self.image.section_at(pc)
        if section is None or not section.executable:
            raise EmulationFault(f"execute fault at {pc:#x}", pc)
        try:
            instr, size = decode(section.data, pc - section.addr, pc)
        except Exception as exc:
            raise EmulationFault(f"illegal instruction: {exc}", pc)
        self._decode_cache[pc] = (instr, size)
        return instr, size

    def invalidate_decode_cache(self) -> None:
        """Drop cached decodes after code bytes change (additive lifting).

        Execution plans and superblock state derive from decodes, so
        they are dropped together with them."""
        self._decode_cache.clear()
        self._plans.clear()
        self._access_plans.clear()

    def _plan_at(self, pc: int) -> Tuple:
        """Build (and cache) the execution plan for ``pc``.

        Everything the seed ``_step`` recomputed per retire — handler
        lookup, static cost (``costs.static_cost``: base + lock penalty
        + memory traffic), perf-counter class, atomic-RMW flag — is
        evaluated once here, at decode time (see
        repro.emulator.engine)."""
        from .engine import specialize
        instr, size = self._decode_at(pc)
        mnemonic = instr.mnemonic
        handler = specialize(instr, _DISPATCH[mnemonic])
        plan = (handler, instr, size, static_cost(instr),
                INSTR_CLASS[mnemonic], instr.is_atomic)
        self._plans[pc] = plan
        return plan

    def _step(self, thread: ThreadContext) -> int:
        """Retire one instruction via the ExecPlan cache.

        Observable behaviour is identical to :meth:`_step_reference`
        (the seed implementation); the steady state is one dict lookup
        plus the handler call."""
        cpu = thread.cpu
        pc = cpu.pc
        if pc in (EXIT_ADDR, THREAD_EXIT_ADDR):
            self._thread_returned(thread, pc)
            return 1
        if pc >= IMPORT_STUB_BASE:
            return self._external_call(thread, pc)
        plan = self._plans.get(pc)
        if plan is None:
            plan = self._plan_at(pc)
        handler, instr, size, cost, klass, atomic = plan
        if self.step_hook is not None:
            self.step_hook(self, thread, instr)
        if atomic:
            self.atomic_rmws += 1
        cpu.pc = pc + size
        handler(self, thread, instr)
        thread.cycles += cost
        thread.instructions += 1
        self.total_cycles += cost
        self.instructions += 1
        self.cycles_by_class[klass] += cost
        return cost

    def _step_reference(self, thread: ThreadContext) -> int:
        """The seed ``_step``, verbatim: per-retire cost recomputation
        with no plan cache.  Only the reference engine runs this; it is
        the baseline the fast engine is benchmarked and tested
        against."""
        cpu = thread.cpu
        pc = cpu.pc
        if pc in (EXIT_ADDR, THREAD_EXIT_ADDR):
            self._thread_returned(thread, pc)
            return 1
        if pc >= IMPORT_STUB_BASE:
            return self._external_call(thread, pc)
        instr, size = self._decode_at(pc)
        if self.step_hook is not None:
            self.step_hook(self, thread, instr)
        cost = BASE_COSTS[instr.mnemonic]
        if instr.is_atomic:
            cost += LOCK_COST
            self.atomic_rmws += 1
        cost += MEMORY_ACCESS_COST * sum(
            1 for op in instr.operands if isinstance(op, Mem))
        cpu.pc = pc + size
        handler = _DISPATCH[instr.mnemonic]
        handler(self, thread, instr)
        thread.cycles += cost
        thread.instructions += 1
        self.total_cycles += cost
        self.instructions += 1
        self.cycles_by_class[INSTR_CLASS[instr.mnemonic]] += cost
        return cost

    def _step_sanitized(self, thread: ThreadContext) -> int:
        """``_step`` with sanitizer callbacks, installed as an instance
        attribute only when a sanitizer is attached.

        Memory-access classification per PC is cached as a *plan*, so
        the steady-state overhead is one dict lookup plus the effective
        address computation(s) per accessing instruction."""
        cpu = thread.cpu
        pc = cpu.pc
        if pc < IMPORT_STUB_BASE and pc != EXIT_ADDR \
                and pc != THREAD_EXIT_ADDR:
            plan = self._access_plans.get(pc)
            if plan is None:
                instr, _ = self._decode_at(pc)
                skip_tls = self.image.metadata.get("polynima") == "1"
                plan = self._access_plans[pc] = _access_plan(instr, skip_tls)
            if plan is not _NO_ACCESS:
                if plan is _FENCE:
                    self.sanitizer.on_fence(thread)
                else:
                    atomic, entries = plan
                    sanitizer = self.sanitizer
                    for mem, is_read, is_write, width in entries:
                        sanitizer.on_access(
                            thread, pc, self._mem_addr(cpu, mem),
                            width, is_read, is_write, atomic)
        return Machine._step(self, thread)

    def _thread_returned(self, thread: ThreadContext, magic: int) -> None:
        if thread.state == ThreadContext.RUNNABLE:
            self._runnable -= 1
        thread.state = ThreadContext.DONE
        thread.exit_value = thread.cpu.get(RAX)
        if magic == EXIT_ADDR:
            self.exited = True
            self.exit_code = thread.exit_value & 0xFF
        self.wake(("join", thread.tid))
        for hook in self.thread_done_hooks:
            hook(self, thread)

    CALLBACK_RET_ADDR = 0xDEAD2000

    def call_guest(self, thread: ThreadContext, fn_addr: int,
                   args: Tuple[int, ...] = (), max_steps: int = 5_000_000) -> int:
        """Synchronously invoke guest code on ``thread`` (library callback).

        Models an external library (e.g. ``qsort``) calling a function
        pointer it was handed: the callee runs on the caller's thread and
        the library resumes when it returns.  Other threads are not
        scheduled during the callback — acceptable, since callbacks run
        in call-site context.
        """
        self.external_entries.add(fn_addr)
        cpu = thread.cpu
        saved_pc = cpu.pc
        saved_args = [cpu.get(reg) for reg in _ARG_REG_INDICES]
        sp = cpu.get(RSP) - 8
        cpu.set(RSP, sp)
        self.memory.write_int(sp, self.CALLBACK_RET_ADDR, 8)
        cpu.pc = fn_addr
        for reg, value in zip(_ARG_REG_INDICES, args):
            cpu.set(reg, value)
        steps = 0
        while cpu.pc != self.CALLBACK_RET_ADDR:
            if self.exited:
                break
            self._step(thread)
            steps += 1
            if steps > max_steps:
                raise EmulationFault("callback ran away", fn_addr, thread.tid)
        result = cpu.get(RAX)
        cpu.pc = saved_pc
        for reg, value in zip(_ARG_REG_INDICES, saved_args):
            cpu.set(reg, value)
        return result

    def _external_call(self, thread: ThreadContext, pc: int) -> int:
        name = self.image.import_name(pc)
        if name is None:
            raise EmulationFault(f"call to bad import stub {pc:#x}",
                                 pc, thread.tid)
        cpu = thread.cpu
        args = tuple(cpu.get(reg) for reg in _ARG_REG_INDICES)
        # Import-stub dispatch is deliberately NOT reported through
        # indirect_hooks: tracers see external calls as such, never as
        # indirect control-flow transfers (pinned by
        # test_external_call_does_not_fire_indirect_hooks).
        result = self.library.dispatch(name, self, thread, args)
        cost = EXTERNAL_CALL_COST + self.library.cost(name)
        thread.cycles += cost
        self.total_cycles += cost
        self.cycles_by_class["external"] += cost
        if result is not None:
            cpu.set(RAX, result & U64)
        if thread.state == ThreadContext.RUNNABLE and not self.exited:
            # Simulate the ret back to the caller.
            sp = cpu.get(RSP)
            ret = self.memory.read_int(sp, 8)
            cpu.set(RSP, sp + 8)
            cpu.pc = ret
        return cost

    # -- operand evaluation ----------------------------------------------------

    def _mem_addr(self, cpu: CpuState, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += cpu.get(mem.base.index)
        if mem.index is not None:
            addr += cpu.get(mem.index.index) * mem.scale
        return addr & U64

    def _read_operand(self, cpu: CpuState, op, width: int) -> int:
        if isinstance(op, Reg):
            if op.is_vector:
                return cpu.xmm[op.index]
            value = cpu.get(op.index)
            return value & ((1 << (width * 8)) - 1) if width < 8 else value
        if isinstance(op, Imm):
            return op.value & ((1 << (width * 8)) - 1)
        if isinstance(op, Mem):
            return self.memory.read_int(self._mem_addr(cpu, op), width)
        raise EmulationFault(f"bad operand {op!r}")

    def _write_operand(self, cpu: CpuState, op, value: int, width: int) -> None:
        if isinstance(op, Reg):
            if op.is_vector:
                cpu.xmm[op.index] = value & ((1 << 128) - 1)
            else:
                # Sub-64-bit writes zero-extend, as 32-bit ops do on x86-64.
                cpu.set(op.index, value & ((1 << (width * 8)) - 1)
                        if width < 8 else value)
            return
        if isinstance(op, Mem):
            self.memory.write_int(self._mem_addr(cpu, op), value, width)
            return
        raise EmulationFault(f"bad destination {op!r}")

    # -- flag computation --------------------------------------------------------

    def _set_zs(self, cpu: CpuState, result: int, width: int) -> None:
        bits = width * 8
        result &= (1 << bits) - 1
        cpu.zf = result == 0
        cpu.sf = bool(result >> (bits - 1))

    def _flags_add(self, cpu: CpuState, a: int, b: int, width: int) -> int:
        bits = width * 8
        mask = (1 << bits) - 1
        result = (a + b) & mask
        cpu.cf = (a + b) > mask
        sa, sb, sr = a >> (bits - 1), b >> (bits - 1), result >> (bits - 1)
        cpu.of = (sa == sb) and (sr != sa)
        self._set_zs(cpu, result, width)
        return result

    def _flags_sub(self, cpu: CpuState, a: int, b: int, width: int) -> int:
        bits = width * 8
        mask = (1 << bits) - 1
        result = (a - b) & mask
        cpu.cf = a < b
        sa, sb, sr = a >> (bits - 1), b >> (bits - 1), result >> (bits - 1)
        cpu.of = (sa != sb) and (sr != sa)
        self._set_zs(cpu, result, width)
        return result

    def _flags_logic(self, cpu: CpuState, result: int, width: int) -> int:
        cpu.cf = False
        cpu.of = False
        self._set_zs(cpu, result, width)
        return result & ((1 << (width * 8)) - 1)

    # -- instruction handlers -------------------------------------------------

    def _op_mov(self, thread, instr) -> None:
        cpu = thread.cpu
        dst, src = instr.operands
        value = self._read_operand(cpu, src, instr.width)
        self._write_operand(cpu, dst, value, instr.width)

    def _op_movsx(self, thread, instr) -> None:
        cpu = thread.cpu
        dst, src = instr.operands
        value = self._read_operand(cpu, src, instr.width)
        bits = instr.width * 8
        if value >= 1 << (bits - 1):
            value -= 1 << bits
        self._write_operand(cpu, dst, value & U64, 8)

    def _op_lea(self, thread, instr) -> None:
        cpu = thread.cpu
        dst, src = instr.operands
        self._write_operand(cpu, dst, self._mem_addr(cpu, src), 8)

    def _op_push(self, thread, instr) -> None:
        cpu = thread.cpu
        value = self._read_operand(cpu, instr.operands[0], 8)
        sp = cpu.get(RSP) - 8
        cpu.set(RSP, sp)
        self.memory.write_int(sp, value, 8)

    def _op_pop(self, thread, instr) -> None:
        cpu = thread.cpu
        sp = cpu.get(RSP)
        value = self.memory.read_int(sp, 8)
        cpu.set(RSP, sp + 8)
        self._write_operand(cpu, instr.operands[0], value, 8)

    def _op_xchg(self, thread, instr) -> None:
        cpu = thread.cpu
        a, b = instr.operands
        va = self._read_operand(cpu, a, instr.width)
        vb = self._read_operand(cpu, b, instr.width)
        self._write_operand(cpu, a, vb, instr.width)
        self._write_operand(cpu, b, va, instr.width)

    def _binop(self, thread, instr, fn) -> None:
        cpu = thread.cpu
        dst, src = instr.operands
        a = self._read_operand(cpu, dst, instr.width)
        b = self._read_operand(cpu, src, instr.width)
        result = fn(cpu, a, b, instr.width)
        self._write_operand(cpu, dst, result, instr.width)

    def _op_add(self, thread, instr) -> None:
        self._binop(thread, instr, self._flags_add)

    def _op_sub(self, thread, instr) -> None:
        self._binop(thread, instr, self._flags_sub)

    def _op_and(self, thread, instr) -> None:
        self._binop(thread, instr,
                    lambda cpu, a, b, w: self._flags_logic(cpu, a & b, w))

    def _op_or(self, thread, instr) -> None:
        self._binop(thread, instr,
                    lambda cpu, a, b, w: self._flags_logic(cpu, a | b, w))

    def _op_xor(self, thread, instr) -> None:
        self._binop(thread, instr,
                    lambda cpu, a, b, w: self._flags_logic(cpu, a ^ b, w))

    def _op_shl(self, thread, instr) -> None:
        def fn(cpu, a, b, w):
            return self._flags_logic(cpu, a << (b & 63), w)
        self._binop(thread, instr, fn)

    def _op_shr(self, thread, instr) -> None:
        def fn(cpu, a, b, w):
            return self._flags_logic(cpu, a >> (b & 63), w)
        self._binop(thread, instr, fn)

    def _op_sar(self, thread, instr) -> None:
        def fn(cpu, a, b, w):
            bits = w * 8
            if a >= 1 << (bits - 1):
                a -= 1 << bits
            return self._flags_logic(cpu, (a >> (b & 63)) & ((1 << bits) - 1), w)
        self._binop(thread, instr, fn)

    def _op_imul(self, thread, instr) -> None:
        # Logic-style flags (CF=OF cleared), matching the lifted IR
        # (`flags_logic` in the translator); the conformance harness
        # holds the two implementations to the same behaviour.
        def fn(cpu, a, b, w):
            bits = w * 8
            sa = a - (1 << bits) if a >= 1 << (bits - 1) else a
            sb = b - (1 << bits) if b >= 1 << (bits - 1) else b
            return self._flags_logic(cpu, (sa * sb) & ((1 << bits) - 1), w)
        self._binop(thread, instr, fn)

    def _signed_div(self, thread, instr, want_rem: bool) -> None:
        def fn(cpu, a, b, w):
            bits = w * 8
            sa = a - (1 << bits) if a >= 1 << (bits - 1) else a
            sb = b - (1 << bits) if b >= 1 << (bits - 1) else b
            if sb == 0:
                raise EmulationFault("divide by zero", thread.cpu.pc,
                                     thread.tid)
            quot, rem = trunc_divmod(sa, sb)
            result = (rem if want_rem else quot) & ((1 << bits) - 1)
            self._set_zs(cpu, result, w)
            cpu.cf = cpu.of = False
            return result
        self._binop(thread, instr, fn)

    def _op_idiv(self, thread, instr) -> None:
        self._signed_div(thread, instr, want_rem=False)

    def _op_irem(self, thread, instr) -> None:
        self._signed_div(thread, instr, want_rem=True)

    def _unop(self, thread, instr, fn) -> None:
        cpu = thread.cpu
        dst = instr.operands[0]
        a = self._read_operand(cpu, dst, instr.width)
        self._write_operand(cpu, dst, fn(cpu, a, instr.width), instr.width)

    def _op_neg(self, thread, instr) -> None:
        self._unop(thread, instr,
                   lambda cpu, a, w: self._flags_sub(cpu, 0, a, w))

    def _op_not(self, thread, instr) -> None:
        self._unop(thread, instr,
                   lambda cpu, a, w: (~a) & ((1 << (w * 8)) - 1))

    def _op_inc(self, thread, instr) -> None:
        def fn(cpu, a, w):
            saved_cf = cpu.cf
            result = self._flags_add(cpu, a, 1, w)
            cpu.cf = saved_cf          # INC leaves CF unchanged, as on x86
            return result
        self._unop(thread, instr, fn)

    def _op_dec(self, thread, instr) -> None:
        def fn(cpu, a, w):
            saved_cf = cpu.cf
            result = self._flags_sub(cpu, a, 1, w)
            cpu.cf = saved_cf
            return result
        self._unop(thread, instr, fn)

    def _op_cmp(self, thread, instr) -> None:
        cpu = thread.cpu
        a = self._read_operand(cpu, instr.operands[0], instr.width)
        b = self._read_operand(cpu, instr.operands[1], instr.width)
        self._flags_sub(cpu, a, b, instr.width)

    def _op_test(self, thread, instr) -> None:
        cpu = thread.cpu
        a = self._read_operand(cpu, instr.operands[0], instr.width)
        b = self._read_operand(cpu, instr.operands[1], instr.width)
        self._flags_logic(cpu, a & b, instr.width)

    # -- control transfer ---------------------------------------------------

    def _branch_target(self, thread, instr) -> Tuple[int, bool]:
        """Return (target, indirect?) for a branch instruction."""
        op = instr.operands[0]
        if isinstance(op, Imm):
            return op.value & U64, False
        return self._read_operand(thread.cpu, op, 8), True

    def _notify_indirect(self, thread, instr, target: int, kind: str) -> None:
        if self.indirect_hooks:
            source = instr.address if instr.address is not None else thread.cpu.pc
            for hook in self.indirect_hooks:
                hook(self, thread, source, target, kind)

    def _op_jmp(self, thread, instr) -> None:
        target, indirect = self._branch_target(thread, instr)
        if indirect:
            self._notify_indirect(thread, instr, target, "jump")
        thread.cpu.pc = target

    def _cond(self, cpu: CpuState, mnemonic: str) -> bool:
        """Evaluate a jCC condition via its spec predicate (the same
        compiled expression the lifter derives its IR from)."""
        fn = _JCC_COND.get(mnemonic)
        if fn is None:
            raise EmulationFault(f"bad condition {mnemonic}")
        return fn(cpu)

    def _op_jcc(self, thread, instr) -> None:
        if self._cond(thread.cpu, instr.mnemonic):
            target, indirect = self._branch_target(thread, instr)
            if indirect:
                self._notify_indirect(thread, instr, target, "jump")
            thread.cpu.pc = target

    def _op_call(self, thread, instr) -> None:
        cpu = thread.cpu
        target, indirect = self._branch_target(thread, instr)
        if indirect and target < IMPORT_STUB_BASE:
            self._notify_indirect(thread, instr, target, "call")
        sp = cpu.get(RSP) - 8
        cpu.set(RSP, sp)
        self.memory.write_int(sp, cpu.pc, 8)
        cpu.pc = target

    def _op_ret(self, thread, instr) -> None:
        cpu = thread.cpu
        sp = cpu.get(RSP)
        cpu.pc = self.memory.read_int(sp, 8)
        cpu.set(RSP, sp + 8)

    # -- atomics / fences -----------------------------------------------------

    def _op_cmpxchg(self, thread, instr) -> None:
        cpu = thread.cpu
        dst, src = instr.operands
        current = self._read_operand(cpu, dst, instr.width)
        expected = cpu.get(RAX) & ((1 << (instr.width * 8)) - 1)
        self._flags_sub(cpu, expected, current, instr.width)
        if expected == current:
            new = self._read_operand(cpu, src, instr.width)
            self._write_operand(cpu, dst, new, instr.width)
        else:
            self._write_operand(cpu, Reg("rax"), current, instr.width)

    def _op_xadd(self, thread, instr) -> None:
        cpu = thread.cpu
        dst, src = instr.operands
        a = self._read_operand(cpu, dst, instr.width)
        b = self._read_operand(cpu, src, instr.width)
        result = self._flags_add(cpu, a, b, instr.width)
        self._write_operand(cpu, dst, result, instr.width)
        self._write_operand(cpu, src, a, instr.width)

    def _op_mfence(self, thread, instr) -> None:
        # TSO is never violated by this interpreter; cost + count only.
        self.fences_executed += 1

    # -- SIMD -----------------------------------------------------------------

    def _op_movdq(self, thread, instr) -> None:
        cpu = thread.cpu
        dst, src = instr.operands
        value = self._read_operand(cpu, src, 16)
        self._write_operand(cpu, dst, value, 16)

    def _vec_lanes(self, value: int) -> List[int]:
        return [(value >> (32 * i)) & 0xFFFFFFFF for i in range(4)]

    def _vec_pack(self, lanes: List[int]) -> int:
        out = 0
        for i, lane in enumerate(lanes):
            out |= (lane & 0xFFFFFFFF) << (32 * i)
        return out

    def _vecop(self, thread, instr, fn) -> None:
        cpu = thread.cpu
        dst, src = instr.operands
        a = self._vec_lanes(self._read_operand(cpu, dst, 16))
        b = self._vec_lanes(self._read_operand(cpu, src, 16))
        self._write_operand(
            cpu, dst,
            self._vec_pack([fn(x, y) & 0xFFFFFFFF for x, y in zip(a, b)]), 16)

    def _op_paddd(self, thread, instr) -> None:
        self._vecop(thread, instr, lambda a, b: a + b)

    def _op_psubd(self, thread, instr) -> None:
        self._vecop(thread, instr, lambda a, b: a - b)

    def _op_pmulld(self, thread, instr) -> None:
        self._vecop(thread, instr, lambda a, b: a * b)

    def _op_pxor(self, thread, instr) -> None:
        self._vecop(thread, instr, lambda a, b: a ^ b)

    def _op_pextrd(self, thread, instr) -> None:
        cpu = thread.cpu
        dst, src, lane = instr.operands
        lanes = self._vec_lanes(cpu.xmm[src.index])
        self._write_operand(cpu, dst, lanes[lane.value & 3], 8)

    def _op_pinsrd(self, thread, instr) -> None:
        cpu = thread.cpu
        dst, src, lane = instr.operands
        lanes = self._vec_lanes(cpu.xmm[dst.index])
        lanes[lane.value & 3] = self._read_operand(cpu, src, 4)
        cpu.xmm[dst.index] = self._vec_pack(lanes)

    def _op_pbroadcastd(self, thread, instr) -> None:
        cpu = thread.cpu
        dst, src = instr.operands
        value = self._read_operand(cpu, src, 4)
        cpu.xmm[dst.index] = self._vec_pack([value] * 4)

    # -- misc -----------------------------------------------------------------

    def _op_nop(self, thread, instr) -> None:
        pass

    def _op_hlt(self, thread, instr) -> None:
        self.exited = True
        self.exit_code = thread.cpu.get(RAX) & 0xFF

    def _op_ud2(self, thread, instr) -> None:
        raise EmulationFault("ud2 trap", thread.cpu.pc, thread.tid)

    def _op_rdtls(self, thread, instr) -> None:
        self._write_operand(thread.cpu, instr.operands[0],
                            thread.cpu.tls_base, 8)


# --- sanitizer access plans --------------------------------------------------
#
# A *plan* classifies one decoded instruction's guest memory accesses for
# the sanitizer hot path: either a sentinel (no access / fence) or
# ``(atomic, entries)`` with one ``(mem, is_read, is_write, width)`` tuple
# per memory operand.  Implicit stack accesses (push/pop/call/ret spill
# slots) are deliberately omitted: they always hit the executing thread's
# private native stack, which the detector skips anyway.

_NO_ACCESS = object()
_FENCE = object()


def _access_plan(instr: Instruction, skip_tls: bool):
    """Build the sanitizer access plan for one instruction.

    Per-operand roles ("r"/"w"/"rw") and fixed access widths come from
    the ISA spec's ``mem_roles`` / ``mem_width`` declarations.

    ``skip_tls`` elides accesses based off ``r15`` (the recompiled
    runtime's TLS/emustack base register): those target per-thread
    memory by construction.
    """
    spec = SPEC[instr.mnemonic]
    if spec.fence:
        return _FENCE
    if spec.mem_roles is None:
        return _NO_ACCESS
    entries = []
    for position, op in enumerate(instr.operands):
        if not isinstance(op, Mem):
            continue
        if skip_tls and op.base is not None and op.base.name == "r15":
            continue
        role = spec.mem_roles[position]
        width = spec.mem_width if spec.mem_width is not None else instr.width
        entries.append((op, "r" in role, "w" in role, width))
    if not entries:
        return _NO_ACCESS
    return instr.is_atomic, tuple(entries)


#: jCC mnemonic -> compiled condition predicate, from the ISA spec.
_JCC_COND = {name: spec.cond for name, spec in SPEC.items()
             if spec.branch_kind == "jcc"}


def _build_dispatch() -> Dict[str, Callable]:
    table: Dict[str, Callable] = {}
    for mnemonic, spec in SPEC.items():
        if spec.branch_kind == "jcc":
            table[mnemonic] = Machine._op_jcc
        else:
            table[mnemonic] = getattr(Machine, f"_op_{mnemonic}")
    return table


_DISPATCH = _build_dispatch()
