"""External library implementations for the VX machine.

This is the environment's equivalent of glibc + libpthread + libgomp:
every function a VXE binary can import.  Calls arrive through import
stubs with up to six integer arguments in the SysV argument registers;
the return value goes to ``rax``.

The library is the boundary across which the paper's callback problem
exists: ``pthread_create``, ``omp_parallel_for`` and ``qsort`` receive
*function pointers into the binary* and later transfer control to them
— from a new thread in the first two cases.  A recompiled binary must
therefore keep those original-address entry points alive (trampolines).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from .machine import EmulationFault, Machine, ThreadContext

INPUT_BASE = 0x6000_0000

# Register indices (duplicated from machine.py for speed/clarity).
_RAX, _RDI, _RSI, _RDX, _RCX = 0, 7, 6, 2, 1

_COSTS = {
    "malloc": 30, "free": 12, "calloc": 40, "realloc": 40,
    "memcpy": 8, "memset": 8, "memcmp": 8, "memmove": 8,
    "strlen": 6, "strcmp": 8, "strncmp": 8, "strcpy": 8, "strncpy": 8,
    "strcat": 10, "strchr": 6, "atoi": 8,
    "putchar": 10, "puts": 20, "print_int": 20, "printf": 40,
    "write_out": 20,
    "exit": 5, "abort": 5,
    "rand": 6, "srand": 2,
    "qsort": 60,
    "pthread_create": 450, "pthread_join": 120, "pthread_exit": 40,
    "pthread_mutex_init": 10, "pthread_mutex_destroy": 5,
    "pthread_mutex_lock": 18, "pthread_mutex_unlock": 14,
    "pthread_barrier_init": 10, "pthread_barrier_wait": 60,
    "omp_parallel_for": 900, "omp_get_max_threads": 4,
    "evt_wait": 30, "evt_signal": 20,
    "input_size": 4, "input_data": 4, "getparam": 4,
    "thread_cycles": 2, "wall_cycles": 2,
    "fs_stat": 40, "fs_opendir": 50, "fs_readdir": 30, "fs_closedir": 10,
    "fs_open": 50, "fs_read": 25, "fs_size": 10, "fs_close": 10,
    "net_accept": 60, "net_recv": 50, "net_send": 50, "net_close": 20,
    "net_wait_data": 40,
}

_DEFAULT_COST = 20

#: The Polynima runtime's leaf intrinsic (see ``leaf_intrinsics``).
RT_RECORD_ACCESS = "__poly_record_access"

_COSTS.update({
    "__poly_enter": 14,
    "__poly_cf_miss": 10,
    RT_RECORD_ACCESS: 30,
})


class ControlFlowMiss(EmulationFault):
    """Raised by the Polynima runtime when the recompiled binary hits a
    control transfer target unknown to the recovered CFG (§3.2).

    The additive-lifting driver catches this, records (site, target) in
    the on-disk CFG and re-runs the recompilation pipeline.
    """

    def __init__(self, site: int, target: int, thread_id: int) -> None:
        super().__init__(
            f"control-flow miss at site {site:#x} -> {target:#x}",
            site, thread_id)
        self.site = site
        self.target = target


class _Mutex:
    __slots__ = ("owner", "waiters")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.waiters = 0


class _Barrier:
    __slots__ = ("count", "arrived", "generation")

    def __init__(self, count: int) -> None:
        self.count = count
        self.arrived = 0
        self.generation = 0


class ExternalLibrary:
    """Host implementation of every importable function.

    Additional functions can be registered (``register``), which the
    server workloads use to model their environment.  Subclasses used by
    baseline recompilers may override behaviour, e.g. to model thread
    creation entering lifted code without TLS initialisation.
    """

    def __init__(self, input_blob: bytes = b"",
                 params: Tuple[int, ...] = (),
                 fs: Optional[Dict[str, bytes]] = None,
                 net_script: Optional[List[List[Tuple]]] = None,
                 omp_threads: int = 4) -> None:
        self.input_blob = bytes(input_blob)
        self.params = tuple(params)
        self.fs = dict(fs or {})
        self.net_script = [list(conn) for conn in (net_script or [])]
        self.net_sent: List[bytearray] = [bytearray() for _ in self.net_script]
        self.omp_threads = omp_threads
        self.machine: Optional[Machine] = None
        self._extra_cost = 0
        self._handlers: Dict[str, Callable] = {}
        self._mutexes: Dict[int, _Mutex] = {}
        self._barriers: Dict[int, _Barrier] = {}
        self._omp_regions: Dict[int, Dict] = {}
        self._next_region = 1
        self._rng = random.Random(1234)
        self._heap_next = 0
        self._heap_end = 0
        self._free_lists: Dict[int, List[int]] = {}
        self._dir_handles: Dict[int, List[bytes]] = {}
        self._file_handles: Dict[int, Tuple[bytes, int]] = {}
        self._next_handle = 1
        self._net_accept_idx = 0
        self._net_pos: List[int] = [0] * len(self.net_script)
        # Polynima runtime state ("libpolyrt"): per-thread emulated
        # stack ranges + dynamic-analysis record buffers.
        self.poly_emustacks: Dict[int, Tuple[int, int]] = {}
        self._signaled_events: set = set()
        #: Integer site id -> access record (see ``_record_access``).
        self.poly_access_log: Dict[int, dict] = {}
        for name in dir(self):
            if name.startswith("do_"):
                self._handlers[name[3:]] = getattr(self, name)

    # -- plumbing ------------------------------------------------------------

    def attach(self, machine: Machine) -> None:
        """Bind this library instance to a machine before execution."""
        self.machine = machine
        from .machine import HEAP_BASE, HEAP_SIZE
        self._heap_next = HEAP_BASE + 16
        self._heap_end = HEAP_BASE + HEAP_SIZE
        if self.input_blob:
            size = max(len(self.input_blob), 16)
            machine.memory.map(INPUT_BASE, size + 16, "input")
            machine.memory.write(INPUT_BASE, self.input_blob)
        machine.thread_done_hooks.append(self._on_thread_done)

    def register(self, name: str, handler: Callable, cost: int = 20) -> None:
        """Install a workload-specific external function."""
        self._handlers[name] = handler
        _COSTS.setdefault(name, cost)

    def dispatch(self, name: str, machine: Machine, thread: ThreadContext,
                 args: Tuple[int, ...]):
        """Route an import-stub call to its ``do_<name>`` handler."""
        self._extra_cost = 0
        handler = self._handlers.get(name)
        if handler is None:
            raise EmulationFault(f"unresolved import {name!r}",
                                 thread.cpu.pc, thread.tid)
        return handler(machine, thread, args)

    def cost(self, name: str) -> int:
        """Cycle cost charged for one call to the named function."""
        extra, self._extra_cost = self._extra_cost, 0
        return _COSTS.get(name, _DEFAULT_COST) + extra

    # -- heap -----------------------------------------------------------------

    def _alloc(self, size: int) -> int:
        size = max((size + 15) & ~15, 16)
        bucket = self._free_lists.get(size)
        if bucket:
            addr = bucket.pop()
        else:
            addr = self._heap_next + 16
            self._heap_next = addr + size
            if self._heap_next > self._heap_end:
                raise EmulationFault("out of heap memory")
            self.machine.memory.write_int(addr - 16, size, 8)
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            # A fresh allocation is ordered by the allocator: recycled
            # shadow state must not produce false races.
            sanitizer.on_malloc(addr, size)
        return addr

    def do_malloc(self, machine, thread, args):
        """``void *malloc(size_t n)`` over the bump/free-list heap."""
        return self._alloc(args[0])

    def do_calloc(self, machine, thread, args):
        """``void *calloc(size_t n, size_t size)`` — zeroed allocation."""
        size = args[0] * args[1]
        addr = self._alloc(size)
        machine.memory.write(addr, b"\x00" * size)
        self._extra_cost = size // 16
        return addr

    def do_free(self, machine, thread, args):
        """``void free(void *p)``."""
        addr = args[0]
        if addr == 0:
            return 0
        size = machine.memory.read_int(addr - 16, 8)
        self._free_lists.setdefault(size, []).append(addr)
        return 0

    def do_realloc(self, machine, thread, args):
        """``void *realloc(void *p, size_t n)`` — copy-and-free model."""
        addr, new_size = args[0], args[1]
        new = self._alloc(new_size)
        if addr:
            old_size = machine.memory.read_int(addr - 16, 8)
            payload = machine.memory.read(addr, min(old_size, new_size))
            machine.memory.write(new, payload)
            self.do_free(machine, thread, (addr,))
        return new

    # -- memory/string utilities ------------------------------------------------

    def do_memcpy(self, machine, thread, args):
        """``void *memcpy(void *dst, const void *src, size_t n)``."""
        dst, src, n = args[0], args[1], args[2]
        machine.memory.write(dst, machine.memory.read(src, n))
        self._extra_cost = n // 8
        return dst

    do_memmove = do_memcpy

    def do_memset(self, machine, thread, args):
        """``void *memset(void *dst, int c, size_t n)``."""
        dst, value, n = args[0], args[1] & 0xFF, args[2]
        machine.memory.write(dst, bytes([value]) * n)
        self._extra_cost = n // 8
        return dst

    def do_memcmp(self, machine, thread, args):
        """``int memcmp(const void *a, const void *b, size_t n)``."""
        a = machine.memory.read(args[0], args[2])
        b = machine.memory.read(args[1], args[2])
        self._extra_cost = args[2] // 8
        return 0 if a == b else (1 if a > b else -1)

    def do_strlen(self, machine, thread, args):
        """``size_t strlen(const char *s)``."""
        text = machine.memory.read_cstr(args[0])
        self._extra_cost = len(text) // 4
        return len(text)

    def do_strcmp(self, machine, thread, args):
        """``int strcmp(const char *a, const char *b)``."""
        a = machine.memory.read_cstr(args[0])
        b = machine.memory.read_cstr(args[1])
        return 0 if a == b else (1 if a > b else -1)

    def do_strncmp(self, machine, thread, args):
        """``int strncmp(const char *a, const char *b, size_t n)``."""
        a = machine.memory.read_cstr(args[0])[:args[2]]
        b = machine.memory.read_cstr(args[1])[:args[2]]
        return 0 if a == b else (1 if a > b else -1)

    def do_strcpy(self, machine, thread, args):
        """``char *strcpy(char *dst, const char *src)``."""
        text = machine.memory.read_cstr(args[1])
        machine.memory.write_cstr(args[0], text)
        self._extra_cost = len(text) // 4
        return args[0]

    def do_strncpy(self, machine, thread, args):
        """``char *strncpy(char *dst, const char *src, size_t n)``."""
        text = machine.memory.read_cstr(args[1])[:args[2]]
        machine.memory.write(args[0], text.ljust(args[2], b"\x00"))
        return args[0]

    def do_strcat(self, machine, thread, args):
        """``char *strcat(char *dst, const char *src)``."""
        dst = machine.memory.read_cstr(args[0])
        src = machine.memory.read_cstr(args[1])
        machine.memory.write_cstr(args[0], dst + src)
        return args[0]

    def do_strchr(self, machine, thread, args):
        """``char *strchr(const char *s, int c)``."""
        text = machine.memory.read_cstr(args[0])
        idx = text.find(bytes([args[1] & 0xFF]))
        return 0 if idx < 0 else args[0] + idx

    def do_atoi(self, machine, thread, args):
        """``int atoi(const char *s)``."""
        text = machine.memory.read_cstr(args[0]).decode("ascii", "replace")
        text = text.strip()
        sign = 1
        if text[:1] in ("+", "-"):
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        digits = ""
        for ch in text:
            if not ch.isdigit():
                break
            digits += ch
        return sign * int(digits) if digits else 0

    # -- output ------------------------------------------------------------------

    def do_putchar(self, machine, thread, args):
        """``int putchar(int c)`` onto the captured stdout."""
        machine.stdout.append(args[0] & 0xFF)
        return args[0] & 0xFF

    def do_puts(self, machine, thread, args):
        """``int puts(const char *s)`` onto the captured stdout."""
        machine.stdout += machine.memory.read_cstr(args[0]) + b"\n"
        return 0

    def do_print_int(self, machine, thread, args):
        """Test helper: print one integer and a newline."""
        value = args[0]
        if value >= 1 << 63:
            value -= 1 << 64
        machine.stdout += str(value).encode()
        return 0

    def do_write_out(self, machine, thread, args):
        """Test helper: write a raw buffer to the captured stdout."""
        machine.stdout += machine.memory.read(args[0], args[1])
        return args[1]

    def do_printf(self, machine, thread, args):
        """``int printf(const char *fmt, ...)`` — %d/%s/%c/%x/%ld subset."""
        fmt = machine.memory.read_cstr(args[0]).decode("latin1")
        out = []
        argi = 1
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch != "%":
                out.append(ch)
                i += 1
                continue
            spec = fmt[i + 1] if i + 1 < len(fmt) else "%"
            i += 2
            if spec == "%":
                out.append("%")
                continue
            value = args[argi] if argi < len(args) else 0
            argi += 1
            if spec == "d":
                if value >= 1 << 63:
                    value -= 1 << 64
                out.append(str(value))
            elif spec == "u":
                out.append(str(value))
            elif spec == "x":
                out.append(format(value, "x"))
            elif spec == "c":
                out.append(chr(value & 0xFF))
            elif spec == "s":
                out.append(machine.memory.read_cstr(value).decode("latin1"))
            else:
                out.append("%" + spec)
        machine.stdout += "".join(out).encode("latin1")
        return 0

    # -- process ------------------------------------------------------------------

    def do_exit(self, machine, thread, args):
        """``void exit(int status)`` — ends the whole machine."""
        machine.exited = True
        machine.exit_code = args[0] & 0xFF
        return None

    def do_abort(self, machine, thread, args):
        """``void abort(void)`` — raises an emulation fault."""
        raise EmulationFault("abort() called", thread.cpu.pc, thread.tid)

    def do_rand(self, machine, thread, args):
        """``int rand(void)`` from the library's seeded LCG."""
        return self._rng.randrange(1 << 31)

    def do_srand(self, machine, thread, args):
        """``void srand(unsigned seed)``."""
        self._rng = random.Random(args[0])
        return 0

    # -- harness-provided inputs ------------------------------------------------

    def do_input_size(self, machine, thread, args):
        """Workload input: byte length of the preloaded input buffer."""
        return len(self.input_blob)

    def do_input_data(self, machine, thread, args):
        """Workload input: copy the preloaded input into guest memory."""
        return INPUT_BASE

    def do_getparam(self, machine, thread, args):
        """Workload input: read one integer parameter by index."""
        idx = args[0]
        return self.params[idx] if idx < len(self.params) else 0

    def do_thread_cycles(self, machine, thread, args):
        """Cycles consumed by the calling thread (for harness timing)."""
        return thread.cycles

    def do_wall_cycles(self, machine, thread, args):
        """Simulated wall cycles so far (for harness timing)."""
        return int(machine.wall_cycles)

    # -- qsort (callback into guest code) -----------------------------------------

    def do_qsort(self, machine, thread, args):
        """``qsort`` with the comparator invoked as a guest callback."""
        base, nmemb, size, cmp_fn = args[0], args[1], args[2], args[3]
        memory = machine.memory
        items = [memory.read(base + i * size, size) for i in range(nmemb)]
        a_addr = self._alloc(size)
        b_addr = self._alloc(size)

        def compare(a: bytes, b: bytes) -> int:
            memory.write(a_addr, a)
            memory.write(b_addr, b)
            verdict = machine.call_guest(thread, cmp_fn, (a_addr, b_addr))
            return verdict - (1 << 64) if verdict >= 1 << 63 else verdict

        # Insertion sort: deterministic comparator call sequence.
        for i in range(1, len(items)):
            j = i
            while j > 0 and compare(items[j - 1], items[j]) > 0:
                items[j - 1], items[j] = items[j], items[j - 1]
                j -= 1
        self.do_free(machine, thread, (a_addr,))
        self.do_free(machine, thread, (b_addr,))
        for i, item in enumerate(items):
            memory.write(base + i * size, item)
        self._extra_cost = nmemb * 12
        return 0

    # -- pthreads -------------------------------------------------------------------

    def spawn_guest_thread(self, machine: Machine, entry: int,
                           args: Tuple[int, ...]) -> ThreadContext:
        """Create a guest thread.  Split out so baseline libraries can
        model defective thread entry (e.g. BinRec's missing TLS init)."""
        return machine.spawn_thread(entry, args)

    def do_pthread_create(self, machine, thread, args):
        """``pthread_create`` — spawns a green thread at the start routine."""
        tid_ptr, _attr, start_routine, arg = args[0], args[1], args[2], args[3]
        new = self.spawn_guest_thread(machine, start_routine, (arg,))
        if tid_ptr:
            machine.memory.write_int(tid_ptr, new.tid, 8)
        if machine.sanitizer is not None:
            machine.sanitizer.on_thread_create(thread, new.tid)
        return 0

    def do_pthread_join(self, machine, thread, args):
        """``pthread_join`` — blocks until the target thread exits."""
        tid, ret_ptr = args[0], args[1]
        if tid >= len(machine.threads):
            return -1
        target = machine.threads[tid]
        if target.state != ThreadContext.DONE:
            # pc is still at the import stub, so the call re-runs after
            # wake-up and then observes the completed thread.
            machine.block(thread, ("join", tid))
            return None
        if ret_ptr:
            machine.memory.write_int(ret_ptr, target.exit_value, 8)
        if machine.sanitizer is not None:
            machine.sanitizer.on_thread_join(thread, tid)
        return 0

    def do_pthread_exit(self, machine, thread, args):
        """``pthread_exit`` — ends the calling thread with a value."""
        thread.cpu.set(_RAX, args[0])
        machine._thread_returned(
            thread,
            0xDEAD0000 if thread.tid == 0 else 0xDEAD1000)
        return None

    def _mutex(self, addr: int) -> _Mutex:
        mutex = self._mutexes.get(addr)
        if mutex is None:
            mutex = self._mutexes[addr] = _Mutex()
        return mutex

    def do_pthread_mutex_init(self, machine, thread, args):
        """``pthread_mutex_init`` (word-sized mutex in guest memory)."""
        self._mutexes[args[0]] = _Mutex()
        return 0

    def do_pthread_mutex_destroy(self, machine, thread, args):
        """``pthread_mutex_destroy``."""
        self._mutexes.pop(args[0], None)
        return 0

    def do_pthread_mutex_lock(self, machine, thread, args):
        """``pthread_mutex_lock`` — blocks the thread when contended."""
        mutex = self._mutex(args[0])
        if mutex.owner is None:
            mutex.owner = thread.tid
            # Contended lockers re-run the stub after wake-up and pass
            # through here too, so this is the single acquire point.
            if machine.sanitizer is not None:
                machine.sanitizer.on_mutex_acquire(thread, args[0])
            return 0
        if mutex.owner == thread.tid:
            raise EmulationFault("recursive mutex lock",
                                 thread.cpu.pc, thread.tid)
        mutex.waiters += 1
        machine.block(thread, ("mutex", args[0]))
        return None     # call retried on wake-up (pc still at stub)

    def do_pthread_mutex_unlock(self, machine, thread, args):
        """``pthread_mutex_unlock`` — wakes one blocked waiter."""
        mutex = self._mutex(args[0])
        if machine.sanitizer is not None:
            machine.sanitizer.on_mutex_release(thread, args[0])
        mutex.owner = None
        if mutex.waiters:
            mutex.waiters -= machine.wake(("mutex", args[0]), limit=1)
        return 0

    def do_pthread_barrier_init(self, machine, thread, args):
        """``pthread_barrier_init`` with the party count."""
        self._barriers[args[0]] = _Barrier(args[2])
        return 0

    def do_pthread_barrier_wait(self, machine, thread, args):
        """``pthread_barrier_wait`` — releases all once the count arrives."""
        barrier = self._barriers.get(args[0])
        if barrier is None:
            raise EmulationFault("wait on uninitialised barrier",
                                 thread.cpu.pc, thread.tid)
        barrier.arrived += 1
        if barrier.arrived >= barrier.count:
            barrier.arrived = 0
            barrier.generation += 1
            key = ("barrier", args[0], barrier.generation - 1)
            if machine.sanitizer is not None:
                # Blocked parties resume after their (already completed)
                # call, so the all-to-all edge is created here.
                tids = [t.tid for t in machine.threads
                        if t.state == ThreadContext.BLOCKED
                        and t.block_key == key]
                machine.sanitizer.on_barrier(tids + [thread.tid])
            machine.wake(key)
            return 1
        machine.block(thread, ("barrier", args[0], barrier.generation))
        # Blocked threads resume *after* the call: mark completion by
        # advancing past the stub once woken; handled by returning a
        # sentinel that re-runs the call, which then observes a new
        # generation.  Simpler: complete the call now with return 0.
        sp = thread.cpu.get(4)
        ret = machine.memory.read_int(sp, 8)
        thread.cpu.set(4, sp + 8)
        thread.cpu.pc = ret
        thread.cpu.set(_RAX, 0)
        return None

    # -- OpenMP ---------------------------------------------------------------------

    def do_omp_get_max_threads(self, machine, thread, args):
        """``omp_get_max_threads`` — the machine's core count."""
        return self.omp_threads

    def do_omp_parallel_for(self, machine, thread, args):
        """Fork/join parallel loop: fn(arg, lo, hi) per worker chunk.

        Compiled OpenMP pragmas outline the loop body into a separate
        function and hand its address to the runtime — each worker entry
        is a callback into the binary from a fresh thread context.
        """
        fn, arg, start, end = args[0], args[1], args[2], args[3]
        nthreads = min(self.omp_threads, max(1, end - start))
        total = end - start
        region_id = self._next_region
        self._next_region += 1
        tids = []
        for i in range(nthreads):
            lo = start + (total * i) // nthreads
            hi = start + (total * (i + 1)) // nthreads
            worker = self.spawn_guest_thread(machine, fn, (arg, lo, hi))
            tids.append(worker.tid)
        if machine.sanitizer is not None:
            for tid in tids:
                machine.sanitizer.on_thread_create(thread, tid)
        self._omp_regions[region_id] = {"remaining": set(tids),
                                        "tids": tids,
                                        "waiter": thread.tid}
        machine.block(thread, ("omp", region_id))
        # Complete the call immediately so the waiter resumes after it.
        sp = thread.cpu.get(4)
        ret = machine.memory.read_int(sp, 8)
        thread.cpu.set(4, sp + 8)
        thread.cpu.pc = ret
        thread.cpu.set(_RAX, 0)
        return None

    def _on_thread_done(self, machine, thread) -> None:
        for region_id, region in list(self._omp_regions.items()):
            region["remaining"].discard(thread.tid)
            if not region["remaining"]:
                if machine.sanitizer is not None:
                    # Exit clocks exist already: the sanitizer's own
                    # thread-done hook runs before this one.
                    machine.sanitizer.on_omp_join(region["waiter"],
                                                  region["tids"])
                machine.wake(("omp", region_id))
                del self._omp_regions[region_id]

    # -- events (used by server workloads) -----------------------------------------

    def do_evt_wait(self, machine, thread, args):
        """Event-object wait with a latched-signal fast path."""
        if args[0] in self._signaled_events:
            if machine.sanitizer is not None:
                machine.sanitizer.on_event_wait(thread, args[0])
            return 0        # latched: signal happened before the wait
        machine.block(thread, ("event", args[0]))
        sp = thread.cpu.get(4)
        ret = machine.memory.read_int(sp, 8)
        thread.cpu.set(4, sp + 8)
        thread.cpu.pc = ret
        thread.cpu.set(_RAX, 0)
        return None

    def do_evt_signal(self, machine, thread, args):
        """Event-object signal; latches if no thread is waiting yet."""
        self._signaled_events.add(args[0])
        if machine.sanitizer is not None:
            # Waiters blocked now resume after their completed call, so
            # the release edge is pushed into them directly.
            key = ("event", args[0])
            waiting = [t.tid for t in machine.threads
                       if t.state == ThreadContext.BLOCKED
                       and t.block_key == key]
            machine.sanitizer.on_event_signal(thread, args[0], waiting)
        machine.wake(("event", args[0]))
        return 0

    # -- in-memory filesystem --------------------------------------------------------

    def do_fs_stat(self, machine, thread, args):
        """Filesystem model: existence/type/size of a path."""
        path = machine.memory.read_cstr(args[0]).decode("latin1")
        if path in self.fs:
            return 0
        prefix = path.rstrip("/") + "/"
        if any(name.startswith(prefix) for name in self.fs):
            return 0
        if path.rstrip("/") == "" and self.fs:
            return 0
        return -1

    def do_fs_opendir(self, machine, thread, args):
        """Filesystem model: open a directory iterator."""
        path = machine.memory.read_cstr(args[0]).decode("latin1")
        prefix = path.rstrip("/") + "/" if path.rstrip("/") else ""
        entries = sorted({name[len(prefix):].split("/")[0]
                          for name in self.fs if name.startswith(prefix)})
        if not entries:
            return 0
        handle = self._next_handle
        self._next_handle += 1
        self._dir_handles[handle] = [e.encode("latin1") for e in entries]
        return handle

    def do_fs_readdir(self, machine, thread, args):
        """Filesystem model: next entry name, empty at end."""
        handle, buf = args[0], args[1]
        entries = self._dir_handles.get(handle)
        if not entries:
            return 0
        machine.memory.write_cstr(buf, entries.pop(0))
        return 1

    def do_fs_closedir(self, machine, thread, args):
        """Filesystem model: release a directory iterator."""
        self._dir_handles.pop(args[0], None)
        return 0

    def do_fs_open(self, machine, thread, args):
        """Filesystem model: open a file for reading."""
        path = machine.memory.read_cstr(args[0]).decode("latin1")
        if path not in self.fs:
            return -1
        handle = self._next_handle
        self._next_handle += 1
        self._file_handles[handle] = (self.fs[path], 0)
        return handle

    def do_fs_size(self, machine, thread, args):
        """Filesystem model: size of an open file."""
        entry = self._file_handles.get(args[0])
        return len(entry[0]) if entry else -1

    def do_fs_read(self, machine, thread, args):
        """Filesystem model: read from an open file at its cursor."""
        handle, buf, cap = args[0], args[1], args[2]
        entry = self._file_handles.get(handle)
        if entry is None:
            return -1
        data, pos = entry
        chunk = data[pos:pos + cap]
        machine.memory.write(buf, chunk)
        self._file_handles[handle] = (data, pos + len(chunk))
        return len(chunk)

    def do_fs_close(self, machine, thread, args):
        """Filesystem model: close an open file."""
        self._file_handles.pop(args[0], None)
        return 0

    # -- Polynima runtime ("libpolyrt", linked into recompiled output) -----------------

    def do___poly_enter(self, machine, thread, args):
        """External-entry hook of recompiled binaries (§3.3.2, §3.3.3).

        On first entry in a thread context: allocate the thread's TLS
        block (virtual CPU state) and a fresh emulated stack, point the
        virtual rsp at its (16-byte aligned) top, and remember the
        stack range so the access recorder can classify addresses.
        Subsequent entries (callbacks on a live thread) reuse the
        existing state.  Returns the TLS base.
        """
        if thread.cpu.tls_base:
            return thread.cpu.tls_base
        meta = machine.image.metadata
        tls_size = int(meta.get("poly_tls_size", "512"))
        stack_size = int(meta.get("poly_emustack_size", "65536"))
        rsp_offset = int(meta.get("poly_rsp_offset", "32"))
        tls = self._alloc(tls_size)
        machine.memory.write(tls, b"\x00" * tls_size)
        stack = self._alloc(stack_size + 16)
        top = (stack + stack_size) & ~0xF
        machine.memory.write_int(tls + rsp_offset, top, 8)
        thread.cpu.tls_base = tls
        self.poly_emustacks[thread.tid] = (stack, top)
        return tls

    def do___mcsema_enter(self, machine, thread, args):
        """McSema-style state entry: the emulated stack and register
        state are a *single global block* shared by every thread (the
        "global array of bytes" model of §2.2.1) — unsynchronised and
        racy once a second thread enters lifted code."""
        shared = getattr(self, "_mcsema_state", None)
        if shared is None:
            meta = machine.image.metadata
            tls_size = int(meta.get("poly_tls_size", "512"))
            stack_size = int(meta.get("poly_emustack_size", "65536"))
            rsp_offset = int(meta.get("poly_rsp_offset", "32"))
            tls = self._alloc(tls_size)
            machine.memory.write(tls, b"\x00" * tls_size)
            stack = self._alloc(stack_size + 16)
            top = (stack + stack_size) & ~0xF
            machine.memory.write_int(tls + rsp_offset, top, 8)
            self._mcsema_state = tls
            shared = tls
        thread.cpu.tls_base = shared
        return shared

    def do___binrec_enter(self, machine, thread, args):
        """BinRec-style entry: the virtual state is initialised for the
        main thread only; a callback executing in a new thread finds no
        state and faults (§2.2.3)."""
        if thread.tid == 0:
            return self.do___poly_enter(machine, thread, args)
        # New thread context: state never initialised (tls_base 0); the
        # first virtual-state access faults at a near-null address.
        return thread.cpu.tls_base

    def do___poly_cf_miss(self, machine, thread, args):
        """Recompiled-binary runtime: report a control-flow miss (raises)."""
        site, target = args[0], args[1]
        raise ControlFlowMiss(site, target, thread.tid)

    def do___poly_record_access(self, machine, thread, args):
        """Instrumentation: record one load/store site's per-thread range."""
        return self._record_access(thread, args[0], args[1])

    def _record_access(self, thread, site, addr):
        """Fold one access of ``site`` (the integer site id the
        instrumentation passes; ``run_image`` decodes it) at ``addr``
        into the access log."""
        rng = self.poly_emustacks.get(thread.tid)
        kind = "local" if rng and rng[0] <= addr < rng[1] else "shared"
        record = self.poly_access_log.get(site)
        if record is None:
            record = self.poly_access_log[site] = {
                "kinds": set(), "ranges": {}, "count": 0}
        record["kinds"].add(kind)
        lo, hi = record["ranges"].get(thread.tid, (addr, addr))
        record["ranges"][thread.tid] = (min(lo, addr), max(hi, addr))
        record["count"] += 1
        return 0

    def leaf_intrinsics(self) -> Dict[str, Tuple[Callable, int]]:
        """Import name -> ``(handler(thread, rdi, rsi), cost)`` for the
        runtime calls the fast engine may run inline.

        A leaf intrinsic never blocks, wakes, spawns, exits, calls back
        into guest code or adds extra cost, so the import-stub path's
        only effects are the handler's and the fixed cost.  A name whose
        handler was replaced (``register`` or a subclass) is left out
        and keeps the import-stub path."""
        name = RT_RECORD_ACCESS
        stock = ExternalLibrary.__dict__["do_" + name]
        if getattr(self._handlers.get(name), "__func__", None) is not stock:
            return {}
        return {name: (self._record_access, _COSTS[name])}

    # -- scripted network -------------------------------------------------------------

    def do_net_accept(self, machine, thread, args):
        """Network model: accept the next scripted client connection."""
        if self._net_accept_idx >= len(self.net_script):
            return -1
        conn = self._net_accept_idx
        self._net_accept_idx += 1
        return conn

    def do_net_recv(self, machine, thread, args):
        """Network model: read from a scripted client, blocking semantics."""
        conn, buf, cap = args[0], args[1], args[2]
        if conn >= len(self.net_script):
            return -1
        script = self.net_script[conn]
        while self._net_pos[conn] < len(script):
            item = script[self._net_pos[conn]]
            self._net_pos[conn] += 1
            if item[0] == "msg":
                payload = item[1][:cap]
                machine.memory.write(buf, payload)
                return len(payload)
            if item[0] == "data_connect":
                machine.wake(("data", conn))
                continue
            raise EmulationFault(f"bad net script item {item!r}")
        return 0

    def do_net_send(self, machine, thread, args):
        """Network model: append to the client's captured response stream."""
        conn, buf, n = args[0], args[1], args[2]
        if conn < len(self.net_sent):
            self.net_sent[conn] += machine.memory.read(buf, n)
        return n

    def do_net_close(self, machine, thread, args):
        """Network model: close a client connection."""
        return 0

    def do_net_wait_data(self, machine, thread, args):
        """Network model: block until a client has data pending."""
        conn = args[0]
        if conn >= len(self.net_script):
            return -1
        # If the data-connect event was already consumed, don't block.
        script = self.net_script[conn]
        already = any(item[0] == "data_connect"
                      for item in script[:self._net_pos[conn]])
        if already:
            return 0
        machine.block(thread, ("data", conn))
        sp = thread.cpu.get(4)
        ret = machine.memory.read_int(sp, 8)
        thread.cpu.set(4, sp + 8)
        thread.cpu.pc = ret
        thread.cpu.set(_RAX, 0)
        return None
