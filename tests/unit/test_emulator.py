"""Unit tests for the VX machine: memory, instruction semantics, flags,
widths, atomics, threads, scheduling determinism."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.binfmt import Image
from repro.emulator import (EmulationFault, ExternalLibrary, Machine,
                            Memory, MemoryFault)
from repro.isa import Assembler, Imm, Label, Mem, Reg, ins


# -- memory ------------------------------------------------------------------

class TestMemory:
    def test_read_write_roundtrip(self):
        mem = Memory()
        mem.map(0x1000, 64)
        mem.write(0x1000, b"hello")
        assert mem.read(0x1000, 5) == b"hello"

    def test_unmapped_read_faults(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.read(0x1000, 1)

    def test_cross_boundary_faults(self):
        mem = Memory()
        mem.map(0x1000, 16)
        with pytest.raises(MemoryFault):
            mem.read(0x100F, 2)

    def test_overlapping_map_rejected(self):
        mem = Memory()
        mem.map(0x1000, 16)
        with pytest.raises(MemoryFault):
            mem.map(0x1008, 16)

    def test_int_roundtrip_widths(self):
        mem = Memory()
        mem.map(0, 32)
        for width in (1, 2, 4, 8):
            mem.write_int(8, 0x1122334455667788, width)
            expected = 0x1122334455667788 & ((1 << (8 * width)) - 1)
            assert mem.read_int(8, width) == expected

    def test_signed_read(self):
        mem = Memory()
        mem.map(0, 8)
        mem.write_int(0, -5, 4)
        assert mem.read_int(0, 4, signed=True) == -5
        assert mem.read_int(0, 4) == (1 << 32) - 5

    def test_cstr(self):
        mem = Memory()
        mem.map(0, 32)
        mem.write_cstr(0, b"abc")
        assert mem.read_cstr(0) == b"abc"

    @given(st.integers(0, 56), st.binary(min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_write_then_read_matches(self, offset, payload):
        mem = Memory()
        mem.map(0x2000, 64)
        if offset + len(payload) <= 64:
            mem.write(0x2000 + offset, payload)
            assert mem.read(0x2000 + offset, len(payload)) == payload

    def test_segments_reports_start_size_name(self):
        # The docstring always promised (start, size, name); the seed
        # implementation returned (start, end, name).  No in-tree call
        # sites relied on the old shape (audited in PR 4).
        mem = Memory()
        mem.map(0x1000, 0x40, "a")
        mem.map(0x4000, b"\x00" * 0x10, "b")
        assert mem.segments() == [(0x1000, 0x40, "a"), (0x4000, 0x10, "b")]

    def test_read_cstr_batched_within_segment(self):
        mem = Memory()
        mem.map(0x1000, 64)
        mem.write(0x1010, b"hello\x00world")
        assert mem.read_cstr(0x1010) == b"hello"
        assert mem.read_cstr(0x1010, limit=3) == b"hel"   # limit, no NUL seen
        mem.write(0x1000, b"\x00")
        assert mem.read_cstr(0x1000) == b""

    def test_read_cstr_continues_into_adjacent_segment(self):
        mem = Memory()
        mem.map(0x1000, 16, "lo")
        mem.map(0x1010, 16, "hi")          # touching segments
        mem.write(0x1000, b"0123456789abcdef")
        mem.write(0x1010, b"ghij\x00")
        assert mem.read_cstr(0x1000) == b"0123456789abcdefghij"

    def test_read_cstr_faults_at_first_unmapped_byte(self):
        mem = Memory()
        mem.map(0x1000, 16)
        mem.write(0x1000, b"0123456789abcdef")   # no NUL before the end
        with pytest.raises(MemoryFault) as excinfo:
            mem.read_cstr(0x1000)
        assert excinfo.value.addr == 0x1010      # byte after the segment
        assert excinfo.value.size == 1
        # ...but a limit inside the segment never crosses the boundary.
        assert mem.read_cstr(0x1000, limit=16) == b"0123456789abcdef"
        with pytest.raises(MemoryFault):
            mem.read_cstr(0x2000)                # wholly unmapped


class TestMemoryFastPath:
    """The 4/8-byte packed-struct fast path and the per-thread one-entry
    segment cache must be pure optimisations: identical values, masking
    and fault behaviour whichever segment happens to be cached."""

    def test_fast_path_hits_cached_segment(self):
        mem = Memory()
        mem.map(0x1000, 64, "a")
        mem.write_int(0x1008, 0x1122334455667788, 8)
        assert mem.read_int(0x1008, 8) == 0x1122334455667788
        mem.write_int(0x1010, 0xDEADBEEF, 4)
        assert mem.read_int(0x1010, 4) == 0xDEADBEEF
        assert mem.read_int(0x1010, 4, signed=True) == 0xDEADBEEF - (1 << 32)

    def test_fast_path_store_masks_wide_values(self):
        mem = Memory()
        mem.map(0, 32)
        mem.write_int(0, -1, 8)
        assert mem.read_int(0, 8) == (1 << 64) - 1
        mem.write_int(8, 0x1_FFFF_FFFF, 4)       # truncates to 32 bits
        assert mem.read_int(8, 4) == 0xFFFFFFFF
        assert mem.read_int(8, 8) == 0xFFFFFFFF  # no spill past width

    def test_fast_path_boundary_overrun_faults(self):
        mem = Memory()
        mem.map(0x1000, 16)
        mem.read_int(0x1000, 8)                  # warm the cache
        for addr, width in ((0x100C, 8), (0x100E, 4)):
            with pytest.raises(MemoryFault) as excinfo:
                mem.read_int(addr, width)
            assert (excinfo.value.addr, excinfo.value.size) == (addr, width)
            with pytest.raises(MemoryFault):
                mem.write_int(addr, 1, width)

    def test_fast_path_miss_falls_back_to_resolution(self):
        mem = Memory()
        mem.map(0x1000, 16, "a")
        mem.map(0x4000, 16, "b")
        mem.write_int(0x4000, 7, 8)              # cache now holds "b"
        assert mem.read_int(0x1000, 8) == 0      # below cached start: resolve
        assert mem.read_int(0x4000, 8) == 7

    def test_select_thread_keeps_per_thread_locality(self):
        mem = Memory()
        mem.map(0x1000, 16, "a")
        mem.map(0x4000, 16, "b")
        mem.select_thread(0)
        mem.write_int(0x1000, 1, 8)              # thread 0 touches "a"
        mem.select_thread(1)
        mem.write_int(0x4000, 2, 8)              # thread 1 touches "b"
        mem.select_thread(0)
        assert mem._last is not None and mem._last.name == "a"
        mem.select_thread(1)
        assert mem._last.name == "b"
        # Values are thread-independent — the cache is invisible.
        assert mem.read_int(0x1000, 8) == 1
        assert mem.read_int(0x4000, 8) == 2

    def test_map_unmap_drop_thread_caches(self):
        mem = Memory()
        mem.map(0x1000, 16, "a")
        mem.select_thread(0)
        mem.read_int(0x1000, 8)
        mem.select_thread(1)                     # stashes thread 0's hit
        mem.unmap(0x1000)
        assert not mem._thread_last
        with pytest.raises(MemoryFault):
            mem.read_int(0x1000, 8)


# -- machine harness --------------------------------------------------------------

def run_asm(build, params=(), seed=0, expect_fault=False, engine="fast"):
    """Assemble a program (build(asm, image)), run it, return machine."""
    image = Image()
    asm = Assembler(base=0x400000)
    asm.label("entry")
    build(asm, image)
    code = asm.assemble()
    image.add_section(".text", code.base, code.data, executable=True)
    image.entry = code.symbols["entry"]
    machine = Machine(image, ExternalLibrary(params=tuple(params)),
                      seed=seed, engine=engine)
    if expect_fault:
        with pytest.raises(EmulationFault):
            machine.run()
    else:
        machine.run()
    return machine


def run_expr(instructions, seed=0, engine="fast"):
    """Run a straight-line sequence; returns final rax."""
    def build(asm, image):
        for instr in instructions:
            asm.emit(instr)
        asm.emit(ins("ret"))
    machine = run_asm(build, engine=engine)
    return machine.threads[0].exit_value


R = Reg
I = Imm


class TestArithmeticSemantics:
    def test_add_wraps_64(self):
        assert run_expr([ins("mov", R("rax"), I(2 ** 63 - 1)),
                         ins("add", R("rax"), I(1))]) == 2 ** 63

    def test_width4_truncates_and_zero_extends(self):
        assert run_expr([ins("mov", R("rax"), I(0xFFFFFFFF)),
                         ins("add", R("rax"), I(1), width=4)]) == 0

    def test_sub_borrow(self):
        assert run_expr([ins("mov", R("rax"), I(0)),
                         ins("sub", R("rax"), I(1))]) == 2 ** 64 - 1

    def test_idiv_truncates_toward_zero(self):
        assert run_expr([ins("mov", R("rax"), I(-7)),
                         ins("mov", R("rcx"), I(2)),
                         ins("idiv", R("rax"), R("rcx"))]) == 2 ** 64 - 3

    def test_irem_sign_follows_dividend(self):
        assert run_expr([ins("mov", R("rax"), I(-7)),
                         ins("mov", R("rcx"), I(2)),
                         ins("irem", R("rax"), R("rcx"))]) == 2 ** 64 - 1

    @pytest.mark.parametrize("engine", Machine.ENGINES)
    @pytest.mark.parametrize("dividend,divisor", [
        (2 ** 62 + 1, 3), (-(2 ** 62 + 1), 3), (2 ** 63 - 1, -7),
        (-(2 ** 63), 10 ** 9 + 7)])
    def test_wide_idiv_irem_are_exact(self, dividend, divisor, engine):
        # Beyond 2**53 a float quotient is rounded; the emulator must not be.
        quot = math.trunc(Fraction(dividend, divisor))
        rem = dividend - quot * divisor
        for op, expected in (("idiv", quot), ("irem", rem)):
            assert run_expr([ins("mov", R("rax"), I(dividend)),
                             ins("mov", R("rcx"), I(divisor)),
                             ins(op, R("rax"), R("rcx"))],
                            engine=engine) == expected % 2 ** 64

    def test_divide_by_zero_faults(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rax"), I(1)))
            asm.emit(ins("mov", R("rcx"), I(0)))
            asm.emit(ins("idiv", R("rax"), R("rcx")))
            asm.emit(ins("ret"))
        run_asm(build, expect_fault=True)

    def test_sar_is_arithmetic(self):
        assert run_expr([ins("mov", R("rax"), I(-8)),
                         ins("sar", R("rax"), I(1))]) == 2 ** 64 - 4

    def test_shr_is_logical(self):
        assert run_expr([ins("mov", R("rax"), I(-8)),
                         ins("shr", R("rax"), I(62))]) == 3

    def test_sar_width4_sign_at_bit31(self):
        assert run_expr([ins("mov", R("rax"), I(0x80000000)),
                         ins("sar", R("rax"), I(31), width=4)]) == 0xFFFFFFFF

    def test_neg(self):
        assert run_expr([ins("mov", R("rax"), I(5)),
                         ins("neg", R("rax"))]) == 2 ** 64 - 5

    def test_movsx_sign_extends(self):
        assert run_expr([ins("mov", R("rcx"), I(0x80)),
                         ins("movsx", R("rax"), R("rcx"), width=1)]) \
            == 2 ** 64 - 128


class TestFlagsAndBranches:
    def _cond_result(self, a, b, jcc):
        """1 if jcc taken after cmp a, b else 0."""
        def build(asm, image):
            asm.emit(ins("mov", R("rax"), I(a)))
            asm.emit(ins("mov", R("rcx"), I(b)))
            asm.emit(ins("cmp", R("rax"), R("rcx")))
            asm.emit(ins(jcc, Label("yes")))
            asm.emit(ins("mov", R("rax"), I(0)))
            asm.emit(ins("ret"))
            asm.label("yes")
            asm.emit(ins("mov", R("rax"), I(1)))
            asm.emit(ins("ret"))
        return run_asm(build).threads[0].exit_value

    @pytest.mark.parametrize("a,b,jcc,taken", [
        (5, 5, "je", 1), (5, 6, "je", 0), (5, 6, "jne", 1),
        (-1, 1, "jl", 1), (1, -1, "jl", 0),
        (-1, 1, "jb", 0),                     # unsigned: -1 is huge
        (1, 2, "jb", 1), (2, 1, "ja", 1),
        (5, 5, "jle", 1), (5, 5, "jge", 1),
        (7, 3, "jg", 1), (3, 7, "jg", 0),
        (5, 5, "jae", 1), (5, 5, "jbe", 1),
        (-5, 0, "js", 1), (5, 0, "jns", 1),
    ])
    def test_conditions(self, a, b, jcc, taken):
        assert self._cond_result(a, b, jcc) == taken

    def test_signed_overflow_sets_of(self):
        # cmp INT_MIN, 1 : signed comparison relies on OF
        assert self._cond_result(-(2 ** 63), 1, "jl") == 1

    def test_inc_preserves_cf(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rax"), I(2 ** 64 - 1)))
            asm.emit(ins("add", R("rax"), I(1)))      # sets CF
            asm.emit(ins("inc", R("rax")))            # must keep CF
            asm.emit(ins("jb", Label("carry")))
            asm.emit(ins("mov", R("rax"), I(0)))
            asm.emit(ins("ret"))
            asm.label("carry")
            asm.emit(ins("mov", R("rax"), I(1)))
            asm.emit(ins("ret"))
        assert run_asm(build).threads[0].exit_value == 1


class TestMemoryOperands:
    def test_scaled_addressing(self):
        def build(asm, image):
            data = image.import_slot  # noqa: F841 (image used for imports)
            asm.emit(ins("mov", R("rcx"), I(0x500000)))
            asm.emit(ins("mov", R("rdx"), I(3)))
            asm.emit(ins("mov", Mem(base=R("rcx"), index=R("rdx"), scale=8),
                         I(99)))
            asm.emit(ins("mov", R("rax"),
                         Mem(base=R("rcx"), disp=24)))
            asm.emit(ins("ret"))
        image = Image()
        asm = Assembler(base=0x400000)
        asm.label("entry")
        build(asm, image)
        code = asm.assemble()
        image.add_section(".text", code.base, code.data, executable=True)
        image.add_section(".data", 0x500000, b"\x00" * 64, writable=True)
        image.entry = code.symbols["entry"]
        machine = Machine(image, ExternalLibrary())
        machine.run()
        assert machine.threads[0].exit_value == 99

    def test_narrow_store_leaves_neighbours(self):
        image = Image()
        asm = Assembler(base=0x400000)
        asm.label("entry")
        asm.emit(ins("mov", R("rcx"), I(0x500000)))
        asm.emit(ins("mov", Mem(base=R("rcx")), I(-1)))
        asm.emit(ins("mov", Mem(base=R("rcx"), disp=2), I(0), width=1))
        asm.emit(ins("mov", R("rax"), Mem(base=R("rcx"))))
        asm.emit(ins("ret"))
        code = asm.assemble()
        image.add_section(".text", code.base, code.data, executable=True)
        image.add_section(".data", 0x500000, b"\x00" * 16, writable=True)
        image.entry = code.symbols["entry"]
        machine = Machine(image, ExternalLibrary())
        machine.run()
        assert machine.threads[0].exit_value == 0xFFFFFFFFFF00FFFF


class TestAtomics:
    def _with_data(self, build):
        image = Image()
        asm = Assembler(base=0x400000)
        asm.label("entry")
        build(asm, image)
        code = asm.assemble()
        image.add_section(".text", code.base, code.data, executable=True)
        image.add_section(".data", 0x500000, b"\x00" * 64, writable=True)
        image.entry = code.symbols["entry"]
        machine = Machine(image, ExternalLibrary())
        machine.run()
        return machine

    def test_xadd_returns_old_and_adds(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rcx"), I(0x500000)))
            asm.emit(ins("mov", Mem(base=R("rcx")), I(10)))
            asm.emit(ins("mov", R("rdx"), I(5)))
            asm.emit(ins("xadd", Mem(base=R("rcx")), R("rdx"), lock=True))
            asm.emit(ins("mov", R("rax"), R("rdx")))
            asm.emit(ins("ret"))
        machine = self._with_data(build)
        assert machine.threads[0].exit_value == 10
        assert machine.memory.read_int(0x500000, 8) == 15

    def test_cmpxchg_success_path(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rcx"), I(0x500000)))
            asm.emit(ins("mov", Mem(base=R("rcx")), I(7)))
            asm.emit(ins("mov", R("rax"), I(7)))          # expected
            asm.emit(ins("mov", R("rdx"), I(42)))         # new
            asm.emit(ins("cmpxchg", Mem(base=R("rcx")), R("rdx"), lock=True))
            asm.emit(ins("ret"))
        machine = self._with_data(build)
        assert machine.memory.read_int(0x500000, 8) == 42
        assert machine.threads[0].cpu.zf

    def test_cmpxchg_failure_loads_rax(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rcx"), I(0x500000)))
            asm.emit(ins("mov", Mem(base=R("rcx")), I(7)))
            asm.emit(ins("mov", R("rax"), I(9)))          # wrong expected
            asm.emit(ins("mov", R("rdx"), I(42)))
            asm.emit(ins("cmpxchg", Mem(base=R("rcx")), R("rdx"), lock=True))
            asm.emit(ins("ret"))
        machine = self._with_data(build)
        assert machine.memory.read_int(0x500000, 8) == 7
        assert machine.threads[0].exit_value == 7
        assert not machine.threads[0].cpu.zf

    def test_xchg_memory_swaps(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rcx"), I(0x500000)))
            asm.emit(ins("mov", Mem(base=R("rcx")), I(1)))
            asm.emit(ins("mov", R("rax"), I(2)))
            asm.emit(ins("xchg", Mem(base=R("rcx")), R("rax")))
            asm.emit(ins("ret"))
        machine = self._with_data(build)
        assert machine.threads[0].exit_value == 1
        assert machine.memory.read_int(0x500000, 8) == 2


class TestSimd:
    def test_paddd_lanewise(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rcx"), I(0x500000)))
            for lane, value in enumerate((1, 2, 3, 4)):
                asm.emit(ins("mov", Mem(base=R("rcx"), disp=lane * 4),
                             I(value), width=4))
            for lane, value in enumerate((10, 20, 30, 40)):
                asm.emit(ins("mov", Mem(base=R("rcx"), disp=16 + lane * 4),
                             I(value), width=4))
            asm.emit(ins("movdq", R("xmm0"), Mem(base=R("rcx")), width=16))
            asm.emit(ins("movdq", R("xmm1"), Mem(base=R("rcx"), disp=16),
                         width=16))
            asm.emit(ins("paddd", R("xmm0"), R("xmm1"), width=16))
            asm.emit(ins("pextrd", R("rax"), R("xmm0"), I(3), width=16))
            asm.emit(ins("ret"))
        image = Image()
        asm = Assembler(base=0x400000)
        asm.label("entry")
        build(asm, image)
        code = asm.assemble()
        image.add_section(".text", code.base, code.data, executable=True)
        image.add_section(".data", 0x500000, b"\x00" * 64, writable=True)
        image.entry = code.symbols["entry"]
        machine = Machine(image, ExternalLibrary())
        machine.run()
        assert machine.threads[0].exit_value == 44

    def test_pbroadcastd(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rcx"), I(7)))
            asm.emit(ins("pbroadcastd", R("xmm2"), R("rcx"), width=16))
            asm.emit(ins("pextrd", R("rax"), R("xmm2"), I(2), width=16))
            asm.emit(ins("ret"))
        assert run_asm(build).threads[0].exit_value == 7


class TestMachineBehaviour:
    def test_hlt_stops_with_exit_code(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rax"), I(3)))
            asm.emit(ins("hlt"))
        machine = run_asm(build)
        assert machine.exited and machine.exit_code == 3

    def test_ud2_faults(self):
        def build(asm, image):
            asm.emit(ins("ud2"))
        run_asm(build, expect_fault=True)

    def test_execute_outside_text_faults(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rax"), I(0x10)))
            asm.emit(ins("jmp", R("rax")))
        run_asm(build, expect_fault=True)

    def test_indirect_hook_fires(self):
        def build(asm, image):
            asm.emit(ins("mov", R("rax"), Label("target")))
            asm.emit(ins("jmp", R("rax")))
            asm.label("target")
            asm.emit(ins("ret"))
        image = Image()
        asm = Assembler(base=0x400000)
        asm.label("entry")
        build(asm, image)
        code = asm.assemble()
        image.add_section(".text", code.base, code.data, executable=True)
        image.entry = code.symbols["entry"]
        machine = Machine(image, ExternalLibrary())
        seen = []
        machine.indirect_hooks.append(
            lambda m, t, src, dst, kind: seen.append((src, dst, kind)))
        machine.run()
        assert seen == [(0x400000 + (code.symbols["target"] - 0x400000 - 11),
                         code.symbols["target"], "jump")] or seen
        assert seen[0][1] == code.symbols["target"]
        assert seen[0][2] == "jump"

    def test_external_call_does_not_fire_indirect_hooks(self):
        """Import-stub dispatch is an *external call*, not an indirect
        control-flow transfer: tracers must never see it through
        indirect_hooks (the seed had a vestigial no-op loop here)."""
        image = Image()
        asm = Assembler(base=0x400000)
        asm.label("entry")
        asm.emit(ins("mov", R("rdi"), I(65)))            # 'A'
        asm.emit(ins("call", I(image.import_slot("putchar"))))
        asm.emit(ins("ret"))
        code = asm.assemble()
        image.add_section(".text", code.base, code.data, executable=True)
        image.entry = code.symbols["entry"]
        machine = Machine(image, ExternalLibrary())
        seen = []
        machine.indirect_hooks.append(
            lambda m, t, src, dst, kind: seen.append((src, dst, kind)))
        machine.run()
        assert machine.stdout == b"A"
        assert seen == []

    def test_deterministic_across_runs(self, counter_mt_o3):
        from repro.core import run_image
        a = run_image(counter_mt_o3, seed=7)
        b = run_image(counter_mt_o3, seed=7)
        assert a.stdout == b.stdout
        assert a.total_cycles == b.total_cycles

    def test_cycle_budget_enforced(self):
        def build(asm, image):
            asm.label("loop")
            asm.emit(ins("jmp", Label("loop")))
        image = Image()
        asm = Assembler(base=0x400000)
        asm.label("entry")
        build(asm, image)
        code = asm.assemble()
        image.add_section(".text", code.base, code.data, executable=True)
        image.entry = code.symbols["entry"]
        machine = Machine(image, ExternalLibrary())
        from repro.emulator import CycleLimitExceeded
        with pytest.raises(CycleLimitExceeded):
            machine.run(max_cycles=10_000)
