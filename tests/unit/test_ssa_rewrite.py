"""Batched SSA use rewriting: ``replace_uses`` and the passes built on it.

ConstFold, LoadElim and LocalCSE record replacements in a map and
rewrite the function once, instead of rewriting every use after every
fold.  Each pass case below pins the IR the per-fold (eager) rewrite
produces, written out by hand, on a shape where deferring the rewrite
could change what a later decision sees.
"""

from repro.ir import (Function, I64, IRBuilder, Module, const,
                      format_function, replace_all_uses, replace_uses,
                      resolve, verify_function)
from repro.passes import ConstFold, LoadElim, LocalCSE


def fresh(*block_names):
    fn = Function("f")
    module = Module()
    module.add_function(fn)
    blocks = [fn.add_block(name) for name in block_names]
    return fn, module, blocks


def body(fn):
    """The function's IR without its header line."""
    return format_function(fn).splitlines()[1:-1]


class TestReplaceUses:
    def _chain(self):
        fn, _, (entry,) = fresh("entry")
        b = IRBuilder(entry)
        x = b.load(const(0x1000), 8, name="x")
        a = b.add(x, const(1), name="a")
        m = b.add(a, const(2), name="m")
        c = b.add(m, const(3), name="c")
        b.store(a, const(0x2000))
        b.store(m, const(0x2008))
        b.ret(c)
        return fn, x, a, m, c

    def test_chain_resolves_to_its_end(self):
        fn, x, a, m, c = self._chain()
        assert replace_uses(fn, {m: a, a: x}) == 4
        assert body(fn) == [
            "entry:",
            "  %x = load.i64 4096",
            "  %a = add %x, 1",
            "  %m = add %x, 2",
            "  %c = add %x, 3",
            "  store.i64 %x, 8192",
            "  store.i64 %x, 8200",
            "  ret %c",
        ]

    def test_cycle_leaves_its_members_and_sends_the_tail_to_its_entry(self):
        fn, x, a, m, c = self._chain()
        replacements = {x: a, a: m, m: a}
        assert resolve(replacements, x) is a
        assert resolve(replacements, a) is a
        assert resolve(replacements, m) is m
        replace_uses(fn, replacements)
        assert body(fn) == [
            "entry:",
            "  %x = load.i64 4096",
            "  %a = add %a, 1",
            "  %m = add %a, 2",
            "  %c = add %m, 3",
            "  store.i64 %a, 8192",
            "  store.i64 %m, 8200",
            "  ret %c",
        ]

    def test_constant_replacement(self):
        fn, x, a, m, c = self._chain()
        seven = const(7)
        assert replace_uses(fn, {x: seven}) == 1
        assert fn.entry.instructions[1].operands[0] is seven

    def test_phi_operands_are_rewritten(self):
        fn, _, (entry, loop, exit_) = fresh("entry", "loop", "exit")
        b = IRBuilder(entry)
        x = b.load(const(0x1000), 8, name="x")
        b.br(loop)
        b.position(loop)
        phi = b.phi(I64, name="p")
        step = b.add(phi, const(1), name="step")
        phi.add_incoming(x, entry)
        phi.add_incoming(step, loop)
        b.condbr(b.icmp("eq", step, const(9), name="done"), exit_, loop)
        IRBuilder(exit_).ret(phi)
        y = IRBuilder(entry).const(5)
        assert replace_uses(fn, {x: y, step: phi}) == 3
        assert phi.incoming() == [(y, entry), (phi, loop)]

    def test_replace_all_uses_is_the_one_entry_case(self):
        fn, x, a, m, c = self._chain()
        assert replace_all_uses(fn, a, x) == 2
        assert all(a not in instr.operands for instr in fn.instructions())

    def test_empty_map_is_a_no_op(self):
        fn, *_ = self._chain()
        before = format_function(fn)
        assert replace_uses(fn, {}) == 0
        assert format_function(fn) == before


def constfold_sweeps(fn, module) -> int:
    """Run ConstFold to its fixpoint; return the number of sweeps (each
    sweep simplifies the entry block's first instruction once)."""
    first = fn.entry.instructions[0]
    visits = []

    class Counting(ConstFold):
        def _simplify(self, instr, *args):
            if instr is first:
                visits.append(instr)
            return super()._simplify(instr, *args)

    assert Counting().run_function(fn, module)
    return len(visits)


class TestConstFoldSweeps:
    """Same IR *and* same number of sweeps as the eager rewrite: a fold
    that is visible to later decisions in its own sweep must not be
    deferred to the next one."""

    def test_loop_header_phi_uses_a_value_folded_later(self):
        # The phi is visited before the latch value folds into it; the
        # next sweep sees [x, x] and collapses the phi.
        fn, module, (entry, loop, exit_) = fresh("entry", "loop", "exit")
        b = IRBuilder(entry)
        x = b.load(const(0x1000), 8, name="x")
        b.br(loop)
        b.position(loop)
        phi = b.phi(I64, name="p")
        same = b.add(x, const(0), name="same")
        phi.add_incoming(x, entry)
        phi.add_incoming(same, loop)
        cond = b.icmp("eq", b.load(phi, 8, name="v"), const(0), name="c")
        b.condbr(cond, exit_, loop)
        IRBuilder(exit_).ret(phi)
        assert constfold_sweeps(fn, module) == 3
        verify_function(fn)
        assert body(fn) == [
            "entry:",
            "  %x = load.i64 4096",
            "  br loop",
            "loop:",
            "  %v = load.i64 %x",
            "  %c = icmp eq %v, 0",
            "  condbr %c, exit, loop",
            "exit:",
            "  ret %x",
        ]

    def test_reassociation_reads_an_operand_folded_earlier(self):
        # ``a`` is laid out after its user, so when ``c`` is simplified
        # ``a``'s second operand still names ``k``, which folded to 4
        # earlier in the sweep; the reassociation must read 4 to fold
        # ``c`` into ``x + 12`` in this sweep.
        fn, module, (entry, use, define) = fresh("entry", "use", "def")
        b = IRBuilder(entry)
        x = b.load(const(0x1000), 8, name="x")
        k = b.add(const(2), const(2), name="k")
        b.br(define)
        b.position(define)
        a = b.add(x, k, name="a")
        b.br(use)
        b.position(use)
        c = b.add(a, const(8), name="c")
        b.ret(c)
        assert constfold_sweeps(fn, module) == 2
        verify_function(fn)
        assert body(fn) == [
            "entry:",
            "  %x = load.i64 4096",
            "  br def",
            "use:",
            "  %c = add %x, 12",
            "  ret %c",
            "def:",
            "  %a = add %x, 4",
            "  br use",
        ]

    def test_condbr_condition_folds_in_the_same_sweep(self):
        fn, module, (entry, t, f, join) = fresh("entry", "t", "f", "join")
        b = IRBuilder(entry)
        x = b.load(const(0x1000), 8, name="x")
        cond = b.icmp("slt", const(1), const(2), name="cond")
        b.condbr(cond, t, f)
        IRBuilder(t).br(join)
        b.position(f)
        y = b.add(x, const(1), name="y")
        b.br(join)
        b.position(join)
        phi = b.phi(I64, name="p")
        phi.add_incoming(x, t)
        phi.add_incoming(y, f)
        b.ret(phi)
        assert constfold_sweeps(fn, module) == 2
        assert body(fn) == [
            "entry:",
            "  %x = load.i64 4096",
            "  br t",
            "t:",
            "  br join",
            "f:",
            "  %y = add %x, 1",
            "  br join",
            "join:",
            "  %p = phi [%x, t], [%y, f]",
            "  ret %p",
        ]

    def test_sub_rewrite_keeps_its_position_and_name(self):
        fn, module, (entry,) = fresh("entry")
        b = IRBuilder(entry)
        x = b.load(const(0x1000), 8, name="x")
        s = b.sub(x, const(8), name="s")
        t = b.add(s, const(8), name="t")
        b.store(t, const(0x2000))
        b.ret(s)
        assert constfold_sweeps(fn, module) == 3
        assert body(fn) == [
            "entry:",
            "  %x = load.i64 4096",
            "  %s = add %x, -8",
            "  store.i64 %x, 8192",
            "  ret %s",
        ]
        assert all(instr.parent is entry for instr in entry.instructions)


class TestLoadElimAcrossBlocks:
    def test_forwards_from_a_load_replaced_in_an_earlier_block(self):
        fn, module, (first, second) = fresh("first", "second")
        b = IRBuilder(first)
        l1 = b.load(const(0x1000), 8, name="l1")
        l2 = b.load(const(0x1000), 8, name="l2")
        b.br(second)
        b.position(second)
        b.store(l2, const(0x2000))
        l3 = b.load(const(0x2000), 8, name="l3")
        b.ret(b.add(l1, l3, name="sum"))
        assert LoadElim().run_function(fn, module)
        verify_function(fn)
        assert body(fn) == [
            "first:",
            "  %l1 = load.i64 4096",
            "  br second",
            "second:",
            "  store.i64 %l1, 8192",
            "  %sum = add %l1, %l1",
            "  ret %sum",
        ]
        assert l2.parent is None and l3.parent is None

    def test_address_chain_reads_through_an_earlier_replacement(self):
        # ``far`` (laid out before the block that replaces ``l2`` by
        # ``l1``) computes the address from ``l2``; by the time ``use``
        # is scanned the two addresses are the same location.
        fn, module, (entry, far, rep, use) = fresh("entry", "far", "rep",
                                                   "use")
        b = IRBuilder(entry)
        b.br(rep)
        b.position(rep)
        l1 = b.load(const(0x1000), 8, name="l1")
        l2 = b.load(const(0x1000), 8, name="l2")
        b.br(far)
        b.position(far)
        addr_a = b.add(l2, const(8), name="addr_a")
        b.br(use)
        b.position(use)
        addr_b = b.add(l1, const(8), name="addr_b")
        s1 = b.load(addr_a, 8, name="s1")
        s2 = b.load(addr_b, 8, name="s2")
        b.ret(b.add(s1, s2, name="sum"))
        assert LoadElim().run_function(fn, module)
        assert body(fn) == [
            "entry:",
            "  br rep",
            "far:",
            "  %addr_a = add %l1, 8",
            "  br use",
            "rep:",
            "  %l1 = load.i64 4096",
            "  br far",
            "use:",
            "  %addr_b = add %l1, 8",
            "  %s1 = load.i64 %addr_a",
            "  %sum = add %s1, %s1",
            "  ret %sum",
        ]


class TestLocalCSEAcrossBlocks:
    def test_duplicate_keyed_on_an_operand_replaced_earlier(self):
        fn, module, (first, second) = fresh("first", "second")
        b = IRBuilder(first)
        x = b.load(const(0x1000), 8, name="x")
        a1 = b.add(x, const(1), name="a1")
        a2 = b.add(x, const(1), name="a2")
        b.br(second)
        b.position(second)
        m1 = b.mul(a1, const(3), name="m1")
        m2 = b.mul(a2, const(3), name="m2")
        b.ret(b.add(m1, m2, name="sum"))
        assert LocalCSE().run_function(fn, module)
        assert body(fn) == [
            "first:",
            "  %x = load.i64 4096",
            "  %a1 = add %x, 1",
            "  br second",
            "second:",
            "  %m1 = mul %a1, 3",
            "  %sum = add %m1, %m1",
            "  ret %sum",
        ]
