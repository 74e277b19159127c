"""Unit tests for the optimisation passes."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ir import (Alloca, BinOp, Br, Call, CompilerBarrier, ConstantInt,
                      Fence, Function, GlobalVar, I64, ICmp, IRBuilder, Load,
                      Module, Phi, Store, const, format_function,
                      verify_function, verify_module)
from repro.passes import (ConstFold, DCE, DSE, Inliner, LICM, LoadElim,
                          LocalCSE, LoopSimplify, Mem2Reg, PassManager,
                          RegPromote, SimplifyCFG, eval_binop, eval_icmp,
                          inline_call, standard_pipeline)
from repro.passes.alias import may_alias, symbolic_addr


def fresh_fn(name="f"):
    fn = Function(name)
    module = Module()
    module.add_function(fn)
    entry = fn.add_block("entry")
    return fn, module, IRBuilder(entry)


def instr_count(fn, cls=None):
    return sum(1 for i in fn.instructions()
               if cls is None or isinstance(i, cls))


# -- constant evaluation property: IR semantics == machine semantics --------------

class TestEvalBinop:
    @given(st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
           st.integers(-(2 ** 63), 2 ** 63 - 1),
           st.integers(-(2 ** 63), 2 ** 63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_wraps_like_64bit_hardware(self, op, a, b):
        result = eval_binop(op, a, b, 64)
        python_op = {"add": a + b, "sub": a - b, "mul": a * b,
                     "and": a & b, "or": a | b, "xor": a ^ b}[op]
        wrapped = python_op & (2 ** 64 - 1)
        if wrapped >= 2 ** 63:
            wrapped -= 2 ** 64
        assert result == wrapped

    @given(st.integers(-(2 ** 63), 2 ** 63 - 1),
           st.integers(-(2 ** 63), 2 ** 63 - 1))
    @example(2 ** 62 + 1, 3)
    @example(-(2 ** 63), -1)
    @example(2 ** 63 - 1, -(2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_sdiv_truncates(self, a, b):
        if b == 0:
            assert eval_binop("sdiv", a, b, 64) is None
        else:
            quot = math.trunc(Fraction(a, b))       # exact, toward zero
            wrapped = (quot + 2 ** 63) % 2 ** 64 - 2 ** 63
            assert eval_binop("sdiv", a, b, 64) == wrapped
            assert eval_binop("srem", a, b, 64) == a - quot * b

    @given(st.sampled_from(["eq", "ne", "slt", "sle", "sgt", "sge",
                            "ult", "ule", "ugt", "uge"]),
           st.integers(-(2 ** 63), 2 ** 63 - 1),
           st.integers(-(2 ** 63), 2 ** 63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_icmp_signedness(self, pred, a, b):
        result = eval_icmp(pred, a, b, 64)
        ua, ub = a % 2 ** 64, b % 2 ** 64
        expected = {"eq": a == b, "ne": a != b,
                    "slt": a < b, "sle": a <= b,
                    "sgt": a > b, "sge": a >= b,
                    "ult": ua < ub, "ule": ua <= ub,
                    "ugt": ua > ub, "uge": ua >= ub}[pred]
        assert result == expected


class TestConstFold:
    def test_folds_constant_tree(self):
        fn, module, b = fresh_fn()
        x = b.add(const(2), const(3))
        y = b.mul(x, const(4))
        b.ret(y)
        ConstFold().run_function(fn, module)
        ret = fn.entry.terminator
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 20

    def test_identities(self):
        fn, module, b = fresh_fn()
        arg = b.load(const(0x1000), 8)
        x = b.add(arg, const(0))
        y = b.mul(x, const(1))
        b.ret(y)
        ConstFold().run_function(fn, module)
        assert fn.entry.terminator.value is arg

    def test_folds_constant_condbr(self):
        fn, module, b = fresh_fn()
        taken = fn.parent = None
        t = fn.add_block("t")
        f = fn.add_block("f")
        cond = b.icmp("slt", const(1), const(2))
        b.condbr(cond, t, f)
        IRBuilder(t).ret(const(1))
        IRBuilder(f).ret(const(0))
        ConstFold().run_function(fn, module)
        assert isinstance(fn.entry.terminator, Br)
        assert fn.entry.terminator.target is t

    def test_folds_constant_switch(self):
        fn, module, b = fresh_fn()
        a_block = fn.add_block("a")
        b_block = fn.add_block("b")
        default = fn.add_block("d")
        b.switch(const(5), default, [(4, a_block), (5, b_block)])
        for blk in (a_block, b_block, default):
            IRBuilder(blk).ret()
        ConstFold().run_function(fn, module)
        assert isinstance(fn.entry.terminator, Br)
        assert fn.entry.terminator.target is b_block

    def test_division_by_zero_not_folded(self):
        fn, module, b = fresh_fn()
        x = b.binop("sdiv", const(1), const(0))
        b.ret(x)
        ConstFold().run_function(fn, module)
        assert isinstance(fn.entry.terminator.value, BinOp)


class TestDCE:
    def test_removes_dead_chain(self):
        fn, module, b = fresh_fn()
        dead1 = b.add(const(1), const(2))
        dead2 = b.mul(dead1, const(3))      # noqa: F841 chained dead
        live = b.load(const(0x1000), 8)
        b.ret(live)
        DCE().run_function(fn, module)
        assert instr_count(fn, BinOp) == 0
        assert instr_count(fn, Load) == 1

    def test_keeps_side_effects(self):
        fn, module, b = fresh_fn()
        value = b.add(const(1), const(2))
        b.store(value, const(0x1000), 8)
        b.ret()
        DCE().run_function(fn, module)
        assert instr_count(fn, BinOp) == 1
        assert instr_count(fn, Store) == 1

    def test_removes_cyclic_dead_phis(self):
        fn = Function("f")
        module = Module(); module.add_function(fn)
        entry = fn.add_block("entry")
        loop = fn.add_block("loop")
        b = IRBuilder(entry)
        b.br(loop)
        b.position(loop)
        phi = b.phi(I64)
        phi.add_incoming(const(0), entry)
        bump = b.add(phi, const(1))
        phi.add_incoming(bump, loop)
        exit_ = fn.add_block("exit")
        cond = b.icmp("eq", b.load(const(0x1000), 8), const(0))
        b.condbr(cond, loop, exit_)
        IRBuilder(exit_).ret()
        DCE().run_function(fn, module)
        # The phi/add cycle is dead (never used by a side effect).
        assert instr_count(fn, Phi) == 0


class TestMem2Reg:
    def test_promotes_straightline_slot(self):
        fn, module, b = fresh_fn()
        slot = b.alloca(8)
        b.store(const(5), slot)
        loaded = b.load(slot, 8)
        result = b.add(loaded, const(1))
        b.ret(result)
        Mem2Reg().run_function(fn, module)
        verify_function(fn)
        assert instr_count(fn, Alloca) == 0
        assert instr_count(fn, Load) == 0

    def test_inserts_phi_at_join(self):
        fn = Function("f")
        module = Module(); module.add_function(fn)
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        slot = b.alloca(8)
        cond = b.icmp("eq", b.load(const(0x1000), 8), const(0))
        b.condbr(cond, left, right)
        b.position(left)
        b.store(const(1), slot)
        b.br(join)
        b.position(right)
        b.store(const(2), slot)
        b.br(join)
        b.position(join)
        out = b.load(slot, 8)
        b.ret(out)
        Mem2Reg().run_function(fn, module)
        verify_function(fn)
        assert instr_count(fn, Phi) == 1
        assert instr_count(fn, Alloca) == 0

    def test_escaping_alloca_not_promoted(self):
        fn, module, b = fresh_fn()
        slot = b.alloca(8)
        b.call("external_fn", [slot])     # address escapes
        out = b.load(slot, 8)
        b.ret(out)
        Mem2Reg().run_function(fn, module)
        assert instr_count(fn, Alloca) == 1

    def test_mixed_width_not_promoted(self):
        fn, module, b = fresh_fn()
        slot = b.alloca(8)
        b.store(const(5), slot, width=8)
        narrow = b.load(slot, 4)
        b.ret(b.zext(narrow, I64))
        Mem2Reg().run_function(fn, module)
        assert instr_count(fn, Alloca) == 1


class TestSimplifyCFG:
    def test_removes_unreachable(self):
        fn, module, b = fresh_fn()
        b.ret()
        orphan = fn.add_block("orphan")
        IRBuilder(orphan).ret()
        SimplifyCFG().run_function(fn, module)
        assert len(fn.blocks) == 1

    def test_merges_straightline_chain(self):
        fn, module, b = fresh_fn()
        nxt = fn.add_block("next")
        b.br(nxt)
        b2 = IRBuilder(nxt)
        b2.ret(b2.add(const(1), const(2)))
        SimplifyCFG().run_function(fn, module)
        assert len(fn.blocks) == 1
        verify_function(fn)

    def test_threads_empty_block(self):
        fn = Function("f")
        module = Module(); module.add_function(fn)
        entry = fn.add_block("entry")
        hop = fn.add_block("hop")
        target = fn.add_block("target")
        b = IRBuilder(entry)
        cond = b.icmp("eq", b.load(const(0x1000), 8), const(0))
        b.condbr(cond, hop, target)
        IRBuilder(hop).br(target)
        IRBuilder(target).ret()
        SimplifyCFG().run_function(fn, module)
        verify_function(fn)
        assert all(blk.name != "hop" for blk in fn.blocks)


class TestLocalOpt:
    def test_load_forwarded_from_store(self):
        fn, module, b = fresh_fn()
        addr = b.add(const(0x1000), const(8))
        b.store(const(7), addr, 8)
        out = b.load(addr, 8)
        b.ret(out)
        LoadElim().run_function(fn, module)
        assert isinstance(fn.entry.terminator.value, ConstantInt)

    def test_redundant_load_merged(self):
        fn, module, b = fresh_fn()
        first = b.load(const(0x1000), 8)
        second = b.load(const(0x1000), 8)
        b.ret(b.add(first, second))
        LoadElim().run_function(fn, module)
        assert instr_count(fn, Load) == 1

    def test_fence_blocks_forwarding(self):
        fn, module, b = fresh_fn()
        first = b.load(const(0x1000), 8)
        b.fence("acquire")
        second = b.load(const(0x1000), 8)
        b.ret(b.add(first, second))
        LoadElim().run_function(fn, module)
        assert instr_count(fn, Load) == 2

    def test_call_blocks_forwarding(self):
        fn, module, b = fresh_fn()
        first = b.load(const(0x1000), 8)
        b.call("ext", [])
        second = b.load(const(0x1000), 8)
        b.ret(b.add(first, second))
        LoadElim().run_function(fn, module)
        assert instr_count(fn, Load) == 2

    def test_same_base_different_offsets_no_clobber(self):
        fn, module, b = fresh_fn()
        base = b.load(const(0x2000), 8)
        a1 = b.add(base, const(8))
        a2 = b.add(base, const(16))
        first = b.load(a1, 8)
        b.store(const(1), a2, 8)      # provably disjoint from a1
        second = b.load(a1, 8)
        b.ret(b.add(first, second))
        LoadElim().run_function(fn, module)
        assert instr_count(fn, Load) == 2   # base load + one merged load

    def test_unknown_store_clobbers(self):
        fn, module, b = fresh_fn()
        p = b.load(const(0x2000), 8)
        q = b.load(const(0x3000), 8)
        first = b.load(p, 8)
        b.store(const(1), q, 8)       # may alias p
        second = b.load(p, 8)
        b.ret(b.add(first, second))
        LoadElim().run_function(fn, module)
        # p, q, first, second all remain (4 loads)
        assert instr_count(fn, Load) == 4

    def test_stack_store_does_not_clobber_shared_load(self):
        fn, module, b = fresh_fn()
        shared = b.load(const(0x2000), 8, tags=("orig",))
        stack_addr = b.load(const(0x4000), 8)
        store = b.store(const(1), stack_addr, 8, tags=("orig", "emustack"))
        again = b.load(const(0x2000), 8, tags=("orig",))
        b.ret(b.add(shared, again))
        LoadElim().run_function(fn, module)
        assert instr_count(fn, Load) == 2   # stack_addr + merged shared

    def test_dse_removes_overwritten_store(self):
        fn, module, b = fresh_fn()
        b.store(const(1), const(0x1000), 8)
        b.store(const(2), const(0x1000), 8)
        b.ret()
        DSE().run_function(fn, module)
        stores = [i for i in fn.instructions() if isinstance(i, Store)]
        assert len(stores) == 1 and stores[0].value.value == 2

    def test_dse_respects_intervening_load(self):
        fn, module, b = fresh_fn()
        b.store(const(1), const(0x1000), 8)
        observed = b.load(const(0x1000), 8)
        b.store(const(2), const(0x1000), 8)
        b.ret(observed)
        DSE().run_function(fn, module)
        assert instr_count(fn, Store) == 2

    def test_cse_merges_pure_ops(self):
        fn, module, b = fresh_fn()
        x = b.load(const(0x1000), 8)
        a = b.add(x, const(4))
        c = b.add(x, const(4))
        b.ret(b.mul(a, c))
        LocalCSE().run_function(fn, module)
        assert instr_count(fn, BinOp) == 2   # one add + the mul


class TestAlias:
    def test_symbolic_chasing(self):
        fn, module, b = fresh_fn()
        base = b.load(const(0x1000), 8)
        addr = b.add(b.add(base, const(8)), const(-4))
        kind, root, offset = symbolic_addr(addr)
        assert kind == "sym" and root == id(base) and offset == 4

    def test_const_addresses(self):
        assert symbolic_addr(const(0x700000)) == ("const", None, 0x700000)

    def test_overlap_rules(self):
        a = ("const", None, 0x100)
        b_ = ("const", None, 0x108)
        assert not may_alias(a, 8, False, b_, 8, False)
        assert may_alias(a, 8, False, ("const", None, 0x104), 8, False)

    def test_global_never_aliases_sym(self):
        g = GlobalVar("vreg_rax", size=8)
        assert not may_alias(symbolic_addr(g), 8, False,
                             ("sym", 123, 0), 8, False)

    def test_stack_vs_nonstack(self):
        # Stack never aliases original data-section addresses ...
        assert not may_alias(("sym", 1, 0), 8, True,
                             ("const", None, 0x700000), 8, False)
        # ... but an untagged *symbolic* address may point into the
        # stack, so sym-vs-sym with differing tags stays MAY.
        assert may_alias(("sym", 1, 0), 8, True, ("sym", 2, 0), 8, False)
        assert may_alias(("sym", 1, 0), 8, True, ("sym", 2, 0), 8, True)


class TestLoopPasses:
    def _counting_loop(self):
        fn = Function("f")
        module = Module(); module.add_function(fn)
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        exit_ = fn.add_block("exit")
        b = IRBuilder(entry)
        invariant_a = b.load(const(0x1000), 8)
        b.br(header)
        b.position(header)
        phi = b.phi(I64)
        phi.add_incoming(const(0), entry)
        hoistable = b.mul(invariant_a, const(3))
        bump = b.add(phi, b.add(hoistable, const(1)))
        phi.add_incoming(bump, header)
        cond = b.icmp("slt", bump, const(100))
        b.condbr(cond, header, exit_)
        IRBuilder(exit_).ret(phi)
        return fn, module, header

    def test_loopsimplify_creates_preheader(self):
        fn, module, header = self._counting_loop()
        LoopSimplify().run_function(fn, module)
        verify_function(fn)
        from repro.ir import predecessors
        preds = predecessors(fn)
        outside = [p for p in preds[header] if p.name != "header"]
        assert len(outside) == 1
        assert len(outside[0].successors()) == 1

    def test_licm_hoists_invariant_mul(self):
        fn, module, header = self._counting_loop()
        LoopSimplify().run_function(fn, module)
        LICM().run_function(fn, module)
        verify_function(fn)
        muls_in_header = [i for i in header.instructions
                          if isinstance(i, BinOp) and i.op == "mul"]
        assert not muls_in_header

    def test_licm_leaves_loads_when_loop_stores(self):
        fn = Function("f")
        module = Module(); module.add_function(fn)
        entry = fn.add_block("entry")
        pre = fn.add_block("pre")
        header = fn.add_block("header")
        exit_ = fn.add_block("exit")
        IRBuilder(entry).br(pre)
        IRBuilder(pre).br(header)
        b = IRBuilder(header)
        phi = b.phi(I64)
        phi.add_incoming(const(0), pre)
        loaded = b.load(const(0x1000), 8)
        b.store(phi, const(0x2000), 8)
        bump = b.add(phi, const(1))
        phi.add_incoming(bump, header)
        cond = b.icmp("slt", bump, loaded)
        b.condbr(cond, header, exit_)
        IRBuilder(exit_).ret()
        LICM().run_function(fn, module)
        assert any(isinstance(i, Load) for i in header.instructions)


class TestInliner:
    def _callee(self, module):
        callee = Function("callee", param_types=(I64,))
        entry = callee.add_block("entry")
        b = IRBuilder(entry)
        b.ret(b.add(callee.params[0], const(10)))
        module.add_function(callee)
        return callee

    def test_inline_replaces_call(self):
        module = Module()
        callee = self._callee(module)
        caller = Function("caller")
        module.add_function(caller)
        entry = caller.add_block("entry")
        b = IRBuilder(entry)
        result = b.call(callee, [const(5)])
        b.ret(result)
        assert inline_call(result, module)
        verify_module(module)
        calls = [i for i in caller.instructions() if isinstance(i, Call)]
        assert not calls
        ConstFold().run_function(caller, module)
        SimplifyCFG().run_function(caller, module)
        ret = caller.blocks[0].terminator
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 15

    def test_inliner_respects_visibility(self):
        module = Module()
        callee = self._callee(module)
        callee.external_visible = True
        caller = Function("caller")
        module.add_function(caller)
        entry = caller.add_block("entry")
        b = IRBuilder(entry)
        b.ret(b.call(callee, [const(1)]))
        Inliner(respect_visibility=True).run_module(module)
        assert any(isinstance(i, Call) for i in caller.instructions())
        callee.external_visible = False
        Inliner(respect_visibility=True).run_module(module)
        assert not any(isinstance(i, Call) for i in caller.instructions())

    def test_recursive_function_not_inlined(self):
        module = Module()
        rec = Function("rec")
        module.add_function(rec)
        entry = rec.add_block("entry")
        b = IRBuilder(entry)
        b.ret(b.call(rec, []))
        rec.external_visible = False
        Inliner(respect_visibility=True).run_module(module)
        assert any(isinstance(i, Call) for i in rec.instructions())


class TestRegPromote:
    def _module_with_state(self):
        module = Module()
        reg = GlobalVar("vreg_rax", size=8, thread_local=True,
                        promotable=True)
        module.add_global(reg)
        return module, reg

    def test_accesses_become_ssa(self):
        module, reg = self._module_with_state()
        fn = Function("f")
        module.add_function(fn)
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        b.store(const(5), reg, 8)
        loaded = b.load(reg, 8)
        doubled = b.mul(loaded, const(2))
        b.store(doubled, reg, 8)
        b.ret()
        RegPromote().run_module(module)
        verify_module(module)
        # Loads of the global inside straight-line code are gone; the
        # remaining accesses are boundary glue.
        plain = [i for i in fn.instructions()
                 if isinstance(i, Load) and i.addr is reg
                 and "rp-glue" not in i.tags]
        assert not plain

    def test_output_stored_at_ret_when_observed(self):
        module, reg = self._module_with_state()
        # Writer writes rax; caller reads rax after the call -> observed.
        writer = Function("writer")
        module.add_function(writer)
        wentry = writer.add_block("entry")
        wb = IRBuilder(wentry)
        wb.store(const(42), reg, 8)
        wb.ret()
        caller = Function("caller")
        module.add_function(caller)
        centry = caller.add_block("entry")
        cb = IRBuilder(centry)
        cb.call(writer, [], type_=I64)
        out = cb.load(reg, 8)
        cb.store(out, const(0x1000), 8)
        cb.ret()
        RegPromote().run_module(module)
        verify_module(module)
        stores_to_global = [i for i in writer.instructions()
                            if isinstance(i, Store) and i.addr is reg]
        assert stores_to_global, "writer must store rax back at exit"


class TestPipeline:
    def test_standard_pipeline_preserves_verification(self):
        fn = Function("f")
        module = Module(); module.add_function(fn)
        entry = fn.add_block("entry")
        body = fn.add_block("body")
        exit_ = fn.add_block("exit")
        b = IRBuilder(entry)
        i_slot = b.alloca(8)
        acc_slot = b.alloca(8)
        b.store(const(0), i_slot)
        b.store(const(0), acc_slot)
        b.br(body)
        b.position(body)
        i = b.load(i_slot, 8)
        acc = b.load(acc_slot, 8)
        b.store(b.add(acc, i), acc_slot)
        nxt = b.add(i, const(1))
        b.store(nxt, i_slot)
        cond = b.icmp("slt", nxt, const(10))
        b.condbr(cond, body, exit_)
        b.position(exit_)
        b.ret(b.load(acc_slot, 8))
        standard_pipeline(verify=True).run(module)
        verify_module(module)
        assert instr_count(fn, Alloca) == 0
