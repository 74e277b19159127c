"""Unit tests for CFG recovery: the model, the static disassembler, the
jump-table heuristic, code-reference analysis, and the ICFT tracer."""

import pytest

from repro.core import Disassembler, ICFTTracer, RecoveredCFG, Recompiler
from repro.core.cfg import BlockInfo, FunctionCFG
from repro.minicc import compile_minic


SWITCH_PROG = r'''
int classify(int x) {
  switch (x) {
    case 0: return 10;
    case 1: return 11;
    case 2: return 12;
    case 3: return 13;
    case 4: return 14;
    case 5: return 15;
    default: return -1;
  }
}
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 8; i += 1) { s += classify(i); }
  printf("%d", s);
  return 0;
}
'''

CALLBACK_PROG = r'''
int plus1(int x) { return x + 1; }
int plus2(int x) { return x + 2; }
int main() {
  int table[2];
  table[0] = (int)plus1;
  table[1] = (int)plus2;
  int f = table[getparam(0)];
  printf("%d", f(10));
  return 0;
}
'''

#: Every way the library enters guest code: a pthread start routine, an
#: OpenMP outlined body and a qsort comparator.  ``plus1`` is reached
#: only by an indirect call inside the guest, ``add`` only directly.
ENTRIES_PROG = r'''
int total;
int values[6];
int add(int a, int b) { return a + b; }
int plus1(int x) { return x + 1; }
int worker(int *arg) { __sync_fetch_and_add(&total, 1); return 0; }
int body(int *arg, int lo, int hi) {
  int i;
  for (i = lo; i < hi; i += 1) { __sync_fetch_and_add(&total, i); }
  return 0;
}
int compare(int *a, int *b) { return a[0] - b[0]; }
int main() {
  int tids[2]; int t; int i;
  for (t = 0; t < 2; t += 1) { pthread_create(&tids[t], 0, worker, (int*)t); }
  for (t = 0; t < 2; t += 1) { pthread_join(tids[t], 0); }
  omp_parallel_for(body, 0, 0, 8);
  for (i = 0; i < 6; i += 1) { values[i] = (i * 5) % 6; }
  qsort(values, 6, 8, compare);
  int f = (int)plus1;
  printf("%d %d %d", add(total, f(values[0])), values[5], values[1]);
  return 0;
}
'''


class TestRecoveredCFGModel:
    def _sample(self) -> RecoveredCFG:
        cfg = RecoveredCFG()
        fn = FunctionCFG(entry=0x400000)
        fn.blocks[0x400000] = BlockInfo(0x400000, 0x400010, "jcc",
                                        succs=[0x400010, 0x400020])
        fn.blocks[0x400010] = BlockInfo(0x400010, 0x400018, "ret")
        cfg.functions[0x400000] = fn
        cfg.add_indirect_target(0x40000c, 0x400010, traced=True)
        cfg.dynamic_entries.add(0x400020)
        return cfg

    def test_json_roundtrip(self):
        cfg = self._sample()
        clone = RecoveredCFG.from_json(cfg.to_json())
        assert set(clone.functions) == set(cfg.functions)
        assert clone.indirect_targets == cfg.indirect_targets
        assert clone.traced_sites == cfg.traced_sites
        assert clone.dynamic_entries == cfg.dynamic_entries
        block = clone.functions[0x400000].blocks[0x400000]
        assert block.terminator == "jcc" and block.succs == [0x400010,
                                                             0x400020]

    def test_file_roundtrip(self, tmp_path):
        cfg = self._sample()
        path = tmp_path / "cfg.json"
        cfg.save(path)
        clone = RecoveredCFG.load(path)
        assert clone.total_blocks() == cfg.total_blocks()

    def test_add_indirect_target_idempotent(self):
        cfg = RecoveredCFG()
        assert cfg.add_indirect_target(1, 2)
        assert not cfg.add_indirect_target(1, 2)
        assert cfg.total_icfts() == 1

    def test_merge(self):
        a = self._sample()
        other = RecoveredCFG()
        other.add_indirect_target(0x40000c, 0x400020)
        other.add_indirect_target(0x99, 0x400030)
        a.merge(other)
        assert a.indirect_targets[0x40000c] == {0x400010, 0x400020}
        assert 0x99 in a.indirect_targets


class TestDisassembler:
    def test_recovers_functions_and_blocks(self):
        image = compile_minic(SWITCH_PROG, opt_level=0)
        cfg = Disassembler(image).recover()
        # main + classify (+ possibly spurious code-ref functions).
        assert len(cfg.functions) >= 2
        assert image.entry in cfg.functions
        assert cfg.total_blocks() > 5

    def test_jump_table_heuristic_resolves_dense_switch(self):
        image = compile_minic(SWITCH_PROG, opt_level=3)
        cfg = Disassembler(image).recover()
        # The O3 switch compiles to a jump table whose targets the
        # heuristic must find (6 cases).
        sites = {site: targets for site, targets
                 in cfg.indirect_targets.items() if targets}
        assert sites, "jump table not recognised"
        assert max(len(t) for t in sites.values()) >= 6

    def test_code_reference_analysis_finds_callbacks(self):
        image = compile_minic(CALLBACK_PROG, opt_level=3)
        cfg = Disassembler(image).recover()
        # plus1/plus2 are only reachable through address-taken
        # immediates; code-reference analysis must discover them.
        assert len(cfg.functions) >= 3

    def test_external_calls_not_treated_as_functions(self):
        image = compile_minic("int main() { printf(\"x\"); return 0; }",
                              opt_level=0)
        cfg = Disassembler(image).recover()
        for fn in cfg.functions.values():
            for block in fn.blocks.values():
                if block.terminator == "call":
                    assert block.call_target is None or \
                        block.call_target in cfg.functions

    def test_recovery_is_deterministic(self):
        image = compile_minic(SWITCH_PROG, opt_level=3)
        a = Disassembler(image).recover().to_json()
        b = Disassembler(image).recover().to_json()
        assert a == b


class TestICFTTracer:
    def test_records_indirect_calls(self):
        image = compile_minic(CALLBACK_PROG, opt_level=3)
        tracer = ICFTTracer(image)
        from repro.core import make_library
        result = tracer.trace(lambda _x: make_library(params=(1,)),
                              inputs=[None])
        assert result.total_icfts >= 1
        assert result.runs == 1
        assert result.instructions > 0

    def test_merges_across_inputs(self):
        image = compile_minic(CALLBACK_PROG, opt_level=3)
        tracer = ICFTTracer(image)
        from repro.core import make_library
        result = tracer.trace(
            lambda p: make_library(params=(p,)), inputs=[0, 1])
        # Two different callback targets across the two inputs.
        targets = set()
        for site_targets in result.call_targets.values():
            targets |= set(site_targets)
            assert all(count >= 1 for count in site_targets.values())
        assert len(targets) == 2

    def test_apply_to_cfg(self):
        image = compile_minic(CALLBACK_PROG, opt_level=3)
        from repro.core import make_library
        trace = ICFTTracer(image).trace(
            lambda _x: make_library(params=(0,)), inputs=[None])
        cfg = Disassembler(image).recover()
        before = cfg.total_icfts()
        trace.apply_to(cfg)
        assert cfg.total_icfts() >= before
        assert cfg.traced_sites


class TestTraceEntries:
    """The ICFT trace run records the guest functions the library
    entered: the callback analysis (§3.3.3) reads them from it."""

    @staticmethod
    def _tracing_machine(monkeypatch, engine="fast"):
        """Make ``ICFTTracer`` build its machine on ``engine`` and hand
        back the list the machines it builds are appended to."""
        from repro.core import icft_tracer
        from repro.emulator import Machine
        machines = []

        def build(*args, **kwargs):
            machine = Machine(*args, engine=engine, **kwargs)
            machines.append(machine)
            return machine

        monkeypatch.setattr(icft_tracer, "Machine", build)
        return machines

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_exactly_the_library_entries(self, monkeypatch, engine):
        from repro.core import make_library
        image = compile_minic(ENTRIES_PROG, opt_level=3, strip=False)
        machines = self._tracing_machine(monkeypatch, engine)
        trace = ICFTTracer(image).trace(lambda _x: make_library())
        assert machines[0].engine == engine
        assert not machines[0].fault
        symbols = image.symbols
        assert trace.entries == {image.entry, symbols["worker"],
                                 symbols["body"], symbols["compare"]}

    def test_entries_merge_across_runs(self):
        from repro.core import TraceResult
        a = TraceResult(entries={1, 2}, runs=1)
        a.merge(TraceResult(entries={2, 3}, runs=1))
        assert a.entries == {1, 2, 3} and a.runs == 2

    @pytest.mark.parametrize("opt", [0, 3])
    def test_trace_run_is_the_original_run(self, monkeypatch, opt):
        """The tracer's indirect hook and entry recording leave the run
        untouched: it is the plain run of the original."""
        from repro.core import make_library, run_image
        image = compile_minic(ENTRIES_PROG, opt_level=opt)
        machines = self._tracing_machine(monkeypatch)
        trace = ICFTTracer(image).trace(lambda _x: make_library(), seed=4)
        traced = machines[0]
        plain = run_image(image, library=make_library(), seed=4)
        assert plain.ok and trace.total_icfts
        assert (bytes(traced.stdout), traced.exit_code, traced.wall_cycles,
                traced.instructions) == (plain.stdout, plain.exit_code,
                                         plain.wall_cycles,
                                         plain.instructions)
        assert trace.instructions == plain.instructions
