"""Unit tests for the observability layer: span nesting, the counter
registry (including reset between runs), Chrome-trace schema
round-trips, per-pass instrumentation, emulator perf counters, and the
RecompileStats-is-a-derived-view invariant."""

import json

import pytest

from repro.core import Recompiler, run_image
from repro.core.recompiler import RecompileStats, STAGES
from repro.emulator import ExternalLibrary, INSTR_CLASS, Machine
from repro.minicc import compile_minic
from repro.observability import Counters, Span, TRACE_FORMAT, Tracer
from repro.passes import standard_pipeline


class FakeClock:
    """Deterministic clock so span durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


MT_SOURCE = r'''
int counter;
int worker(int *argp) {
  int i;
  for (i = 0; i < 25; i += 1) { __sync_fetch_and_add(&counter, 1); }
  __sync_synchronize();
  return 0;
}
int main() {
  int tids[2];
  int t;
  for (t = 0; t < 2; t += 1) { pthread_create(&tids[t], 0, worker, (int*)t); }
  for (t = 0; t < 2; t += 1) { pthread_join(tids[t], 0); }
  printf("%d\n", counter);
  return 0;
}
'''


class TestTracerSpans:
    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.depth == 0 and outer.parent is None
        assert middle.depth == 1 and middle.parent is outer
        assert inner.depth == 2 and inner.parent is middle
        assert sibling.depth == 1 and sibling.parent is outer
        assert all(sp.closed for sp in tracer.spans)
        assert tracer.current is None

    def test_out_of_order_close_rejected(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(RuntimeError, match="close order"):
            tracer.end(outer)

    def test_end_without_begin_rejected(self):
        with pytest.raises(RuntimeError):
            Tracer().end()

    def test_durations_and_queries(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass                       # start=1, end=2
        with tracer.span("a"):
            pass                       # start=3, end=4
        assert [sp.duration for sp in tracer.find("a")] == [1.0, 1.0]
        assert tracer.total("a") == 2.0

    def test_span_args_mutable_while_open(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as sp:
            sp.args["extra"] = 7
        assert tracer.find("work")[0].args == {"size": 3, "extra": 7}

    def test_stage_seconds_only_counts_top_level(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("recompile.opt"):          # dur 3 (2 ticks inner)
            with tracer.span("pass.dce"):
                pass
        with tracer.span("other.thing"):
            pass
        stages = tracer.stage_seconds()
        assert list(stages) == ["opt"]
        assert stages["opt"] == 3.0


class TestChromeTraceSchema:
    def _sample(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("recompile.lift", functions=2):
            with tracer.span("pass.dce", iteration=0):
                pass
        return tracer

    def test_export_shape(self):
        data = self._sample().to_chrome_trace()
        Tracer.validate_chrome_trace(data)
        assert data["otherData"]["format"] == TRACE_FORMAT
        names = [ev["name"] for ev in data["traceEvents"]]
        assert names == ["recompile.lift", "pass.dce"]
        assert data["traceEvents"][0]["cat"] == "recompile"
        assert data["traceEvents"][1]["args"]["depth"] == 1

    def test_json_round_trip(self, tmp_path):
        tracer = self._sample()
        path = str(tmp_path / "trace.json")
        tracer.save(path)
        with open(path) as handle:
            reloaded = Tracer.from_chrome_trace(json.load(handle))
        assert [sp.name for sp in reloaded.spans] == \
            [sp.name for sp in tracer.spans]
        for old, new in zip(tracer.spans, reloaded.spans):
            assert new.depth == old.depth
            assert new.duration == pytest.approx(old.duration)
        assert reloaded.spans[1].parent is reloaded.spans[0]
        assert reloaded.spans[0].args == {"functions": 2}

    def test_validation_rejects_garbage(self):
        with pytest.raises(ValueError):
            Tracer.validate_chrome_trace([])
        with pytest.raises(ValueError):
            Tracer.validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            Tracer.validate_chrome_trace(
                {"traceEvents": [], "otherData": {"format": "bogus"}})
        with pytest.raises(ValueError):
            Tracer.validate_chrome_trace({
                "traceEvents": [{"name": "x", "ph": "B", "ts": 0, "dur": 1,
                                 "pid": 1, "tid": 1,
                                 "args": {"depth": 0}}],
                "otherData": {"format": TRACE_FORMAT}})

    def test_open_spans_not_exported(self):
        tracer = Tracer()
        tracer.begin("never.closed")
        assert tracer.to_chrome_trace()["traceEvents"] == []


class TestCounters:
    def test_inc_get_snapshot(self):
        counters = Counters()
        counters.inc("a.b")
        counters.inc("a.b", 4)
        counters.inc("a.c", 2.5)
        counters.put("z", 9)
        assert counters.get("a.b") == 5
        assert counters.snapshot() == {"a.b": 5, "a.c": 2.5, "z": 9}
        assert counters.with_prefix("a.") == {"b": 5, "c": 2.5}

    def test_reset_clears_everything(self):
        counters = Counters()
        counters.inc("emu.instructions", 100)
        counters.reset()
        assert len(counters) == 0
        assert counters.get("emu.instructions") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.inc("x", 1)
        b.inc("x", 2)
        b.inc("y", 3)
        a.merge(b)
        assert a.snapshot() == {"x": 3, "y": 3}

    def test_format_table_mentions_every_counter(self):
        counters = Counters()
        counters.inc("emu.fences", 2)
        counters.put("emu.wall_cycles", 12.5)
        table = counters.format_table()
        assert "emu.fences" in table and "emu.wall_cycles" in table
        assert Counters().format_table() == "(no counters)"


class TestCountersThreadSafety:
    """One registry may be shared across threads — for example the
    counters of an ``ArtifactCache`` read from several threads; without
    the internal lock, racing read-modify-write ``inc`` calls lose
    updates."""

    THREADS = 8
    ROUNDS = 4000

    def test_concurrent_increments_are_exact(self):
        import threading
        counters = Counters()
        barrier = threading.Barrier(self.THREADS)

        def hammer(tid):
            barrier.wait()
            for _ in range(self.ROUNDS):
                counters.inc("race.shared")
                counters.inc("race.weighted", 2)
                counters.inc(f"race.private.{tid}")

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counters.get("race.shared") == self.THREADS * self.ROUNDS
        assert counters.get("race.weighted") == 2 * self.THREADS * self.ROUNDS
        for tid in range(self.THREADS):
            assert counters.get(f"race.private.{tid}") == self.ROUNDS

    def test_snapshots_during_mutation_are_consistent(self):
        """Readers taking snapshots while writers increment must never
        crash (dict-changed-size) and always observe a coherent dict."""
        import threading
        counters = Counters()
        stop = threading.Event()
        failures = []

        def writer():
            i = 0
            while not stop.is_set():
                counters.inc("w.count")
                counters.put("w.gauge", i)
                i += 1

        def reader():
            while not stop.is_set():
                try:
                    snap = counters.snapshot()
                    counters.with_prefix("w.")
                    len(counters)
                    "w.count" in counters
                    assert all(isinstance(k, str) for k in snap)
                except Exception as exc:    # noqa: BLE001 - test probe
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=writer) for _ in range(3)] + \
                  [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        import time
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert not failures, failures

    def test_merge_while_source_mutates(self):
        """merge() snapshots its source, so merging from a registry
        being written to concurrently neither crashes nor deadlocks."""
        import threading
        src, dst = Counters(), Counters()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                src.inc("m.x")

        t = threading.Thread(target=writer)
        t.start()
        for _ in range(50):
            dst.merge(src)
        stop.set()
        t.join()
        assert dst.get("m.x") > 0


class TestEmulatorCounters:
    @pytest.fixture(scope="class")
    def mt_image(self):
        return compile_minic(MT_SOURCE, opt_level=2)

    def test_machine_counts_atomics_fences_switches(self, mt_image):
        machine = Machine(mt_image, ExternalLibrary(), seed=3)
        machine.run()
        counters = machine.perf_counters()
        assert counters.get("emu.atomic_rmws") == 50        # 2 x 25
        assert counters.get("emu.fences") == 2
        assert counters.get("emu.context_switches") > 0
        assert counters.get("emu.threads") == 3
        assert counters.get("emu.instructions") == machine.instructions

    def test_cycle_classes_partition_total(self, mt_image):
        machine = Machine(mt_image, ExternalLibrary(), seed=3)
        machine.run()
        counters = machine.perf_counters()
        by_class = counters.with_prefix("emu.cycles.")
        assert sum(by_class.values()) == machine.total_cycles
        assert by_class["atomic"] > 0

    def test_per_thread_instructions_sum(self, mt_image):
        machine = Machine(mt_image, ExternalLibrary(), seed=3)
        machine.run()
        per_thread = sum(t.instructions for t in machine.threads)
        assert per_thread == machine.instructions

    def test_registry_fresh_between_runs(self, mt_image):
        first = Machine(mt_image, ExternalLibrary(), seed=3)
        first.run()
        second = Machine(mt_image, ExternalLibrary(), seed=3)
        second.run()
        # Same program, same seed: identical counters, but from
        # independent registries — nothing accumulated across runs.
        a, b = first.perf_counters(), second.perf_counters()
        assert a is not b
        assert a.snapshot() == b.snapshot()
        a.reset()
        assert len(a) == 0 and len(b) > 0

    def test_profiled_cpu_counts_register_traffic(self, mt_image):
        machine = Machine(mt_image, ExternalLibrary(), seed=3,
                          profile_registers=True)
        machine.run()
        counters = machine.perf_counters()
        assert counters.get("emu.thread.0.reg_reads") > 0
        assert counters.get("emu.thread.0.reg_writes") > 0
        # Profiling must not change behaviour or costs.
        plain = Machine(mt_image, ExternalLibrary(), seed=3)
        plain.run()
        assert plain.stdout == machine.stdout
        assert plain.total_cycles == machine.total_cycles

    def test_run_image_publishes_counters(self, mt_image):
        run = run_image(mt_image, seed=3)
        assert run.counters["emu.atomic_rmws"] == 50
        assert run.counters["emu.wall_cycles"] == run.wall_cycles
        assert run.counters["emu.instructions"] == run.instructions

    def test_instr_class_covers_every_mnemonic(self):
        from repro.emulator.costs import BASE_COSTS, INSTR_CLASS_NAMES
        assert set(INSTR_CLASS) == set(BASE_COSTS)
        assert set(INSTR_CLASS.values()) <= set(INSTR_CLASS_NAMES)


class TestPassInstrumentation:
    def _module(self):
        image = compile_minic(
            "int g; int main() { g = 2; int x = g + 3; "
            "printf(\"%d\", x); return 0; }", opt_level=0)
        from repro.core import Lifter
        recompiler = Recompiler(image)
        return Lifter(image, recompiler.recover_cfg()).lift()

    def test_records_and_spans_per_pass(self):
        tracer = Tracer()
        counters = Counters()
        manager = standard_pipeline(tracer=tracer, counters=counters)
        manager.run(self._module())
        assert manager.records
        names = {record.pass_name for record in manager.records}
        assert "dce" in {n.lower() for n in names} or len(names) > 3
        spans = [sp for sp in tracer.spans if sp.name.startswith("pass.")]
        assert len(spans) == len(manager.records)
        for sp in spans:
            assert sp.closed
            assert {"blocks_before", "blocks_after", "instrs_before",
                    "instrs_after", "changed"} <= set(sp.args)
        run_count = sum(v for k, v in counters.items()
                        if k.endswith(".runs"))
        assert run_count == len(manager.records)

    def test_ir_delta_matches_module_size(self):
        from repro.passes import module_size
        module = self._module()
        manager = standard_pipeline()
        before = module_size(module)
        manager.run(module)
        after = module_size(module)
        assert (manager.records[0].blocks_before,
                manager.records[0].instrs_before) == before
        assert (manager.records[-1].blocks_after,
                manager.records[-1].instrs_after) == after


class TestRecompileStatsDerivedView:
    SOURCE = ("int g; int main() { int i; for (i = 0; i < 6; i += 1) "
              "{ g += i; } printf(\"%d\\n\", g); return 0; }")

    def test_total_seconds_is_sum_of_all_stages(self):
        # Regression: the docstring used to claim "lift + optimise +
        # lower" while the sum also included disasm + trace; the total
        # must equal the sum over *every* stage field.
        stats = RecompileStats(disasm_seconds=1, trace_seconds=2,
                               lift_seconds=4, fence_seconds=8,
                               opt_seconds=16, lower_seconds=32)
        assert stats.total_seconds == 63
        assert sum(stats.stage_seconds().values()) == stats.total_seconds
        assert list(stats.stage_seconds()) == list(STAGES)

    def test_stats_derive_from_spans(self):
        image = compile_minic(self.SOURCE, opt_level=2)
        result = Recompiler(image).recompile()
        stages = result.tracer.stage_seconds()
        for stage, seconds in stages.items():
            assert result.stats.stage_seconds()[stage] == \
                pytest.approx(seconds)
        assert sum(stages.values()) == \
            pytest.approx(result.stats.total_seconds, rel=0.05)

    def test_trace_out_matches_acceptance_criterion(self, tmp_path):
        # `polynima recompile --trace-out` end to end: valid Chrome
        # trace whose stage spans sum to within 5% of total_seconds.
        from repro.cli import main
        image = compile_minic(self.SOURCE, opt_level=2)
        binary = str(tmp_path / "prog.vxe")
        out = str(tmp_path / "out.vxe")
        trace_path = str(tmp_path / "trace.json")
        image.save(binary)
        assert main(["recompile", binary, "-o", out,
                     "--trace-out", trace_path]) == 0
        tracer = Tracer.load(trace_path)
        total = sum(tracer.stage_seconds().values())
        assert total > 0

    def test_stats_cli_prints_counters(self, tmp_path, capsys):
        from repro.cli import main
        image = compile_minic(self.SOURCE, opt_level=2)
        binary = str(tmp_path / "prog.vxe")
        image.save(binary)
        assert main(["stats", binary]) == 0
        out = capsys.readouterr().out
        for needle in ("emu.instructions", "emu.atomic_rmws",
                       "emu.fences", "emu.context_switches"):
            assert needle in out
