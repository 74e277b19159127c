"""Unit tests for the dynamic analyses: spinloop detection (§3.4),
callback discovery (§3.3.3), fence optimisation, additive lifting."""

import pytest

from repro.core import (AdditiveLifting, ICFTTracer, Recompiler,
                        SpinloopDetector, discover_callbacks, make_library,
                        optimize_fences, run_image)
from repro.core.spinloop import NON_SPINNING, SPINNING, UNCOVERED, \
    clone_module
from repro.minicc import compile_minic


def detect(source, opt=0, params=(), seed=1):
    image = compile_minic(source, opt_level=opt)
    inst = Recompiler(image, instrument_accesses=True).recompile()
    run = run_image(inst.image, library=make_library(params=params),
                    seed=seed)
    assert run.ok, run.fault
    detector = SpinloopDetector(inst.module, run.access_log)
    return detector.analyze()


class TestSpinloopDetector:
    def test_counting_loop_non_spinning(self):
        report = detect(r'''
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i += 1) { s += i; }
  printf("%d", s);
  return 0;
}
''')
        assert report.count(NON_SPINNING) >= 1
        assert report.count(SPINNING) == 0
        assert report.fences_removable

    def test_memory_resident_index_non_spinning(self):
        # Case (d) of Listing 3: the loop-control variable lives in
        # memory (O0 code), updated with a non-constant local store.
        report = detect(r'''
int main() {
  int i = 0;
  int s = 0;
  while (i < 8) { s += 2; i = i + 1; }
  printf("%d", s);
  return 0;
}
''', opt=0)
        assert report.fences_removable

    def test_tas_spinloop_detected(self):
        # Case (a): exit depends directly on a shared location.  Real
        # contention is needed so the spin path is *covered* (a single
        # uncontended acquire never re-executes the loop and would be
        # conservatively reported as uncovered instead).
        report = detect(r'''
int lock;
int counter;
int worker(int *arg) {
  int i;
  for (i = 0; i < 40; i += 1) {
    while (__sync_lock_test_and_set(&lock, 1) != 0) { }
    counter += 1;
    __sync_lock_release(&lock);
  }
  return 0;
}
int main() {
  int tids[4];
  int t;
  for (t = 0; t < 4; t += 1) pthread_create(&tids[t], 0, worker, 0);
  for (t = 0; t < 4; t += 1) pthread_join(tids[t], 0);
  printf("%d", counter);
  return 0;
}
''', seed=3)
        assert report.count(SPINNING) >= 1
        assert not report.fences_removable

    def test_plain_load_spinloop_detected(self):
        # A flag-wait loop with no atomics at all: exit condition loads
        # a shared global.
        report = detect(r'''
int flag;
int sink;
int waiter(int *arg) {
  while (__atomic_load_n(&flag) == 0) { }
  return 0;
}
int main() {
  int tid;
  pthread_create(&tid, 0, waiter, 0);
  int i;
  for (i = 0; i < 200; i += 1) { sink += i; }   // let the waiter spin
  flag = 1;
  pthread_join(tid, 0);
  printf("done");
  return 0;
}
''', seed=5)
        assert report.count(SPINNING) >= 1

    def test_uncovered_loop_reported(self):
        # The never-executed loop has memory accesses with no dynamic
        # records: conservative UNCOVERED verdict.
        report = detect(r'''
int data[8];
int main() {
  int enable = getparam(0);
  if (enable) {
    int i;
    for (i = 0; i < 8; i += 1) { data[i] = data[i] + 1; }
  }
  printf("%d", data[0]);
  return 0;
}
''', params=(0,))
        assert report.count(UNCOVERED) >= 1
        assert not report.fences_removable

    def test_manual_override_clears_uncovered(self):
        image = compile_minic(r'''
int data[8];
int main() {
  int enable = getparam(0);
  if (enable) {
    int i;
    for (i = 0; i < 8; i += 1) { data[i] = data[i] + 1; }
  }
  printf("%d", data[0]);
  return 0;
}
''', opt_level=0)
        inst = Recompiler(image, instrument_accesses=True).recompile()
        run = run_image(inst.image, library=make_library(params=(0,)))
        report = SpinloopDetector(inst.module, run.access_log).analyze()
        assert report.count(UNCOVERED) >= 1
        uncovered = [v for v in report.verdicts if v.verdict == UNCOVERED]
        report.apply_manual_overrides(set(uncovered[0].origin_addrs))
        assert report.count(UNCOVERED) == 0
        assert report.overridden

    def test_shared_work_queue_false_negative(self):
        # The pca pattern: exit depends on a mutex-protected shared
        # counter; without happens-before reasoning the detector must
        # conservatively call it spinning.
        report = detect(r'''
int next_item;
int m;
int worker(int *arg) {
  while (1) {
    pthread_mutex_lock(&m);
    int item = next_item;
    next_item += 1;
    pthread_mutex_unlock(&m);
    if (item >= 5) { break; }
  }
  return 0;
}
int main() {
  pthread_mutex_init(&m, 0);
  int tid;
  pthread_create(&tid, 0, worker, 0);
  pthread_join(tid, 0);
  printf("%d", next_item);
  return 0;
}
''', seed=2)
        assert report.count(SPINNING) >= 1

    def test_clone_module_isolated(self, sumloop_recompiled):
        clone = clone_module(sumloop_recompiled.module)
        original_counts = [len(fn.blocks)
                           for fn in sumloop_recompiled.module.functions]
        clone.functions[0].blocks.clear()
        assert [len(fn.blocks)
                for fn in sumloop_recompiled.module.functions] == \
            original_counts


class TestFenceOptimisation:
    PTHREAD_ONLY = r'''
int total;
int m;
int worker(int *arg) {
  int i;
  int local = 0;
  for (i = 0; i < 20; i += 1) { local += i; }
  pthread_mutex_lock(&m);
  total += local;
  pthread_mutex_unlock(&m);
  return 0;
}
int main() {
  pthread_mutex_init(&m, 0);
  int tids[2]; int t;
  for (t = 0; t < 2; t += 1) pthread_create(&tids[t], 0, worker, (int*)t);
  for (t = 0; t < 2; t += 1) pthread_join(tids[t], 0);
  printf("%d", total);
  return 0;
}
'''

    SPINLOCK = PTHREAD_ONLY.replace(
        "pthread_mutex_lock(&m);",
        "while (__sync_lock_test_and_set(&m, 1)) { }").replace(
        "pthread_mutex_unlock(&m);", "__sync_lock_release(&m);").replace(
        "pthread_mutex_init(&m, 0);", "")

    @pytest.mark.parametrize("source, opt, applied",
                             [("PTHREAD_ONLY", 0, True),
                              ("SPINLOCK", 3, False)])
    def test_observed_callbacks_prune_only_the_final_build(self, source,
                                                           opt, applied):
        """The callback set (the trace run's entries) prunes the final
        build; the instrumented build, and so every verdict down to the
        loop header labels, is the same with and without it."""
        image = compile_minic(getattr(self, source), opt_level=opt)
        cfg = Recompiler(image).recover_cfg()
        observed = discover_callbacks(image, make_library, seed=2).observed
        pruned = optimize_fences(image, make_library, seed=2, cfg=cfg,
                                 observed_callbacks=observed)
        unpruned = optimize_fences(image, make_library, seed=2, cfg=cfg)

        def verdicts(report):
            return sorted((v.function, v.header, v.verdict, v.origin_addrs)
                          for v in report.spinloops.verdicts)

        assert pruned.applied == unpruned.applied == applied
        assert verdicts(pruned) == verdicts(unpruned)
        assert verdicts(pruned)
        assert pruned.access_sites_observed == \
            unpruned.access_sites_observed
        final = Recompiler(image, insert_fences=not applied,
                           observed_callbacks=observed).recompile(cfg=cfg)
        assert pruned.result.image.to_bytes() == final.image.to_bytes()
        original = run_image(image, seed=2)
        assert run_image(pruned.result.image, seed=2).matches(original)

    def test_applied_for_pthread_only_program(self):
        image = compile_minic(self.PTHREAD_ONLY, opt_level=0)
        report = optimize_fences(image, make_library, seed=2)
        assert report.applied
        assert report.result.stats.fences_final == 0
        original = run_image(image, seed=2)
        optimised = run_image(report.result.image, seed=2)
        assert optimised.matches(original)

    def test_not_applied_with_spinlock(self):
        source = self.PTHREAD_ONLY.replace(
            "pthread_mutex_lock(&m);",
            "while (__sync_lock_test_and_set(&m, 1)) { }").replace(
            "pthread_mutex_unlock(&m);", "__sync_lock_release(&m);").replace(
            "pthread_mutex_init(&m, 0);", "")
        image = compile_minic(source, opt_level=0)
        report = optimize_fences(image, make_library, seed=2)
        assert not report.applied
        assert report.result.stats.fences_final > 0
        original = run_image(image, seed=2)
        kept = run_image(report.result.image, seed=2)
        assert kept.matches(original)

    def test_fence_removal_improves_cycles(self):
        image = compile_minic(self.PTHREAD_ONLY, opt_level=0)
        plain = Recompiler(image, insert_fences=True).recompile()
        report = optimize_fences(image, make_library, seed=2)
        with_fences = run_image(plain.image, seed=2)
        without = run_image(report.result.image, seed=2)
        assert without.total_cycles <= with_fences.total_cycles


class TestCallbackDiscovery:
    def test_observes_thread_entries(self, counter_mt_o3):
        report = discover_callbacks(counter_mt_o3, make_library, runs=1,
                                    seed=2)
        # main + worker observed.
        assert len(report.observed) >= 2
        assert counter_mt_o3.entry in report.observed

    def test_observed_is_the_trace_entries(self, counter_mt_o3):
        """The analysis is a trace run of the original, merged over
        runs: its set is what the ICFT trace records."""
        report = discover_callbacks(counter_mt_o3, make_library, runs=2,
                                    seed=2)
        trace = ICFTTracer(counter_mt_o3).trace(
            lambda _x: make_library(), inputs=[None, None], seed=2)
        assert report.runs == trace.runs == 2
        assert report.observed == trace.entries

    def test_rebuild_with_observations_correct(self, counter_mt_o3):
        original = run_image(counter_mt_o3, seed=2)
        report = discover_callbacks(counter_mt_o3, make_library, seed=2)
        result = Recompiler(counter_mt_o3,
                            observed_callbacks=report.observed).recompile()
        rebuilt = run_image(result.image, seed=2)
        assert rebuilt.matches(original)

    def test_missing_observation_faults(self, counter_mt_o3):
        result = Recompiler(counter_mt_o3,
                            observed_callbacks={counter_mt_o3.entry}) \
            .recompile()
        run = run_image(result.image, seed=2)
        assert run.fault is not None


class TestAdditiveLifting:
    INDIRECT = r'''
int f1(int x) { return x + 1; }
int f2(int x) { return x * 2; }
int f3(int x) { return x - 3; }
int main() {
  int table[3];
  table[0] = (int)f1;
  table[1] = (int)f2;
  table[2] = (int)f3;
  int s = 0;
  int i;
  for (i = 0; i < 3; i += 1) {
    int f = table[i];
    s += f(10);
  }
  printf("%d", s);
  return 0;
}
'''

    def test_converges_and_matches(self):
        image = compile_minic(self.INDIRECT, opt_level=0)
        original = run_image(image, seed=1)
        lifting = AdditiveLifting(Recompiler(image))
        report = lifting.run(lambda: make_library(), seed=1)
        assert report.iterations[-1].run_result is not None
        final = report.iterations[-1].run_result
        assert final.stdout == original.stdout
        # Each miss triggered one recompilation loop.
        assert report.recompile_loops >= 1

    def test_cfg_accumulates_targets(self):
        image = compile_minic(self.INDIRECT, opt_level=0)
        lifting = AdditiveLifting(Recompiler(image))
        report = lifting.run(lambda: make_library(), seed=1)
        assert report.result.cfg.total_icfts() >= 3

    def test_no_loops_for_static_program(self, sumloop_o0):
        lifting = AdditiveLifting(Recompiler(sumloop_o0))
        report = lifting.run(lambda: make_library(), seed=1)
        assert report.recompile_loops == 0
