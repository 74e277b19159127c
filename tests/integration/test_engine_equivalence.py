"""Engine equivalence: the fast engine is bit-identical to the seed loop.

The two-tier engine (repro.emulator.engine) must consume the RNG in
exactly the seed sequence and preempt at the same instruction
boundaries, so every seeded interleaving — including the racy ones the
sanitizer depends on — reproduces bit for bit.  These tests pin that
invariant across Phoenix workloads, seeds, faults, and the opt-in
layers (sanitizer, profiling, additive-lifting cache invalidation and
in-place code mutation mid-run).
"""

import pytest

from repro.core import make_library, run_image
from repro.emulator import Machine
from repro.minicc import compile_minic
from repro.sanitizers import RaceDetector
from repro.workloads import get as get_workload

WORKLOADS = ("histogram", "string_match", "linear_regression")
SEEDS = (3, 11, 29)
ENGINES = ("reference", "fast")


def _fingerprint(result):
    """Everything observable about a run, wall-clock floats included."""
    return (result.stdout, result.exit_code, result.wall_cycles,
            result.total_cycles, result.instructions, result.threads,
            result.counters)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_engines_bit_identical(name, seed):
    workload = get_workload(name)
    image = workload.compile(opt_level=3)
    runs = {}
    for engine in ENGINES:
        result = run_image(image, library=workload.library("small"),
                           seed=seed, engine=engine)
        assert result.fault is None
        runs[engine] = result
    reference = runs["reference"]
    for engine in ENGINES[1:]:
        assert _fingerprint(runs[engine]) == _fingerprint(reference), \
            f"{engine} diverged from reference"
    # context switches and the per-class cycle split ride in counters,
    # but assert the headline ones explicitly for a readable failure.
    for engine in ENGINES[1:]:
        assert runs[engine].counters["emu.context_switches"] == \
            reference.counters["emu.context_switches"]
        assert runs[engine].wall_cycles == reference.wall_cycles


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("name", ("histogram", "string_match"))
def test_engines_bit_identical_with_sanitizer(name, seed):
    """Sanitized machines take the hook-preserving path; interleavings
    and race reports must not move."""
    workload = get_workload(name)
    image = workload.compile(opt_level=3)
    runs = {}
    for engine in ENGINES:
        detector = RaceDetector()
        result = run_image(image, library=workload.library("small"),
                           seed=seed, engine=engine, sanitizer=detector)
        assert result.fault is None
        runs[engine] = (_fingerprint(result), len(result.races),
                        detector.races_observed)
    for engine in ENGINES[1:]:
        assert runs[engine] == runs["reference"], \
            f"{engine} diverged from reference under the sanitizer"


@pytest.mark.parametrize("name", ("histogram", "string_match"))
def test_engines_bit_identical_with_profiling(name):
    """Register-profiled machines count reg_reads/reg_writes; those
    counters must match the reference loop too."""
    workload = get_workload(name)
    image = workload.compile(opt_level=3)
    runs = {}
    for engine in ENGINES:
        result = run_image(image, library=workload.library("small"),
                           seed=7, engine=engine, profile_registers=True)
        assert result.fault is None
        runs[engine] = _fingerprint(result)
    for engine in ENGINES[1:]:
        assert runs[engine] == runs["reference"], \
            f"{engine} diverged from reference under register profiling"


@pytest.mark.parametrize("seed, profile", [(3, False), (11, False),
                                           (3, True)])
def test_engines_bit_identical_on_instrumented_build(seed, profile):
    """The fast engine runs the ``__poly_record_access`` leaf intrinsic
    inside its chain; on an access-instrumented build it must still
    match the reference loop bit for bit, access log (and, when
    profiled, register traffic) included."""
    from repro.core import Recompiler
    workload = get_workload("word_count")
    image = Recompiler(workload.compile(opt_level=3),
                       instrument_accesses=True).recompile().image
    runs = {}
    for engine in ENGINES:
        result = run_image(image, library=workload.library("small"),
                           seed=seed, engine=engine,
                           profile_registers=profile)
        assert result.fault is None
        runs[engine] = result
    reference = runs["reference"]
    assert reference.access_log
    for engine in ENGINES[1:]:
        run = runs[engine]
        assert _fingerprint(run) == _fingerprint(reference), \
            f"{engine} diverged from reference on an instrumented build"
        assert run.access_log == reference.access_log


def test_replaced_leaf_intrinsic_keeps_import_path():
    """A library that replaces a leaf intrinsic's handler is called
    through the import stub: the fast engine pre-resolves only the
    stock handlers."""
    from repro.core import Recompiler
    workload = get_workload("word_count")
    image = Recompiler(workload.compile(opt_level=3),
                       instrument_accesses=True).recompile().image
    seen = []
    library = workload.library("small")
    library.register("__poly_record_access",
                     lambda machine, thread, args: seen.append(args[0]))
    machine = Machine(image, library, seed=3, engine="fast")
    assert not machine._leaf_stubs
    machine.run()
    assert seen and not library.poly_access_log
    stock = Machine(image, workload.library("small"), seed=3, engine="fast")
    assert len(stock._leaf_stubs) == 1


def test_engines_same_fault_on_cycle_budget():
    """All engines exhaust an artificially tiny cycle budget at the
    same emulated instant."""
    from repro.emulator import CycleLimitExceeded

    workload = get_workload("histogram")
    image = workload.compile(opt_level=3)
    states = {}
    for engine in ENGINES:
        machine = Machine(image, workload.library("small"), seed=5,
                          engine=engine)
        with pytest.raises(CycleLimitExceeded):
            machine.run(max_cycles=20_000)
        states[engine] = (machine.total_cycles, machine.instructions,
                          machine.wall_cycles,
                          machine.perf_counters().snapshot())
    for engine in ENGINES[1:]:
        assert states[engine] == states["reference"], \
            f"{engine} hit the cycle budget at a different instant"


def test_plan_cache_dropped_with_decode_cache():
    """invalidate_decode_cache() must drop execution plans too —
    additive lifting patches code bytes in place."""
    workload = get_workload("histogram")
    image = workload.compile(opt_level=3)
    machine = Machine(image, workload.library("small"), seed=1)
    machine.run()
    assert machine._plans, "fast run should have populated plans"
    machine.invalidate_decode_cache()
    assert not machine._plans
    assert not machine._decode_cache
    assert not machine._access_plans


MUTATING_TEMPLATE = r'''
int main() {
  int total;
  int round;
  total = 0;
  for (round = 0; round < 2; round += 1) {
    int acc;
    int i;
    acc = 0;
    for (i = 0; i < 400; i += 1) {
      acc += ADDEND;
    }
    total += acc;
    patch(round);
  }
  printf("total=%d\n", total);
  return 0;
}
'''


def _mutating_run(engine):
    """Run the ADDEND=2 program whose ``patch(0)`` call rewrites the
    loop body to ADDEND=5 in place, then invalidates."""
    image = compile_minic(MUTATING_TEMPLATE.replace("ADDEND", "2"),
                          opt_level=2)
    patched = compile_minic(MUTATING_TEMPLATE.replace("ADDEND", "5"),
                            opt_level=2)
    old = image.section(".text")
    new = patched.section(".text")
    assert len(old.data) == len(new.data), \
        "variants must be layout-identical for an in-place patch"
    assert bytes(old.data) != bytes(new.data)

    def patch(machine, thread, args):
        if args[0] == 0:
            machine.image.section(".text").data[:] = new.data
            machine.invalidate_decode_cache()
        return 0

    library = make_library()
    library.register("patch", patch)
    machine = Machine(image, library, seed=0, engine=engine)
    machine.run()
    return machine


def test_mutation_bit_identical_across_engines():
    """Code patched mid-run must be re-decoded after
    invalidate_decode_cache(): round 1 runs the new bytes
    (400*2 + 400*5) on every engine, bit-identically."""
    fingerprints = {}
    for engine in ENGINES:
        machine = _mutating_run(engine)
        fingerprints[engine] = (
            bytes(machine.stdout), machine.exit_code,
            machine.total_cycles, machine.wall_cycles,
            machine.perf_counters().snapshot())
    assert fingerprints["reference"][0] == b"total=2800\n"
    for engine in ENGINES[1:]:
        assert fingerprints[engine] == fingerprints["reference"], \
            f"{engine} diverged from reference after a code mutation"


def test_unsanitized_machine_keeps_class_step():
    """The fast engine is structural: no instance-level _step shadow,
    which is what bench_sanitizer_overhead's 0%-off contract checks."""
    workload = get_workload("histogram")
    machine = Machine(workload.compile(opt_level=3),
                      workload.library("small"), seed=1, engine="fast")
    assert "_step" not in machine.__dict__


def test_unknown_engine_rejected():
    workload = get_workload("histogram")
    with pytest.raises(ValueError):
        Machine(workload.compile(opt_level=3), workload.library("small"),
                engine="turbo")
