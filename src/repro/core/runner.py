"""Convenience execution harness used by validation, benchmarks, tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..binfmt import Image
from ..emulator import EmulationFault, ExternalLibrary, Machine
from .instrument import site_from_numeric


@dataclass
class RunResult:
    """Observable outcome of one run: stdout, exit, cycles, faults."""
    stdout: bytes
    exit_code: int
    total_cycles: int
    wall_cycles: float
    instructions: int
    fault: Optional[EmulationFault]
    threads: int
    #: Polynima-runtime dynamic analysis records (if any).
    access_log: Dict[str, dict] = field(default_factory=dict)
    net_sent: List[bytes] = field(default_factory=list)
    #: Emulator perf-counter snapshot (``Machine.perf_counters()``),
    #: keyed by the dotted names in docs/OBSERVABILITY.md.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Race reports from the attached sanitizer, if one was given
    #: (:class:`repro.sanitizers.RaceReport` instances).
    races: List = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the run exited cleanly (no fault)."""
        return self.fault is None

    def matches(self, other: "RunResult") -> bool:
        """Correctness check: same observable behaviour."""
        return (self.ok and other.ok
                and self.stdout == other.stdout
                and self.exit_code == other.exit_code)


def make_library(input_blob: bytes = b"", params: Sequence[int] = (),
                 fs: Optional[Dict[str, bytes]] = None,
                 net_script=None, omp_threads: int = 4) -> ExternalLibrary:
    """Build an ExternalLibrary preloaded with input/params/clients."""
    return ExternalLibrary(input_blob=input_blob, params=tuple(params),
                           fs=fs, net_script=net_script,
                           omp_threads=omp_threads)


def run_image(image: Image, input_blob: bytes = b"",
              params: Sequence[int] = (), fs=None, net_script=None,
              omp_threads: int = 4, seed: int = 0, cores: int = 4,
              max_cycles: int = 200_000_000,
              library: Optional[ExternalLibrary] = None,
              catch_faults: bool = True,
              profile_registers: bool = False,
              sanitizer=None, engine: str = "fast") -> RunResult:
    """Run a VXE image under the stock environment and collect results.

    ``engine`` selects the interpreter loop ("reference" or "fast");
    both are bit-identical per seed, see docs/PERFORMANCE.md.
    """
    if library is None:
        library = make_library(input_blob, params, fs, net_script,
                               omp_threads)
    machine = Machine(image, library, seed=seed, cores=cores,
                      profile_registers=profile_registers,
                      sanitizer=sanitizer, engine=engine)
    fault: Optional[EmulationFault] = None
    exit_code = -1
    try:
        exit_code = machine.run(max_cycles=max_cycles)
    except EmulationFault as exc:
        if not catch_faults:
            raise
        fault = exc
    return RunResult(
        stdout=bytes(machine.stdout),
        exit_code=exit_code,
        total_cycles=machine.total_cycles,
        wall_cycles=machine.wall_cycles,
        instructions=machine.instructions,
        fault=fault,
        threads=len(machine.threads),
        access_log={site_from_numeric(site): record for site, record
                    in library.poly_access_log.items()},
        net_sent=[bytes(b) for b in library.net_sent],
        counters=machine.perf_counters().snapshot(),
        races=list(sanitizer.reports) if sanitizer is not None else [],
    )


@dataclass
class DifferentialRaceReport:
    """Outcome of :func:`differential_race_check`: the same workload run
    under the strict-mode race detector after a normal recompilation
    (``fenced``) and one with fence insertion disabled (``stripped``)."""
    fenced: RunResult
    stripped: RunResult

    @property
    def oracle_holds(self) -> bool:
        """True when fence insertion is doing its job: both builds ran
        cleanly, the fenced build reported no races, and the stripped
        build reported at least one."""
        return (self.fenced.ok and self.stripped.ok
                and not self.fenced.races
                and bool(self.stripped.races))

    def summary(self) -> str:
        return (f"fenced: {len(self.fenced.races)} races, "
                f"stripped: {len(self.stripped.races)} races, "
                f"oracle {'holds' if self.oracle_holds else 'VIOLATED'}")


def differential_race_check(image: Image, library_factory,
                            seed: int = 0, cores: int = 4,
                            max_cycles: int = 200_000_000,
                            max_reports: int = 100,
                            trace=None) -> DifferentialRaceReport:
    """Regression oracle for ``core/fences.py`` / ``core/fence_opt.py``.

    Recompiles ``image`` twice — normally, and with fence insertion
    disabled — and runs both under a *strict-mode*
    :class:`~repro.sanitizers.RaceDetector` (instruction-level
    happens-before only: atomics, mfence, and the build's own
    ``sanitizer_ordered_pcs`` metadata; deliberately blind to pthread
    calls).  A correct fence pass makes every original shared access
    ordered, so the normal build must report zero races while the
    stripped build of the same multithreaded program must report some.

    ``library_factory`` is a zero-argument callable returning a fresh
    :class:`ExternalLibrary` per run (libraries hold per-run state).
    """
    from ..sanitizers import RaceDetector
    from .recompiler import Recompiler

    def _build(insert_fences: bool) -> Image:
        return Recompiler(image, insert_fences=insert_fences) \
            .recompile(trace=trace).image

    def _run(recompiled: Image) -> RunResult:
        detector = RaceDetector(mode="strict", max_reports=max_reports)
        return run_image(recompiled, library=library_factory(),
                         seed=seed, cores=cores, max_cycles=max_cycles,
                         sanitizer=detector)

    return DifferentialRaceReport(fenced=_run(_build(True)),
                                  stripped=_run(_build(False)))
