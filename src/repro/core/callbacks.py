"""Dynamic callback analysis (§3.3.3).

Conservatively, every lifted function must be treated as a possible
external entry point (its address could reach ``qsort``,
``pthread_create`` or an OpenMP outlined-body table), so each one keeps
a wrapper + trampoline and is pinned externally visible — blocking
inlining and interprocedural optimisation.

This analysis runs the *original* binary on a set of inputs, records
the functions the library actually entered (the emulator notes every
thread start routine and guest callback, plus the program entry), and
merges the observations.  That run is the ICFT trace run (§3.2), so
:func:`~repro.core.batch.hybrid_recompile` takes the callback set from
the trace it already made (:attr:`TraceResult.entries`).  A production
rebuild then keeps wrappers only for observed entry points, unlocking
the optimiser for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Set

from ..binfmt import Image
from .icft_tracer import ICFTTracer


@dataclass
class CallbackReport:
    """Entries observed being invoked as callbacks across analysis runs."""
    observed: Set[int] = field(default_factory=set)
    runs: int = 0


def discover_callbacks(image: Image, library_factory: Callable[[], object],
                       runs: int = 1, seed: int = 0,
                       max_cycles: int = 200_000_000) -> CallbackReport:
    """Record which functions act as external entry points.

    ``library_factory()`` returns a fresh external library per run;
    results across runs are merged (§3.3.3: "We merge information
    collected across different runs").
    """
    trace = ICFTTracer(image).trace(lambda _item: library_factory(),
                                    inputs=[None] * runs, seed=seed,
                                    max_cycles=max_cycles)
    return CallbackReport(observed=trace.entries, runs=trace.runs)
