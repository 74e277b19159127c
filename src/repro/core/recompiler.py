"""The end-to-end recompilation driver (Figure 2).

``Recompiler`` wires the stages together: static CFG recovery →
optional ICFT-trace augmentation → lifting → fence insertion →
optional instrumentation → optimisation → lowering → output image.
Every stage runs inside a ``recompile.<stage>`` span on the driver's
:class:`~repro.observability.Tracer`, so the lifting-time experiments
(Table 4, Figure 4) can be regenerated and individual recompilations
profiled in ``chrome://tracing`` (see ``docs/OBSERVABILITY.md``).
:class:`RecompileStats` is a *derived view* of those spans, kept for
ergonomic access to the stage timings and size counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..binfmt import Image
from ..ir import Module
from ..observability import Counters, Tracer
from ..passes import Inliner, standard_pipeline
from .cfg import RecoveredCFG
from .disassembler import Disassembler
from .fences import FenceInsertion, FenceMerge, count_fences
from .icft_tracer import TraceResult
from .instrument import AccessInstrumentation, tag_sites
from .lifter import Lifter
from .runtime import RecompiledBinaryBuilder

#: Pipeline stage names, in execution order.  Span names are
#: ``recompile.<stage>``; ``RecompileStats`` has one ``<stage>_seconds``
#: field per entry (``fences`` maps to ``fence_seconds``).  The ``pgo``
#: stage (profile-guide construction) only runs on profile-guided
#: recompilations; unguided runs emit no such span and its field stays
#: zero.
STAGES = ("disasm", "trace", "pgo", "lift", "fences", "opt", "lower")

#: Span-name suffix -> RecompileStats field.
_STAGE_FIELDS = {
    "disasm": "disasm_seconds",
    "trace": "trace_seconds",
    "pgo": "pgo_seconds",
    "lift": "lift_seconds",
    "fences": "fence_seconds",
    "opt": "opt_seconds",
    "lower": "lower_seconds",
}


@dataclass
class RecompileStats:
    """Timing and size counters for one recompilation.

    The ``*_seconds`` fields are derived from the driver tracer's
    top-level ``recompile.<stage>`` spans (:meth:`apply_span`), so the
    flat stats and any exported Chrome trace always agree.
    """
    disasm_seconds: float = 0.0
    trace_seconds: float = 0.0
    pgo_seconds: float = 0.0
    lift_seconds: float = 0.0
    fence_seconds: float = 0.0
    opt_seconds: float = 0.0
    lower_seconds: float = 0.0
    functions: int = 0
    blocks: int = 0
    icfts: int = 0
    fences_inserted: int = 0
    fences_final: int = 0

    @property
    def total_seconds(self) -> float:
        """End-to-end pipeline wall time: every stage field summed
        (disassembly + trace merge + profile guide + lift + fence
        insertion + optimise + lower), in seconds."""
        return (self.disasm_seconds + self.trace_seconds +
                self.pgo_seconds + self.lift_seconds +
                self.fence_seconds + self.opt_seconds +
                self.lower_seconds)

    def stage_seconds(self) -> Dict[str, float]:
        """Stage name -> seconds, in pipeline order (the same shape as
        ``Tracer.stage_seconds('recompile.')``)."""
        return {stage: getattr(self, _STAGE_FIELDS[stage])
                for stage in STAGES}

    def apply_span(self, span) -> None:
        """Accumulate one closed ``recompile.<stage>`` span into the
        matching ``*_seconds`` field."""
        prefix = "recompile."
        if not span.name.startswith(prefix):
            return
        attr = _STAGE_FIELDS.get(span.name[len(prefix):])
        if attr is not None:
            setattr(self, attr, getattr(self, attr) + span.duration)


@dataclass
class RecompileResult:
    """Everything a recompilation produced: image, module, CFG, stats,
    and the tracer that observed the pipeline."""
    image: Image
    module: Module
    cfg: RecoveredCFG
    stats: RecompileStats
    tracer: Optional[Tracer] = None


class Recompiler:
    """Configurable recompilation pipeline.

    Parameters mirror the system's knobs:

    * ``atomic_mode``: ``"builtin"`` (Listing 2) or ``"naive"``
      (Listing 1 ablation);
    * ``insert_fences``: Lasagne fence insertion (§3.3.4) — disabled
      only when the spinloop analysis proved it safe (§3.4) or for
      single-threaded ablations;
    * ``observed_callbacks``: set of function entry addresses observed
      as external entry points by the callback analysis; when given,
      unobserved functions are unmarked external, made inlinable, and
      lose their wrappers/trampolines (§3.3.3);
    * ``instrument_accesses``: build the memory-access-recording
      variant used by the fence optimisation's dynamic analysis;
    * ``lazy_flags`` / ``fence_stack_exemption``: ablation toggles for
      the compare-fusion and emulated-stack fence exemptions;
    * ``profile``: an execution :class:`repro.profile.Profile` of the
      input binary; when given, a ``recompile.pgo`` stage builds a
      :class:`~repro.profile.ProfileGuide` that steers indirect-call
      promotion (lifter), hot inlining + loop unrolling (optimiser) and
      block layout / branch senses (lowering).  When ``None`` the
      pipeline is byte-for-byte the unguided one;
    * ``tracer`` / ``counters``: the observability sinks.  A private
      :class:`Tracer` is created when none is given, so stats are
      always span-derived; pass your own to export the trace
      (``polynima recompile --trace-out``).
    """

    def __init__(self, image: Image, atomic_mode: str = "builtin",
                 insert_fences: bool = True,
                 optimize: bool = True,
                 observed_callbacks: Optional[Set[int]] = None,
                 instrument_accesses: bool = False,
                 miss_mode: str = "runtime",
                 enter_import: str = "__poly_enter",
                 lazy_flags: bool = True,
                 fence_stack_exemption: bool = True,
                 profile=None,
                 tracer: Optional[Tracer] = None,
                 counters: Optional[Counters] = None) -> None:
        self.image = image
        self.atomic_mode = atomic_mode
        self.insert_fences = insert_fences
        self.optimize = optimize
        self.observed_callbacks = observed_callbacks
        self.instrument_accesses = instrument_accesses
        self.miss_mode = miss_mode
        self.enter_import = enter_import
        self.lazy_flags = lazy_flags
        self.fence_stack_exemption = fence_stack_exemption
        self.profile = profile
        self.tracer = tracer if tracer is not None else Tracer()
        self.counters = counters

    # -- CFG recovery -----------------------------------------------------------

    def recover_cfg(self, trace: Optional[TraceResult] = None,
                    seed_cfg: Optional[RecoveredCFG] = None,
                    stats: Optional[RecompileStats] = None) -> RecoveredCFG:
        """Recover control flow statically, merging optional trace/seed CFGs."""
        stats = stats or RecompileStats()
        if trace is not None:
            with self.tracer.span("recompile.trace",
                                  icfts=trace.total_icfts) as span:
                scratch = RecoveredCFG() if seed_cfg is None else seed_cfg
                trace.apply_to(scratch)
                seed_cfg = scratch
            stats.apply_span(span)
        with self.tracer.span("recompile.disasm") as span:
            disasm = Disassembler(self.image)
            extra: Set[int] = set()
            if seed_cfg is not None:
                # Indirect-call targets recorded dynamically are function
                # entry points.
                for site, targets in seed_cfg.indirect_targets.items():
                    extra.update(targets)
            cfg = disasm.recover(extra_entries=extra, seed_cfg=seed_cfg)
            span.args.update(functions=len(cfg.functions),
                             blocks=cfg.total_blocks())
        stats.apply_span(span)
        return cfg

    # -- full pipeline -----------------------------------------------------------------

    def recompile(self, cfg: Optional[RecoveredCFG] = None,
                  trace: Optional[TraceResult] = None) -> RecompileResult:
        """Lift, optimise and lower into a standalone replacement image."""
        stats = RecompileStats()
        if cfg is None:
            cfg = self.recover_cfg(trace=trace, stats=stats)
        stats.functions = len(cfg.functions)
        stats.blocks = cfg.total_blocks()
        stats.icfts = cfg.total_icfts()

        pgo = None
        if self.profile is not None:
            with self.tracer.span("recompile.pgo") as span:
                from ..profile import ProfileGuide
                pgo = ProfileGuide(self.profile, self.counters)
                pgo.count("guided_recompilations")
                span.args.update(
                    profile_digest=self.profile.digest(),
                    blocks_profiled=len(self.profile.block_counts),
                    hot_threshold=self.profile.hot_threshold())
            stats.apply_span(span)

        with self.tracer.span("recompile.lift",
                              functions=stats.functions,
                              blocks=stats.blocks) as span:
            lifter = Lifter(self.image, cfg, atomic_mode=self.atomic_mode,
                            miss_mode=self.miss_mode,
                            lazy_flags=self.lazy_flags, pgo=pgo)
            module = lifter.lift()
        stats.apply_span(span)

        with self.tracer.span("recompile.fences") as span:
            if self.insert_fences:
                FenceInsertion(
                    exempt_stack=self.fence_stack_exemption).run_module(module)
                FenceMerge().run_module(module)
                stats.fences_inserted = count_fences(module)
            span.args["fences_inserted"] = stats.fences_inserted
        stats.apply_span(span)

        with self.tracer.span("recompile.opt",
                              enabled=self.optimize) as span:
            # Stable access-site identities must be fixed before any
            # optimisation so instrumented and production builds agree.
            tag_sites(module)
            if self.observed_callbacks is not None:
                self._apply_callback_analysis(module)
            if self.instrument_accesses:
                AccessInstrumentation().run_module(module)
            if self.optimize:
                standard_pipeline(tracer=self.tracer,
                                  counters=self.counters).run(module)
                if self.observed_callbacks is not None:
                    with self.tracer.span("opt.inline"):
                        Inliner(max_blocks=8, respect_visibility=True,
                                profile=pgo).run_module(module)
                    standard_pipeline(tracer=self.tracer,
                                      counters=self.counters).run(module)
                if pgo is not None:
                    with self.tracer.span("opt.unroll"):
                        from ..profile import CostGuidedUnroll
                        unrolled = CostGuidedUnroll(self.image, pgo) \
                            .run(module)
                    if unrolled:
                        # Clean up the clones (copy propagation, DCE,
                        # simplifycfg) exactly as after inlining.
                        standard_pipeline(tracer=self.tracer,
                                          counters=self.counters).run(module)
            stats.fences_final = count_fences(module)
            span.args["fences_final"] = stats.fences_final
        stats.apply_span(span)

        with self.tracer.span("recompile.lower") as span:
            scrub = [(block.start, block.end)
                     for fn in cfg.functions.values()
                     for block in fn.blocks.values()]
            builder = RecompiledBinaryBuilder(
                module, self.image, scrub_blocks=scrub,
                enter_import=self.enter_import, pgo=pgo)
            image = builder.build()
        stats.apply_span(span)
        return RecompileResult(image=image, module=module, cfg=cfg,
                               stats=stats, tracer=self.tracer)

    def _apply_callback_analysis(self, module: Module) -> None:
        """Unmark functions never observed as external entry points
        (§3.3.3): they lose wrappers + trampolines and become available
        for aggressive interprocedural optimisation."""
        observed = self.observed_callbacks or set()
        entry_addr = module.metadata.get("entry_addr")
        for fn in module.functions:
            if fn.origin_addr is None:
                continue
            if fn.origin_addr == entry_addr:
                continue        # program entry stays external
            if fn.origin_addr not in observed:
                fn.external_visible = False
