"""Implicit synchronisation primitive (spinloop) detection (§3.4).

The key insight of the paper's fence optimisation: if a data-race-free
binary contains *no implicit synchronisation primitives* — no spinloops
— then every shared access is synchronised through external library
primitives, across which the compiler never reorders anyway, and all
inserted fences are superfluous.

A loop is *not* a spinloop when it can exit under the influence of a
local value that is (1) not loop-constant and (2) free of external
dependencies — where a value has an external dependency if shared
memory flows into it (§3.4.1, the AtoMig spinloop definition).

The procedure (§3.4.2):

1. recursively inline all lifted functions into their callers so data
   flow is trackable across procedure calls;
2. run loop simplification so loops have dedicated exits;
3. for each loop, run a backwards dataflow (instruction influence
   analysis) on the operands of every exit condition, resolving
   through-memory flows with the dynamically recorded access sites
   (local vs shared, plus sampled concrete locations).

Verdicts: ``NON_SPINNING``, ``SPINNING`` (potential — conservative) or
``UNCOVERED`` (the dynamic runs never exercised the relevant accesses;
also conservative).  Fence removal is safe only when *every* loop in
the binary is non-spinning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ir import (AtomicRMW, Call, Cmpxchg, CondBr, Function, GlobalVar, ICmp,
                  Instruction, Load, Loop, Module, Phi, Store, back_edge_loops)
from ..passes import (Inliner, LoopSimplify, clone_function_body,
                      standard_pipeline)
from ..passes.alias import may_alias, symbolic_addr
from .instrument import site_id_of

NON_SPINNING = "non-spinning"


def _ranges_intersect(a: Dict[int, tuple], b: Dict[int, tuple]) -> bool:
    """Do two per-thread observed address ranges overlap anywhere?"""
    for tid, (alo, ahi) in a.items():
        other = b.get(tid)
        if other is not None and alo <= other[1] and other[0] <= ahi:
            return True
    return False

SPINNING = "spinning"
UNCOVERED = "uncovered"


@dataclass
class LoopVerdict:
    """One loop's classification: NON_SPINNING / SPINNING / UNCOVERED."""
    function: str
    header: str
    verdict: str
    reason: str
    #: Original block addresses of the loop body (for reporting).
    origin_addrs: Tuple[int, ...] = ()


@dataclass
class SpinloopReport:
    """All loop verdicts for one binary plus the fence decision inputs."""
    verdicts: List[LoopVerdict] = field(default_factory=list)
    #: Loops manually vetted as non-spinning (coverage-gap overrides, as
    #: the paper does for histogram's endianness loop).
    overridden: List[LoopVerdict] = field(default_factory=list)

    @property
    def all_non_spinning(self) -> bool:
        """True when every covered loop is NON_SPINNING."""
        return all(v.verdict == NON_SPINNING for v in self.verdicts)

    @property
    def fences_removable(self) -> bool:
        """True when the §3.4 criteria allow dropping lasagne fences."""
        return self.all_non_spinning

    def count(self, verdict: str) -> int:
        """Number of loops with the given verdict."""
        return sum(1 for v in self.verdicts if v.verdict == verdict)

    def apply_manual_overrides(self, origin_addrs: Set[int]) -> None:
        """Mark UNCOVERED loops containing the given original addresses
        as manually-analysed non-spinning (§4.3 histogram case)."""
        for verdict in self.verdicts:
            if verdict.verdict == UNCOVERED and \
                    any(addr in origin_addrs
                        for addr in verdict.origin_addrs):
                verdict.verdict = NON_SPINNING
                verdict.reason += " (manual analysis override)"
                self.overridden.append(verdict)


def clone_module(module: Module) -> Module:
    """Deep-copy a module for destructive analysis transforms."""
    clone = Module(name=module.name + ".analysis")
    clone.imports = list(module.imports)
    clone.metadata = dict(module.metadata)
    global_map: Dict[GlobalVar, GlobalVar] = {}
    for var in module.globals:
        new_var = GlobalVar(var.name, size=var.size,
                            thread_local=var.thread_local,
                            promotable=var.promotable, init=var.init)
        new_var.tls_offset = var.tls_offset
        clone.add_global(new_var)
        global_map[var] = new_var
    fn_map: Dict[Function, Function] = {}
    for fn in module.functions:
        new_fn = Function(fn.name, return_type=fn.return_type)
        new_fn.origin_addr = fn.origin_addr
        new_fn.external_visible = fn.external_visible
        fn_map[fn] = new_fn
        clone.add_function(new_fn)
    for fn in module.functions:
        if not fn.blocks:
            continue
        value_map: Dict = dict(global_map)
        value_map.update(fn_map)
        clone_function_body(fn, value_map, fn_map[fn], "c")
    return clone


class SpinloopDetector:
    """The §3.4 dynamic analysis: per-back-edge loops classified by variant/external dependence over recorded access ranges."""
    def __init__(self, module: Module,
                 access_log: Dict[str, dict]) -> None:
        #: The *lifted, unoptimised* module (site tags present).
        self.module = module
        self.access_log = access_log

    # -- public API ---------------------------------------------------------------

    def analyze(self) -> SpinloopReport:
        """Classify every loop and return the report."""
        analysis = clone_module(self.module)
        # The analysis copy sheds fences and instrumentation calls:
        # both are *optimisation barriers*, and leaving them in would
        # keep the O0 expression-stack churn alive, drowning the loop
        # conditions in time-multiplexed push-slot traffic.  Stripping
        # them lets the cleanup passes expose the conditions as SSA
        # values — semantics of the analysed program are unchanged.
        from .fences import remove_lasagne_fences
        remove_lasagne_fences(analysis)
        for fn in analysis.functions:
            for block in fn.blocks:
                for instr in list(block.instructions):
                    if isinstance(instr, Call) and \
                            "instrumentation" in instr.tags:
                        block.remove(instr)
        # Inline everything for cross-procedure data flow (§3.4.2).
        Inliner(exhaustive=True, respect_visibility=False) \
            .run_module(analysis)
        # SSA + loop canonicalisation: "we benefit from lifting
        # general-purpose registers as SSA values".
        standard_pipeline().run(analysis)
        LoopSimplify().run_module(analysis)

        report = SpinloopReport()
        for fn in analysis.functions:
            if not fn.blocks:
                continue
            # Per-back-edge loops: a spinning inner cycle must not hide
            # behind the well-behaved exit of a merged outer loop.
            for loop in back_edge_loops(fn):
                report.verdicts.append(self._analyze_loop(fn, loop))
        return report

    # -- per-loop analysis ------------------------------------------------------------

    def _analyze_loop(self, fn: Function, loop: Loop) -> LoopVerdict:
        origin_addrs = tuple(sorted({b.origin_addr for b in loop.blocks
                                     if b.origin_addr is not None}))
        exit_conditions = self._exit_conditions(loop)
        if not exit_conditions:
            return LoopVerdict(fn.name, loop.header.name, SPINNING,
                               "no analysable exit condition",
                               origin_addrs)
        uncovered = False
        for cond in exit_conditions:
            operands = (list(cond.operands)
                        if isinstance(cond, ICmp) else [cond])
            for op in operands:
                variant = self._is_loop_variant(op, loop, {})
                external = self._external_dep(op, loop, {})
                if external == "uncovered":
                    uncovered = True
                    continue
                if variant and not external:
                    return LoopVerdict(
                        fn.name, loop.header.name, NON_SPINNING,
                        f"exit influenced by loop-variant local "
                        f"value %{op.name}", origin_addrs)
        if uncovered:
            return LoopVerdict(fn.name, loop.header.name, UNCOVERED,
                               "loop body not covered by dynamic runs",
                               origin_addrs)
        return LoopVerdict(fn.name, loop.header.name, SPINNING,
                           "all exit operands loop-constant or "
                           "externally dependent", origin_addrs)

    def _exit_conditions(self, loop: Loop) -> List:
        conditions = []
        for block in loop.exiting_blocks():
            term = block.terminator
            if isinstance(term, CondBr):
                conditions.append(term.cond)
            # Switch-terminated exits (indirect control flow) are not
            # analysable: conservatively contribute nothing.
        return conditions

    # -- instruction influence analysis (backwards dataflow) ------------------------------

    def _is_loop_variant(self, value, loop: Loop, memo: Dict) -> bool:
        """Does the value change across iterations of this loop?"""
        if not isinstance(value, Instruction):
            return False
        key = ("var", id(value))
        if key in memo:
            return memo[key]
        memo[key] = True        # cycles (through phis/memory) = variant
        result = False
        if value.parent not in loop.blocks:
            result = False
        elif isinstance(value, Phi):
            result = value.parent is loop.header or any(
                self._is_loop_variant(op, loop, memo)
                for op in value.operands)
        elif isinstance(value, Load):
            # A load varies if an intra-loop store to the same location
            # stores a varying value, or if the location is shared
            # (another thread may change it — though that also makes it
            # externally dependent).
            for store in self._matching_stores(value, loop):
                if self._is_loop_variant(store.value, loop, memo):
                    result = True
                    break
            else:
                record = self._record_for(value)
                if record is not None and "shared" in record["kinds"]:
                    result = True
        elif isinstance(value, (Cmpxchg, AtomicRMW)):
            result = True
        elif isinstance(value, Call):
            result = True
        else:
            result = any(self._is_loop_variant(op, loop, memo)
                         for op in value.operands)
        memo[key] = result
        return result

    def _external_dep(self, value, loop: Loop, memo: Dict):
        """Does shared memory flow into the value?  Returns True, False
        or "uncovered"."""
        if not isinstance(value, Instruction):
            return False
        key = ("ext", id(value))
        if key in memo:
            return memo[key]
        memo[key] = False       # optimistic for cycles
        result = False
        if isinstance(value, (Cmpxchg, AtomicRMW)):
            result = True
        elif isinstance(value, Call):
            result = True       # unknown external side effects
        elif isinstance(value, Load):
            record = self._record_for(value)
            if record is None:
                result = "uncovered" if site_id_of(value) is not None \
                    else False      # vstate loads are thread-local
            elif "shared" in record["kinds"]:
                result = True
            else:
                # Local location: chase intra-loop stores to it
                # (§3.4.2 "we collect all intra-loop stores made to
                # that location and trigger another backwards dataflow
                # analysis for the stored values").
                for store in self._matching_stores(value, loop):
                    sub = self._external_dep(store.value, loop, memo)
                    if sub == "uncovered":
                        result = "uncovered"
                    elif sub:
                        result = True
                        break
        else:
            for op in value.operands:
                sub = self._external_dep(op, loop, memo)
                if sub == "uncovered" and result is False:
                    result = "uncovered"
                elif sub is True:
                    result = True
                    break
        memo[key] = result
        return result

    # -- load/store matching ------------------------------------------------------------

    def _record_for(self, instr) -> Optional[dict]:
        site = site_id_of(instr)
        if site is None:
            return None
        return self.access_log.get(site)

    def _matching_stores(self, load: Load, loop: Loop) -> List[Store]:
        """Intra-loop stores that may target the load's location,
        matched statically (symbolic base+offset) or dynamically
        (recorded concrete locations intersect)."""
        load_key = symbolic_addr(load.addr)
        load_stack = "emustack" in load.tags
        load_record = self._record_for(load)
        matches: List[Store] = []
        for block in loop.blocks:
            for instr in block.instructions:
                if not isinstance(instr, Store):
                    continue
                store_key = symbolic_addr(instr.addr)
                store_stack = "emustack" in instr.tags
                if may_alias(load_key, load.width, load_stack,
                             store_key, instr.width, store_stack):
                    if store_key == load_key:
                        matches.append(instr)
                        continue
                    record = self._record_for(instr)
                    if record is None:
                        # The store site never executed: its observed
                        # location list is empty, so nothing the load
                        # saw can have come from it (§3.4.2 matches by
                        # *observed* locations).  This also drops the
                        # dead duplicated-block copies.
                        continue
                    if load_record is None:
                        matches.append(instr)   # load uncovered: keep
                    elif _ranges_intersect(load_record["ranges"],
                                           record["ranges"]):
                        matches.append(instr)   # observed ranges overlap
        return matches
