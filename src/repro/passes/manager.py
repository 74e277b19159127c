"""Pass manager for Poly IR transformations.

When given a :class:`~repro.observability.Tracer` and/or
:class:`~repro.observability.Counters`, the manager instruments every
pass execution with its wall time and IR delta (instructions/blocks
before → after), emitting ``pass.<name>`` spans and ``pass.<name>.*``
counters per the conventions in ``docs/OBSERVABILITY.md``.  A list of
:class:`PassRunRecord` is kept either way, so callers can inspect
which pass did the work without re-deriving sizes by hand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..ir import Function, Module, verify_module
from ..observability import Counters, Tracer


class Pass:
    """Base class; subclasses implement run_function or run_module."""

    name = "pass"

    def run_module(self, module: Module) -> bool:
        """Run the pass over a module (default: per function)."""
        changed = False
        for fn in module.functions:
            if fn.blocks:
                changed |= self.run_function(fn, module)
        return changed

    def run_function(self, fn: Function, module: Module) -> bool:
        """Run the pass over one function; override in subclasses."""
        raise NotImplementedError


def module_size(module: Module) -> Tuple[int, int]:
    """(blocks, instructions) across every function — the IR-delta
    measure the per-pass records are built from."""
    blocks = 0
    instrs = 0
    for fn in module.functions:
        blocks += len(fn.blocks)
        for block in fn.blocks:
            instrs += len(block.instructions)
    return blocks, instrs


@dataclass
class PassRunRecord:
    """One pass execution: what it cost and what it did to the IR."""
    pass_name: str
    iteration: int
    seconds: float
    changed: bool
    blocks_before: int
    blocks_after: int
    instrs_before: int
    instrs_after: int

    @property
    def instr_delta(self) -> int:
        """Instructions removed (positive) or added (negative)."""
        return self.instrs_before - self.instrs_after


class PassManager:
    """Runs a pipeline of passes, optionally verifying after each.

    ``tracer``/``counters`` hook the run into the observability layer;
    ``records`` always accumulates one :class:`PassRunRecord` per pass
    execution (cleared at the start of each :meth:`run`).
    """

    def __init__(self, passes: Sequence[Pass] = (), verify: bool = False,
                 max_iterations: int = 1,
                 tracer: Optional[Tracer] = None,
                 counters: Optional[Counters] = None) -> None:
        self.passes: List[Pass] = list(passes)
        self.verify = verify
        self.max_iterations = max_iterations
        self.tracer = tracer
        self.counters = counters
        self.records: List[PassRunRecord] = []

    def add(self, pass_: Pass) -> "PassManager":
        """Append a pass; returns self for chaining."""
        self.passes.append(pass_)
        return self

    def _run_one(self, pass_: Pass, module: Module, iteration: int) -> bool:
        blocks_before, instrs_before = module_size(module)
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(f"pass.{pass_.name}",
                                     iteration=iteration,
                                     blocks_before=blocks_before,
                                     instrs_before=instrs_before)
        started = time.perf_counter()
        changed = False
        try:
            changed = pass_.run_module(module)
        finally:
            seconds = time.perf_counter() - started
            blocks_after, instrs_after = module_size(module)
            if span is not None:
                span.args.update(blocks_after=blocks_after,
                                 instrs_after=instrs_after,
                                 changed=changed)
                self.tracer.end(span)
        record = PassRunRecord(
            pass_name=pass_.name, iteration=iteration, seconds=seconds,
            changed=changed, blocks_before=blocks_before,
            blocks_after=blocks_after, instrs_before=instrs_before,
            instrs_after=instrs_after)
        self.records.append(record)
        if self.counters is not None:
            base = f"pass.{pass_.name}"
            self.counters.inc(f"{base}.runs")
            self.counters.inc(f"{base}.seconds", seconds)
            self.counters.inc(f"{base}.instrs_removed", record.instr_delta)
            self.counters.inc(f"{base}.blocks_removed",
                              blocks_before - blocks_after)
        return changed

    def run(self, module: Module) -> bool:
        """Run all passes in order, iterating until stable or the cap."""
        self.records = []
        changed_any = False
        for iteration in range(self.max_iterations):
            changed = False
            for pass_ in self.passes:
                if self._run_one(pass_, module, iteration):
                    changed = True
                    if self.verify:
                        try:
                            verify_module(module)
                        except Exception as exc:
                            raise RuntimeError(
                                f"IR broken after pass {pass_.name}: {exc}"
                            ) from exc
            changed_any |= changed
            if not changed:
                break
        return changed_any
