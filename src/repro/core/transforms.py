"""User-facing transformation passes over lifted IR (§4.1, RQ1).

Writing patches for binaries with Polynima "is akin to writing a
compiler-level pass for LLVM IR, with the option of adding a runtime
component that can be linked in".  These are the building blocks the
CVE-2023-24042 mitigation uses:

* :class:`RecordExternalArgs` — insert a runtime-notification call
  before selected external calls, forwarding their arguments (the
  "record and compare the path arguments passed to stat and opendir"
  pass);
* :class:`RedirectExternalCalls` — reroute selected external calls to
  a custom runtime handler, the plain-C "patch";
* :class:`RestrictSwitchTargets` — drop chosen targets from indirect-
  transfer switches, disabling commands behind a jump-table dispatch
  ("the operator has complete control over the set of valid control
  transfers").
"""

from __future__ import annotations

from typing import Dict, Set

from ..ir import Call, Function, Module, Switch, VOID
from ..passes import Pass


class RecordExternalArgs(Pass):
    """Before each call to ``target``, call ``hook`` with the same
    argument values.  The hook is a runtime import (plain C in the real
    system; a registered library function here)."""

    name = "record-external-args"

    def __init__(self, hooks: Dict[str, str], max_args: int = 6) -> None:
        #: external callee name -> hook import name
        self.hooks = dict(hooks)
        self.max_args = max_args

    def run_function(self, fn: Function, module: Module) -> bool:
        """Wrap external-visible entries with argument recording."""
        changed = False
        for block in fn.blocks:
            index = 0
            while index < len(block.instructions):
                instr = block.instructions[index]
                if isinstance(instr, Call) and instr.is_external and \
                        instr.callee in self.hooks and \
                        "patch-hook" not in instr.tags:
                    hook_name = self.hooks[instr.callee]
                    module.ensure_import(hook_name)
                    hook = Call(hook_name,
                                list(instr.operands[:self.max_args]),
                                type_=VOID)
                    hook.tags.add("patch-hook")
                    instr.tags.add("patch-hook")    # don't re-instrument
                    block.insert(index, hook)
                    index += 1
                    changed = True
                index += 1
        return changed


class RedirectExternalCalls(Pass):
    """Reroute external calls: ``{"opendir": "patched_opendir"}``."""

    name = "redirect-external-calls"

    def __init__(self, mapping: Dict[str, str]) -> None:
        self.mapping = dict(mapping)

    def run_function(self, fn: Function, module: Module) -> bool:
        """Redirect selected external calls to a replacement import."""
        changed = False
        for instr in fn.instructions():
            if isinstance(instr, Call) and instr.is_external and \
                    instr.callee in self.mapping:
                instr.callee = module.ensure_import(
                    self.mapping[instr.callee])
                changed = True
        return changed


class RestrictSwitchTargets(Pass):
    """Remove chosen original addresses from indirect-transfer
    switches; transfers to them then hit the miss/abort default."""

    name = "restrict-switch-targets"

    def __init__(self, banned_targets: Set[int]) -> None:
        self.banned = set(banned_targets)

    def run_function(self, fn: Function, module: Module) -> bool:
        """Clamp switch dispatch to the statically recovered target set."""
        changed = False
        for block in fn.blocks:
            term = block.terminator
            if isinstance(term, Switch):
                kept = [(value, target) for value, target in term.cases
                        if value not in self.banned]
                if len(kept) != len(term.cases):
                    for value, target in term.cases:
                        if value in self.banned:
                            for phi in target.phis():
                                phi.remove_incoming(block)
                    term.cases = kept
                    changed = True
        return changed
