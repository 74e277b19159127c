"""Dynamic-analysis instrumentation over the lifted IR (§3.4.2).

The fence optimisation's access recording runs on *recompiled output*
(cheap, native speed) rather than in a tracing emulator; the ICFT trace
and the callback analysis need no build and run the original binary
(:mod:`repro.core.icft_tracer`).  This module provides:

* stable **site identifiers** for original-program memory accesses —
  ``"<block origin addr hex>:<ordinal>"`` — identical across
  instrumented and production builds of the same lifted module;
* :class:`AccessInstrumentation`, a pass inserting a runtime call
  ``__poly_record_access(site, addr)`` before every original-program
  memory access (the runtime classifies the address as emulated-stack-
  local or shared, since it allocated every thread's emulated stack);
* helpers to merge records collected across runs into a site → set of
  (kind,) observations map consumed by the spinloop detector.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..emulator.extlib import RT_RECORD_ACCESS
from ..ir import (AtomicRMW, Call, Cmpxchg, Instruction, Load, Module,
                  Store, VOID, const)
from ..passes import Pass


def is_recordable(instr: Instruction) -> bool:
    """Memory accesses the analysis cares about: loads, stores, RMWs and
    CmpXCHGs belonging to the original program (§3.4.2)."""
    if isinstance(instr, (Cmpxchg, AtomicRMW)):
        return True
    if isinstance(instr, (Load, Store)):
        return "orig" in instr.tags
    return False


def tag_sites(module: Module) -> int:
    """Permanently tag every recordable access with its stable site id.

    Run once, right after lifting + fence insertion, *before* any
    optimisation: the tag then survives cloning (inlining) and code
    motion, so the instrumented build and the analysis build agree on
    site identities even when the optimiser later removes or moves
    accesses.  Idempotent.
    """
    count = 0
    for fn in module.functions:
        for block in fn.blocks:
            origin = block.origin_addr
            if origin is None:
                continue
            ordinal = 0
            for instr in block.instructions:
                if is_recordable(instr):
                    if not any(t.startswith("site:") for t in instr.tags):
                        instr.tags.add(f"site:{origin:x}:{ordinal}")
                        count += 1
                    ordinal += 1
    return count


def assign_site_ids(module: Module) -> Dict[str, Instruction]:
    """Map of site id -> access instruction (requires tag_sites)."""
    sites: Dict[str, Instruction] = {}
    for fn in module.functions:
        for instr in fn.instructions():
            site = site_id_of(instr)
            if site is not None:
                sites[site] = instr
    return sites


def site_id_of(instr: Instruction) -> Optional[str]:
    """Site id of one access (from its ``site:`` tag)."""
    for tag in instr.tags:
        if tag.startswith("site:"):
            return tag[5:]
    return None


def _site_numeric(site: str) -> int:
    """Encode a site id into a single integer for the runtime call."""
    origin_hex, ordinal = site.split(":")
    return (int(origin_hex, 16) << 16) | int(ordinal)


def site_from_numeric(value: int) -> str:
    """Decode a numeric site id back to its ``site:fn:ordinal`` tag."""
    return f"{value >> 16:x}:{value & 0xFFFF}"


class AccessInstrumentation(Pass):
    """Insert ``__poly_record_access(site, addr)`` before each access."""

    name = "access-instrumentation"

    def run_module(self, module: Module) -> bool:
        """Insert __poly_record_access calls at every tagged access site."""
        module.ensure_import(RT_RECORD_ACCESS)
        tag_sites(module)
        changed = False
        for fn in module.functions:
            for block in fn.blocks:
                rebuilt: List[Instruction] = []
                for instr in block.instructions:
                    site = site_id_of(instr)
                    if site is not None:
                        call = Call(RT_RECORD_ACCESS,
                                    [const(_site_numeric(site)), instr.addr],
                                    type_=VOID)
                        call.tags.add("instrumentation")
                        call.parent = block
                        rebuilt.append(call)
                    rebuilt.append(instr)
                if len(rebuilt) != len(block.instructions):
                    block.instructions[:] = rebuilt
                    changed = True
        return changed


def merge_access_logs(logs: Iterable[Dict[str, dict]]) -> Dict[str, dict]:
    """Merge per-run access observation maps.

    Each record is ``{"kinds": {"local","shared"},
    "ranges": {tid: (lo, hi)}, "count": int}`` — the observed access
    types and per-thread concrete location ranges, the §3.4.2 "list of
    tuples, each containing the observed location and the access type"
    compressed to per-thread intervals (threads have disjoint emulated
    stacks, so per-thread intervals keep stack slots distinguishable).
    """
    merged: Dict[str, dict] = {}
    for log in logs:
        for site, record in log.items():
            into = merged.get(site)
            if into is None:
                merged[site] = {"kinds": set(record["kinds"]),
                                "ranges": dict(record["ranges"]),
                                "count": record["count"]}
                continue
            into["kinds"] |= record["kinds"]
            for tid, (lo, hi) in record["ranges"].items():
                mine = into["ranges"].get(tid, (lo, hi))
                into["ranges"][tid] = (min(mine[0], lo), max(mine[1], hi))
            into["count"] += record["count"]
    return merged
