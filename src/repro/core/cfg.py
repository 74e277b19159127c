"""The recovered control-flow graph (CFG) model.

This is the artefact the whole pipeline revolves around (§3.2): the
static disassembler produces it, the ICFT tracer augments it, additive
lifting updates its *on-disk* JSON representation when the recompiled
binary reports a control-flow miss, and the translator consumes it to
stitch lifted basic blocks into functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


@dataclass
class BlockInfo:
    """A recovered basic block ``[start, end)``.

    ``terminator`` is one of ``jmp``, ``jcc``, ``call``, ``indjmp``,
    ``indcall``, ``ret``, ``hlt``, ``ud2``, ``fall`` (fallthrough into a
    block that is a jump target from elsewhere).
    """

    start: int
    end: int
    terminator: str
    #: Direct successors (block start addresses within the function).
    succs: List[int] = field(default_factory=list)
    #: For call terminators: callee entry (None if indirect/external).
    call_target: Optional[int] = None
    #: For external calls: the import name.
    external_call: Optional[str] = None
    #: Fallthrough block after a call (the return continuation).
    fallthrough: Optional[int] = None

    def to_json(self) -> dict:
        """JSON-friendly dict for on-disk CFG persistence."""
        return {
            "start": self.start, "end": self.end,
            "terminator": self.terminator, "succs": self.succs,
            "call_target": self.call_target,
            "external_call": self.external_call,
            "fallthrough": self.fallthrough,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BlockInfo":
        """Rebuild a BlockInfo from its to_json() dict."""
        return cls(start=data["start"], end=data["end"],
                   terminator=data["terminator"],
                   succs=list(data["succs"]),
                   call_target=data.get("call_target"),
                   external_call=data.get("external_call"),
                   fallthrough=data.get("fallthrough"))


@dataclass
class FunctionCFG:
    """One recovered function: entry, blocks, call/jump edges."""
    entry: int
    blocks: Dict[int, BlockInfo] = field(default_factory=dict)

    def block_at(self, addr: int) -> Optional[BlockInfo]:
        """The block starting exactly at ``addr``, or None."""
        return self.blocks.get(addr)

    def block_containing(self, addr: int) -> Optional[BlockInfo]:
        """The block whose byte range covers ``addr``, or None."""
        for block in self.blocks.values():
            if block.start <= addr < block.end:
                return block
        return None


class RecoveredCFG:
    """The whole-binary CFG plus per-site indirect target sets."""

    def __init__(self) -> None:
        self.functions: Dict[int, FunctionCFG] = {}
        #: site address (of the indirect jmp/call) -> set of targets.
        self.indirect_targets: Dict[int, Set[int]] = {}
        #: sites whose targets came from the dynamic tracer.
        self.traced_sites: Set[int] = set()
        #: entry points discovered dynamically (control-flow misses).
        self.dynamic_entries: Set[int] = set()

    # -- mutation -------------------------------------------------------------

    def add_indirect_target(self, site: int, target: int,
                            traced: bool = False) -> bool:
        """Record one observed/assumed target of an indirect site."""
        targets = self.indirect_targets.setdefault(site, set())
        if traced:
            self.traced_sites.add(site)
        if target in targets:
            return False
        targets.add(target)
        return True

    def merge(self, other: "RecoveredCFG") -> None:
        """Merge information recorded across different runs (§3.2)."""
        for site, targets in other.indirect_targets.items():
            for target in targets:
                self.add_indirect_target(site, target,
                                         traced=site in other.traced_sites)
        for entry, fn in other.functions.items():
            if entry not in self.functions:
                self.functions[entry] = fn
            else:
                mine = self.functions[entry]
                for addr, block in fn.blocks.items():
                    mine.blocks.setdefault(addr, block)
        self.dynamic_entries |= other.dynamic_entries

    # -- queries -----------------------------------------------------------------

    def total_blocks(self) -> int:
        """Block count across every function."""
        return sum(len(fn.blocks) for fn in self.functions.values())

    def total_indirect_sites(self) -> int:
        """Number of distinct indirect-transfer sites."""
        return len(self.indirect_targets)

    def total_icfts(self) -> int:
        """Total recorded indirect control-flow targets (Table 4)."""
        return sum(len(t) for t in self.indirect_targets.values())

    # -- (de)serialisation — the "on-disk representation" (§3.2) -------------------

    def to_json(self) -> str:
        """Serialise the whole CFG to a JSON string."""
        payload = {
            "functions": {
                str(entry): {
                    "entry": fn.entry,
                    "blocks": {str(a): b.to_json()
                               for a, b in fn.blocks.items()},
                }
                for entry, fn in self.functions.items()
            },
            "indirect_targets": {str(site): sorted(targets)
                                 for site, targets
                                 in self.indirect_targets.items()},
            "traced_sites": sorted(self.traced_sites),
            "dynamic_entries": sorted(self.dynamic_entries),
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RecoveredCFG":
        """Parse a CFG back from its JSON string."""
        payload = json.loads(text)
        cfg = cls()
        for entry_str, fn_data in payload["functions"].items():
            fn = FunctionCFG(entry=fn_data["entry"])
            for addr_str, block_data in fn_data["blocks"].items():
                fn.blocks[int(addr_str)] = BlockInfo.from_json(block_data)
            cfg.functions[int(entry_str)] = fn
        for site_str, targets in payload["indirect_targets"].items():
            cfg.indirect_targets[int(site_str)] = set(targets)
        cfg.traced_sites = set(payload.get("traced_sites", []))
        cfg.dynamic_entries = set(payload.get("dynamic_entries", []))
        return cfg

    def save(self, path) -> None:
        """Write the JSON CFG to a path."""
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "RecoveredCFG":
        """Read a JSON CFG from a path."""
        with open(path) as handle:
            return cls.from_json(handle.read())
