"""The on-disk execution-profile format (feedback-directed optimisation).

A :class:`Profile` is everything the collector learned from concrete
executions of the *original* binary: per-block execution counts,
taken/not-taken edge counts at conditional branches, call-site counts,
indirect-target histograms (the counted generalisation of the ICFT
tracer's bare target sets), and loop trip-count summaries.

The format is deliberately boring:

* **versioned** — ``PROFILE_VERSION`` is stamped into every file and
  folded into the digest, so a format change invalidates downstream
  artifact-cache keys instead of silently misguiding the optimiser;
* **mergeable** — :meth:`Profile.merge` sums counts across runs,
  inputs, threads and processes, and is associative and commutative;
* **digest-stable** — :meth:`Profile.digest` hashes a canonical JSON
  rendering (sorted keys, no hash-seed-dependent iteration order),
  mirroring :func:`repro.core.artifact_cache.stable_digest`, so the
  same profile collected by different interpreter processes keys the
  same cache entries.  Wall-clock time is carried for reporting but
  excluded from the digest.

See ``docs/PGO.md`` for the collect → merge → recompile workflow.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Stamped into every profile file and folded into the digest.
PROFILE_VERSION = "polynima-profile-v1"

#: First line of every profile file ("magic" for cheap sniffing).
PROFILE_FORMAT = "polynima-profile"


class ProfileError(Exception):
    """Raised for unreadable, mismatched or unmergeable profiles."""
    pass


def _counts_to_json(table: Dict[int, int]) -> Dict[str, int]:
    return {str(key): int(value) for key, value in table.items()}

def _counts_from_json(data: Dict[str, Any]) -> Dict[int, int]:
    return {int(key): int(value) for key, value in (data or {}).items()}

def _histo_to_json(table: Dict[int, Dict[int, int]]) -> Dict[str, Dict[str, int]]:
    return {str(site): _counts_to_json(targets)
            for site, targets in table.items()}

def _histo_from_json(data: Dict[str, Any]) -> Dict[int, Dict[int, int]]:
    return {int(site): _counts_from_json(targets)
            for site, targets in (data or {}).items()}


def _merge_counts(into: Dict[int, int], other: Dict[int, int]) -> None:
    for key, value in other.items():
        into[key] = into.get(key, 0) + value


def _merge_histo(into: Dict[int, Dict[int, int]],
                 other: Dict[int, Dict[int, int]]) -> None:
    for site, targets in other.items():
        table = into.setdefault(site, {})
        for target, count in targets.items():
            table[target] = table.get(target, 0) + count


@dataclass
class Profile:
    """Counted execution facts about one binary, over >= 0 runs."""

    #: Identity of the profiled binary (sha256 of its image bytes).
    #: Profiles of different binaries refuse to merge.
    image_sha256: str = ""
    #: Block start address -> times the block was entered.
    block_counts: Dict[int, int] = field(default_factory=dict)
    #: Conditional-branch site -> successor address -> times taken.
    #: Both outcomes appear (the taken target and the fall-through), so
    #: branch probabilities are ``count / sum(counts)``.
    edge_counts: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: Call-site address -> execution count (direct and indirect).
    call_counts: Dict[int, int] = field(default_factory=dict)
    #: Indirect-call site -> target -> count (the counted version of
    #: ``TraceResult.call_targets``).
    indirect_calls: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: Indirect-jump site -> target -> count.
    indirect_jumps: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: Loop header address -> {"entries": n, "iterations": m}; the
    #: average trip count is ``m / n``.
    loop_trips: Dict[int, Dict[str, int]] = field(default_factory=dict)
    runs: int = 0
    instructions: int = 0
    wall_seconds: float = 0.0

    # -- merging ------------------------------------------------------------

    def merge(self, other: "Profile") -> "Profile":
        """Sum another profile's counts into this one (in place).

        Associative and commutative up to ``wall_seconds`` float
        rounding, which is excluded from the digest anyway.
        """
        if self.image_sha256 and other.image_sha256 and \
                self.image_sha256 != other.image_sha256:
            raise ProfileError(
                f"cannot merge profiles of different binaries "
                f"({self.image_sha256[:12]} vs {other.image_sha256[:12]})")
        if not self.image_sha256:
            self.image_sha256 = other.image_sha256
        _merge_counts(self.block_counts, other.block_counts)
        _merge_histo(self.edge_counts, other.edge_counts)
        _merge_counts(self.call_counts, other.call_counts)
        _merge_histo(self.indirect_calls, other.indirect_calls)
        _merge_histo(self.indirect_jumps, other.indirect_jumps)
        for header, trips in other.loop_trips.items():
            mine = self.loop_trips.setdefault(
                header, {"entries": 0, "iterations": 0})
            mine["entries"] += trips.get("entries", 0)
            mine["iterations"] += trips.get("iterations", 0)
        self.runs += other.runs
        self.instructions += other.instructions
        self.wall_seconds += other.wall_seconds
        return self

    # -- queries ------------------------------------------------------------

    @property
    def total_block_executions(self) -> int:
        return sum(self.block_counts.values())

    def block_weight(self, addr: Optional[int]) -> int:
        if addr is None:
            return 0
        return self.block_counts.get(addr, 0)

    def hot_threshold(self) -> int:
        """The hotness cutoff: the mean count over executed blocks.

        Deterministic, scale-free and cheap; blocks at or above the
        mean are "hot" (loop bodies land far above it, straight-line
        startup code far below).
        """
        executed = [c for c in self.block_counts.values() if c > 0]
        if not executed:
            return 1
        return max(1, sum(executed) // len(executed))

    def is_hot_block(self, addr: Optional[int]) -> bool:
        return self.block_weight(addr) >= self.hot_threshold()

    def edge_probability(self, site: int, successor: int) -> float:
        """P(branch at ``site`` goes to ``successor``); 0.0 unprofiled."""
        edges = self.edge_counts.get(site)
        if not edges:
            return 0.0
        total = sum(edges.values())
        if total <= 0:
            return 0.0
        return edges.get(successor, 0) / total

    def indirect_histogram(self, site: int, kind: str) -> Dict[int, int]:
        table = self.indirect_calls if kind == "call" else self.indirect_jumps
        return table.get(site, {})

    def dominant_target(self, site: int, kind: str):
        """(target, share) of the most frequent indirect target, or
        ``(None, 0.0)`` when the site was never observed."""
        histo = self.indirect_histogram(site, kind)
        total = sum(histo.values())
        if not total:
            return None, 0.0
        target = min(histo, key=lambda t: (-histo[t], t))
        return target, histo[target] / total

    def avg_trip_count(self, header: Optional[int]) -> float:
        """Mean iterations per entry of the loop headed at ``header``."""
        if header is None:
            return 0.0
        trips = self.loop_trips.get(header)
        if not trips or trips.get("entries", 0) <= 0:
            return 0.0
        return trips["iterations"] / trips["entries"]

    def to_trace_result(self):
        """The profile's indirect-target histograms in the shape the
        CFG-augmentation machinery consumes (supersedes running the
        bare ICFT tracer when a profile is already in hand)."""
        from ..core.icft_tracer import TraceResult
        return TraceResult(
            jump_targets={s: dict(t) for s, t in self.indirect_jumps.items()},
            call_targets={s: dict(t) for s, t in self.indirect_calls.items()},
            runs=self.runs, instructions=self.instructions,
            wall_seconds=self.wall_seconds)

    # -- serialisation ------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "format": PROFILE_FORMAT,
            "version": PROFILE_VERSION,
            "image_sha256": self.image_sha256,
            "block_counts": _counts_to_json(self.block_counts),
            "edge_counts": _histo_to_json(self.edge_counts),
            "call_counts": _counts_to_json(self.call_counts),
            "indirect_calls": _histo_to_json(self.indirect_calls),
            "indirect_jumps": _histo_to_json(self.indirect_jumps),
            "loop_trips": {str(h): {"entries": int(t.get("entries", 0)),
                                    "iterations": int(t.get("iterations", 0))}
                           for h, t in self.loop_trips.items()},
            "runs": self.runs,
            "instructions": self.instructions,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Profile":
        if data.get("format") != PROFILE_FORMAT:
            raise ProfileError(
                f"not a {PROFILE_FORMAT} file (format="
                f"{data.get('format')!r})")
        if data.get("version") != PROFILE_VERSION:
            raise ProfileError(
                f"profile version {data.get('version')!r} is not "
                f"{PROFILE_VERSION!r}; re-collect the profile")
        return cls(
            image_sha256=data.get("image_sha256", ""),
            block_counts=_counts_from_json(data.get("block_counts")),
            edge_counts=_histo_from_json(data.get("edge_counts")),
            call_counts=_counts_from_json(data.get("call_counts")),
            indirect_calls=_histo_from_json(data.get("indirect_calls")),
            indirect_jumps=_histo_from_json(data.get("indirect_jumps")),
            loop_trips={int(h): {"entries": int(t.get("entries", 0)),
                                 "iterations": int(t.get("iterations", 0))}
                        for h, t in (data.get("loop_trips") or {}).items()},
            runs=int(data.get("runs", 0)),
            instructions=int(data.get("instructions", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "Profile":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ProfileError(f"cannot read profile {path!r}: {exc}")
        return cls.from_json(data)

    def digest(self) -> str:
        """Content digest over the canonical JSON rendering.

        Stable across processes and ``PYTHONHASHSEED`` values (keys are
        sorted; no set iteration feeds the hash).  ``wall_seconds`` is
        excluded: two collections of the same execution must key the
        same artifact-cache entries regardless of host speed.
        """
        payload = self.to_json()
        del payload["wall_seconds"]
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    # -- reporting ----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Headline numbers for ``polynima profile show``."""
        indirect_sites = len(self.indirect_calls) + len(self.indirect_jumps)
        return {
            "version": PROFILE_VERSION,
            "digest": self.digest(),
            "image_sha256": self.image_sha256,
            "runs": self.runs,
            "instructions": self.instructions,
            "wall_seconds": round(self.wall_seconds, 6),
            "blocks_profiled": len(self.block_counts),
            "block_executions": self.total_block_executions,
            "hot_threshold": self.hot_threshold(),
            "hot_blocks": sum(
                1 for c in self.block_counts.values()
                if c >= self.hot_threshold()),
            "branch_sites": len(self.edge_counts),
            "call_sites": len(self.call_counts),
            "indirect_sites": indirect_sites,
            "loops": len(self.loop_trips),
        }

    def hottest_blocks(self, limit: int = 10):
        """[(addr, count)] sorted by descending count, address ties low."""
        ranked = sorted(self.block_counts.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:limit]
