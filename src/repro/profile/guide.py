"""Profile policy: turns raw counts into optimisation decisions.

A :class:`ProfileGuide` wraps a :class:`~repro.profile.format.Profile`
and answers the questions the pipeline's consumers actually ask —
"is this block hot?", "which indirect target should be tested first?",
"how should blocks be laid out?" — so the consumers (inliner, lifter,
loop unroller, lowering) stay free of counting details.  Every
affirmative decision is counted under a ``pgo.*`` observability
counter so benchmarks and smoke tests can assert the profile was
actually consulted.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .format import Profile


class ProfileGuide:
    """Decision layer over a profile, shared by all PGO consumers."""

    def __init__(self, profile: Profile, counters=None) -> None:
        self.profile = profile
        self.counters = counters
        self._hot_threshold = profile.hot_threshold()

    # -- bookkeeping --------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Bump ``pgo.<name>`` when a counters registry is attached."""
        if self.counters is not None:
            self.counters.inc(f"pgo.{name}", amount)

    # -- hotness ------------------------------------------------------------

    def block_weight(self, addr: Optional[int]) -> int:
        return self.profile.block_weight(addr)

    def is_hot(self, addr: Optional[int]) -> bool:
        return self.profile.block_weight(addr) >= self._hot_threshold

    def weight_fraction(self, addr: Optional[int]) -> float:
        """This block's share of all executed block entries.

        Complements :meth:`is_hot` for skewed profiles: one mega-hot
        loop drags the mean threshold above blocks that still carry
        percents of the execution.
        """
        total = sum(self.profile.block_counts.values())
        if not total:
            return 0.0
        return self.profile.block_weight(addr) / total

    def call_block_hot(self, block) -> bool:
        """Is the IR block containing a call site hot?

        Inlined/synthesised blocks without an origin address inherit
        coldness — only measured heat unlocks the aggressive knobs.
        """
        return self.is_hot(getattr(block, "origin_addr", None))

    # -- indirect-target promotion ------------------------------------------

    def ordered_targets(self, site: int, kind: str,
                        targets: Iterable[int]) -> List[int]:
        """Targets ordered hottest-first for guarded promotion.

        The lifter emits one compare-and-branch per candidate target in
        this order, so putting the dominant traced target first *is*
        the devirtualisation: the hot path pays a single compare and
        the rest remain as the fallback chain.  Unobserved targets sort
        after observed ones, by address, keeping output deterministic.
        """
        histo = self.profile.indirect_histogram(site, kind)
        ranked = sorted(targets,
                        key=lambda t: (-histo.get(t, 0), t))
        if histo and len(ranked) > 1 and histo.get(ranked[0], 0) > 0:
            self.count("indirect_sites_promoted")
        return ranked

    # -- branches and layout -------------------------------------------------

    def edge_probability(self, site: int, successor: int) -> float:
        return self.profile.edge_probability(site, successor)

    def avg_trip(self, header: Optional[int]) -> float:
        return self.profile.avg_trip_count(header)

    def ir_block_weights(self, fn) -> Dict[object, int]:
        """Execution weight per IR block of ``fn``.

        Blocks lifted from guest code carry ``origin_addr`` and take
        their measured count.  Synthesised blocks (critical-edge
        splits, miss blocks, inline clones) have no address; they
        inherit the weight of their hottest *successor* by fixpoint, so
        e.g. a split edge into a loop header is as hot as the header
        while a control-flow miss block (whose successors go nowhere)
        stays cold.  Deterministic: iteration order is function order.
        """
        weights: Dict[object, int] = {}
        unknown = []
        for block in fn.blocks:
            addr = block.origin_addr
            if addr is not None and addr in self.profile.block_counts:
                weights[block] = self.profile.block_counts[addr]
            else:
                weights[block] = 0
                unknown.append(block)
        # Fixpoint over the unmeasured blocks: bounded by the longest
        # chain of synthesised blocks, itself bounded by block count.
        for _round in range(len(fn.blocks)):
            changed = False
            for block in unknown:
                best = 0
                for succ in block.successors():
                    best = max(best, weights.get(succ, 0))
                if best > weights[block]:
                    weights[block] = best
                    changed = True
            if not changed:
                break
        return weights
