"""Cycle cost model for VX instructions, derived from the ISA spec.

Costs are loosely calibrated against x86 latencies: memory traffic and
serialising/atomic operations dominate, SIMD processes four lanes for
the price of one scalar op.  The normalised-runtime experiments only
depend on *ratios* between original and recompiled binaries, so the
absolute scale is irrelevant; what matters is that atomics, fences and
memory operations carry realistic relative weight.

The per-mnemonic numbers and classes live in ``isa/spec.py`` — this
module is a derived view plus the costs that are not per-mnemonic
(memory traffic, bus locks, import-stub dispatch).
"""

from __future__ import annotations

from ..isa.spec import PERF_CLASS_NAMES, SPEC

#: mnemonic -> base cycle cost, in opcode order.
BASE_COSTS = {name: spec.cost for name, spec in SPEC.items()}

#: Extra cost per memory operand touched.
MEMORY_ACCESS_COST = 3

#: Extra cost of the bus lock taken by LOCK-prefixed instructions and
#: implicitly-locked XCHG-with-memory.
LOCK_COST = 16

#: Fixed dispatch cost of a call through an import stub (PLT-like).
EXTERNAL_CALL_COST = 8

#: Perf-counter instruction classes (``emu.cycles.<class>`` counters).
#: Every spec mnemonic maps to exactly one class; external calls are
#: accounted separately under the synthetic class "external".
INSTR_CLASS_NAMES = PERF_CLASS_NAMES

#: mnemonic -> class, precomputed for the interpreter's hot loop.
INSTR_CLASS = {name: spec.perf_class for name, spec in SPEC.items()}


def classify(mnemonic: str) -> str:
    """The perf-counter class of a mnemonic.

    Total over the spec: an unknown mnemonic raises KeyError instead
    of silently defaulting to "alu" as it used to.
    """
    return INSTR_CLASS[mnemonic]


def static_cost(instr) -> int:
    """The full static cycle cost of one decoded instruction.

    Base cost + bus-lock penalty for atomic RMWs + memory traffic per
    explicit memory operand.  This is the one definition shared by the
    plan cache (``Machine._plan_at``) and the reference interpreter —
    both must charge identical cycles or the engines diverge.
    """
    from ..isa.instructions import Mem
    cost = BASE_COSTS[instr.mnemonic]
    if instr.is_atomic:
        cost += LOCK_COST
    cost += MEMORY_ACCESS_COST * sum(
        1 for op in instr.operands if isinstance(op, Mem))
    return cost


def _validate() -> None:
    """Totality: costs and classes exist for every spec mnemonic, carry
    no strays, and use only declared class names."""
    assert set(BASE_COSTS) == set(SPEC), \
        "BASE_COSTS out of sync with the ISA spec"
    assert set(INSTR_CLASS) == set(SPEC), \
        "INSTR_CLASS out of sync with the ISA spec"
    unknown = set(INSTR_CLASS.values()) - set(INSTR_CLASS_NAMES)
    assert not unknown, f"unknown perf classes {unknown}"


_validate()
