"""Host-speed sampling, to report timings at a fixed reference speed.

On a shared host the same work takes up to 1.8 times longer in some
minutes than in others, as other tenants load the physical cores.  A
fixed probe (a small register-machine interpreter, the same kind of
work the emulator and the recompiler do: bytecode dispatch, integer
arithmetic, dict traffic, tuple allocation) is timed from a SIGALRM
handler every :data:`PERIOD_S` while the benchmark runs.  The probe
is part of the benchmark, not of the program, so a change to the
program cannot change it.

:func:`reference_seconds` turns the wall time of an interval into the
time it would have taken at :data:`REFERENCE_PROBE_S` per probe: each
probe's duration says how slow the host was around it, and the probe
time itself is taken out of the interval.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: How often the probe runs (wall seconds).
PERIOD_S = 0.02

#: Steps of the probe's register machine per sample.
PROBE_STEPS = 1500

#: One probe's duration on a quiet host (x86-64 Xeon, Python 3.11): the
#: speed that reference seconds are given at.
REFERENCE_PROBE_S = 0.00032

#: Samples this far outside an interval also describe its host speed,
#: so a short job still gets several samples.
MARGIN_S = 0.25

#: The probe program: a loop mixing arithmetic, dict-backed memory
#: loads and stores, and a call that allocates tuples.
_PROGRAM = (
    ("li", 0, 0), ("li", 1, 1), ("li", 2, 0x9E3779B9),
    ("add", 0, 1), ("mul", 2, 0), ("xor", 2, 1), ("st", 2, 0),
    ("ld", 3, 1), ("add", 1, 3), ("shr", 3, 7), ("st", 3, 2),
    ("call", 0, 0), ("jmp", 0, 3),
)


def probe(steps: int = PROBE_STEPS) -> int:
    """Run the probe program for ``steps`` steps."""
    regs = [0] * 4
    mem = {}
    frames = []
    mask = 0xFFFFFFFF
    pc = 0
    for _ in range(steps):
        op, a, b = _PROGRAM[pc]
        pc += 1
        if op == "li":
            regs[a] = b
        elif op == "add":
            regs[a] = (regs[a] + regs[b]) & mask
        elif op == "mul":
            regs[a] = (regs[a] * (regs[b] | 1)) & mask
        elif op == "xor":
            regs[a] ^= regs[b]
        elif op == "shr":
            regs[a] >>= b
        elif op == "st":
            mem[regs[b] & 0x3FFF] = regs[a]
        elif op == "ld":
            regs[a] = mem.get(regs[b] & 0x3FFF, 0)
        elif op == "call":
            frames.append((pc, regs[0], regs[2]))
        else:
            pc = b
    return regs[0] ^ len(mem) ^ len(frames)


class Sampler:
    """Times :func:`probe` every :data:`PERIOD_S` from a SIGALRM
    handler.  ``samples`` holds ``(monotonic end, seconds)`` pairs."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        started = time.monotonic()
        probe()
        ended = time.monotonic()
        self.samples.append((ended, ended - started))

    def start(self) -> None:
        for _ in range(20):  # warm the probe before the first sample
            probe()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float) -> float:
        """The reference-speed seconds of the monotonic interval
        ``[start, end]``: its wall time without the probes inside it,
        scaled by the mean host speed of the probes within
        :data:`MARGIN_S` of it."""
        inside = sum(seconds for at, seconds in self.samples
                     if start <= at - seconds and at <= end)
        near = [seconds for at, seconds in self.samples
                if start - MARGIN_S <= at <= end + MARGIN_S]
        if not near:
            raise RuntimeError("no host-speed sample near the interval")
        speed = sum(REFERENCE_PROBE_S / seconds for seconds in near) \
            / len(near)
        return (end - start - inside) * speed
