"""A flat, named counter registry shared by the emulator and passes.

Counters are dotted names (``emu.atomic_rmws``, ``pass.dce.seconds``;
conventions in ``docs/OBSERVABILITY.md``) mapping to numbers.  The
registry is deliberately dumb — a dict with increment semantics — so
the emulator's hot loop can keep plain attribute counters and publish
them into a :class:`Counters` snapshot only when asked.

The registry is thread-safe: every mutation and every read snapshot
takes an internal lock, so one registry can be shared across threads —
for example the ``cache.*`` counters of an ``ArtifactCache`` that
several threads read through.  Hot loops must *not* call
:meth:`inc` per event — they keep local counters and publish once, so
the lock never shows up in a profile.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple, Union

Number = Union[int, float]


class Counters:
    """Named monotonic counters with prefix queries and reset.

    Safe for concurrent use from multiple threads: individual
    operations (``inc``, ``put``, ``merge``, ``snapshot``) are atomic
    with respect to each other.
    """

    def __init__(self) -> None:
        self._values: Dict[str, Number] = {}
        self._lock = threading.Lock()

    # -- mutation -------------------------------------------------------------

    def inc(self, name: str, amount: Number = 1) -> Number:
        """Add ``amount`` to ``name`` (creating it at 0); returns the
        new value."""
        with self._lock:
            value = self._values.get(name, 0) + amount
            self._values[name] = value
            return value

    def put(self, name: str, value: Number) -> None:
        """Set ``name`` to an absolute value (gauges, derived values)."""
        with self._lock:
            self._values[name] = value

    def merge(self, other: "Counters") -> "Counters":
        """Add every counter from ``other`` into this registry."""
        # Snapshot the source first: taking both locks at once could
        # deadlock against a concurrent merge in the other direction.
        for name, value in other.snapshot().items():
            self.inc(name, value)
        return self

    def reset(self) -> None:
        """Drop every counter — used between runs so measurements from
        one execution never leak into the next."""
        with self._lock:
            self._values.clear()

    # -- queries --------------------------------------------------------------

    def get(self, name: str, default: Number = 0) -> Number:
        with self._lock:
            return self._values.get(name, default)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._values

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def snapshot(self) -> Dict[str, Number]:
        """A name-sorted copy of every counter."""
        with self._lock:
            return {name: self._values[name] for name in sorted(self._values)}

    def with_prefix(self, prefix: str) -> Dict[str, Number]:
        """Counters under ``prefix``, keyed by the remainder of the name."""
        cut = len(prefix)
        return {name[cut:]: value
                for name, value in self.snapshot().items()
                if name.startswith(prefix)}

    def items(self) -> Iterable[Tuple[str, Number]]:
        return list(self.snapshot().items())

    # -- presentation ----------------------------------------------------------

    def format_table(self, prefix: str = "") -> str:
        """A two-column fixed-width rendering (the ``polynima stats``
        output format)."""
        rows: List[Tuple[str, Number]] = [
            (name, value) for name, value in self.items()
            if name.startswith(prefix)]
        if not rows:
            return "(no counters)"
        width = max(len(name) for name, _ in rows)
        lines = []
        for name, value in rows:
            if isinstance(value, float):
                lines.append(f"{name:<{width}}  {value:,.2f}")
            else:
                lines.append(f"{name:<{width}}  {value:,}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Counters n={len(self)}>"
