"""Shared result type for the baseline recompilers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..binfmt import Image


@dataclass
class BaselineOutcome:
    """Result of attempting a baseline recompilation.

    ``supported`` is False when the tool *refused* the input (a static
    precondition failed).  A produced image can still be *incorrect* —
    the support-matrix experiment (Table 1) runs it and validates the
    observable behaviour against the original binary.
    """

    tool: str
    supported: bool
    image: Optional[Image] = None
    reason: str = ""
    lift_seconds: float = 0.0
    trace_instructions: int = 0
