"""Exact integer arithmetic shared by the compiler, optimiser and emulator."""

from __future__ import annotations

from typing import Tuple


def trunc_divmod(a: int, b: int) -> Tuple[int, int]:
    """C-style signed division of ``a`` by a non-zero ``b``.

    The quotient is rounded toward zero and the remainder takes the
    dividend's sign (``a == q * b + r``).  Pure integer arithmetic, so
    it stays exact for operands beyond float precision (|a| > 2**53).
    """
    quot = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quot = -quot
    return quot, a - quot * b
