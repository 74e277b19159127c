"""The VX machine: multithreaded emulator for VXE images."""

from .costs import (BASE_COSTS, EXTERNAL_CALL_COST, INSTR_CLASS,
                    INSTR_CLASS_NAMES, LOCK_COST, MEMORY_ACCESS_COST)
from .cpu import CpuState, ProfiledCpuState
from .extlib import INPUT_BASE, ExternalLibrary
from .machine import (CycleLimitExceeded, EmulationFault, EXIT_ADDR,
                      HEAP_BASE, Machine, STACK_SIZE, THREAD_EXIT_ADDR,
                      ThreadContext)
from .engine import run_fast
from .memory import Memory, MemoryFault

__all__ = [
    "BASE_COSTS", "EXTERNAL_CALL_COST", "INSTR_CLASS", "INSTR_CLASS_NAMES",
    "LOCK_COST", "MEMORY_ACCESS_COST",
    "CpuState", "ProfiledCpuState", "INPUT_BASE", "ExternalLibrary",
    "CycleLimitExceeded", "EmulationFault", "EXIT_ADDR", "HEAP_BASE",
    "Machine", "STACK_SIZE", "THREAD_EXIT_ADDR", "ThreadContext",
    "Memory", "MemoryFault", "run_fast",
]
