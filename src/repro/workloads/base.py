"""Workload model: a MiniC program plus its execution environments.

A workload couples source code with input configurations ("small",
"medium", "large" — mirroring Phoenix's dataset tiers) and knows how to
build a fresh :class:`ExternalLibrary` per run.  Compiled images are
cached per (name, opt_level) since compilation is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..binfmt import Image
from ..emulator import ExternalLibrary
from ..minicc import compile_minic

_image_cache: Dict[Tuple[str, int, bool], Image] = {}


@dataclass
class InputSpec:
    """One concrete input configuration for a workload run."""

    params: Tuple[int, ...] = ()
    input_blob: bytes = b""
    fs: Optional[Dict[str, bytes]] = None
    net_script: Optional[List[List[tuple]]] = None
    omp_threads: int = 4


@dataclass
class Workload:
    """A named benchmark program: MiniC source plus sized input generators."""
    name: str
    group: str                   # phoenix | gapbs | ckit | realworld | spec
    source: str
    #: input size name -> InputSpec builder (callable, fresh per call).
    inputs: Dict[str, Callable[[], InputSpec]] = field(default_factory=dict)
    #: default input size used by tests/benches.
    default_size: str = "small"
    multithreaded: bool = True
    #: Original block addresses needing a manual non-spinloop override
    #: in the fence optimisation (coverage gaps, §4.3).  Filled lazily
    #: by analysis helpers; kept here for bookkeeping.
    notes: str = ""

    def compile(self, opt_level: int = 3,
                vectorize: bool = True) -> Image:
        """Compile the workload's source to a VXE image (cached per opt level)."""
        key = (self.name, opt_level, vectorize)
        cached = _image_cache.get(key)
        if cached is None:
            cached = compile_minic(self.source, opt_level=opt_level,
                                   vectorize=vectorize, name=self.name)
            _image_cache[key] = cached
        return cached

    def input_spec(self, size: Optional[str] = None) -> InputSpec:
        """The input parameters and external state for a given size tier."""
        size = size or self.default_size
        return self.inputs[size]()

    def library(self, size: Optional[str] = None) -> ExternalLibrary:
        """A fresh ExternalLibrary preloaded with this workload's inputs."""
        spec = self.input_spec(size)
        return ExternalLibrary(input_blob=spec.input_blob,
                               params=spec.params, fs=spec.fs,
                               net_script=spec.net_script,
                               omp_threads=spec.omp_threads)

    def library_factory(self, size: Optional[str] = None):
        """A zero-argument factory returning fresh libraries (the shape
        the dynamic analyses expect)."""
        return lambda: self.library(size)


def lcg_bytes(seed: int, count: int) -> bytes:
    """Deterministic pseudo-random bytes (shared by input builders)."""
    out = bytearray()
    state = seed & 0xFFFFFFFF
    for _ in range(count):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        out.append((state >> 16) & 0xFF)
    return bytes(out)
