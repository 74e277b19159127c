"""The VXE binary image format.

A VXE image is the moral equivalent of a small static ELF executable:
named sections mapped at fixed virtual addresses, an entry point, an
import table naming external library functions, and an optional symbol
table.  Images serialise to bytes so the artifact cache and batch jobs can
store inputs and outputs on disk, and so the "no relocation information"
property of the paper's target binaries holds: sections are mapped at
their original load addresses and code/data pointers are absolute.

External functions are called through fixed *import stubs*: import slot
``i`` lives at ``IMPORT_STUB_BASE + i * IMPORT_STUB_SIZE``; a transfer
to that address is dispatched to the hosting environment's library
implementation.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

IMPORT_STUB_BASE = 0x7F000000
IMPORT_STUB_SIZE = 16

MAGIC = b"VXE1"


class ImageError(Exception):
    """Raised for malformed images and duplicate/missing sections."""
    pass


@dataclass
class Section:
    """A contiguous region of the image."""

    name: str
    addr: int
    data: bytearray
    executable: bool = False
    writable: bool = False

    @property
    def size(self) -> int:
        """Section length in bytes."""
        return len(self.data)

    @property
    def end(self) -> int:
        """One past the section's last address."""
        return self.addr + len(self.data)

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside this section."""
        return self.addr <= addr < self.end


@dataclass
class Image:
    """A loadable VXE binary."""

    entry: int = 0
    sections: List[Section] = field(default_factory=list)
    imports: List[str] = field(default_factory=list)
    #: Known function symbols (may be empty for stripped binaries).
    symbols: Dict[str, int] = field(default_factory=dict)
    #: Free-form metadata (compiler flags, source name, ...).
    metadata: Dict[str, str] = field(default_factory=dict)

    # -- section management -------------------------------------------------

    def add_section(self, name: str, addr: int, data: bytes,
                    executable: bool = False, writable: bool = False) -> Section:
        """Attach a section; rejects overlaps and duplicate names."""
        section = Section(name, addr, bytearray(data),
                          executable=executable, writable=writable)
        for existing in self.sections:
            if addr < existing.end and existing.addr < addr + len(data):
                raise ImageError(
                    f"section {name!r} overlaps {existing.name!r}")
        self.sections.append(section)
        return section

    def section(self, name: str) -> Section:
        """Look a section up by name or raise ImageError."""
        for section in self.sections:
            if section.name == name:
                return section
        raise ImageError(f"no section named {name!r}")

    def has_section(self, name: str) -> bool:
        """True if a section with this name exists."""
        return any(section.name == name for section in self.sections)

    def section_at(self, addr: int) -> Optional[Section]:
        """The section containing ``addr``, or None."""
        for section in self.sections:
            if section.contains(addr):
                return section
        return None

    # -- imports -------------------------------------------------------------

    def import_slot(self, name: str) -> int:
        """Address of the import stub for ``name``, adding it if new."""
        if name not in self.imports:
            self.imports.append(name)
        return IMPORT_STUB_BASE + self.imports.index(name) * IMPORT_STUB_SIZE

    def import_name(self, addr: int) -> Optional[str]:
        """Import name for a stub address, or None."""
        if addr < IMPORT_STUB_BASE:
            return None
        slot, offset = divmod(addr - IMPORT_STUB_BASE, IMPORT_STUB_SIZE)
        if offset != 0 or slot >= len(self.imports):
            return None
        return self.imports[slot]

    @staticmethod
    def is_import_address(addr: int) -> bool:
        """True for addresses inside the import-stub window."""
        return addr >= IMPORT_STUB_BASE

    # -- symbols -------------------------------------------------------------

    def symbol(self, name: str) -> int:
        """Resolve a symbol name to its address or raise ImageError."""
        try:
            return self.symbols[name]
        except KeyError:
            raise ImageError(f"no symbol {name!r}")

    def stripped(self) -> "Image":
        """Return a copy with the symbol table removed."""
        copy = Image(entry=self.entry, imports=list(self.imports),
                     metadata=dict(self.metadata))
        for section in self.sections:
            copy.add_section(section.name, section.addr, bytes(section.data),
                             executable=section.executable,
                             writable=section.writable)
        return copy

    # -- (de)serialisation ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the on-disk VXE format (JSON header + payload)."""
        header = {
            "entry": self.entry,
            "imports": self.imports,
            "symbols": self.symbols,
            "metadata": self.metadata,
            "sections": [
                {
                    "name": section.name,
                    "addr": section.addr,
                    "size": section.size,
                    "executable": section.executable,
                    "writable": section.writable,
                }
                for section in self.sections
            ],
        }
        blob = json.dumps(header).encode("utf-8")
        out = bytearray(MAGIC)
        out += struct.pack("<I", len(blob))
        out += blob
        for section in self.sections:
            out += section.data
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Image":
        """Parse a VXE byte string back into an Image."""
        if data[:4] != MAGIC:
            raise ImageError("bad magic")
        try:
            (blob_len,) = struct.unpack_from("<I", data, 4)
            header = json.loads(data[8:8 + blob_len].decode("utf-8"))
            image = cls(entry=header["entry"],
                        imports=list(header["imports"]),
                        symbols=dict(header["symbols"]),
                        metadata=dict(header.get("metadata", {})))
            pos = 8 + blob_len
            for meta in header["sections"]:
                payload = data[pos:pos + meta["size"]]
                if len(payload) != meta["size"]:
                    raise ImageError("truncated section payload")
                image.add_section(meta["name"], meta["addr"], payload,
                                  executable=meta["executable"],
                                  writable=meta["writable"])
                pos += meta["size"]
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise ImageError(f"malformed header: "
                             f"{type(exc).__name__}: {exc}") from exc
        return image

    def save(self, path) -> None:
        """Write the VXE serialisation to a path."""
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Image":
        """Read a VXE file from a path; a malformed file raises
        :class:`ImageError` naming the path."""
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            return cls.from_bytes(data)
        except ImageError as exc:
            raise ImageError(f"{path}: {exc}") from exc
