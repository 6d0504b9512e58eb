"""In-memory shadow of every file the benchmark writes.

Each 4 KiB block the benchmark writes carries a stamp of (file id, block
number) and is filled with a version byte that the shadow bumps on every
overwrite, so a read that returns a stale block, a block of another file
or a block from another offset compares unequal.  A block never written
(version 0) must read as zeros.
"""

from __future__ import annotations

import struct
from typing import Dict

BLOCK = 4096
_STAMP = struct.Struct("<II")
_FILL = [bytes([v]) * (BLOCK - _STAMP.size) for v in range(256)]
_HOLE = bytes(BLOCK)


class ContentMismatch(Exception):
    """A read returned bytes the shadow does not expect."""


def block_bytes(fid: int, block: int, version: int) -> bytes:
    if version == 0:
        return _HOLE
    return _STAMP.pack(fid, block) + _FILL[version]


class Shadow:
    """Per-file block-version arrays; a file's length is its array's."""

    def __init__(self) -> None:
        self._versions: Dict[int, bytearray] = {}

    def __contains__(self, fid: int) -> bool:
        return fid in self._versions

    def __len__(self) -> int:
        return len(self._versions)

    def files(self):
        return self._versions.keys()

    def add(self, fid: int) -> None:
        self._versions[fid] = bytearray()

    def drop(self, fid: int) -> None:
        del self._versions[fid]

    def blocks(self, fid: int) -> int:
        return len(self._versions[fid])

    def size(self, fid: int) -> int:
        return len(self._versions[fid]) * BLOCK

    def payload(self, fid: int, first: int, count: int) -> bytes:
        """Bump ``count`` block versions from ``first``; return the bytes to write."""
        versions = self._versions[fid]
        if first + count > len(versions):
            versions.extend(bytes(first + count - len(versions)))
        parts = []
        for block in range(first, first + count):
            version = versions[block] % 255 + 1
            versions[block] = version
            parts.append(_STAMP.pack(fid, block))
            parts.append(_FILL[version])
        return b"".join(parts)

    def versions(self, fid: int, first: int, count: int) -> bytes:
        """Snapshot of a version range (for reads verified after completion)."""
        return bytes(self._versions[fid][first : first + count])

    def expected(self, fid: int, first: int, versions: bytes) -> bytes:
        return b"".join(
            block_bytes(fid, first + i, v) for i, v in enumerate(versions)
        )

    def check(self, fid: int, first: int, versions: bytes, data: bytes) -> None:
        """Raise :class:`ContentMismatch` unless ``data`` is what the
        shadow held for blocks ``[first, first+len(versions))``."""
        if data != self.expected(fid, first, versions):
            raise ContentMismatch(
                f"file {fid} blocks [{first}, {first + len(versions)}): "
                f"read {len(data)} bytes that differ from the shadow"
            )
