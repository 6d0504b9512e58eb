"""File metadata structures shared across the VFS boundary."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, NamedTuple, Tuple


class FileType(Enum):
    REGULAR = "reg"
    DIRECTORY = "dir"


#: The metadata attributes Mux tracks affinity for (§2.3).  ``size`` and the
#: three timestamps are the ones the paper walks through; ``mode``/``nlink``
#: follow the same single-owner rule; ``blocks`` (disk consumption) is the
#: paper's example of an attribute that *cannot* have a single owner and is
#: aggregated across all participating file systems instead.
SINGLE_OWNER_ATTRS: Tuple[str, ...] = ("size", "atime", "mtime", "ctime", "mode")
AGGREGATED_ATTRS: Tuple[str, ...] = ("blocks",)


@dataclass
class Stat:
    """Result of a ``getattr`` call; mirrors ``struct stat`` fields we model."""

    ino: int
    file_type: FileType
    size: int = 0
    blocks: int = 0  # allocated 512-byte units, like st_blocks
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    mode: int = 0o644
    nlink: int = 1
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def is_dir(self) -> bool:
        return self.file_type is FileType.DIRECTORY

    def copy(self) -> "Stat":
        return replace(self, extra=dict(self.extra))


class FsStats(NamedTuple):
    """Result of ``statfs``: space accounting for one file system (a
    ``NamedTuple``: placement reads several per write)."""

    block_size: int
    total_blocks: int
    free_blocks: int

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self.free_blocks

    @property
    def total_bytes(self) -> int:
        return self.total_blocks * self.block_size

    @property
    def free_bytes(self) -> int:
        return self.free_blocks * self.block_size

    @property
    def used_bytes(self) -> int:
        return self.used_blocks * self.block_size

    @property
    def utilization(self) -> float:
        if self.total_blocks == 0:
            return 0.0
        return self.used_blocks / self.total_blocks
