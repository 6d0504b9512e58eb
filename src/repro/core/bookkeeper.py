"""State Bookkeeper (Figure 1c): Mux's own metadata, lazily persisted (§2.3).

BLT deltas, affinity changes and collective-inode attributes are appended
as records to a metafile on the fastest tier; records are batched and made
durable every ``META_SYNC_RECORDS`` records — the paper's lazy
synchronization — and namespace changes are made durable at once.  The
writer exists before any tier does: with nowhere to write yet there is
nothing to record, so callers just ``note``.

How a flush reaches the home depends on what the home offers.  A home
with a DAX path (NOVA on PM) maps the metafile, the way the SCM cache maps
its file (§2.5), and an append is two persist points: the records are
stored and flushed through the mapping, then the log's 8-byte end offset
is stored and flushed in the header, and one fence orders both — the
shape of NOVA's own log append, without a copy-on-write of the block the
records land in.  The header is the file's first 8 bytes; the model's
records are zero placeholders, so it shares the log's first cache line.
The log grows one whole block at a time, by a file write when an append
first reaches a block, and the mapping learns just that block.  Any other
home gets a file write, plus an fsync when the flush must be durable.
"""

from __future__ import annotations

from typing import Optional

from repro.core import calibration as cal
from repro.core.tierfiles import retry_transient
from repro.errors import DeviceError, NotSupported
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.vfs.interface import FileHandle, FileSystem

META_FILE = "/.mux_meta"
#: the header: the log's end offset, which every DAX append stores
HEADER_BYTES = 8


class MuxMetaWriter:
    """Appends Mux metadata records to the metafile of its current home."""

    #: the metafile is a circular log: once it reaches this size, appends
    #: wrap (a real implementation would checkpoint + truncate)
    MAX_BYTES = 4 * 1024 * 1024

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.fs: Optional[FileSystem] = None
        self._handle: Optional[FileHandle] = None
        #: the metafile's DAX mapping, when its home has a DAX path
        self._map = None
        self._offset = 0
        self._buffered = 0
        self.stats = CounterSet()

    def rehome(self, fs: FileSystem) -> None:
        """Keep the metafile on ``fs`` (the fastest tier), starting it afresh
        when that is a new home."""
        if fs is self.fs:
            return
        self.close()
        if fs.exists(META_FILE):
            fs.unlink(META_FILE)
        self.fs = fs
        self._handle = fs.create(META_FILE)
        self._offset = 0
        try:
            self._map = fs.dax_map(self._handle)
        except NotSupported:
            self._map = None

    def note(self, records: int, flush: bool = False) -> None:
        """Buffer ``records`` metadata records; flush on the sync interval,
        or at once when ``flush`` (namespace changes persist immediately)."""
        if self.fs is None:
            return
        self._buffered += records
        self.stats.add("records", records)
        if flush or self._buffered >= cal.META_SYNC_RECORDS:
            self.flush()

    def flush(self, durable: bool = True) -> None:
        """Append buffered records to the metafile.

        ``durable=False`` writes the records but skips the explicit fsync —
        used when the caller is about to fsync data on the same file
        system, whose (file-system-global) journal commit covers the
        metafile update too.  A DAX append is durable either way.
        """
        if self._buffered == 0:
            return
        payload = bytes(self._buffered * cal.META_RECORD_BYTES)
        if self._offset + len(payload) > self.MAX_BYTES:
            self._offset = 0

        def append() -> None:
            if self._map is not None:
                self._store(payload)
            else:
                self._write(payload, durable)

        try:
            retry_transient(
                self.clock, append, lambda _delay: self.stats.add("flush_retries")
            )
        except DeviceError:
            # the bookkeeping tier is failing hard: keep the records
            # buffered and let a later flush retry — lazy sync already
            # tolerates a durability window, and a user op must not fail
            # (nor a tier's health move) because Mux's own append did
            self.stats.add("flush_deferred")
            return
        self._offset += len(payload)
        self._buffered = 0
        self.stats.add("flushes")
        if self._map is not None:
            self.stats.add("dax_flushes")
        self.stats.add("bytes", len(payload))

    def _write(self, payload: bytes, durable: bool) -> None:
        self.fs.write(self._handle, self._offset, payload)
        if durable:
            self.fs.fsync(self._handle)

    def _store(self, payload: bytes) -> None:
        """Append ``payload`` at the log offset through the DAX mapping:
        records, then the header's end offset, each stored and flushed,
        then one fence.  A retry after a transient error stores again, but
        never grows the log into a block it already grew into."""
        mapping = self._map
        bs = mapping.block_size
        start = self._offset
        end = start + len(payload)
        have = mapping.blocks
        need = -(-end // bs)
        if need > have:
            self.fs.write(self._handle, have * bs, bytes((need - have) * bs))
            mapping.grow(need - have)
            self.stats.add("growth_writes")
            self.stats.add("growth_bytes", (need - have) * bs)
        pos = start
        while pos < end:
            block, offset = divmod(pos, bs)
            take = min(end - pos, bs - offset)
            mapping.store(block, offset, payload[pos - start : pos - start + take])
            pos += take
        mapping.store(0, 0, end.to_bytes(HEADER_BYTES, "little"))
        mapping.fence()

    def home_bytes(self) -> int:
        """Bytes the appends put on the home: the records, plus on a DAX
        home each append's header store and each growth write's zeros."""
        s = self.stats
        dax = HEADER_BYTES * s.get("dax_flushes") + s.get("growth_bytes")
        return s.get("bytes") + dax

    def replay(self) -> None:
        """Recovery: charge the metafile scan that rebuilds Mux's state."""
        if self.fs is not None and self.fs.exists(META_FILE):
            self.fs.read_file(META_FILE)

    def close(self) -> None:
        self.flush()
        self._map = None
        if self._handle is not None and self._handle.is_open:
            self.fs.close(self._handle)
