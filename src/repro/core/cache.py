"""SCM cache manager (§2.5).

Mux uses a persistent-memory tier as a *shared* cache for the slower tiers
(the per-FS DRAM page caches cannot be shared across devices).  Per the
paper, the cache lives in **one preallocated cache file** on the SCM file
system, accessed through **DAX memory mapping** so cached reads bypass the
file-system call path entirely, and replacement uses Multi-generational
LRU.

The model does exactly that: at attach time it creates and preallocates
``/.mux_cache`` through the hosting tier's file system (charging the real
allocation cost), maps it with :meth:`FileSystem.dax_map` (the mmap), and
thereafter serves hits and fills through the mapping — slot ``i`` is file
block ``i`` — plus the small bookkeeping costs from
:mod:`repro.core.calibration`.  Any file system that can map a file can
host the cache; this module names none.

One optional mode (default-off so the write-invalidate fingerprints stay
bit-identical), **write-back** (``write_back=True``): writes to
cache-resident blocks update the DAX slot in place and mark the block
dirty in a per-file :class:`~repro.core.intervals.BlockIntervalSet`;
dirty runs are later destaged to the owning slow tier in coalesced
batches via the ``destage_fn`` callback installed by the Mux layer
(eviction, fsync, close, migration and the writeback budget all trigger
it there).

A per-ino secondary index keeps :meth:`invalidate_file` and
:meth:`invalidate_range` O(blocks-of-the-file) instead of O(cache).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core import calibration as cal
from repro.core.intervals import BlockIntervalSet, Run
from repro.core.mglru import MultiGenLru
from repro.errors import CrashTriggered, NotSupported, ReproError
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.vfs.interface import FileSystem, OpenFlags

CACHE_FILE = "/.mux_cache"

CacheKey = Tuple[int, int]  # (mux ino, file block)

#: a cached/uncached segment of a span: (first_block, count, cached)
SpanRun = Tuple[int, int, bool]

#: destage callback installed by Mux: (ino, dirty runs) -> None.  Must
#: write the runs to the owning tier(s) and :meth:`mark_clean` what it
#: managed to persist.
DestageFn = Callable[[int, List[Run]], None]


class ScmCacheManager:
    """Shared block cache in a DAX-mapped file on the SCM tier."""

    def __init__(
        self,
        clock: SimClock,
        scm_fs: FileSystem,
        capacity_blocks: int,
        block_size: int,
        write_back: bool = False,
    ) -> None:
        if capacity_blocks <= 0:
            raise ValueError("cache needs positive capacity")
        self.clock = clock
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self.write_back = write_back
        self.stats = CounterSet()
        self._mglru: MultiGenLru[CacheKey] = MultiGenLru(capacity_blocks)
        #: key -> slot index in the cache file
        self._slots: Dict[CacheKey, int] = {}
        self._free_slots: List[int] = list(range(capacity_blocks - 1, -1, -1))
        #: ino -> cached file blocks (secondary index for invalidation)
        self._by_ino: Dict[int, Set[int]] = {}
        #: ino -> dirty (written-back-pending) blocks; always a subset of
        #: the cached blocks of that ino
        self._dirty: Dict[int, BlockIntervalSet] = {}
        #: installed by Mux once it can route destage writes to tiers
        self.destage_fn: Optional[DestageFn] = None
        #: installed by Mux: called with (ino, [(fb, count)]) whenever an
        #: absorbed write is dropped because its destage failed, so the
        #: loss can be latched on the inode (errseq) and reported by fsck
        self.on_lost: Optional[Callable[[int, List[Run]], None]] = None
        #: dirty intervals dropped by failed destages, for fsck reporting:
        #: ino -> [(file_block, count)]
        self._lost: Dict[int, List[Run]] = {}
        self._map = self._map_cache_file(scm_fs)

    def _map_cache_file(self, scm_fs: FileSystem):
        """Create, preallocate and DAX-map the cache file."""
        if scm_fs.exists(CACHE_FILE):
            scm_fs.unlink(CACHE_FILE)
        handle = scm_fs.create(CACHE_FILE)
        try:
            # probe on the empty file: a file system with no DAX path
            # answers NotSupported before a byte is preallocated
            scm_fs.dax_map(handle)
            # preallocate: write zeros so every slot has a block.  The
            # chunk buffer is built once — per-iteration ``zero * n``
            # allocation used to dominate build_stack host time — and the
            # write calls (offsets and sizes) are unchanged, so the charged
            # simulated cost is identical.
            zero = bytes(self.block_size)
            chunk_blocks = 256
            chunk = zero * chunk_blocks
            written = 0
            while written < self.capacity_blocks:
                n = min(chunk_blocks, self.capacity_blocks - written)
                buf = chunk if n == chunk_blocks else zero * n
                scm_fs.write(handle, written * self.block_size, buf)
                written += n
            return scm_fs.dax_map(handle)
        except NotSupported:
            scm_fs.unlink(CACHE_FILE)  # leave nothing on a tier that cannot host
            raise
        finally:
            scm_fs.close(handle)

    # -- lookups -----------------------------------------------------------

    def get(self, ino: int, file_block: int) -> Optional[bytes]:
        """Cached block contents, or None.  Hits are DAX loads."""
        self.clock.advance_ns(cal.CACHE_LOOKUP_NS)
        key = (ino, file_block)
        slot = self._slots.get(key)
        if slot is None:
            self.stats.add("miss")
            return None
        self._mglru.touch(key)
        self.clock.advance_ns(cal.CACHE_MGLRU_NS)
        self.stats.add("hit")
        return self._map.load(slot)

    def contains(self, ino: int, file_block: int) -> bool:
        """Membership probe with no charges or stats (batch-path planning)."""
        return (ino, file_block) in self._slots

    def span_cached(self, ino: int, first_block: int, count: int) -> List[SpanRun]:
        """Run-length-encoded cached/uncached layout of a span (no charges).

        Returns ``[(start_block, count, cached), ...]`` covering exactly
        ``[first_block, first_block + count)`` in order, so the read path
        can serve interior cached runs rather than falling back to
        per-block probing after the first gap.
        """
        out: List[SpanRun] = []
        if count <= 0:
            return out
        slots = self._slots
        end = first_block + count
        run_start = first_block
        run_cached = (ino, first_block) in slots
        for fb in range(first_block + 1, end):
            cached = (ino, fb) in slots
            if cached != run_cached:
                out.append((run_start, fb - run_start, run_cached))
                run_start = fb
                run_cached = cached
        out.append((run_start, end - run_start, run_cached))
        return out

    def note_misses(self, count: int) -> None:
        """Account ``count`` lookup probes that missed (batch path).

        Timing-equivalent to ``count`` :meth:`get` calls returning None.
        """
        if count <= 0:
            return
        self.clock.advance_ns(count * cal.CACHE_LOOKUP_NS)
        self.stats.add("miss", count)

    def get_many(
        self, ino: int, first_block: int, count: int, out: bytearray, out_off: int
    ) -> None:
        """Fetch ``count`` consecutive cached blocks into ``out``.

        Every block must be cached (check with :meth:`span_cached` first).
        Timing-equivalent to ``count`` :meth:`get` calls: same MGLRU touch
        order and identical per-block lookup/load charges, but slots the
        mapping finds contiguous coalesce into single copies.
        """
        if count <= 0:
            return
        self.clock.advance_ns(count * (cal.CACHE_LOOKUP_NS + cal.CACHE_MGLRU_NS))
        slots: List[int] = []
        for i in range(count):
            key = (ino, first_block + i)
            slot = self._slots[key]
            self._mglru.touch(key)
            slots.append(slot)
        self.stats.add("hit", count)
        self._map.load_blocks(slots, out, out_off)

    # -- fills / invalidation ----------------------------------------------------

    def _claim_slot(self, key: CacheKey) -> int:
        """MGLRU-insert ``key`` (destaging/evicting victims) and assign a slot."""
        for victim in self._mglru.insert(key):
            self._release(victim)
        slot = self._free_slots.pop()
        self._slots[key] = slot
        self._by_ino.setdefault(key[0], set()).add(key[1])
        self.stats.add("fill")
        return slot

    def _release(self, victim: CacheKey) -> None:
        """Free an evicted key's slot, destaging it first if dirty."""
        v_ino, v_fb = victim
        if self.is_dirty(v_ino, v_fb):
            if self.destage_fn is not None:
                try:
                    self.destage_fn(v_ino, [(v_fb, 1)])
                except CrashTriggered:
                    raise  # power loss is not a destage failure to absorb
                except ReproError:
                    pass
            if self.is_dirty(v_ino, v_fb):
                # destage failed (offline tier, no callback): the block is
                # being evicted, so the absorbed write is lost — modeled
                # data loss under cache pressure plus tier failure.  The
                # interval is recorded (not just counted) so fsck can
                # report exactly which bytes vanished, and the mux latches
                # it on the inode's errseq for once-per-fd EIO reporting.
                self.mark_clean(v_ino, v_fb, 1)
                self.stats.add("destage_lost")
                self._lost.setdefault(v_ino, []).append((v_fb, 1))
                if self.on_lost is not None:
                    self.on_lost(v_ino, [(v_fb, 1)])
        self._free_slots.append(self._slots.pop(victim))
        self._index_remove(v_ino, v_fb)
        self.stats.add("evict")

    def _index_remove(self, ino: int, file_block: int) -> None:
        blocks = self._by_ino.get(ino)
        if blocks is not None:
            blocks.discard(file_block)
            if not blocks:
                del self._by_ino[ino]

    def put(self, ino: int, file_block: int, data: bytes) -> None:
        """Insert a (clean) block read from a slow tier."""
        if len(data) != self.block_size:
            raise ValueError("cache stores whole blocks")
        self.put_many(ino, file_block, data)

    def put_many(self, ino: int, first_block: int, data) -> None:
        """Insert consecutive (clean) blocks from block-aligned ``data``.

        Charged as one lookup + MGLRU insert + slot-metadata persist per
        block; inserts and evictions run per key in ascending order (so the
        victim sequence and slot assignment are those of one :meth:`put`
        per block) while the stores/flushes coalesce over the slots the
        mapping finds contiguous.
        """
        bs = self.block_size
        if len(data) == 0 or len(data) % bs:
            raise ValueError("cache stores whole blocks")
        count = len(data) // bs
        self.clock.advance_ns(
            count
            * (cal.CACHE_LOOKUP_NS + cal.CACHE_MGLRU_NS + cal.CACHE_SLOT_META_NS)
        )
        slots: List[int] = []
        for i in range(count):
            key = (ino, first_block + i)
            slot = self._slots.get(key)
            if slot is None:
                slot = self._claim_slot(key)
            slots.append(slot)
        self._map.store_blocks(slots, data)

    # -- write-back --------------------------------------------------------

    def write_hit(
        self, ino: int, file_block: int, data: bytes, offset: int = 0
    ) -> bool:
        """Absorb a write into a cache-resident block (write-back mode).

        Updates the DAX slot in place (a partial block writes only its
        byte range) and marks the whole block dirty.  Returns False when
        write-back is off or the block is not cached — the caller must
        then take the write-invalidate path.
        """
        if not self.write_back:
            return False
        key = (ino, file_block)
        slot = self._slots.get(key)
        if slot is None:
            return False
        if offset < 0 or offset + len(data) > self.block_size:
            raise ValueError("write_hit must stay inside one block")
        self.clock.advance_ns(
            cal.CACHE_LOOKUP_NS + cal.CACHE_MGLRU_NS + cal.CACHE_DIRTY_META_NS
        )
        self._mglru.touch(key)
        self._map.store(slot, offset, bytes(data))
        self._dirty.setdefault(ino, BlockIntervalSet()).add(file_block)
        self.stats.add("write_hit")
        return True

    def is_dirty(self, ino: int, file_block: int) -> bool:
        dirty = self._dirty.get(ino)
        return dirty is not None and file_block in dirty

    def dirty_runs(self, ino: int) -> List[Run]:
        """The file's dirty blocks as sorted (start, length) runs."""
        dirty = self._dirty.get(ino)
        return dirty.runs() if dirty is not None else []

    def dirty_runs_in(self, ino: int, first_block: int, count: int) -> List[Run]:
        """Dirty runs of ``ino`` intersected with ``[first_block, +count)``."""
        dirty = self._dirty.get(ino)
        return dirty.overlap(first_block, count) if dirty is not None else []

    def dirty_files(self) -> List[int]:
        """Inos with at least one dirty block, ascending."""
        return sorted(self._dirty)

    @property
    def dirty_block_count(self) -> int:
        return sum(len(d) for d in self._dirty.values())

    def mark_clean(self, ino: int, first_block: int, count: int) -> None:
        """Clear dirty marks after a destage persisted the blocks."""
        dirty = self._dirty.get(ino)
        if dirty is None:
            return
        dirty.remove_range(first_block, count)
        if not dirty:
            del self._dirty[ino]

    def load_for_destage(self, ino: int, first_block: int, count: int) -> bytes:
        """Read ``count`` consecutive cached blocks for writeback.

        Charges per-block lookups plus coalesced loads, but does *not*
        touch the MGLRU or count hits: a destage is bookkeeping traffic,
        not an access that should renew the blocks' recency.
        """
        self.clock.advance_ns(count * cal.CACHE_LOOKUP_NS)
        slots = [self._slots[(ino, first_block + i)] for i in range(count)]
        out = bytearray(count * self.block_size)
        self._map.load_blocks(slots, out, 0)
        return bytes(out)

    def note_destage(self, runs: int, blocks: int) -> None:
        """Record a completed destage batch (counters only, no charges)."""
        if runs:
            self.stats.add("destage_runs", runs)
        if blocks:
            self.stats.add("destaged_blocks", blocks)

    def lost_intervals(self, ino: Optional[int] = None) -> List[Tuple[int, int, int]]:
        """``(ino, file_block, count)`` intervals dropped by failed destages.

        The ledger survives until :meth:`clear_lost` (or the file's
        invalidation), so fsck can report the loss after recovery instead
        of silently repairing around it.
        """
        if ino is not None:
            return [(ino, fb, n) for fb, n in self._lost.get(ino, [])]
        return [
            (i, fb, n)
            for i in sorted(self._lost)
            for fb, n in self._lost[i]
        ]

    def clear_lost(self, ino: Optional[int] = None) -> None:
        """Acknowledge reported losses (fsck's reconcile does this)."""
        if ino is None:
            self._lost.clear()
        else:
            self._lost.pop(ino, None)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, ino: int, file_block: int) -> bool:
        """Drop a block (called on writes so the cache never serves stale data).

        A dirty mark on the block is dropped with it: invalidation means
        the backing range itself is being rewritten, truncated or punched,
        so the absorbed data is obsolete, not lost.
        """
        key = (ino, file_block)
        slot = self._slots.pop(key, None)
        if slot is None:
            return False
        self._mglru.remove(key)
        self._free_slots.append(slot)
        self._index_remove(ino, file_block)
        dirty = self._dirty.get(ino)
        if dirty is not None:
            dirty.remove_range(file_block, 1)
            if not dirty:
                del self._dirty[ino]
        self.stats.add("invalidate")
        return True

    def invalidate_range(self, ino: int, first_block: int, count: int) -> int:
        """Drop every cached block of ``ino`` in [first_block, +count).

        Equivalent to calling :meth:`invalidate` per block in ascending
        order; the per-ino index makes it O(blocks-of-the-file) however
        large the cache population or the range.
        """
        if count <= 0:
            return 0
        blocks = self._by_ino.get(ino)
        if not blocks:
            return 0
        end = first_block + count
        if len(blocks) < count:
            targets = sorted(fb for fb in blocks if first_block <= fb < end)
        else:
            targets = [fb for fb in range(first_block, end) if fb in blocks]
        for fb in targets:
            self.invalidate(ino, fb)
        return len(targets)

    def invalidate_file(self, ino: int) -> int:
        """Drop every cached block of a file (unlink/truncate)."""
        blocks = self._by_ino.get(ino)
        self._lost.pop(ino, None)  # dead file: its lost intervals are moot
        if not blocks:
            self._dirty.pop(ino, None)  # defensive: orphaned marks die too
            return 0
        targets = sorted(blocks)
        for fb in targets:
            self.invalidate(ino, fb)
        return len(targets)

    # -- introspection -----------------------------------------------------------

    @property
    def cached_blocks(self) -> int:
        return len(self._slots)

    def hit_ratio(self) -> float:
        hits = self.stats.get("hit")
        total = hits + self.stats.get("miss")
        return hits / total if total else 0.0

    def cache_counters(self) -> Dict[str, int]:
        """Stats snapshot plus the current dirty-block gauge."""
        counters = dict(self.stats.snapshot())
        counters["dirty_blocks"] = self.dirty_block_count
        return counters

    def check_invariants(self) -> None:
        self._mglru.check_invariants()
        assert len(self._slots) + len(self._free_slots) == self.capacity_blocks
        assert len(set(self._slots.values())) == len(self._slots)
        for key in self._slots:
            assert key in self._mglru
        # the per-ino index is exactly the slot keys, grouped
        indexed = {
            (ino, fb) for ino, blocks in self._by_ino.items() for fb in blocks
        }
        assert indexed == set(self._slots)
        assert all(self._by_ino.values()), "index keeps no empty entries"
        # dirty blocks are cache-resident and only exist in write-back mode
        for ino, dirty in self._dirty.items():
            assert dirty, "no empty dirty sets"
            assert self.write_back
            cached = self._by_ino.get(ino, set())
            for fb in dirty:
                assert fb in cached, f"dirty block ({ino}, {fb}) not cached"
