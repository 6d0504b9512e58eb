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

**A cap that yields.**  The preallocated size is the cache's cap, not a
reservation: PM's free space is one pool and the cache is its last
claimant.  Its host tier counts the slots above :data:`MIN_SLOTS` as
free (:attr:`releasable_bytes`), and when tiered placement, a migration
or a mirror sync needs the room, :meth:`release` gives back enough
slots, at least :data:`MIN_SLOTS` — free ones first, then keys
oldest-first in MGLRU order, a dirty one through destage — and punches
each out of the cache file so the file system really frees its block.
A punched slot stays punched: the cache only ever shrinks, and a fill
uses the slots it still has.

**Admission.**  A fill copies a missed block in for free while a slot is
free.  Past that it would evict a block that may be read again, so a
full cache admits a block only on its second miss: a first miss is
refused — no slot, no MGLRU insert, no slot-metadata persist, no DAX
store, only its lookup is charged — and the key joins the *ghost set*,
a FIFO of at most ``capacity_blocks`` refused keys.  A later miss on a
ghost admits it.  One-read blocks (a scan, the cold tail of a skewed
stream) then stop pushing reused ones out, and stop costing PM writes
that no read repays.  The ghost set is a volatile hint, not data: a
crash forgets it.

**Fill behind the read.**  A read-miss fill (:meth:`put_many`) runs on a
background clock frame and :meth:`note_landing` records when it lands.
A hit or an absorbed write on a block whose fill has not landed waits,
after its lookup and MGLRU touch, until it lands and no longer, as a
second reader of a page under I/O waits on the page lock.  An entry
leaves that map on a hit, an eviction, an invalidation, or once the
global clock has passed it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core import calibration as cal
from repro.core.intervals import BlockIntervalSet, Run
from repro.core.mglru import MultiGenLru
from repro.errors import CrashTriggered, NotSupported, ReproError
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.vfs.interface import FileSystem, OpenFlags

CACHE_FILE = "/.mux_cache"

#: slots the cache keeps however hard PM is claimed; also the least it
#: gives back at once, so a stream of small claims does not punch slots
#: one at a time
MIN_SLOTS = 16

#: in-flight fill entries kept before landed ones are pruned
LANDING_PRUNE_AT = 64

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
        #: backed slots no key holds, taken from the end
        self._free_slots: List[int] = list(range(capacity_blocks - 1, -1, -1))
        #: slots punched out of the cache file: they hold no PM block and
        #: no key ever takes them again
        self._punched: List[int] = []
        #: ino -> cached file blocks (secondary index for invalidation)
        self._by_ino: Dict[int, Set[int]] = {}
        #: ino -> dirty (written-back-pending) blocks; always a subset of
        #: the cached blocks of that ino
        self._dirty: Dict[int, BlockIntervalSet] = {}
        #: blocks in all of ``_dirty``, kept in step where a block turns
        #: dirty or clean (the write-back trigger reads it after every
        #: absorbed write)
        self.dirty_block_count = 0
        #: installed by Mux once it can route destage writes to tiers
        self.destage_fn: Optional[DestageFn] = None
        #: installed by Mux: called with (ino, [(fb, count)]) whenever an
        #: absorbed write is dropped because its destage failed, so the
        #: loss can be latched on the inode (errseq) and reported by fsck
        self.on_lost: Optional[Callable[[int, List[Run]], None]] = None
        #: dirty intervals dropped by failed destages, for fsck reporting:
        #: ino -> [(file_block, count)]
        self._lost: Dict[int, List[Run]] = {}
        #: key -> simulated time its background fill lands (may be past)
        self._landing: Dict[CacheKey, int] = {}
        self._prune_at = LANDING_PRUNE_AT
        #: keys refused a slot, oldest first: volatile hints that admit a
        #: key on its next miss, at most ``capacity_blocks`` of them
        self._ghost: "OrderedDict[CacheKey, None]" = OrderedDict()
        self._fs = scm_fs
        self._handle, self._map = self._map_cache_file(scm_fs)

    def _map_cache_file(self, scm_fs: FileSystem):
        """Create, preallocate and DAX-map the cache file; the handle stays
        open for the punches that shrink it."""
        if scm_fs.exists(CACHE_FILE):
            scm_fs.unlink(CACHE_FILE)
        handle = scm_fs.create(CACHE_FILE)
        mapped = False
        try:
            # probe on the empty file: a file system with no DAX path
            # answers NotSupported before a byte is preallocated
            scm_fs.dax_map(handle)
            # preallocate: write zeros, 256 blocks a call, so every slot
            # has a block
            bs = self.block_size
            chunk = bytes(256 * bs)
            for first in range(0, self.capacity_blocks, 256):
                n = min(256, self.capacity_blocks - first)
                scm_fs.write(handle, first * bs, chunk[: n * bs])
            mapping = scm_fs.dax_map(handle)
            mapped = True
            return handle, mapping
        except NotSupported:
            scm_fs.unlink(CACHE_FILE)  # leave nothing on a tier that cannot host
            raise
        finally:
            if not mapped:
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
        self._await_fills(ino, file_block, 1)
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
        self._await_fills(ino, first_block, count)
        self._map.load_blocks(slots, out, out_off)

    def _await_fills(self, ino: int, first_block: int, count: int) -> None:
        """Before a DAX access: wait until the blocks' fills have landed."""
        if not self._landing:
            return
        for fb in range(first_block, first_block + count):
            landed = self._landing.pop((ino, fb), None)
            if landed is not None:
                self.clock.advance_to(landed)

    # -- fills / invalidation ----------------------------------------------------

    def _release(self, victim: CacheKey) -> None:
        """Free an evicted key's slot, destaging it first if dirty."""
        v_ino, v_fb = victim
        dirty = self._dirty.get(v_ino)  # is_dirty, inlined: most victims are clean
        if dirty is not None and v_fb in dirty:
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
        self._landing.pop(victim, None)
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

    def put_many(self, ino: int, first_block: int, data) -> int:
        """Insert consecutive (clean) blocks from block-aligned ``data``;
        returns how many blocks it stored.

        A missed block takes a free slot; past those it needs an eviction,
        and only a ghost is admitted to one — any other is refused and
        becomes a ghost.
        Charged one lookup per block, plus an MGLRU insert and a
        slot-metadata persist per block not refused; inserts and evictions
        run per key in ascending order (so the victim sequence and slot
        assignment are those of one :meth:`put` per block) while the
        stores/flushes coalesce over the slots the mapping finds
        contiguous.
        """
        bs = self.block_size
        if len(data) == 0 or len(data) % bs:
            raise ValueError("cache stores whole blocks")
        count = len(data) // bs
        slot_of = self._slots
        free = self._free_slots
        ghost = self._ghost
        refused: Set[int] = set()
        if len(free) < count:
            missed = [
                fb
                for fb in range(first_block, first_block + count)
                if (ino, fb) not in slot_of
            ]
            refused = {fb for fb in missed[len(free) :] if (ino, fb) not in ghost}
        self.clock.advance_ns(
            count * cal.CACHE_LOOKUP_NS
            + (count - len(refused)) * (cal.CACHE_MGLRU_NS + cal.CACHE_SLOT_META_NS)
        )
        insert = self._mglru.insert
        slots: List[int] = []
        filled = ghosted = 0
        try:
            for fb in range(first_block, first_block + count):
                key = (ino, fb)
                slot = slot_of.get(key)
                if slot is None:
                    if fb in refused:
                        ghost[key] = None
                        if len(ghost) > self.capacity_blocks:
                            ghost.popitem(last=False)
                        ghosted += 1
                        continue
                    # claim a slot: MGLRU-insert (destaging/evicting
                    # victims), then take a free slot and index it
                    for victim in insert(key):
                        self._release(victim)
                    slot = slot_of[key] = free.pop()
                    self._by_ino.setdefault(ino, set()).add(fb)
                    ghost.pop(key, None)
                    filled += 1
                slots.append(slot)
        finally:
            if filled:
                self.stats.add("fill", filled)
            if ghosted:
                self.stats.add("refused", ghosted)
        if refused:
            view = memoryview(data)
            data = b"".join(
                view[i * bs : (i + 1) * bs]
                for i in range(count)
                if first_block + i not in refused
            )
        if slots:
            self._map.store_blocks(slots, data)
        return count - len(refused)

    # -- sharing PM --------------------------------------------------------

    @property
    def backed_blocks(self) -> int:
        """Slots that hold a PM block: the cache's size now, at most
        ``capacity_blocks``, its cap."""
        return self.capacity_blocks - len(self._punched)

    @property
    def releasable_bytes(self) -> int:
        """Host PM the cache gives back on demand: its backed slots above
        :data:`MIN_SLOTS`."""
        return max(0, self.backed_blocks - MIN_SLOTS) * self.block_size

    def release(self, nbytes: int) -> bool:
        """Give back whole slots covering ``nbytes`` of the host's PM, and
        at least :data:`MIN_SLOTS` while more than that are above the floor.

        Free slots go first; then keys leave oldest-first in MGLRU order,
        a dirty one through destage as on any eviction.  Each freed slot
        is punched out of the cache file, so the host file system frees
        its block.  Asked for more than :attr:`releasable_bytes`, it
        releases nothing and returns False.
        """
        need = -(-nbytes // self.block_size)
        if need > self.backed_blocks - MIN_SLOTS:
            return False
        need = min(max(need, MIN_SLOTS), self.backed_blocks - MIN_SLOTS)
        for victim in self._mglru.resize(self.backed_blocks - need):
            self._release(victim)
        free = self._free_slots
        slots = sorted(free[-need:])
        del free[-need:]
        self._punched.extend(slots)  # no key takes them from here on
        bs = self.block_size
        i = 0
        while i < need:  # one punch per run of consecutive slots
            j = i + 1
            while j < need and slots[j] == slots[j - 1] + 1:
                j += 1
            self._fs.punch_hole(self._handle, slots[i] * bs, (j - i) * bs)
            i = j
        self._map.remap(slots)
        self.stats.add("shrunk", need)
        return True

    def note_landing(self, ino: int, first_block: int, count: int, landed_ns: int) -> None:
        """A background fill of ``[first_block, +count)`` lands at
        ``landed_ns``: hits on those blocks wait for it until then."""
        landing = self._landing
        if len(landing) >= self._prune_at:
            now = self.clock.global_now_ns
            landing = self._landing = {k: t for k, t in landing.items() if t > now}
            self._prune_at = max(LANDING_PRUNE_AT, 2 * len(landing))
        for fb in range(first_block, first_block + count):
            if (ino, fb) in self._slots:  # its own evictions may drop some
                landing[(ino, fb)] = landed_ns

    # -- write-back --------------------------------------------------------

    def write_hit(self, ino: int, file_block: int, data: bytes, offset: int) -> bool:
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
        self._await_fills(ino, file_block, 1)
        self._map.store(slot, offset, bytes(data))
        dirty = self._dirty.setdefault(ino, BlockIntervalSet())
        self.dirty_block_count += dirty.add(file_block)
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

    def mark_clean(self, ino: int, first_block: int, count: int) -> None:
        """Clear dirty marks after a destage persisted the blocks."""
        dirty = self._dirty.get(ino)
        if dirty is None:
            return
        self.dirty_block_count -= dirty.remove_range(first_block, count)
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

    def lost_intervals(self) -> List[Tuple[int, int, int]]:
        """``(ino, file_block, count)`` intervals dropped by failed destages.

        The ledger survives until :meth:`clear_lost` (or the file's
        invalidation), so fsck can report the loss after recovery instead
        of silently repairing around it.
        """
        return [
            (i, fb, n)
            for i in sorted(self._lost)
            for fb, n in self._lost[i]
        ]

    def clear_lost(self) -> None:
        """Acknowledge every reported loss (fsck's reconcile does this)."""
        self._lost.clear()

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
        self._landing.pop(key, None)
        self._index_remove(ino, file_block)
        dirty = self._dirty.get(ino)
        if dirty is not None:
            self.dirty_block_count -= dirty.remove_range(file_block, 1)
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
            orphaned = self._dirty.pop(ino, None)  # defensive: they die too
            if orphaned is not None:
                self.dirty_block_count -= len(orphaned)
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

    def hits_per_fill(self) -> float:
        """Reads served per block written: hits per filled block."""
        filled = self.stats.get("fill")
        return self.stats.get("hit") / filled if filled else 0.0

    def cache_counters(self) -> Dict[str, int]:
        """Stats snapshot plus the current dirty-block gauge."""
        counters = dict(self.stats.snapshot())
        counters["dirty_blocks"] = self.dirty_block_count
        return counters

    def check_invariants(self) -> None:
        self._mglru.check_invariants()
        # every slot is held, free or punched, exactly once; the MGLRU's
        # capacity is the backed slots, never fewer than MIN_SLOTS; a held
        # or free slot has a block (a punched one may keep its block only
        # until its punch returns)
        held = list(self._slots.values())
        assert sorted(held + self._free_slots + self._punched) == list(
            range(self.capacity_blocks)
        )
        assert self._mglru.capacity == self.backed_blocks
        assert self.backed_blocks >= min(MIN_SLOTS, self.capacity_blocks)
        for slot in held + self._free_slots:
            assert self._map.mapped(slot), f"slot {slot} has no block"
        for key in self._slots:
            assert key in self._mglru
        # the ghosts are bounded hints about keys the cache does not hold
        assert len(self._ghost) <= self.capacity_blocks
        assert self._ghost.keys().isdisjoint(self._slots)
        assert self._landing.keys() <= self._slots.keys()
        # the per-ino index is exactly the slot keys, grouped
        indexed = {
            (ino, fb) for ino, blocks in self._by_ino.items() for fb in blocks
        }
        assert indexed == set(self._slots)
        assert all(self._by_ino.values()), "index keeps no empty entries"
        # dirty blocks are cache-resident and only exist in write-back mode
        assert self.dirty_block_count == sum(len(d) for d in self._dirty.values())
        for ino, dirty in self._dirty.items():
            assert dirty, "no empty dirty sets"
            assert self.write_back
            cached = self._by_ino.get(ino, set())
            for fb in dirty:
                assert fb in cached, f"dirty block ({ino}, {fb}) not cached"
