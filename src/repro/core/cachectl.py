"""Cache Controller (Figure 1c): what goes through the SCM cache, and when
it comes back out (§2.5).

:class:`~repro.core.cache.ScmCacheManager` is the mechanism — slots in a
DAX-mapped file, MGLRU replacement, dirty marks.  This module is the
policy around it, in two halves:

* **read-through** — a sub-request for a tier slow enough to be worth
  caching is served run-at-a-time from the cache's hit/miss layout, misses
  filled from the tier behind the read (a miss returns when the tier has
  answered; a hit waits for a fill that has not landed, see
  :mod:`repro.core.cache`); anything else goes straight to the tier;
* **write-back** (``write_back=True``) — a write whose every block is
  cache-resident is absorbed in place on PM, and the dirty runs are
  destaged to their owning tiers in coalesced batches: on eviction, fsync,
  close, before a migration or mirror sync reads the range, and when the
  dirty budget or the staleness interval runs out.

The controller exists whether or not a cache does: "is there a cache" and
"is it write-back" are answered here, once, so callers just call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import calibration as cal
from repro.core.cache import MIN_SLOTS, ScmCacheManager
from repro.core.intervals import Run
from repro.core.metadata import CollectiveInode, MuxNamespace
from repro.core.registry import TierRegistry
from repro.core.scheduler import SubRequest
from repro.core.tierfiles import TierFiles
from repro.devices.profile import DeviceKind
from repro.errors import FileNotFound, NotSupported, TierUnavailable
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.vfs.interface import WritebackLedger

#: share of the hosting tier's free blocks preallocated as the SCM cache:
#: its cap, not a reservation — the cache yields slots to any other PM
#: claimant and never takes them back
CACHE_FRACTION = 0.25


class CacheController:
    """Routes tier reads through, and absorbed writes back out of, the
    SCM cache."""

    def __init__(
        self,
        clock: SimClock,
        registry: TierRegistry,
        files: TierFiles,
        ns: MuxNamespace,
        stats: CounterSet,
        wb: WritebackLedger,
        *,
        enabled: bool,
        write_back: bool,
    ) -> None:
        self.clock = clock
        self.registry = registry
        self.files = files
        self.ns = ns
        #: the Mux-wide counters (``destage_deferred``, ``wb_errors``…)
        self.stats = stats
        self._wb = wb
        self.enabled = enabled
        self._want_write_back = write_back
        self.cache: Optional[ScmCacheManager] = None
        #: id of the tier hosting the cache; None exactly when ``cache`` is
        self.host_tier_id: Optional[int] = None
        #: next simulated-time writeback deadline (lazily armed on the
        #: first absorbed write)
        self._next_writeback_ns: Optional[int] = None

    # -- provisioning ------------------------------------------------------

    def provision(self, block_size: int) -> None:
        """Create the cache if it is wanted, missing and hostable."""
        if not self.enabled or self.cache is not None:
            return
        tiers = self.registry.ordered()
        if not any(t.rank > 0 for t in tiers):
            return  # nothing slower to cache for
        # the host is the fastest PM-class tier whose file system can
        # DAX-map the cache file; asking is the only test
        for scm in tiers:
            if scm.kind is not DeviceKind.PERSISTENT_MEMORY:
                continue
            free_blocks = scm.fs.statfs().free_blocks
            try:
                cache = ScmCacheManager(
                    self.clock,
                    scm.fs,
                    max(MIN_SLOTS, int(free_blocks * CACHE_FRACTION)),
                    block_size,
                    write_back=self._want_write_back,
                )
            except NotSupported:
                continue
            cache.destage_fn = self.destage_evicted
            cache.on_lost = self.note_destage_lost
            # PM's last claimant: the host counts the cache's slots as free
            # and takes them back for good when placement, a migration or
            # a mirror needs the room
            scm.cache = cache
            self.cache = cache
            self.host_tier_id = scm.tier_id
            return

    def retire(self, tier_id: int) -> None:
        """The tier is leaving: if the cache lives there, write every
        absorbed block back before its slots disappear, then drop it."""
        if tier_id == self.host_tier_id:
            self.destage_all(durable=True)
            self.registry.get(tier_id).cache = None
            self.cache = None
            self.host_tier_id = None

    @property
    def write_back(self) -> bool:
        return self.cache is not None and self.cache.write_back

    def cacheable(self, tier_id: int) -> bool:
        """Is the tier enough slower than the cache's host to be cached?"""
        if self.cache is None:
            return False
        host_rank = self.registry.get(self.host_tier_id).rank
        return self.registry.get(tier_id).rank >= host_rank + cal.CACHE_MIN_RANK_GAP

    # -- invalidation ------------------------------------------------------

    def invalidate_range(self, ino: int, first_block: int, count: int) -> None:
        if self.cache is not None:
            self.cache.invalidate_range(ino, first_block, count)

    def invalidate_file(self, ino: int) -> None:
        if self.cache is not None:
            self.cache.invalidate_file(ino)

    # -- read-through ------------------------------------------------------

    def read_span(
        self, inode: CollectiveInode, req: SubRequest, out: bytearray
    ) -> None:
        """Serve one sub-request, through the SCM cache when applicable.

        Hits and misses are handled run-at-a-time from the cache's
        run-length-encoded span layout: consecutive cached blocks go
        through :meth:`ScmCacheManager.get_many`, a contiguous miss run is
        one tier read sized to the file plus one
        :meth:`~ScmCacheManager.put_many`.  The charge sequence matches
        the scalar per-block path exactly (the first hit after a miss run
        is still fetched singly before the misses flush, as the per-block
        loop did), and the layout is recomputed after every fill — the
        fill's MGLRU evictions may push later blocks of this very span
        out, which the per-block loop saw via its live membership probes.
        """
        if not self.cacheable(req.tier_id):
            self.files.read_into(
                inode, req.tier_id, req.offset, req.length, out, req.buffer_offset
            )
            return
        cache = self.cache
        bs = cache.block_size
        ino = inode.ino
        first_fb = req.offset // bs
        end_fb = (req.offset + req.length - 1) // bs + 1
        pending: Optional[Tuple[int, int]] = None
        layout = cache.span_cached(ino, first_fb, end_fb - first_fb)
        idx = 0
        while idx < len(layout):
            start, n, cached = layout[idx]
            idx += 1
            if not cached:
                pending = (start, n)
                continue
            if pending is not None:
                self._copy_block(cache.get(ino, start), start, req, out)
                self._fill(inode, req, out, *pending)
                pending = None
                # the fill may have evicted later blocks of this span
                if start + 1 < end_fb:
                    layout = cache.span_cached(ino, start + 1, end_fb - start - 1)
                    idx = 0
                else:
                    break
                continue
            self._hit_run(ino, start, n, req, out)
        if pending is not None:
            self._fill(inode, req, out, *pending)

    def _fill(
        self,
        inode: CollectiveInode,
        req: SubRequest,
        out: bytearray,
        start_fb: int,
        n: int,
    ) -> None:
        """Serve a contiguous miss run of ``req``: one tier read for the
        whole run, sized to the file so the tier never reads past EOF,
        copied into ``out``, and put into the cache on a background frame
        (victim destages ride it) whose landing the cache records."""
        cache = self.cache
        bs = cache.block_size
        cache.note_misses(n)
        want = min(n * bs, inode.size - start_fb * bs)
        raw = self.files.read(inode, req.tier_id, start_fb * bs, want)
        if len(raw) < n * bs:
            raw += bytes(n * bs - len(raw))
        self.clock.push_frame(background=True)
        try:
            stored = cache.put_many(inode.ino, start_fb, raw)
        finally:
            landed = self.clock.pop_frame()
        cache.note_landing(inode.ino, start_fb, n, landed)
        if stored:
            self.files.pm_bytes.add("cache_fill", stored * bs)
        lo = max(req.offset, start_fb * bs)
        hi = min(req.offset + req.length, (start_fb + n) * bs)
        dst = req.buffer_offset + (lo - req.offset)
        out[dst : dst + hi - lo] = raw[lo - start_fb * bs : hi - start_fb * bs]

    def _hit_run(
        self, ino: int, fb: int, run: int, req: SubRequest, out: bytearray
    ) -> None:
        """Copy ``run`` consecutive cached blocks into ``out``.

        Partial edge blocks (request starts or ends mid-block) go through
        single :meth:`~ScmCacheManager.get` calls so clipping stays simple;
        the full interior lands in ``out`` directly via ``get_many``.
        """
        cache = self.cache
        bs = cache.block_size
        start, n = fb, run
        if start * bs < req.offset:
            self._copy_block(cache.get(ino, start), start, req, out)
            start += 1
            n -= 1
        if n <= 0:
            return
        req_end = req.offset + req.length
        tail: Optional[int] = None
        last = start + n - 1
        if (last + 1) * bs > req_end:
            tail = last
            n -= 1
        if n > 0:
            dst = req.buffer_offset + (start * bs - req.offset)
            cache.get_many(ino, start, n, out, dst)
        if tail is not None:
            self._copy_block(cache.get(ino, tail), tail, req, out)

    def _copy_block(
        self, block: bytes, fb: int, req: SubRequest, out: bytearray
    ) -> None:
        """Clip one cached block to the request and copy it into ``out``."""
        bs = self.cache.block_size
        block_lo = fb * bs
        lo = max(req.offset, block_lo)
        hi = min(req.offset + req.length, block_lo + bs)
        if hi <= lo:
            return
        dst = req.buffer_offset + (lo - req.offset)
        out[dst : dst + (hi - lo)] = block[lo - block_lo : hi - block_lo]

    # -- write-back: absorption --------------------------------------------

    def absorb_write(
        self, inode: CollectiveInode, offset: int, data: bytes
    ) -> Optional[int]:
        """Absorb a write into the SCM cache if every touched block allows it.

        All-or-nothing: every block must be cache-resident and mapped to a
        cacheable (slow) tier, and no migration may be in flight — a
        partially absorbed write would split one write's durability story
        across two paths, and absorbing during a migration could race the
        OCC commit.  Returns the owning tier of the last block (for
        metadata affinity) on success, else None.
        """
        if not self.write_back or inode.migration_active or inode.locked:
            return None
        cache = self.cache
        bs = cache.block_size
        first_fb = offset // bs
        last_fb = (offset + len(data) - 1) // bs
        last_tier: Optional[int] = None
        covered = 0
        for run_start, run_len, tier_id in inode.blt.runs(
            first_fb, last_fb - first_fb + 1
        ):
            if tier_id is None or not self.cacheable(tier_id):
                return None
            covered += run_len
            last_tier = tier_id
        if covered != last_fb - first_fb + 1 or last_tier is None:
            return None
        for fb in range(first_fb, last_fb + 1):
            if not cache.contains(inode.ino, fb):
                return None
        view = memoryview(data)
        end = offset + len(data)
        for fb in range(first_fb, last_fb + 1):
            block_lo = fb * bs
            lo = max(offset, block_lo)
            hi = min(end, block_lo + bs)
            cache.write_hit(
                inode.ino, fb, bytes(view[lo - offset : hi - offset]), lo - block_lo
            )
        self.files.pm_bytes.add("absorb", len(data))
        return last_tier

    # -- write-back: destaging ---------------------------------------------

    def destage_blocks(
        self,
        inode: CollectiveInode,
        runs: List[Run],
        durable: bool,
        defer_offline: bool = False,
        background: bool = False,
    ) -> int:
        """Write dirty cached runs back to their owning tiers.

        Runs are split by BLT ownership and issued as one coalesced tier
        write per contiguous extent.  ``defer_offline=True`` (fsync/close/
        budget paths) skips runs whose owner is offline, leaving them
        dirty for a later cycle; with ``False`` (eviction/migration) the
        tier I/O raises and the caller decides.

        ``durable=True`` fsyncs each written tier afterwards: the dirty
        copy was durable on PM, so a destage that parks the bytes in a
        slow tier's volatile page cache would *lose* durability.  Callers
        whose own epilogue already flushes the tiers (``fsync`` fan-out,
        ``sync``) pass False and skip the double flush.

        ``background=True`` (the budget/interval writeback path) runs the
        whole batch in a background clock frame: the tier writes land on
        the devices' reserved background channels and the global clock
        does not absorb the batch — foreground ops pay only when they
        contend for the same device.  Returns blocks destaged.
        """
        cache = self.cache
        if cache is None or not runs:
            return 0
        if background:
            self.clock.push_frame(background=True)
            try:
                return self.destage_blocks(
                    inode, runs, defer_offline=defer_offline, durable=durable
                )
            finally:
                # deliberately discard the frame cursor: the batch drains
                # on the device timelines while the foreground proceeds
                self.clock.pop_frame()
        bs = cache.block_size
        destaged = 0
        nruns = 0
        touched = set()
        for start, count in runs:
            for run_start, run_len, tier_id in list(inode.blt.runs(start, count)):
                if tier_id is None:
                    # the range was unmapped since absorption (truncate or
                    # punch already invalidated; defensive)
                    cache.mark_clean(inode.ino, run_start, run_len)
                    continue
                want = min(run_len * bs, inode.size - run_start * bs)
                if want <= 0:
                    cache.mark_clean(inode.ino, run_start, run_len)
                    continue
                if defer_offline and self.registry.get(tier_id).health.is_offline:
                    self.stats.add("destage_deferred", run_len)
                    continue
                self.clock.advance_ns(cal.CACHE_DESTAGE_RUN_NS)
                payload = cache.load_for_destage(inode.ino, run_start, run_len)
                self.files.write(
                    inode, tier_id, run_start * bs, payload[:want],
                    dispatch=True, cause="destage",
                )
                cache.mark_clean(inode.ino, run_start, run_len)
                touched.add(tier_id)
                destaged += run_len
                nruns += 1
        if durable:
            for tier_id in sorted(touched):
                try:
                    self.files.fsync(inode, tier_id)
                except TierUnavailable:
                    # the tier died between the write and its flush; the
                    # blocks are marked clean but may be volatile there —
                    # recovery resolves via fsck's cache reconciliation
                    self.stats.add("destage_flush_failed")
        cache.note_destage(nruns, destaged)
        return destaged

    def destage_evicted(self, ino: int, runs: List[Run]) -> None:
        """Destage callback the cache invokes before evicting dirty blocks."""
        try:
            inode = self.ns.get(ino)
        except FileNotFound:
            return  # unlink already dropped the dirty marks
        self.destage_blocks(inode, runs, durable=True)

    def destage_file(self, inode: CollectiveInode, durable: bool = False) -> int:
        """Destage every dirty block of one file (fsync/close paths)."""
        if not self.write_back:
            return 0
        return self.destage_blocks(
            inode, self.cache.dirty_runs(inode.ino), defer_offline=True, durable=durable
        )

    def destage_all(self, durable: bool = False, background: bool = False) -> int:
        """Destage every dirty block in the cache (sync/budget paths)."""
        if not self.write_back:
            return 0
        cache = self.cache
        total = 0
        for ino in cache.dirty_files():
            try:
                inode = self.ns.get(ino)
            except FileNotFound:
                cache.invalidate_file(ino)  # defensive: unlink cleans up
                continue
            total += self.destage_blocks(
                inode,
                cache.dirty_runs(ino),
                defer_offline=True,
                durable=durable,
                background=background,
            )
        return total

    def destage_ranges(self, inode: CollectiveInode, ranges: List[Run]) -> None:
        """Durably flush absorbed writes inside ``ranges`` to their owners,
        so the tiers hold the authoritative bytes a copy is about to read.

        The pre-step of an OCC migration and of a mirror sync.  Absorption
        is refused while ``migration_active`` is set, so no new dirty
        blocks can appear mid-migration: one destage before the first
        attempt never races ``blt_commit_move``.
        """
        if not self.write_back:
            return
        dirty: List[Run] = []
        for start, count in ranges:
            dirty.extend(self.cache.dirty_runs_in(inode.ino, start, count))
        if dirty:
            self.destage_blocks(inode, dirty, durable=True)

    def maybe_writeback(self, background: bool) -> None:
        """Destage everything when the dirty set or the sim clock says so."""
        if not self.write_back:
            return
        cache = self.cache
        dirty = cache.dirty_block_count
        if not dirty:
            return
        now = self.clock.now_ns
        if self._next_writeback_ns is None:
            self._next_writeback_ns = now + cal.CACHE_WRITEBACK_INTERVAL_NS
        threshold = cal.CACHE_WRITEBACK_MAX_DIRTY_FRAC * cache.capacity_blocks
        if dirty >= threshold or now >= self._next_writeback_ns:
            if dirty < threshold:
                # the time deadline fired before the dirty budget did:
                # bounded staleness beat a foreground flood to the destage
                # (dispatcher-fairness counterpart of deadline promotion)
                self.stats.add("wb_deadline_destages")
            # the batch drains on background device channels; the user op
            # that tripped the budget is not stalled behind it
            self.destage_all(durable=True, background=background)
            self._next_writeback_ns = (
                self.clock.now_ns + cal.CACHE_WRITEBACK_INTERVAL_NS
            )

    def note_destage_lost(self, ino: int, runs: List[Run]) -> None:
        """Record absorbed writes dropped by a failed destage.

        Invoked by the cache when eviction-forced destage fails against a
        persistent tier error and the dirty blocks are discarded.  Bumps
        the inode's error sequence so every open fd sees EIO at its next
        fsync, and files the intervals for fsck's loss audit.
        """
        self._wb.note(ino, runs)
        self.stats.add("wb_errors")
