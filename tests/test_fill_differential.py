"""Differential tests: the cache fill loops against the code they replaced.

``ReferencePageCache`` keeps the earlier :meth:`PageCache.put_span` (a
memoryview slice per page, an ``_insert`` and an ``"insert"`` count per
page; a clean fill whose eviction raised is undone, as in the current
one) and its ``_evict_to_capacity`` (victims unindexed through
``_unindex``).  ``ReferenceScmCache`` keeps the earlier
:meth:`ScmCacheManager.put_many`, which claimed each missing block through
``_claim_slot`` (one MGLRU insert, one slot and one ``"fill"`` count per
block), and the earlier victim release (``is_dirty`` called twice); it
decides per block, in order, whether a full cache admits the block (a
free slot, or a ghost's second miss) or refuses it into the ghost set.

Hypothesis drives a reference and a current cache through the same
operations, with write-back callbacks that accept, refuse (keep-dirty),
fail or crash, and compares after every step: the page table in LRU order
with every page's bytes and dirty bit, both per-inode indexes, the
counters, the order of write-backs or destages, ``on_lost`` calls, slot
assignment, the ghost set, the MGLRU generations and the clock.  A ``put_span`` of ``n``
pages is also checked against ``n`` single-page ``put`` calls whenever no
write-back raises.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import calibration as cal
from repro.core.cache import ScmCacheManager
from repro.devices.pm import PersistentMemoryDevice
from repro.errors import CrashTriggered, ReproError, TierUnavailable
from repro.fs.nova.fs import NovaFileSystem
from repro.fscommon.pagecache import DRAM_PAGE_COPY_NS, Page, PageCache
from repro.sim.clock import SimClock

MIB = 1024 * 1024
PS = 8  # page cache page size: small pages keep the examples cheap
BS = 4096  # SCM cache block size


# -- page cache ---------------------------------------------------------------


class ReferencePageCache(PageCache):
    """The earlier fill path, verbatim in behaviour."""

    def put_span(self, ino, first_block, data, dirty):
        ps = self.page_size
        if len(data) == 0 or len(data) % ps:
            raise ValueError(
                f"span must be a positive multiple of {ps} bytes, got {len(data)}"
            )
        count = len(data) // ps
        src = memoryview(data)
        pages = self._pages
        capacity = self.capacity_pages
        self.clock.advance_ns(count * DRAM_PAGE_COPY_NS)
        for i in range(count):
            fb = first_block + i
            key = (ino, fb)
            block = bytes(src[i * ps : (i + 1) * ps])
            existing = pages.get(key)
            if existing is not None:
                existing.data = block
                if dirty and not existing.dirty:
                    existing.dirty = True
                    self._index_dirty(ino, fb)
                pages.move_to_end(key)
            else:
                self._insert(key, Page(block, dirty))
            if len(pages) > capacity:
                try:
                    self._evict_to_capacity()
                except BaseException:
                    # a failed clean fill is undone; a new dirty page stays
                    if existing is None and not dirty and key in pages:
                        del pages[key]
                        self._unindex(ino, (fb,))
                    elif existing is None:
                        self.stats.add("insert")
                    raise
            if existing is None:
                self.stats.add("insert")

    def _evict_to_capacity(self):
        pages = self._pages
        attempts = len(pages)
        while len(pages) > self.capacity_pages and attempts > 0:
            attempts -= 1
            key, page = pages.popitem(last=False)
            ino, fb = key
            self._unindex(ino, (fb,))
            self.stats.add("evict")
            if page.dirty:
                self.stats.add("evict_dirty")
                try:
                    kept = self._writeback(ino, fb, page.data) is False
                except BaseException:
                    self._insert(key, page)
                    pages.move_to_end(key, last=False)
                    raise
                if kept:
                    self.stats.add("evict_kept")
                    self._insert(key, page)


class Writeback:
    """A scripted write-back: the i-th call answers ``script[i]`` (cycling):
    ``"ok"`` disposes of the page, ``"keep"`` refuses it (keep-dirty),
    ``"fail"`` raises like a transient device error."""

    def __init__(self, script):
        self.script = script or ["ok"]
        self.calls = []

    def __call__(self, ino, fb, data):
        answer = self.script[len(self.calls) % len(self.script)]
        self.calls.append((ino, fb, bytes(data), answer))
        if answer == "fail":
            raise TierUnavailable("write-back failed")
        return False if answer == "keep" else None


def page_state(cache):
    return (
        [(key, page.data, page.dirty) for key, page in cache._pages.items()],
        {ino: sorted(fbs) for ino, fbs in cache._cached.items()},
        {ino: sorted(fbs) for ino, fbs in cache._dirty.items()},
        cache.stats.snapshot(),
        cache._writeback.calls,
        cache.clock.now_ns,
    )


def span(n, fill):
    return bytes((fill + i) & 0xFF for i in range(n * PS))


PAGE_OPS = st.one_of(
    st.tuples(
        st.just("put_span"), st.integers(1, 3), st.integers(0, 12),
        st.integers(1, 6), st.booleans(), st.integers(0, 255),
    ),
    st.tuples(
        st.just("put"), st.integers(1, 3), st.integers(0, 12),
        st.booleans(), st.integers(0, 255),
    ),
    st.tuples(st.just("flush_inode"), st.integers(1, 3)),
    st.tuples(st.just("mark_clean"), st.integers(1, 3), st.integers(0, 12)),
    st.tuples(st.just("invalidate_range"), st.integers(1, 3), st.integers(0, 12), st.integers(1, 4)),
    st.tuples(st.just("get"), st.integers(1, 3), st.integers(0, 12)),
)
SCRIPTS = st.lists(st.sampled_from(["ok", "ok", "keep", "fail"]), max_size=6)


def page_step(cache, op, single_puts=False):
    kind = op[0]
    try:
        if kind == "put_span":
            _, ino, fb, n, dirty, fill = op
            if single_puts:
                data = span(n, fill)
                for i in range(n):
                    cache.put(ino, fb + i, data[i * PS : (i + 1) * PS], dirty)
            else:
                cache.put_span(ino, fb, span(n, fill), dirty)
        elif kind == "put":
            _, ino, fb, dirty, fill = op
            cache.put(ino, fb, span(1, fill), dirty)
        elif kind == "flush_inode":
            return cache.flush_inode(op[1])
        elif kind == "mark_clean":
            cache.mark_clean(op[1], [op[2]])
        elif kind == "invalidate_range":
            cache.invalidate_range(op[1], op[2], op[3])
        elif kind == "get":
            return cache.get(op[1], op[2])
    except ReproError as exc:
        return type(exc).__name__
    return None


def page_pair(capacity, script):
    return [
        cls(SimClock(), capacity, PS, Writeback(script))
        for cls in (ReferencePageCache, PageCache)
    ]


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 10), script=SCRIPTS, ops=st.lists(PAGE_OPS, max_size=25))
def test_page_cache_fills_match_reference(capacity, script, ops):
    ref, new = page_pair(capacity, script)
    for op in ops:
        assert page_step(new, op) == page_step(ref, op), op
        assert page_state(new) == page_state(ref), op


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 10),
    script=st.lists(st.sampled_from(["ok", "keep"]), max_size=6),
    ops=st.lists(PAGE_OPS, max_size=25),
)
def test_put_span_equals_single_puts(capacity, script, ops):
    """Without a raising write-back, a span of ``n`` pages (1 included)
    is exactly ``n`` single-page puts: same victims, same write-backs in
    the same order, same counters, same total copy charge."""
    ref, new = page_pair(capacity, script)
    for op in ops:
        assert page_step(new, op) == page_step(ref, op, single_puts=True), op
        assert page_state(new) == page_state(ref), op


# -- SCM cache ------------------------------------------------------------------


class ReferenceScmCache(ScmCacheManager):
    """The earlier per-block slot claim, verbatim in behaviour."""

    def _claim_slot(self, key):
        for victim in self._mglru.insert(key):
            self._release(victim)
        slot = self._free_slots.pop()
        self._slots[key] = slot
        self._by_ino.setdefault(key[0], set()).add(key[1])
        self.stats.add("fill")
        return slot

    def _release(self, victim):
        v_ino, v_fb = victim
        if self.is_dirty(v_ino, v_fb):
            if self.destage_fn is not None:
                try:
                    self.destage_fn(v_ino, [(v_fb, 1)])
                except CrashTriggered:
                    raise
                except ReproError:
                    pass
            if self.is_dirty(v_ino, v_fb):
                self.mark_clean(v_ino, v_fb, 1)
                self.stats.add("destage_lost")
                self._lost.setdefault(v_ino, []).append((v_fb, 1))
                if self.on_lost is not None:
                    self.on_lost(v_ino, [(v_fb, 1)])
        self._free_slots.append(self._slots.pop(victim))
        self._index_remove(v_ino, v_fb)
        self.stats.add("evict")

    def _admits(self, ino, first_block, count):
        """Per block: is it stored?  A resident block is; a missed one
        takes a free slot while any is left, else only a ghost may evict
        (these caches never shrink, so no slot is punched)."""
        free = len(self._free_slots)
        admits = []
        for fb in range(first_block, first_block + count):
            key = (ino, fb)
            if key in self._slots:
                admits.append(True)
            elif free:
                free -= 1
                admits.append(True)
            else:
                admits.append(key in self._ghost)
        return admits

    def put_many(self, ino, first_block, data):
        bs = self.block_size
        if len(data) == 0 or len(data) % bs:
            raise ValueError("cache stores whole blocks")
        count = len(data) // bs
        admits = self._admits(ino, first_block, count)
        self.clock.advance_ns(
            count * cal.CACHE_LOOKUP_NS
            + admits.count(True) * (cal.CACHE_MGLRU_NS + cal.CACHE_SLOT_META_NS)
        )
        slots = []
        stored = []
        for i in range(count):
            key = (ino, first_block + i)
            if not admits[i]:
                self.stats.add("refused")
                self._ghost[key] = None
                while len(self._ghost) > self.capacity_blocks:
                    self._ghost.popitem(last=False)
                continue
            slot = self._slots.get(key)
            if slot is None:
                self._ghost.pop(key, None)
                slot = self._claim_slot(key)
            slots.append(slot)
            stored.append(data[i * bs : (i + 1) * bs])
        if slots:
            self._map.store_blocks(slots, b"".join(stored))
        return len(slots)


class Destage:
    """Scripted destage: ``"ok"`` persists (marks the runs clean),
    ``"skip"`` returns without persisting, ``"fail"`` raises a tier
    error, ``"crash"`` raises power loss."""

    def __init__(self, script):
        self.script = script or ["ok"]
        self.calls = []
        self.lost = []
        self.cache = None

    def __call__(self, ino, runs):
        answer = self.script[len(self.calls) % len(self.script)]
        self.calls.append((ino, tuple(runs), answer))
        if answer == "fail":
            raise TierUnavailable("owner offline")
        if answer == "crash":
            raise CrashTriggered("power lost")
        if answer == "ok":
            for start, count in runs:
                self.cache.mark_clean(ino, start, count)

    def on_lost(self, ino, runs):
        self.lost.append((ino, tuple(runs)))


def scm_pair(capacity, script):
    caches = []
    for cls in (ReferenceScmCache, ScmCacheManager):
        clock = SimClock()
        pm = PersistentMemoryDevice("pm", 16 * MIB, clock)
        cache = cls(clock, NovaFileSystem("nova", pm, clock), capacity, BS, write_back=True)
        destage = Destage(script)
        destage.cache = cache
        cache.destage_fn = destage
        cache.on_lost = destage.on_lost
        caches.append(cache)
    return caches


def scm_state(cache):
    mglru = cache._mglru
    return (
        list(cache._slots.items()),
        list(cache._free_slots),
        {ino: sorted(fbs) for ino, fbs in cache._by_ino.items()},
        {ino: dirty.runs() for ino, dirty in cache._dirty.items()},
        cache.lost_intervals(),
        list(cache._ghost),
        cache.stats.snapshot(),
        [list(gen) for gen in mglru._gens],
        dict(mglru._where),
        (mglru._base, mglru.ages, mglru.evictions),
        cache.destage_fn.calls,
        cache.destage_fn.lost,
        cache.clock.now_ns,
    )


SCM_OPS = st.one_of(
    st.tuples(
        st.just("put_many"), st.integers(1, 3), st.integers(0, 20),
        st.integers(1, 8), st.integers(0, 255),
    ),
    st.tuples(st.just("put"), st.integers(1, 3), st.integers(0, 20), st.integers(0, 255)),
    st.tuples(st.just("write_hit"), st.integers(1, 3), st.integers(0, 20), st.integers(0, 255)),
    st.tuples(st.just("get"), st.integers(1, 3), st.integers(0, 20)),
    st.tuples(st.just("invalidate_range"), st.integers(1, 3), st.integers(0, 20), st.integers(1, 6)),
    st.tuples(st.just("invalidate_file"), st.integers(1, 3)),
)
DESTAGES = st.lists(st.sampled_from(["ok", "ok", "skip", "fail", "crash"]), max_size=5)


def scm_step(cache, op):
    kind = op[0]
    try:
        if kind == "put_many":
            _, ino, fb, n, fill = op
            cache.put_many(ino, fb, bytes([fill]) * (n * BS))
        elif kind == "put":
            _, ino, fb, fill = op
            cache.put(ino, fb, bytes([fill]) * BS)
        elif kind == "write_hit":
            _, ino, fb, fill = op
            return cache.write_hit(ino, fb, bytes([fill ^ 0x5A]) * 64, 128)
        elif kind == "get":
            return cache.get(op[1], op[2])
        elif kind == "invalidate_range":
            return cache.invalidate_range(op[1], op[2], op[3])
        elif kind == "invalidate_file":
            return cache.invalidate_file(op[1])
    except (ReproError, CrashTriggered) as exc:
        return type(exc).__name__
    return None


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(2, 12), script=DESTAGES, ops=st.lists(SCM_OPS, max_size=20))
# a full ghost set takes a refused key mid-fill: it drops its oldest ghost
# then, before a later block of the same fill is looked at
@example(
    capacity=5,
    script=[],
    ops=[
        ("put_many", 1, 0, 5, 0),
        ("put_many", 2, 0, 1, 0),
        ("put_many", 2, 5, 4, 0),
        ("put_many", 2, 4, 2, 0),
    ],
)
def test_scm_put_many_matches_per_block_claims(capacity, script, ops):
    ref, new = scm_pair(capacity, script)
    for op in ops:
        assert scm_step(new, op) == scm_step(ref, op), op
        assert scm_state(new) == scm_state(ref), op
    # every slot holds the same bytes on both PM devices
    for key, slot in new._slots.items():
        assert new._map.load(slot) == ref._map.load(ref._slots[key])
