"""Unit tests for the run-level span APIs introduced by the batched data
path: PageCache get_span/put_span, ScmCacheManager get_many/put_many, the
chunked device arena, PM load_run/store_run, and the file-system
``_read_span_into`` hooks (holes, partial edge blocks, EOF straddling,
eviction mid-span).

The central property everywhere is *scalar equivalence*: a span call must
charge the same simulated time, bump the same counters and leave the same
cache/LRU state as the per-block loop it replaced.
"""

import pytest

from repro.core.cache import ScmCacheManager
from repro.devices.base import ARENA_CHUNK_BLOCKS, Device
from repro.devices.faults import FaultConfig, FaultInjector
from repro.devices.hdd import HardDiskDrive
from repro.devices.pm import PersistentMemoryDevice
from repro.devices.profile import OPTANE_SSD_P4800X
from repro.devices.ssd import SolidStateDrive
from repro.errors import DeviceError, DeviceIoError
from repro.fs.ext4 import Ext4FileSystem
from repro.fs.nova import NovaFileSystem
from repro.fs.xfs import XfsFileSystem
from repro.fscommon.pagecache import PageCache
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.vfs.interface import OpenFlags

BS = 4096
MIB = 1024 * 1024


def block(tag: int) -> bytes:
    return bytes([tag % 256]) * BS


# ---------------------------------------------------------------------------
# PageCache spans
# ---------------------------------------------------------------------------


class TestPageCacheSpans:
    @pytest.fixture
    def twin(self):
        """Two identical caches: one driven scalar, one via span calls."""

        def make():
            clock = SimClock()
            written = []
            cache = PageCache(
                clock,
                capacity_pages=4,
                page_size=BS,
                writeback=lambda ino, fb, data: written.append((ino, fb, data)),
            )
            return cache, written, clock

        return make(), make()

    def test_span_cached_prefix(self, twin):
        (cache, _, _), _ = twin
        for fb in (0, 1, 3):
            cache.put(1, fb, block(fb), dirty=False)
        assert cache.span_cached(1, 0, 4) == 2  # hole at fb=2 stops the run
        assert cache.span_cached(1, 2, 2) == 0
        assert cache.span_cached(1, 3, 1) == 1

    def test_get_span_matches_scalar_gets(self, twin):
        (scalar, _, clk_a), (span, _, clk_b) = twin
        for cache in (scalar, span):
            for fb in range(3):
                cache.put(1, fb, block(fb), dirty=False)
        t0a, t0b = clk_a.now_ns, clk_b.now_ns

        parts = [scalar.get(1, fb) for fb in range(3)]
        out = bytearray(3 * BS)
        span.get_span(1, 0, 3, out, 0)

        assert bytes(out) == b"".join(parts)
        assert clk_a.now_ns - t0a == clk_b.now_ns - t0b
        assert scalar.stats.get("hit") == span.stats.get("hit") == 3
        # same LRU order afterwards: inserting one page evicts the same victim
        scalar.put(1, 9, block(9), dirty=False)
        scalar.put(1, 10, block(10), dirty=False)
        span.put(1, 9, block(9), dirty=False)
        span.put(1, 10, block(10), dirty=False)
        assert [k for k in scalar._pages] == [k for k in span._pages]

    # span_pages=1 is the twin check: ``put`` and a span of one must stay
    # the same path, whatever a later optimisation does to ``put_span``
    @pytest.mark.parametrize("span_pages", [6, 1])
    def test_put_span_matches_scalar_puts(self, twin, span_pages):
        (scalar, wb_a, clk_a), (span, wb_b, clk_b) = twin
        data = b"".join(block(i) for i in range(6))
        t0a, t0b = clk_a.now_ns, clk_b.now_ns

        for i in range(6):
            scalar.put(1, i, data[i * BS : (i + 1) * BS], dirty=True)
        for i in range(0, 6, span_pages):
            span.put_span(1, i, data[i * BS : (i + span_pages) * BS], dirty=True)

        assert clk_a.now_ns - t0a == clk_b.now_ns - t0b
        assert scalar.stats.snapshot() == span.stats.snapshot()
        # capacity 4, six inserts: eviction fires mid-span; the dirty
        # victims and their writeback order must match the scalar loop
        assert wb_a == wb_b
        assert len(wb_b) == 2
        assert [k for k in scalar._pages] == [k for k in span._pages]

    def test_put_span_rejects_misaligned(self, twin):
        (cache, _, _), _ = twin
        with pytest.raises(ValueError):
            cache.put_span(1, 0, b"x" * (BS + 1), dirty=False)
        with pytest.raises(ValueError):
            cache.put_span(1, 0, b"", dirty=False)

    def test_put_span_overwrites_and_keeps_dirty(self, twin):
        (cache, _, _), _ = twin
        cache.put(1, 0, block(1), dirty=True)
        cache.put_span(1, 0, block(2) + block(3), dirty=False)
        assert cache.get(1, 0) == block(2)
        assert cache.get(1, 1) == block(3)
        assert cache.dirty_pages == 1  # dirty bit survives a clean overwrite


# ---------------------------------------------------------------------------
# SCM cache manager batched paths
# ---------------------------------------------------------------------------


class TestScmCacheSpans:
    @pytest.fixture
    def pair(self, clock, nova):
        scalar = ScmCacheManager(clock, nova, capacity_blocks=8, block_size=BS)
        span = ScmCacheManager(clock, nova, capacity_blocks=8, block_size=BS)
        return scalar, span, clock

    def test_get_many_matches_scalar_gets(self, pair):
        scalar, span, clock = pair
        data = b"".join(block(i) for i in range(4))
        scalar.put_many(7, 0, data)
        span.put_many(7, 0, data)

        t0 = clock.now_ns
        parts = [scalar.get(7, fb) for fb in range(4)]
        scalar_cost = clock.now_ns - t0

        out = bytearray(4 * BS)
        t0 = clock.now_ns
        span.get_many(7, 0, 4, out, 0)
        span_cost = clock.now_ns - t0

        assert bytes(out) == b"".join(parts) == data
        assert span_cost == scalar_cost
        assert scalar.stats.get("hit") == span.stats.get("hit") == 4

    @pytest.mark.parametrize("span_blocks", [12, 1])
    def test_put_many_matches_scalar_puts(self, pair, span_blocks):
        scalar, span, clock = pair
        blocks = [block(i) for i in range(12)]

        ghosts = []
        t0 = clock.now_ns
        for _ in range(2):
            for i, b in enumerate(blocks):
                scalar.put(3, i, b)
            ghosts.append(list(scalar._ghost))
        scalar_cost = clock.now_ns - t0

        t0 = clock.now_ns
        for n in range(2):
            for i in range(0, 12, span_blocks):
                span.put_many(3, i, b"".join(blocks[i : i + span_blocks]))
            assert list(span._ghost) == ghosts[n]
        span_cost = clock.now_ns - t0

        # capacity 8, twelve blocks twice: the first pass refuses the last
        # four, the second admits them and MGLRU evicts mid-span either way
        assert span_cost == scalar_cost
        assert scalar.stats.snapshot() == span.stats.snapshot()
        assert scalar.stats.get("refused") == span.stats.get("refused") == 4
        assert scalar.stats.get("evict") == span.stats.get("evict") == 4
        assert ghosts == [[(3, fb) for fb in range(8, 12)], []]
        assert sorted(scalar._slots) == sorted(span._slots)
        assert scalar._slots == span._slots  # identical slot assignment
        for _, fb in sorted(scalar._slots):  # survivors readable via both paths
            assert scalar.get(3, fb) == span.get(3, fb) == blocks[fb]
        # same MGLRU state afterwards: the next fills refuse the same keys,
        # and their second misses pick the same victims
        for cache in (scalar, span):
            for _ in range(2):
                cache.put_many(4, 0, b"".join(blocks[:3]))
        assert scalar.stats.snapshot() == span.stats.snapshot()
        assert scalar._slots == span._slots
        scalar.check_invariants()
        span.check_invariants()

    def test_note_misses_matches_scalar_misses(self, pair):
        scalar, span, clock = pair
        t0 = clock.now_ns
        for fb in range(5):
            assert scalar.get(9, fb) is None
        scalar_cost = clock.now_ns - t0

        t0 = clock.now_ns
        span.note_misses(5)
        span_cost = clock.now_ns - t0

        assert span_cost == scalar_cost
        assert scalar.stats.get("miss") == span.stats.get("miss") == 5

    def test_put_many_rejects_misaligned(self, pair):
        scalar, _, _ = pair
        with pytest.raises(ValueError):
            scalar.put_many(1, 0, b"y" * (BS - 1))
        with pytest.raises(ValueError):
            scalar.put_many(1, 0, b"")

    def test_invalidate_range_matches_scalar(self, pair):
        scalar, span, _ = pair
        data = b"".join(block(i) for i in range(6))
        scalar.put_many(2, 10, data)
        span.put_many(2, 10, data)
        dropped_scalar = sum(scalar.invalidate(2, fb) for fb in range(8, 14))
        dropped_span = span.invalidate_range(2, 8, 6)
        assert dropped_span == dropped_scalar == 4
        assert sorted(scalar._slots) == sorted(span._slots)
        assert scalar.stats.get("invalidate") == span.stats.get("invalidate")

    def test_span_cached_returns_full_layout(self, pair):
        scalar, _, _ = pair
        scalar.put_many(5, 0, block(0) + block(1))
        scalar.put(5, 3, block(3))
        # interior cached runs are visible past the first gap (RLE layout)
        assert scalar.span_cached(5, 0, 4) == [
            (0, 2, True),
            (2, 1, False),
            (3, 1, True),
        ]
        assert scalar.span_cached(5, 0, 2) == [(0, 2, True)]
        assert scalar.span_cached(5, 2, 1) == [(2, 1, False)]
        assert scalar.span_cached(5, 9, 0) == []
        assert scalar.contains(5, 3)
        assert not scalar.contains(5, 2)


# ---------------------------------------------------------------------------
# Device arena (chunked run store)
# ---------------------------------------------------------------------------


class TestDeviceArena:
    @pytest.fixture
    def dev(self):
        clock = SimClock()
        return Device("arena", OPTANE_SSD_P4800X, 64 * MIB, clock)

    def test_holes_read_as_zeros(self, dev):
        dev.write_blocks(10, block(1))
        dev.write_blocks(12, block(2))
        data = dev.read_blocks(9, 5)  # hole, data, hole, data, hole
        assert data == bytes(BS) + block(1) + bytes(BS) + block(2) + bytes(BS)

    def test_span_crossing_chunk_boundary(self, dev):
        start = ARENA_CHUNK_BLOCKS - 2  # straddles two backing chunks
        payload = b"".join(block(i) for i in range(4))
        dev.write_blocks(start, payload)
        assert dev.read_blocks(start, 4) == payload
        assert dev.peek_block(start + 1) == block(1)
        assert dev.materialized_blocks == 4

    def test_discard_rezeroes_and_frees_chunk(self, dev):
        dev.write_blocks(0, block(7))
        assert dev.materialized_blocks == 1
        dev.discard_block(0)
        assert dev.materialized_blocks == 0
        assert dev.peek_block(0) is None
        assert dev.read_blocks(0, 1) == bytes(BS)
        assert not dev._chunks  # empty chunk released

    def test_partial_overwrite_keeps_neighbours(self, dev):
        dev.write_blocks(0, b"".join(block(i) for i in range(3)))
        dev.write_blocks(1, block(9))
        assert dev.read_blocks(0, 3) == block(0) + block(9) + block(2)


# ---------------------------------------------------------------------------
# PM run ops
# ---------------------------------------------------------------------------


class TestPmRunOps:
    @pytest.mark.parametrize("run_chunks", [4, 1])
    def test_load_run_matches_scalar_loads(self, clock, run_chunks):
        a = PersistentMemoryDevice("pma", 16 * MIB, clock)
        b = PersistentMemoryDevice("pmb", 16 * MIB, clock)
        payload = b"".join(block(i) for i in range(4))
        a.store(0, payload)
        b.store(0, payload)
        a.flush_range(0, len(payload))
        b.flush_range(0, len(payload))

        t0 = clock.now_ns
        parts = [a.load(i * BS, BS) for i in range(4)]
        scalar_cost = clock.now_ns - t0

        t0 = clock.now_ns
        run = b"".join(
            b.load_run(i * BS, run_chunks, BS) for i in range(0, 4, run_chunks)
        )
        run_cost = clock.now_ns - t0

        assert run == b"".join(parts) == payload
        assert run_cost == scalar_cost
        assert a.stats.snapshot() == b.stats.snapshot()

    @pytest.mark.parametrize("run_chunks", [4, 1])
    def test_store_run_matches_scalar_stores(self, clock, run_chunks):
        a = PersistentMemoryDevice("pma", 16 * MIB, clock)
        b = PersistentMemoryDevice("pmb", 16 * MIB, clock)
        payload = b"".join(block(i) for i in range(4))

        t0 = clock.now_ns
        for i in range(4):
            a.store(i * BS, payload[i * BS : (i + 1) * BS])
        scalar_cost = clock.now_ns - t0

        t0 = clock.now_ns
        for i in range(0, 4, run_chunks):
            b.store_run(i * BS, payload[i * BS : (i + run_chunks) * BS], BS)
        run_cost = clock.now_ns - t0

        assert run_cost == scalar_cost
        assert a.stats.snapshot() == b.stats.snapshot()
        assert a.unflushed_lines == b.unflushed_lines == len(payload) // 64
        assert b.load_run(0, 4, BS) == payload

    @pytest.mark.parametrize("fault", ["torn", "latched"])
    def test_store_twins_agree_under_injected_faults(self, fault):
        """``store`` and a run of one chunk on identical fresh devices: a
        single store never tears (same media, same rng draws), a latched
        media error raises the same exception and leaves the same media."""
        payload = b"".join(block(i) for i in range(4))  # four fault blocks

        def fresh():
            pm = PersistentMemoryDevice("pm", 16 * MIB, SimClock())
            pm.faults = FaultInjector(
                "pm", FaultConfig(torn_write_p=1.0), DeterministicRng(7)
            )
            if fault == "latched":
                pm.faults.fail_block(2)
            return pm

        def outcome(pm, op):
            try:
                op(pm)
                raised = None
            except DeviceIoError as exc:
                raised = (str(exc), exc.transient)
            return (
                raised,
                pm._peek_span(0, len(payload)),
                pm.unflushed_lines,
                pm.clock.now_ns,
                pm.stats.snapshot(),
                pm.faults.stats.snapshot(),
                pm.faults.rng.random(),  # same number of draws consumed
            )

        scalar = outcome(fresh(), lambda pm: pm.store(0, payload))
        run = outcome(fresh(), lambda pm: pm.store_run(0, payload, len(payload)))
        assert scalar == run
        if fault == "torn":
            assert scalar[:2] == (None, payload)
        else:
            assert scalar[0] is not None and scalar[1] == bytes(len(payload))

    def test_store_run_rejects_misaligned(self, clock):
        pm = PersistentMemoryDevice("pm", 16 * MIB, clock)
        with pytest.raises(DeviceError):
            pm.store_run(0, b"z" * (BS + 3), BS)

    def test_flush_range_clears_interval_partially(self, clock):
        pm = PersistentMemoryDevice("pm", 16 * MIB, clock)
        pm.store(0, b"a" * 256)  # lines 0..3
        pm.store(1024, b"b" * 256)  # lines 16..19
        assert pm.unflushed_lines == 8
        pm.flush_range(128, 128)  # clears lines 2..3 only
        assert pm.unflushed_lines == 6
        pm.flush_range(0, 2048)
        assert pm.unflushed_lines == 0


# ---------------------------------------------------------------------------
# File-system span reads (holes, partial edges, EOF)
# ---------------------------------------------------------------------------


class TestFsSpanReads:
    @pytest.fixture(params=["nova", "xfs", "ext4"])
    def fs(self, request, nova, xfs, ext4):
        return {"nova": nova, "xfs": xfs, "ext4": ext4}[request.param]

    def test_read_straddling_hole(self, fs):
        h = fs.create("/f")
        fs.write(h, 0, block(1))
        fs.write(h, 3 * BS, block(2))  # blocks 1..2 are a hole
        data = fs.read(h, 0, 4 * BS)
        assert data == block(1) + bytes(2 * BS) + block(2)
        fs.close(h)

    def test_partial_first_and_last_block(self, fs):
        h = fs.create("/f")
        payload = bytes(range(256)) * 48  # 12 KiB over blocks 0..2
        fs.write(h, 0, payload)
        assert fs.read(h, 100, 9000) == payload[100:9100]
        fs.close(h)

    def test_eof_straddling_read_is_short(self, fs):
        h = fs.create("/f")
        fs.write(h, 0, b"q" * 5000)
        assert fs.read(h, 4096, 4 * BS) == b"q" * (5000 - 4096)
        assert fs.read(h, 5000, 10) == b""
        fs.close(h)

    def test_read_into_places_at_offset(self, fs):
        h = fs.create("/f")
        fs.write(h, 0, b"mux!" * 1024)
        out = bytearray(b"\xff" * (4096 + 8))
        n = fs.read_into(h, 0, 4096, out, 4)
        assert n == 4096
        assert out[:4] == b"\xff" * 4  # untouched prefix
        assert out[4 : 4 + 4096] == b"mux!" * 1024
        assert out[-4:] == b"\xff" * 4  # untouched suffix
        fs.close(h)

    @pytest.mark.parametrize("kind", ["nova", "xfs", "ext4"])
    def test_read_and_read_into_are_twins(self, kind):
        """``read`` and ``read_into`` on identical fresh file systems: same
        bytes, clock delta, FS / device / page-cache counters and LRU order,
        over a hole, partial edge blocks, an EOF-straddling and a past-EOF
        read."""
        make_dev, make_fs = {
            "nova": (lambda c: PersistentMemoryDevice("d", 64 * MIB, c), NovaFileSystem),
            "xfs": (lambda c: SolidStateDrive("d", 128 * MIB, c), XfsFileSystem),
            "ext4": (lambda c: HardDiskDrive("d", 256 * MIB, c), Ext4FileSystem),
        }[kind]

        def fresh():
            clock = SimClock()
            fs = make_fs(kind, make_dev(clock), clock)
            h = fs.create("/f")
            fs.write(h, 0, block(1))
            fs.write(h, 3 * BS, block(2) + b"q" * 904)  # blocks 1..2: a hole
            fs.fsync(h)
            return fs, h

        spans = [(0, 4 * BS), (100, 9000), (3 * BS, 4 * BS), (5 * BS, 10)]

        def observe(fs, got):
            cache = getattr(fs, "page_cache", None)
            return (
                got,
                fs.clock.now_ns,
                fs.stats.snapshot(),
                fs.device.stats.snapshot(),
                cache.stats.snapshot() if cache is not None else None,
                list(cache._pages) if cache is not None else None,
            )

        fs_a, h_a = fresh()
        scalar = observe(fs_a, [fs_a.read(h_a, off, n) for off, n in spans])

        fs_b, h_b = fresh()
        got = []
        for off, n in spans:
            out = bytearray(n)
            got.append(bytes(out[: fs_b.read_into(h_b, off, n, out)]))
        assert observe(fs_b, got) == scalar
        assert scalar[0][2] == block(2) + b"q" * 904  # short at EOF
        assert scalar[0][3] == b""

    def test_read_into_respects_rdonly_checks(self, fs):
        h = fs.create("/f")
        fs.write(h, 0, b"abc")
        fs.close(h)
        wh = fs.open("/f", OpenFlags.WRONLY)
        out = bytearray(8)
        with pytest.raises(Exception):
            fs.read_into(wh, 0, 3, out, 0)
        fs.close(wh)

    def test_unaligned_overwrite_round_trip(self, fs):
        h = fs.create("/f")
        base = bytes(range(256)) * 64  # 16 KiB
        fs.write(h, 0, base)
        fs.write(h, 5000, b"X" * 6000)  # partial first + last block RMW
        expect = bytearray(base)
        expect[5000:11000] = b"X" * 6000
        assert fs.read(h, 0, len(base)) == bytes(expect)
        fs.close(h)
