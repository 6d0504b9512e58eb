"""Eviction write-back runs on the flusher's time, as one coalesced run.

A dirty LRU victim is written together with the dirty pages that follow
it in its file, on a background clock frame: the op whose page insert
evicted it completes when it would on a clean cache, and the device books
the write on its background channels.  fsync and sync wait for a run
still in flight, so durability does not race it.  Faults keep their
meaning for the whole run: a transient error leaves every page dirty for
the retry; a persistent one cleans what landed and hands exactly the
rest to the file system's failure policy (ext4 drops and latches them,
XFS keeps them dirty up to ``wb_retry_limit``).
"""

from __future__ import annotations

import errno

import pytest

from repro.devices.faults import FaultConfig, FaultInjector
from repro.errors import DeviceIoError, WritebackError
from repro.sim.rng import DeterministicRng
from tests.small_cache import BS, PAIRS, make_fs


def inject(fs, transient):
    config = FaultConfig(write_error_p=1.0, transient_fraction=1.0 if transient else 0.0)
    fs.device.set_fault_injector(FaultInjector("dev", config, DeterministicRng(3)))


def dirty_blocks(fs, handle):
    return [fb for fb, _ in fs.page_cache.dirty_items(handle.ino)]


# -- timing: the evicting read does not wait for the write-back ---------------


def read_evicting(name, victim_dirty, backlog_ns=0):
    """Fill the cache with /a's 64 pages behind a fsynced /b, then read
    /b: its page insert evicts /a's first page, dirty or clean.  With a
    ``backlog_ns``, other background requests hold every background
    channel of the device for at least that long before the read."""
    fs = make_fs(name)
    b = fs.create("/b")
    fs.write(b, 0, b"b" * (2 * BS))
    fs.fsync(b)
    a = fs.create("/a")
    fs.write(a, 0, b"a" * (64 * BS))
    if not victim_dirty:
        fs.page_cache.mark_clean(a.ino, range(64))
    timeline = fs.device.timeline
    for _ in range(timeline.nchannels if backlog_ns else 0):
        timeline.acquire(fs.clock.now_ns, backlog_ns, background=True)
    bg_before = fs.device.timeline.background_ops
    assert fs.read(b, 0, BS) == b"b" * BS
    return fs, a, fs.clock.now_ns, fs.device.timeline.background_ops - bg_before


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_a_read_that_evicts_a_dirty_page_completes_as_on_a_clean_cache(name):
    fs, a, dirty_done, dirty_bg = read_evicting(name, victim_dirty=True)
    _, _, clean_done, clean_bg = read_evicting(name, victim_dirty=False)
    assert dirty_done == clean_done
    assert (clean_bg, dirty_bg) == (0, 1)  # one coalesced background write
    counters = fs.page_cache.stats
    assert (counters.get("evict_dirty"), counters.get("wb_runs"), counters.get("wb_blocks")) == (1, 1, 64)
    assert dirty_blocks(fs, a) == []  # the victim's followers are clean now
    assert fs.read(a, 0, 64 * BS) == b"a" * (64 * BS)


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("wait", ["fsync", "sync"])
def test_fsync_and_sync_wait_for_an_eviction_run_in_flight(name, wait):
    # the run queues behind 10 ms of background work; on the SSD the
    # fsync's own commit and flush take foreground channels and would end
    # long before it (on the one-spindle HDD the read already queued)
    fs, a, read_done, _ = read_evicting(name, victim_dirty=True, backlog_ns=10_000_000)
    run_done = max(fs.device.timeline.busy_until)  # the run was booked last
    assert run_done > read_done  # in flight when the read returned
    if wait == "fsync":
        fs.fsync(a)
    else:
        fs.sync()
    assert fs.clock.now_ns >= run_done


# -- faults -----------------------------------------------------------------


def cache_with_dirty_head(name, blocks=8):
    """/a's ``blocks`` dirty pages at the LRU head of a full cache, the
    rest of a fsynced 64-block /c behind them."""
    fs = make_fs(name)
    c = fs.create("/c")
    fs.write(c, 0, b"c" * (64 * BS))
    fs.fsync(c)
    a = fs.create("/a")
    fs.write(a, 0, b"a" * (blocks * BS))
    touch_behind(fs, c, blocks)
    return fs, a, c


def touch_behind(fs, c, evicted):
    """Read /c's cached pages so the dirty ones become the LRU head."""
    fs.read(c, evicted * BS, (64 - evicted) * BS)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_transient_error_keeps_every_page_dirty_for_the_retry(name):
    fs, a, c = cache_with_dirty_head(name)
    inject(fs, transient=True)
    with pytest.raises(DeviceIoError) as excinfo:
        fs.read(c, 0, BS)  # its insert evicts /a's block 0
    assert excinfo.value.transient
    assert dirty_blocks(fs, a) == list(range(8))
    assert fs.page_cache.stats.get("wb_runs") == 0
    cache = fs.page_cache
    assert cache.cached_pages == cache.capacity_pages  # the failed fill left nothing
    fs.device.set_fault_injector(None)
    # the victim is back at the LRU head, so the retried read's insert
    # evicts it again and writes its run
    assert fs.read(c, 0, BS) == b"c" * BS
    assert cache.cached_pages <= cache.capacity_pages
    assert (cache.stats.get("wb_runs"), cache.stats.get("wb_blocks")) == (1, 8)
    assert dirty_blocks(fs, a) == []
    fs.fsync(a)
    assert fs.lost_intervals() == []
    fs.crash()
    fs.recover()
    assert fs.read(fs.open("/a"), 0, 8 * BS) == b"a" * (8 * BS)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_a_retried_write_after_a_transient_error_evicts_back_to_capacity(name):
    fs, a, c = cache_with_dirty_head(name)
    cache = fs.page_cache
    inject(fs, transient=True)
    with pytest.raises(DeviceIoError):
        fs.write(c, 0, b"C" * BS)  # its dirty insert evicts /a's block 0
    # the new dirty page stays: its bytes are cached nowhere else
    assert cache.cached_pages == cache.capacity_pages + 1
    fs.device.set_fault_injector(None)
    fs.write(c, 0, b"C" * BS)
    assert cache.cached_pages <= cache.capacity_pages
    assert (cache.stats.get("wb_runs"), cache.stats.get("wb_blocks")) == (1, 8)
    fs.fsync(a)
    fs.fsync(c)
    fs.crash()
    fs.recover()
    assert fs.read(fs.open("/a"), 0, 8 * BS) == b"a" * (8 * BS)
    assert fs.read(fs.open("/c"), 0, 2 * BS) == b"C" * BS + b"c" * BS


def test_ext4_persistent_error_loses_exactly_the_unlanded_blocks():
    fs = make_fs("ext4")
    c = fs.create("/c")
    fs.write(c, 0, b"c" * (64 * BS))
    fs.fsync(c)
    a = fs.create("/a")
    other = fs.open("/a")
    b = fs.create("/b")
    # interleave so /a's eight blocks sit in two device runs
    fs.write(a, 0, b"a" * (4 * BS))
    fs.write(b, 0, b"b" * (4 * BS))
    fs.write(a, 4 * BS, b"A" * (4 * BS))
    touch_behind(fs, c, 12)
    inode = fs.inodes.get(a.ino)
    first, second = inode.blockmap.lookup(0), inode.blockmap.lookup(4)
    assert second != first + 4
    injector = FaultInjector("dev", FaultConfig(), DeterministicRng(3))
    injector.fail_block(second + 1)
    fs.device.set_fault_injector(injector)
    fs.read(c, 0, BS)  # evicts /a's block 0: one run, two device batches
    counters = fs.page_cache.stats
    assert (counters.get("wb_runs"), counters.get("wb_blocks")) == (1, 4)
    assert fs.lost_intervals() == [(a.ino, 4, 4)]
    assert dirty_blocks(fs, a) == []
    fs.device.set_fault_injector(None)
    # errseq: each fd open before the failure hears of it once
    for handle in (a, other):
        with pytest.raises(WritebackError) as excinfo:
            fs.fsync(handle)
        assert excinfo.value.errno == errno.EIO
        fs.fsync(handle)
    assert fs.read(a, 0, 4 * BS) == b"a" * (4 * BS)
    assert fs.read(b, 0, 4 * BS) == b"b" * (4 * BS)


def test_xfs_keeps_failed_pages_dirty_up_to_its_retry_limit():
    fs, a, c = cache_with_dirty_head("xfs")
    inject(fs, transient=False)
    fs.read(c, 0, BS)
    # one insert, four victims: a0, a1 and a2 are kept dirty (three failed
    # runs, the retry limit) and go back to the cache; the fourth failure
    # drops a3's run, a3 to a7, and latches the loss
    assert fs.wb_retry_limit == 3
    assert fs.stats.get("wb_kept_dirty") == 8 + 7 + 6
    assert fs.stats.get("wb_dropped") == 5
    # no run landed a block, so none is counted
    assert (fs.page_cache.stats.get("wb_runs"), fs.page_cache.stats.get("wb_blocks")) == (0, 0)
    assert dirty_blocks(fs, a) == [0, 1, 2]
    assert fs.lost_intervals() == [(a.ino, 3, 5)]
    fs.device.set_fault_injector(None)
    with pytest.raises(WritebackError):
        fs.fsync(a)  # the latched error, reported once
    fs.fsync(a)
    fs.crash()
    fs.recover()
    assert fs.read(fs.open("/a"), 0, 3 * BS) == b"a" * (3 * BS)
