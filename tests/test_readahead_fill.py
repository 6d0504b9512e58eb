"""Differential test: the journaled FS's read-miss fill against the per-block loop.

``_read_block`` extends a miss over device-contiguous, uncached blocks up
to the readahead window.  It used to find that extent with one
``blockmap.lookup`` and one ``page_cache.contains`` per block; it now
walks ``blockmap.runs`` once and asks ``PageCache.span_uncached`` once.
``PerBlockExt4``/``PerBlockXfs`` keep the per-block loop.  Hypothesis
drives both through the same writes (interleaved across files so block
maps fragment), reads, fsyncs, clean-page drops and a page cache small
enough that fills evict dirty pages, in the foreground and the
background-readahead mode, and compares the bytes read, every device call
with the clock at the call, the page table's LRU order, the cache
counters and the clock.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.hdd import HardDiskDrive
from repro.devices.ssd import SolidStateDrive
from repro.fs.ext4 import Ext4FileSystem
from repro.fs.xfs import XfsFileSystem
from repro.sim.clock import SimClock
from repro.vfs.interface import OpenFlags

MIB = 1024 * 1024
BS = 4096
FILES = 3


def _per_block_read_block(self, inode, file_block: int) -> Optional[bytes]:
    """``_read_block`` as it was: a lookup and a contains per block."""
    window = self._readahead_window(inode.ino, file_block)
    cached = self.page_cache.get(inode.ino, file_block)
    if cached is not None:
        return cached
    dev_block = inode.blockmap.lookup(file_block)
    if dev_block is None:
        return None
    count = 1
    while (
        count < window
        and inode.blockmap.lookup(file_block + count) == dev_block + count
        and not self.page_cache.contains(inode.ino, file_block + count)
    ):
        count += 1
    bs = self.block_size
    if self.readahead_background and count > 1:
        data = self.device.read_blocks(dev_block, 1)
        self.page_cache.put(inode.ino, file_block, data[:bs], dirty=False)
        self.clock.push_frame(background=True)
        try:
            tail = self.device.read_blocks(dev_block + 1, count - 1)
            for i in range(count - 1):
                chunk = tail[i * bs : (i + 1) * bs]
                self.page_cache.put(inode.ino, file_block + 1 + i, chunk, dirty=False)
        finally:
            self.clock.pop_frame()
        self.readahead_bg_blocks += count - 1
        return data[:bs]
    data = self.device.read_blocks(dev_block, count)
    for i in range(count):
        chunk = data[i * bs : (i + 1) * bs]
        self.page_cache.put(inode.ino, file_block + i, chunk, dirty=False)
    return data[:bs]


class PerBlockExt4(Ext4FileSystem):
    _read_block = _per_block_read_block


class PerBlockXfs(XfsFileSystem):
    _read_block = _per_block_read_block


KINDS = {
    "ext4": (Ext4FileSystem, PerBlockExt4, HardDiskDrive),
    "xfs": (XfsFileSystem, PerBlockXfs, SolidStateDrive),
}


def _world(fs_cls, dev_cls, capacity: int, background: bool):
    clock = SimClock()
    device = dev_cls("dev0", 64 * MIB, clock)
    calls = []
    for name in ("read_blocks", "write_blocks", "flush"):
        real = getattr(device, name)

        def logged(*args, _real=real, _name=name):
            # a write is logged by its block: its payload is compared below
            # through the bytes every later read returns
            shown = args[0] if _name == "write_blocks" else args
            calls.append((_name, shown, clock.now_ns))
            return _real(*args)

        setattr(device, name, logged)
    fs = fs_cls("fs", device, clock)
    fs.page_cache.capacity_pages = capacity
    fs.readahead_background = background
    handles = []
    for i in range(FILES):
        fs.write_file(f"/f{i}", b"")
        handles.append(fs.open(f"/f{i}", OpenFlags.RDWR))
    return clock, fs, calls, handles


STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"), st.integers(0, FILES - 1), st.integers(0, 40),
            st.integers(1, 12), st.integers(0, 255),
        ),
        st.tuples(
            st.just("read"), st.integers(0, FILES - 1), st.integers(0, 48),
            st.integers(1, 20),
        ),
        st.tuples(st.just("fsync"), st.integers(0, FILES - 1)),
        st.tuples(st.just("drop_clean"), st.just(0)),
    ),
    max_size=40,
)


def _run(world, step):
    clock, fs, calls, handles = world
    handle = handles[step[1]]
    if step[0] == "write":
        _, _, block, nblocks, byte = step
        return fs.write(handle, block * BS, bytes([byte]) * (nblocks * BS))
    if step[0] == "read":
        _, _, block, nblocks = step
        return fs.read(handle, block * BS, nblocks * BS)
    if step[0] == "drop_clean":
        return fs.page_cache.drop_clean()
    return fs.fsync(handle)


def _observe(world):
    clock, fs, calls, _ = world
    return (
        clock.now_ns,
        list(calls),
        list(fs.page_cache._pages),
        fs.page_cache.stats.snapshot(),
        fs.readahead_bg_blocks,
    )


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    capacity=st.integers(2, 24),
    background=st.booleans(),
    steps=STEPS,
)
def test_fill_matches_per_block_loop(kind, capacity, background, steps):
    fs_cls, ref_cls, dev_cls = KINDS[kind]
    new = _world(fs_cls, dev_cls, capacity, background)
    ref = _world(ref_cls, dev_cls, capacity, background)
    for step in steps:
        assert _run(new, step) == _run(ref, step), step
        assert _observe(new) == _observe(ref), step


def test_sequential_reads_fill_whole_windows():
    # a sequential scan of a contiguous file ramps the window, so fills
    # span many blocks: the case the one-walk resolution exists for
    new = _world(Ext4FileSystem, HardDiskDrive, 64, False)
    ref = _world(PerBlockExt4, HardDiskDrive, 64, False)
    for world in (new, ref):
        _run(world, ("write", 0, 0, 48, 7))
        _run(world, ("fsync", 0))
        _run(world, ("drop_clean", 0))
        world[2].clear()
        for block in range(48):
            _run(world, ("read", 0, block, 1))
    assert _observe(new) == _observe(ref)
    reads = [c for c in new[2] if c[0] == "read_blocks"]
    assert max(args[1] for _, args, _ in reads) > 4
