"""Characterisation of the journaled write-back path.

One fragmented write+fsync scenario per journaled file system, recorded
as a transcript of everything the block-map resolution on that path can
influence: every allocator call with its result, every data-region
``write_blocks`` (start, block count), the delayed-allocation marks after
each step and the final block maps.  The expected transcripts were
recorded before ``_allocate_for`` / ``_write_span`` / ``_flush_inode_data``
moved from per-block ``ExtentTree.lookup`` to the one-walk
``ExtentTree.lookup_ascending``, and must not change with it.

Eviction write-back takes a dirty victim's dirty followers along: the
overflow step's first eviction of ``/c`` allocates (XFS) and writes all
40 of its dirty blocks as one run, so the final ``sync`` has nothing of
``/c`` left to write.
"""

from __future__ import annotations

import pytest

from tests.small_cache import BS, PAIRS, small_cache_fs


def record(fs_cls, device_cls):
    """Run the scenario on a 64-page cache (so eviction write-back runs
    too) and return its transcript."""
    fs = small_cache_fs(fs_cls, device_cls)
    log = []

    real_alloc = fs.allocator.alloc_extent

    def alloc_extent(count, hint=None):
        runs = real_alloc(count, hint)
        log.append(("alloc", count, hint, tuple(runs)))
        return runs

    fs.allocator.alloc_extent = alloc_extent

    real_write = fs.device.write_blocks

    def write_blocks(block_no, data):
        if block_no >= fs._data_base:
            log.append(("write", block_no, len(data) // BS))
        return real_write(block_no, data)

    fs.device.write_blocks = write_blocks

    def marks(tag):
        log.append(
            ("delalloc", tag, {ino: sorted(m) for ino, m in sorted(fs._delalloc.items())})
        )

    a = fs.create("/a")
    b = fs.create("/b")
    # interleave the two files so neither is contiguous on the device
    for i in range(4):
        fs.write(a, i * 3 * BS, bytes([65 + i]) * (2 * BS))
        fs.write(b, i * 2 * BS, bytes([97 + i]) * BS)
    marks("interleaved")
    fs.fsync(a)
    marks("fsync-a")
    # sparse single blocks, a partial-block write into a hole and one
    # straddling a mapped and an unmapped block
    for fb in (20, 22, 24):
        fs.write(b, fb * BS, b"s" * BS)
    fs.write(b, 30 * BS + 100, b"p" * 200)
    fs.write(a, 1 * BS + 2048, b"q" * BS * 2)
    marks("sparse")
    fs.fsync(b)
    fs.fsync(a)
    marks("fsync-both")
    # punch the middle of a, then rewrite across the hole and past EOF
    fs.punch_hole(a, 3 * BS, 4 * BS)
    fs.write(a, 2 * BS, b"r" * (8 * BS))
    fs.truncate(b, 21 * BS)
    fs.write(b, 19 * BS, b"t" * (4 * BS))
    marks("punched")
    fs.fsync(a)
    fs.fsync(b)
    # more dirty pages than the cache holds: eviction write-back
    c = fs.create("/c")
    fs.write(c, 0, b"e" * (40 * BS))
    fs.write(a, 40 * BS, b"E" * (40 * BS))
    marks("overflow")
    fs.sync()
    marks("sync")
    for h in (a, b, c):
        inode = fs.inodes.get(h.ino)
        log.append(
            ("blockmap", h.ino, [(e.start, e.count, e.value) for e in inode.blockmap])
        )
    return log


# fmt: off
EXPECTED = {'ext4': [('alloc', 2, None, ((327, 2),)), ('alloc', 1, None, ((329, 1),)),
          ('alloc', 2, None, ((330, 2),)), ('alloc', 1, None, ((332, 1),)),
          ('alloc', 2, None, ((333, 2),)), ('alloc', 1, None, ((335, 1),)),
          ('alloc', 2, None, ((336, 2),)), ('alloc', 1, None, ((338, 1),)),
          ('delalloc', 'interleaved', {}), ('write', 327, 2), ('write', 330, 2),
          ('write', 333, 2), ('write', 336, 2), ('delalloc', 'fsync-a', {}),
          ('alloc', 1, None, ((339, 1),)), ('alloc', 1, None, ((340, 1),)),
          ('alloc', 1, None, ((341, 1),)), ('alloc', 1, None, ((342, 1),)),
          ('alloc', 1, 329, ((343, 1),)), ('delalloc', 'sparse', {}), ('write', 329, 1),
          ('write', 332, 1), ('write', 335, 1), ('write', 338, 5), ('write', 328, 1),
          ('write', 330, 1), ('write', 343, 1), ('delalloc', 'fsync-both', {}),
          ('alloc', 4, 344, ((344, 4),)), ('alloc', 1, 335, ((348, 1),)),
          ('alloc', 1, None, ((349, 1),)), ('alloc', 2, 340, ((340, 2),)),
          ('delalloc', 'punched', {}), ('write', 334, 1), ('write', 336, 1),
          ('write', 343, 6), ('write', 339, 3), ('write', 349, 1),
          ('alloc', 40, None, ((350, 40),)), ('write', 350, 40),
          ('alloc', 40, None, ((390, 40),)), ('delalloc', 'overflow', {}),
          ('write', 390, 40), ('delalloc', 'sync', {}),
          ('blockmap', 2,
           [(0, 2, 327), (2, 5, 343), (7, 1, 334), (8, 1, 348), (9, 2, 336),
            (40, 40, 390)]),
          ('blockmap', 3,
           [(0, 1, 329), (2, 1, 332), (4, 1, 335), (6, 1, 338), (19, 1, 349),
            (20, 3, 339)]),
          ('blockmap', 4, [(0, 40, 350)])],
 'xfs': [('delalloc', 'interleaved', {2: [0, 1, 3, 4, 6, 7, 9, 10], 3: [0, 2, 4, 6]}),
         ('alloc', 2, None, ((163, 2),)), ('alloc', 2, None, ((4218, 2),)),
         ('alloc', 2, None, ((8273, 2),)), ('alloc', 2, None, ((12328, 2),)),
         ('write', 163, 2), ('write', 4218, 2), ('write', 8273, 2), ('write', 12328, 2),
         ('delalloc', 'fsync-a', {3: [0, 2, 4, 6]}),
         ('delalloc', 'sparse', {2: [2], 3: [0, 2, 4, 6, 20, 22, 24, 30]}),
         ('alloc', 1, None, ((165, 1),)), ('alloc', 1, None, ((4220, 1),)),
         ('alloc', 1, None, ((8275, 1),)), ('alloc', 1, None, ((12330, 1),)),
         ('alloc', 1, None, ((166, 1),)), ('alloc', 1, None, ((4221, 1),)),
         ('alloc', 1, None, ((8276, 1),)), ('alloc', 1, None, ((12331, 1),)),
         ('write', 165, 2), ('write', 4220, 2), ('write', 8275, 2), ('write', 12330, 2),
         ('alloc', 1, 165, ((167, 1),)), ('write', 164, 1), ('write', 167, 1),
         ('write', 4218, 1), ('delalloc', 'fsync-both', {}),
         ('delalloc', 'punched', {2: [3, 4, 5, 6, 8], 3: [19, 21, 22]}),
         ('alloc', 4, 168, ((168, 4),)), ('alloc', 1, 8275, ((8276, 1),)),
         ('write', 167, 5), ('write', 8274, 1), ('write', 8276, 1), ('write', 12328, 1),
         ('alloc', 1, None, ((172, 1),)), ('alloc', 2, 167, ((173, 2),)),
         ('write', 166, 1), ('write', 172, 3), ('alloc', 40, None, ((4222, 40),)),
         ('write', 4222, 40),
         ('delalloc', 'overflow',
          {2: [40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57,
               58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75,
               76, 77, 78, 79]}),
         ('alloc', 40, None, ((8277, 40),)), ('write', 8277, 40),
         ('delalloc', 'sync', {}),
         ('blockmap', 2,
          [(0, 2, 163), (2, 5, 167), (7, 1, 8274), (8, 1, 8276), (9, 2, 12328),
           (40, 40, 8277)]),
         ('blockmap', 3,
          [(0, 1, 165), (2, 1, 4220), (4, 1, 8275), (6, 1, 12330), (19, 1, 172),
           (20, 1, 166), (21, 2, 173)]),
         ('blockmap', 4, [(0, 40, 4222)])]}
# fmt: on


@pytest.mark.parametrize(
    "name, fs_cls, device_cls",
    [(name, *PAIRS[name]) for name in sorted(PAIRS)],
)
def test_writeback_transcript_is_unchanged(name, fs_cls, device_cls):
    assert record(fs_cls, device_cls) == EXPECTED[name]
