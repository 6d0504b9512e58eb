"""What reaches the metafile's home, counted per file-system call.

On a PM home the State Bookkeeper maps ``/.mux_meta`` and appends its
records with DAX stores, so the only file-system calls on the metafile
are the writes that grow the log by a block; on an HDD home, which has no
DAX path, every flush is still one write plus one fsync.  On PM the
bytes Mux books for the metafile are the bytes those writes and stores
hand to PM.  The churn and the homes are those of
``tests/test_metafile_append.py``.
"""

from __future__ import annotations

from repro.core.bookkeeper import META_FILE
from repro.errors import DeviceIoError
from repro.stack import build_stack
from tests.test_metafile_append import CAP, HOMES, RECORDS, churn

BS = 4096


def counted_churn(home):
    """Run the churn on ``home``, recording each write/fsync that names
    the metafile."""
    stack = build_stack(tiers=HOMES[home])
    fs = stack.mux.meta.fs
    calls = []
    for name in ("write", "fsync"):

        def call(handle, *args, _inner=getattr(fs, name), _name=name):
            if handle.path == META_FILE:
                calls.append(_name)
            return _inner(handle, *args)

        setattr(fs, name, call)
    churn(stack.mux)
    return stack.mux, calls


def test_a_pm_home_appends_by_dax_and_writes_only_to_grow():
    mux, calls = counted_churn("pm")
    meta = mux.meta
    blocks = CAP // BS  # the log wrapped, so it filled the cap
    assert meta.fs.getattr(META_FILE).size == blocks * BS
    assert calls == ["write"] * blocks
    flushes = meta.stats.get("flushes")
    assert meta.stats.get("dax_flushes") == flushes > 0
    assert meta.stats.get("growth_writes") == blocks
    assert (
        f"metafile: {RECORDS} records, {flushes} appends ({flushes} by DAX, "
        f"0 by write + fsync), {blocks} growth writes, {RECORDS * 64} bytes"
    ) in mux.report()


def test_a_pm_home_books_every_byte_it_puts_on_pm():
    """The metafile's PM bytes are the records, each append's 8-byte
    header store and each growth write's zero blocks: what the growth
    writes and the DAX stores hand to PM, counted at those calls."""
    stack = build_stack(tiers=HOMES["pm"])
    mux, meta = stack.mux, stack.mux.meta
    booked = mux.pm_bytes_by_cause().get("metafile", 0)
    reached = []
    write, store = meta.fs.write, meta._map.store

    def counted_write(handle, offset, data, *args, **kwargs):
        if handle.path == META_FILE:
            reached.append(len(data))
        return write(handle, offset, data, *args, **kwargs)

    def counted_store(block, offset, data):
        reached.append(len(data))
        return store(block, offset, data)

    meta.fs.write, meta._map.store = counted_write, counted_store
    churn(mux)
    appends = meta.stats.get("dax_flushes")
    assert booked == 0 and appends > 0
    assert mux.pm_bytes_by_cause()["metafile"] == sum(reached)
    assert sum(reached) == RECORDS * 64 + 8 * appends + (CAP // BS) * BS


def test_an_hdd_home_still_writes_and_fsyncs_every_flush():
    mux, calls = counted_churn("hdd")
    meta = mux.meta
    flushes = meta.stats.get("flushes")
    assert calls == ["write", "fsync"] * flushes
    assert meta.stats.get("dax_flushes") == meta.stats.get("growth_writes") == 0
    assert f"(0 by DAX, {flushes} by write + fsync)" in mux.report()


def test_a_transient_store_error_is_retried_without_growing_twice():
    stack = build_stack()
    meta = stack.mux.meta
    mapping = meta._map
    inner = mapping.store
    failures = [DeviceIoError("injected", transient=True)]

    def store(block, offset, data):
        if failures:
            raise failures.pop()
        inner(block, offset, data)

    mapping.store = store
    stack.mux.mkdir("/d")  # the log's first append: grows block 0, then stores
    assert meta.stats.get("flush_retries") == 1
    assert meta.stats.get("growth_writes") == 1
    assert meta.stats.get("dax_flushes") == meta.stats.get("flushes") == 1
    assert meta._buffered == 0
    assert meta.fs.getattr(META_FILE).size == BS
