"""Fsync-failure semantics: errseq_t once-per-fd reporting and the
per-FS dirty-page disposition when writeback hits a persistent error.

The matrix under test (mirrors the kernels the paper benchmarks):

| FS   | policy  | after a persistent writeback failure              |
|------|---------|---------------------------------------------------|
| ext4 | clean   | pages marked clean + forgotten; data silently gone |
| XFS  | keep    | pages stay dirty, bounded retries, then dropped    |
| NOVA | none    | DAX: errors surface at write(); nothing to lose    |

Plus the Mux-level ledger: a lost cache destage latches EIO on the
collective inode, each fd observes it once, and fsck reports the lost
intervals.
"""

import errno

import pytest

from repro.core.policy import MigrationOrder
from repro.errors import DeviceIoError, TierUnavailable, WritebackError
from repro.fs.ext4 import Ext4FileSystem
from repro.stack import build_stack
from repro.tools.fsck import check_native_fs, reconcile_cache
from repro.vfs.interface import OpenFlags

BS = 4096


def fail_data_writes(fs):
    """Latch a persistent media error on every data-region write.

    Journal-region writes (blocks below ``_data_base``) still succeed, so
    metadata commits keep working — only page writeback fails, which is
    the scenario the errseq machinery exists for.
    """
    real = type(fs.device).write_blocks

    def failing(block_no, data):
        if block_no >= fs._data_base:
            raise DeviceIoError(
                f"latched media error at block {block_no}", transient=False
            )
        return real(fs.device, block_no, data)

    fs.device.write_blocks = failing


def heal(fs):
    del fs.device.write_blocks


def dirty_file(fs, path="/f", blocks=2):
    handle = fs.create(path)
    fs.write(handle, 0, b"D" * (blocks * BS))
    return handle


class TestExt4CleanPolicy:
    def test_failing_fsync_reports_and_drops(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        # mark-clean-and-forget: the pages are gone, the loss is on record
        assert ext4.page_cache.dirty_items(handle.ino) == []
        assert [iv for iv in ext4.lost_intervals() if iv[0] == handle.ino] == [(handle.ino, 0, 2)]
        assert ext4.stats.get("wb_dropped") == 2
        assert ext4.stats.get("wb_errors") == 1

    def test_same_fd_sees_error_only_through_the_failure(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        # the failing fsync itself was this fd's one observation; with the
        # pages forgotten there is nothing left to write and no new error
        ext4.fsync(handle)

    def test_other_preexisting_fd_sees_eio_exactly_once(self, ext4):
        handle = dirty_file(ext4)
        other = ext4.open("/f")
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        with pytest.raises(WritebackError) as excinfo:
            ext4.fsync(other)
        assert excinfo.value.errno == errno.EIO
        ext4.fsync(other)  # errseq advanced: seen once, not twice

    def test_fd_opened_after_failure_sees_nothing(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        late = ext4.open("/f")
        ext4.fsync(late)  # sampled the errseq at open: no stale error

    def test_fsck_reports_the_silent_loss(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        problems = check_native_fs(ext4)
        assert any("never persisted" in p for p in problems)

    def test_data_is_really_gone_after_crash(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        ext4.fsync(handle)  # commits the (now dataless) metadata
        ext4.crash()
        ext4.recover()
        handle = ext4.open("/f")
        # the extents exist but the media never saw the bytes
        assert ext4.read(handle, 0, 2 * BS) == bytes(2 * BS)

    def test_o_sync_write_reports_like_fsync(self, ext4):
        handle = dirty_file(ext4, path="/osync")
        ext4.fsync(handle)
        ext4.close(handle)
        handle = ext4.open("/osync", OpenFlags.RDWR | OpenFlags.SYNC)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.write(handle, 0, b"S" * BS)
        heal(ext4)
        ext4.write(handle, BS, b"T" * BS)  # fd already observed the error


class TestTransientErrorDuringEviction:
    def test_retried_write_does_not_lose_the_evicted_page(self, clock, hdd):
        """Transient errors propagate for the caller to retry; the dirty
        page whose eviction hit one must still be there for the retry."""
        small = type("Ext4With64Pages", (Ext4FileSystem,), {"page_cache_max_pages": 64})
        fs = small("ext4", hdd, clock)
        handle = fs.create("/f")
        fs.write(handle, 0, b"A" * (64 * BS))  # cache full of dirty pages
        real = fs.device.write_blocks

        def fail_once(block_no, data):
            if block_no >= fs._data_base:
                del fs.device.write_blocks
                raise DeviceIoError("transient fault", transient=True)
            return real(block_no, data)

        fs.device.write_blocks = fail_once
        with pytest.raises(DeviceIoError):
            fs.write(handle, 64 * BS, b"B" * BS)  # evicting block 0 hits the fault
        fs.write(handle, 64 * BS, b"B" * BS)  # what TierFiles' retry does
        fs.fsync(handle)
        assert [iv for iv in fs.lost_intervals() if iv[0] == handle.ino] == []
        assert fs.read(handle, 0, 8) == b"AAAAAAAA"


class TestXfsKeepPolicy:
    def test_pages_stay_dirty_and_retry(self, xfs):
        handle = dirty_file(xfs)
        fail_data_writes(xfs)
        with pytest.raises(DeviceIoError):
            xfs.fsync(handle)
        # keep-dirty: nothing dropped yet, nothing lost yet
        assert len(xfs.page_cache.dirty_items(handle.ino)) == 2
        assert xfs.lost_intervals() == []
        assert xfs.stats.get("wb_kept_dirty") == 2
        heal(xfs)
        xfs.fsync(handle)  # the retry lands the data
        assert xfs.page_cache.dirty_items(handle.ino) == []
        assert xfs._wb_retries == {}  # success resets the bound
        xfs.crash()
        xfs.recover()
        handle = xfs.open("/f")
        assert xfs.read(handle, 0, 2 * BS) == b"D" * (2 * BS)

    def test_retry_bound_then_drop(self, xfs):
        handle = dirty_file(xfs, blocks=1)
        fail_data_writes(xfs)
        # wb_retry_limit=3 keep-dirty rounds, the 4th failure drops
        for _ in range(xfs.wb_retry_limit + 1):
            with pytest.raises(DeviceIoError):
                xfs.fsync(handle)
        assert xfs.page_cache.dirty_items(handle.ino) == []
        assert [iv for iv in xfs.lost_intervals() if iv[0] == handle.ino] == [(handle.ino, 0, 1)]
        assert xfs.stats.get("wb_dropped") == 1
        # with the pages gone, fsync succeeds even on the dead device
        xfs.fsync(handle)

    def test_policy_knobs_match_the_matrix(self, nova, xfs, ext4):
        assert ext4.wb_failure_policy == "clean"
        assert xfs.wb_failure_policy == "keep"
        assert xfs.wb_retry_limit == 3
        assert nova.wb_failure_policy == "none"


class TestNovaDaxPath:
    def test_no_writeback_no_loss(self, nova):
        handle = dirty_file(nova)
        nova.fsync(handle)
        # DAX: data persisted at write() return; the ledger never fills
        assert nova.lost_intervals() == []
        assert nova.stats.get("wb_errors") == 0
        nova.crash()
        nova.recover()
        handle = nova.open("/f")
        assert nova.read(handle, 0, 2 * BS) == b"D" * (2 * BS)


def warm_absorbed_file(stack, path="/f", blocks=8):
    """A file demoted to HDD with every block cache-resident and dirty."""
    mux = stack.mux
    handle = mux.create(path)
    mux.write(handle, 0, bytes(blocks * BS))
    mux.engine.migrate_now(
        MigrationOrder(
            handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id("hdd")
        )
    )
    mux.read(handle, 0, blocks * BS)
    for fb in range(blocks):
        mux.write(handle, fb * BS, bytes([0x40 + fb]) * BS)
    assert mux.cache.dirty_block_count == blocks
    return handle


class TestMuxErrseq:
    def test_loss_wiring_installed(self):
        wb = build_stack(cache_write_back=True)
        assert wb.mux.cache.on_lost == wb.mux.cachectl.note_destage_lost

    def test_eviction_loss_latches_eio_once_per_fd(self):
        # a small PM keeps the SCM cache small enough to overflow quickly
        wb = build_stack(cache_write_back=True, capacities={"pm": 2 * 1024 * 1024})
        mux = wb.mux
        handle = warm_absorbed_file(wb)
        other = mux.open("/f")
        # every destage attempt fails: the owner tier is unreachable
        destage_fn = mux.cache.destage_fn

        def refuse(ino, runs):
            raise TierUnavailable("owner tier unreachable")

        mux.cache.destage_fn = refuse
        # stream a cache-sized spill file through twice (a full cache
        # refuses a block's first miss and admits its second): the fills
        # must evict the (oldest, dirty) blocks of /f, and every destage
        # fails
        cap = mux.cache.capacity_blocks
        spill = mux.create("/spill")
        mux.write(spill, 0, bytes(cap * BS))
        mux.engine.migrate_now(
            MigrationOrder(spill.ino, 0, cap, wb.tier_id("pm"), wb.tier_id("hdd"))
        )
        for _ in range(2):
            mux.read(spill, 0, cap * BS)
        assert mux.cache.stats.get("destage_lost") >= 1
        assert [iv for iv in mux.lost_intervals() if iv[0] == handle.ino] != []
        mux.cache.destage_fn = destage_fn
        with pytest.raises(WritebackError) as excinfo:
            mux.fsync(handle)
        assert excinfo.value.errno == errno.EIO
        mux.fsync(handle)  # observed once on this fd
        with pytest.raises(WritebackError):
            mux.fsync(other)  # the other pre-existing fd gets its own EIO
        mux.fsync(other)
        late = mux.open("/f")
        mux.fsync(late)  # opened after the failure: nothing to report

    def test_tier_writeback_error_folds_into_the_mux_ledger_once_per_fd(self):
        """The tier→mux hop of the errseq invariant: a *tier file system*
        owes Mux's long-lived tier handle a WritebackError; ``mux.fsync``
        folds it into the mux ledger, so every mux fd open at the time
        sees EIO exactly once and a later fd sees nothing."""
        stack = build_stack()
        mux = stack.mux
        ext4 = stack.filesystems["hdd"]
        first = mux.create("/f")
        mux.set_placement("/f", stack.tier_id("hdd"))
        mux.write(first, 0, b"D" * (2 * BS))  # dirty in ext4's page cache
        second = mux.open("/f")
        # writeback fails behind Mux's back (another fd on the tier file
        # stands in for the background flusher): ext4 latches the error
        # on the inode, and Mux's own tier handle has not seen it yet
        flusher = ext4.open("/f")
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(flusher)
        heal(ext4)
        assert mux.stats.get("wb_errors") == 0

        with pytest.raises(WritebackError) as excinfo:
            mux.fsync(first)
        assert excinfo.value.errno == errno.EIO
        assert "mux" in str(excinfo.value)  # the mux ledger's report
        assert mux.stats.get("wb_errors") == 1
        assert mux.stats.get("fsync") == 1  # the fan-out itself completed
        mux.fsync(first)  # observed once on this fd
        with pytest.raises(WritebackError):
            mux.fsync(second)  # open at the time: its own single EIO
        mux.fsync(second)
        late = mux.open("/f")
        mux.fsync(late)  # opened after the failure: nothing to report
        assert mux.stats.get("wb_errors") == 1  # folded once, not per fd
        # the tier stayed HEALTHY: lost data is not a failing device
        assert mux.registry.get(stack.tier_id("hdd")).health.accepts_writes

    def test_reconcile_reports_the_lost_intervals(self):
        wb = build_stack(cache_write_back=True)
        mux = wb.mux
        handle = warm_absorbed_file(wb, blocks=2)
        mux.cache._lost.setdefault(handle.ino, []).append((0, 1))
        mux.cachectl.note_destage_lost(handle.ino, [(0, 1)])
        report = []
        reconcile_cache(mux, report)
        assert any("lost to a failed destage" in line for line in report)
        assert mux.cache.lost_intervals() == []  # reporting drains the ledger

    def test_unlink_clears_the_ledger(self):
        wb = build_stack(cache_write_back=True)
        mux = wb.mux
        handle = warm_absorbed_file(wb, path="/doomed", blocks=2)
        mux.cachectl.note_destage_lost(handle.ino, [(0, 1)])
        mux.close(handle)
        mux.unlink("/doomed")
        assert mux.lost_intervals() == []


class TestRingCompletionErrno:
    def test_fsync_error_lands_in_cqe_with_errno(self):
        wb = build_stack(cache_write_back=True)
        mux = wb.mux
        handle = warm_absorbed_file(wb, blocks=2)
        mux.fsync(handle)  # destage cleanly first
        mux.cachectl.note_destage_lost(handle.ino, [(0, 2)])
        ring = mux.open_ring(depth=2)
        done = ring.wait(ring.submit_fsync(handle))
        assert isinstance(done.error, WritebackError)
        assert done.errno == errno.EIO
        # once per fd holds through the ring too
        done = ring.wait(ring.submit_fsync(handle))
        assert done.error is None
        assert done.errno == 0
        mux.close(handle)


# ---------------------------------------------------------------------------
# one errseq oracle for the one ledger
# ---------------------------------------------------------------------------


class NotifyOracle:
    """Who must see EIO: the per-fd notify table of cuttlefs' GenericFsync
    (SNIPPETS.md snippet 2), kept apart from ``WritebackLedger`` so the
    ledger is checked against a second statement of the contract instead
    of against itself.  A failure owes every fd open at that moment one
    notification; an fd collects it at its next fsync, once."""

    def __init__(self):
        self.open_fds = set()
        #: fds still owed a notification; None = no unreported failure
        self.failed_fds = None

    def on_open(self, fd):
        self.open_fds.add(fd)

    def on_close(self, fd):
        self.open_fds.discard(fd)
        if self.failed_fds is not None:
            # a closed fd can't be notified any more; the (possibly empty)
            # set stays, so the first fd opened after it reports instead
            self.failed_fds.discard(fd)

    def add_fds_to_notify(self):
        if self.failed_fds is None:
            self.failed_fds = set()
        self.failed_fds.update(self.open_fds)

    def should_notify(self, fd):
        if self.failed_fds is None:
            return False
        if not self.failed_fds:
            return True  # first fd opened since the unreported failure
        return fd in self.failed_fds

    def mark_notified(self, fd):
        self.failed_fds.discard(fd)
        if not self.failed_fds:
            self.failed_fds = None

    def on_fsync(self, fd, sync_failed):
        """True when this fsync must report EIO."""
        if sync_failed:
            self.add_fds_to_notify()
        if self.should_notify(fd):
            self.mark_notified(fd)
            return True
        return False


class NativeBackend:
    """Ext4 / XFS: the failure is discovered by whichever fsync writes the
    dirty pages back.  ``sync_fails`` restates the disposition table at
    the top of this file (clean: forget the pages; keep: ``retry_limit``
    keep-dirty rounds, then forget) so the oracle knows which fsyncs hit
    the media error without asking the ledger."""

    def __init__(self, fs, policy, retry_limit=0):
        self.fs = fs
        self.policy = policy
        self.retry_limit = retry_limit
        self.dirty = self.broken = False
        self.tries = 0
        fs.close(fs.create("/f"))

    def open(self):
        return self.fs.open("/f")

    def close(self, handle):
        self.fs.close(handle)

    def error(self, handle, oracle):
        self.fs.write(handle, 0, b"E" * BS)
        self.dirty = True
        if not self.broken:
            fail_data_writes(self.fs)
            self.broken = True

    def heal(self):
        if self.broken:
            heal(self.fs)
            self.broken = False

    def sync_fails(self):
        if not self.dirty:
            return False
        if not self.broken:
            self.dirty, self.tries = False, 0
            return False
        if self.policy == "keep":
            self.tries += 1
            if self.tries <= self.retry_limit:
                return True
            self.tries = 0
        self.dirty = False
        return True

    def fsync(self, handle):
        self.fs.fsync(handle)


class MuxBackend:
    """Mux write-back cache: an absorbed write is lost when its block is
    evicted while the owning tier is unreachable — out of band, no fsync
    in flight, so nobody is notified at the failure itself."""

    def __init__(self):
        self.stack = build_stack(
            cache_write_back=True, capacities={"pm": 2 * 1024 * 1024}
        )
        self.spills = 0
        handle = warm_absorbed_file(self.stack, blocks=1)
        self.stack.mux.close(handle)

    def open(self):
        return self.stack.mux.open("/f")

    def close(self, handle):
        self.stack.mux.close(handle)

    def error(self, handle, oracle):
        stack, mux = self.stack, self.stack.mux
        hdd, ssd = stack.tier_id("hdd"), stack.tier_id("ssd")
        for _ in range(2):  # a full cache admits a block's second miss
            mux.read(handle, 0, BS)
        assert mux.cache.contains(handle.ino, 0)  # block 0 resident again
        mux.mark_tier_offline(hdd)
        mux.write(handle, 0, b"E" * BS)  # absorbed on PM, owner is dead
        lost_before = mux.cache.stats.get("destage_lost")
        # stream a cache-sized file through twice (a full cache refuses
        # a block's first miss and admits its second): the fills evict
        # the dirty block, and its destage to the dead owner fails
        cap = mux.cache.capacity_blocks
        self.spills += 1
        spill = mux.create(f"/spill{self.spills}")
        mux.write(spill, 0, bytes(cap * BS))
        mux.engine.migrate_now(
            MigrationOrder(spill.ino, 0, cap, stack.tier_id("pm"), ssd)
        )
        for _ in range(2):
            mux.read(spill, 0, cap * BS)
        mux.close(spill)
        mux.mark_tier_online(hdd)
        assert mux.cache.stats.get("destage_lost") == lost_before + 1
        oracle.add_fds_to_notify()

    def heal(self):
        pass

    def sync_fails(self):
        return False

    def fsync(self, handle):
        self.stack.mux.fsync(handle)


#: the issue's sequence (open A, open B, error, fsync A, fsync B, open C,
#: fsync C, second error, close/reopen), with a quiet round after each
#: error so "once" is visible
ERRSEQ_SCRIPT = [
    ("open", "A"), ("open", "B"),
    ("error", "A"),
    ("fsync", "A"), ("fsync", "B"),
    ("open", "C"), ("fsync", "C"),
    ("fsync", "A"), ("fsync", "B"), ("fsync", "C"),
    ("heal", None),
    ("fsync", "A"), ("fsync", "B"), ("fsync", "C"),
    ("error", "B"),
    ("close", "A"), ("open", "D"),
    ("fsync", "B"), ("fsync", "C"), ("fsync", "D"),
    ("heal", None),
    ("fsync", "B"), ("fsync", "C"), ("fsync", "D"),
]


@pytest.mark.parametrize(
    "backend, expected",
    [
        # clean: the first fsync after each error hits the media, forgets
        # the pages and owes every other open fd one EIO
        ("ext4", ["A", "B", "B", "C", "D"]),
        # keep: every fsync re-fails until the retry bound (3) is spent
        # and the 4th failure drops the pages (first error), or until the
        # media heals (second); then the remaining debts are collected
        ("xfs", ["A", "B", "C", "A", "B", "C", "B", "C", "D", "B", "C"]),
        # mux: lost at eviction, so each fd open at that time collects at
        # its own next fsync; C and D opened after their error see nothing
        ("mux", ["A", "B", "B", "C"]),
    ],
)
def test_errseq_ledger_matches_the_notify_oracle(request, backend, expected):
    if backend == "mux":
        target = MuxBackend()
    else:
        fs = request.getfixturevalue(backend)
        target = NativeBackend(fs, fs.wb_failure_policy, fs.wb_retry_limit)
    oracle = NotifyOracle()
    fds = {}
    saw_eio = []
    for step, name in ERRSEQ_SCRIPT:
        if step == "open":
            fds[name] = target.open()
            oracle.on_open(name)
        elif step == "close":
            target.close(fds.pop(name))
            oracle.on_close(name)
        elif step == "error":
            target.error(fds[name], oracle)
        elif step == "heal":
            target.heal()
        else:
            must_report = oracle.on_fsync(name, target.sync_fails())
            try:
                target.fsync(fds[name])
                reported = False
            except (DeviceIoError, WritebackError) as exc:
                assert getattr(exc, "errno", errno.EIO) == errno.EIO
                reported = True
            assert reported == must_report, (backend, step, name, saw_eio)
            if reported:
                saw_eio.append(name)
    assert saw_eio == expected
    assert oracle.failed_fds is None  # every debt was collected
