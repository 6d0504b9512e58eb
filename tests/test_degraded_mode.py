"""Degraded-mode tiering: survive a failing tier, don't just crash cleanly.

Covers the per-tier health state machine, error-scoped reads (EIO only
for blocks on a dead tier), placement routing around unhealthy tiers,
bounded retry/backoff on transient faults, BLT write atomicity under
mid-write failures, evacuation, and the scripted end-to-end scenario from
the issue's acceptance criteria.
"""

import errno

import pytest

from repro.core.health import (
    HEALTH_OFFLINE_ERRORS,
    HEALTH_RECOVERY_SUCCESSES,
    HEALTH_SUSPECT_ERRORS,
    HealthState,
    TierHealth,
)
from repro.core.policy import MigrationOrder
from repro.devices.faults import FaultConfig
from repro.errors import DeviceOffline, FsError, NoSpace, TierUnavailable
from repro import stack as stack_module
from repro.stack import build_stack
from repro.tools import fsck

MIB = 1024 * 1024


class TestHealthMachine:
    def test_starts_healthy(self):
        health = TierHealth()
        assert health.state is HealthState.HEALTHY
        assert health.accepts_writes

    def test_consecutive_errors_demote_to_suspect(self):
        health = TierHealth()
        for _ in range(HEALTH_SUSPECT_ERRORS - 1):
            health.record_error()
        assert health.state is HealthState.HEALTHY
        health.record_error()
        assert health.state is HealthState.SUSPECT
        assert not health.accepts_writes

    def test_success_resets_the_error_streak(self):
        health = TierHealth()
        for _ in range(HEALTH_SUSPECT_ERRORS - 1):
            health.record_error()
        health.record_success()
        for _ in range(HEALTH_SUSPECT_ERRORS - 1):
            health.record_error()
        assert health.state is HealthState.HEALTHY

    def test_suspect_escalates_to_offline(self):
        health = TierHealth()
        for _ in range(HEALTH_OFFLINE_ERRORS):
            health.record_error()
        assert health.state is HealthState.OFFLINE
        assert health.is_offline

    def test_suspect_recovers_after_sustained_successes(self):
        health = TierHealth()
        for _ in range(HEALTH_SUSPECT_ERRORS):
            health.record_error()
        for _ in range(HEALTH_RECOVERY_SUCCESSES - 1):
            health.record_success()
        assert health.state is HealthState.SUSPECT
        health.record_success()
        assert health.state is HealthState.HEALTHY

    def test_offline_is_sticky(self):
        health = TierHealth()
        health.mark_offline()
        for _ in range(10 * HEALTH_RECOVERY_SUCCESSES):
            health.record_success()
        assert health.state is HealthState.OFFLINE
        health.mark_online()
        assert health.state is HealthState.HEALTHY


def place_on(stack, path, tier_name, size=64 * 1024):
    """Create a file and migrate its blocks onto the named tier."""
    mux = stack.mux
    handle = mux.create(path)
    mux.write(handle, 0, b"\xa5" * size)
    src = stack.tier_ids["pm"]
    dst = stack.tier_ids[tier_name]
    if src != dst:
        blocks = size // mux.block_size
        result = mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, blocks, src, dst, reason="test")
        )
        assert result.moved_blocks == blocks
    return handle


class TestScriptedScenario:
    """The acceptance scenario: SSD dies mid-run, the stack keeps serving."""

    @pytest.fixture
    def stack(self, monkeypatch):
        monkeypatch.setattr(stack_module, "FAULT_SEED", 3)
        return build_stack(faults={"ssd": FaultConfig()})

    def test_ssd_offline_mid_run(self, stack):
        mux = stack.mux
        ssd = stack.tier_ids["ssd"]
        on_pm = place_on(stack, "/on_pm", "pm")
        on_ssd = place_on(stack, "/on_ssd", "ssd")
        on_hdd = place_on(stack, "/on_hdd", "hdd")

        # -- the device dies; the health monitor declares the tier dead
        stack.injectors["ssd"].set_offline()
        mux.mark_tier_offline(ssd)

        # reads scoped to surviving tiers keep succeeding
        assert mux.read(on_pm, 0, 4096) == b"\xa5" * 4096
        assert mux.read(on_hdd, 0, 4096) == b"\xa5" * 4096

        # reads needing the dead tier fail with EIO — error-scoped, not global
        with pytest.raises(FsError) as excinfo:
            mux.read(on_ssd, 0, 4096)
        assert excinfo.value.errno == errno.EIO
        assert mux.stats.get("reads_failed_offline") > 0

        # getattr still answers, flagging attributes affinitive to the
        # dead tier as stale instead of failing
        stat = mux.getattr("/on_ssd")
        assert stat.size == 64 * 1024

        # new writes route around the dead tier
        fresh = mux.create("/fresh")
        mux.write(fresh, 0, b"\x5a" * 32768)
        inode = mux.ns.resolve("/fresh")
        assert ssd not in inode.blt.tiers_used()
        mux.close(fresh)

        # -- repair: device returns, tier is drained, then re-admitted
        stack.injectors["ssd"].set_online()
        summary = mux.evacuate(ssd)
        assert summary["files_drained"] == 1
        assert summary["files_failed"] == 0
        survivor = mux.ns.resolve("/on_ssd")
        assert ssd not in survivor.blt.tiers_used()
        mux.mark_tier_online(ssd)

        # data is intact and fsck has nothing to report
        assert mux.read(on_ssd, 0, 4096) == b"\xa5" * 4096
        assert fsck.check_mux(mux, deep=True) == []
        for handle in (on_pm, on_ssd, on_hdd):
            mux.close(handle)

    def test_stale_affinity_flagged(self, stack):
        mux = stack.mux
        ssd = stack.tier_ids["ssd"]
        handle = place_on(stack, "/aff", "ssd")
        mux.read(handle, 0, 4096)  # atime affinity follows the serving tier
        assert mux.ns.resolve("/aff").affinity.owners()["atime"] == ssd

        mux.mark_tier_offline(ssd)
        stat = mux.getattr("/aff")
        assert "atime" in stat.extra.get("stale_attrs", [])
        assert mux.stats.get("stale_attr_reads") > 0

        mux.mark_tier_online(ssd)
        stat = mux.getattr("/aff")
        assert "stale_attrs" not in stat.extra
        mux.close(handle)

    def test_fsck_reports_stranded_blocks(self, stack):
        mux = stack.mux
        ssd = stack.tier_ids["ssd"]
        handle = place_on(stack, "/stranded", "ssd")
        mux.mark_tier_offline(ssd)
        problems = fsck.check_mux(mux, deep=False)
        assert any("stranded on offline tier ssd" in p for p in problems)
        mux.mark_tier_online(ssd)
        assert fsck.check_mux(mux, deep=False) == []
        mux.close(handle)


class TestTransientFaults:
    """p=0.3 transient write errors: retried invisibly, deterministically."""

    def run_workload(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stack_module, "FAULT_SEED", 17)
            stack = build_stack(
                faults={
                    "pm": FaultConfig(write_error_p=0.3, transient_fraction=1.0)
                },
            )
        mux = stack.mux
        mux.mkdir("/w")
        handles = [mux.create(f"/w/f{i}") for i in range(10)]
        for op in range(1000):
            handle = handles[op % len(handles)]
            mux.write(handle, (op // len(handles)) * 4096, b"\xcd" * 4096)
        for handle in handles:
            mux.close(handle)
        return stack

    def test_zero_user_visible_failures(self):
        stack = self.run_workload()  # any raise fails the test
        assert stack.mux.stats.get("fault_retries") > 0
        assert stack.mux.stats.get("fault_backoff_ns") > 0
        # backoff charged simulated time, never host sleeps
        assert stack.clock.now_ns > stack.mux.stats.get("fault_backoff_ns") > 0

    def test_retry_counters_deterministic(self):
        a, b = self.run_workload(), self.run_workload()
        keys = ("fault_retries", "fault_backoff_ns", "fault_gave_up")
        assert [a.mux.stats.get(k) for k in keys] == [
            b.mux.stats.get(k) for k in keys
        ]
        assert a.clock.now_ns == b.clock.now_ns

    def test_migration_surfaces_retry_stats(self, monkeypatch):
        monkeypatch.setattr(stack_module, "FAULT_SEED", 5)
        stack = build_stack(
            faults={
                "ssd": FaultConfig(write_error_p=0.4, transient_fraction=1.0)
            },
        )
        mux = stack.mux
        handle = mux.create("/mig")
        mux.write(handle, 0, b"\xa5" * (256 * 1024))
        blocks = (256 * 1024) // mux.block_size
        result = mux.engine.migrate_now(
            MigrationOrder(
                handle.ino, 0, blocks,
                stack.tier_ids["pm"], stack.tier_ids["ssd"], reason="test",
            )
        )
        assert result.moved_blocks == blocks
        assert result.retries > 0
        assert result.backoff_ns > 0
        assert not result.gave_up
        assert mux.engine.stats.get("retries") == result.retries
        assert mux.engine.stats.get("backoff_ns") == result.backoff_ns
        mux.close(handle)


def fill_up(fs):
    """Every data write to ``fs`` answers ENOSPC although ``statfs`` still
    shows room (copy-on-write and delayed allocation can both demand more
    blocks than the snapshot promised).  Mux's own dot-files still land."""
    real = fs.write

    def full(handle, offset, data):
        if handle.path.startswith("/.mux_"):
            return real(handle, offset, data)
        raise NoSpace(f"{fs.fs_name}: needs more blocks than are free")

    fs.write = full


class TestWriteAtomicity:
    """NoSpace/DeviceError mid-write must not leave a half-updated BLT."""

    def test_failed_write_leaves_blt_untouched(self):
        # single tier, so the failing write has nowhere to spill; NOVA on
        # PM is DAX-synchronous, so the device error fires at write time
        stack = build_stack(tiers=["pm"], faults={"pm": FaultConfig()})
        mux = stack.mux
        victim = mux.create("/victim")
        mux.write(victim, 0, b"\xee" * (64 * 1024))
        inode = mux.ns.resolve("/victim")
        size_before = inode.size
        end_before = inode.blt.end_block()
        tiers_before = set(inode.blt.tiers_used())

        stack.injectors["pm"].config = FaultConfig(
            write_error_p=1.0, transient_fraction=0.0
        )
        with pytest.raises(FsError):
            mux.write(victim, 64 * 1024, b"\xa5" * (128 * 1024))
        # the write failed as a unit: no size growth, no half-mapped BLT
        assert inode.size == size_before
        assert inode.blt.end_block() == end_before
        assert set(inode.blt.tiers_used()) == tiers_before
        # the original data is still readable once the device recovers
        stack.injectors["pm"].config = FaultConfig()
        stack.injectors["pm"].clear_latched()
        assert mux.read(victim, 0, 4096) == b"\xee" * 4096
        mux.close(victim)

    def test_spill_to_survivor_is_atomic_and_complete(self):
        stack = build_stack(
            faults={
                "ssd": FaultConfig(write_error_p=1.0, transient_fraction=0.0)
            }
        )
        mux = stack.mux
        ssd = stack.tier_ids["ssd"]
        mux.registry.get(ssd).health.mark_suspect()  # placement avoids it
        handle = mux.create("/spilled")
        mux.write(handle, 0, b"\xa5" * (128 * 1024))
        inode = mux.ns.resolve("/spilled")
        assert inode.size == 128 * 1024
        assert ssd not in inode.blt.tiers_used()
        assert mux.read(handle, 0, 4096) == b"\xa5" * 4096
        mux.close(handle)


    def test_fs_nospace_spills_downhill_past_an_offline_candidate(self):
        """The placement check is a snapshot; the tier file system is the
        authority.  When it answers ENOSPC the segment spills to the next
        tier in rank order, skipping one that is OFFLINE."""
        stack = build_stack()
        mux = stack.mux
        pm, ssd, hdd = (stack.tier_ids[n] for n in ("pm", "ssd", "hdd"))

        fill_up(stack.filesystems["pm"])
        mux.mark_tier_offline(ssd)
        ssd_writes = stack.devices["ssd"].stats.write_ops
        handle = mux.create("/spilled")
        mux.write(handle, 0, b"\xa5" * (32 * 1024))
        assert mux.stats.get("write_spills") == 1
        inode = mux.ns.resolve("/spilled")
        assert inode.blt.tiers_used() == [hdd]
        assert inode.size == 32 * 1024
        assert stack.devices["ssd"].stats.write_ops == ssd_writes
        assert mux.read(handle, 0, 4096) == b"\xa5" * 4096
        mux.close(handle)

    def test_fs_nospace_everywhere_surfaces_enospc_and_keeps_the_blt(self):
        stack = build_stack(tiers=["pm", "ssd"])
        mux = stack.mux

        for fs in stack.filesystems.values():
            fill_up(fs)
        handle = mux.create("/nowhere")
        with pytest.raises(NoSpace):
            mux.write(handle, 0, b"\xa5" * 8192)
        assert mux.stats.get("write_spills") == 2
        inode = mux.ns.resolve("/nowhere")
        assert inode.size == 0 and inode.blt.tiers_used() == []
        mux.close(handle)


class TestCreateSpill:
    """``create`` hosts the file on the first tier that will take it."""

    HARD = FaultConfig(write_error_p=1.0, transient_fraction=0.0)

    def test_create_spills_past_a_failing_initial_tier(self):
        stack = build_stack(faults={"pm": self.HARD})
        mux = stack.mux
        handle = mux.create("/f")  # NOVA's log append dies; XFS takes it
        assert mux.stats.get("create_spills_fault") == 1
        inode = mux.ns.resolve("/f")
        assert inode.tiers_present == {stack.tier_ids["ssd"]}
        assert stack.vfs.exists("/tiers/ssd/f")
        # Mux's own metafile lives on the failing tier: deferred, not fatal
        assert mux.meta.stats.get("flush_deferred") >= 1
        mux.close(handle)

    def test_create_rolls_the_namespace_back_when_no_tier_can_host(self):
        stack = build_stack(faults={"pm": self.HARD})
        mux = stack.mux
        mux.mark_tier_offline(stack.tier_ids["ssd"])
        mux.mark_tier_offline(stack.tier_ids["hdd"])
        with pytest.raises(TierUnavailable):
            mux.create("/f")
        assert mux.stats.get("create_spills_fault") == 1
        assert mux.stats.get("create") == 0
        assert not mux.exists("/f")  # the name is free again...
        assert mux.readdir("/") == []
        stack.injectors["pm"].config = FaultConfig()
        stack.injectors["pm"].clear_latched()
        mux.write_file("/f", b"second try")  # ...and reusable
        assert mux.read_file("/f") == b"second try"


class TestOfflineTierIsSkipped:
    """unlink / truncate / fsync keep serving a file that spans a dead
    tier: the survivors are updated, the debt is counted for fsck."""

    @pytest.fixture
    def spanning(self):
        stack = build_stack()
        mux = stack.mux
        handle = mux.create("/span")
        mux.write(handle, 0, b"\xa5" * (8 * 4096))
        pm, ssd, hdd = (stack.tier_ids[n] for n in ("pm", "ssd", "hdd"))
        mux.engine.migrate_now(MigrationOrder(handle.ino, 0, 4, pm, ssd))
        mux.engine.migrate_now(MigrationOrder(handle.ino, 4, 4, pm, hdd))
        mux.mark_tier_offline(ssd)
        return stack, handle

    def test_fsync_flushes_the_survivors(self, spanning):
        stack, handle = spanning
        mux = stack.mux
        # a sub-block write updates its block in place: dirty on the hdd
        mux.write(handle, 4 * 4096 + 10, b"\x5a" * 100)
        hdd_writes = stack.devices["hdd"].stats.write_ops
        mux.fsync(handle)
        assert mux.stats.get("fsync_skipped_offline") == 1
        assert stack.devices["hdd"].stats.write_ops > hdd_writes
        mux.close(handle)

    def test_truncate_cuts_the_survivors(self, spanning):
        stack, handle = spanning
        mux = stack.mux
        assert stack.vfs.getattr("/tiers/ssd/span").size == 4 * 4096
        mux.truncate(handle, 2 * 4096)
        assert mux.stats.get("truncate_skipped_offline") == 1
        assert mux.getattr("/span").size == 2 * 4096
        assert stack.vfs.getattr("/tiers/hdd/span").size == 2 * 4096
        # the dead tier's backing file could not be cut; Mux's own size
        # governs, so the stale tail is never served once it returns
        assert stack.vfs.getattr("/tiers/ssd/span").size == 4 * 4096
        mux.mark_tier_online(stack.tier_ids["ssd"])
        assert mux.read(handle, 0, 8 * 4096) == b"\xa5" * (2 * 4096)
        assert fsck.check_mux(mux, deep=True) == []
        mux.close(handle)

    def test_unlink_leaves_the_dead_tiers_backing_file_for_fsck(self, spanning):
        stack, handle = spanning
        mux = stack.mux
        mux.close(handle)
        mux.unlink("/span")
        assert mux.stats.get("unlink_skipped_offline") == 1
        assert not mux.exists("/span")
        assert not stack.vfs.exists("/tiers/hdd/span")
        assert stack.vfs.exists("/tiers/ssd/span")  # the orphan


class TestDeviceDiesUnderANamespaceOp:
    """unlink / rename / truncate / punch_hole / rmdir reach the tiers
    through the same door as reads and writes: a device that dies under
    one of them surfaces EIO and takes its tier OFFLINE — never a raw
    device error, never a tier left HEALTHY."""

    @pytest.fixture
    def on_dead_ssd(self):
        stack = build_stack(faults={"ssd": FaultConfig()})
        handle = place_on(stack, "/f", "ssd")
        stack.mux.fsync(handle)
        stack.injectors["ssd"].set_offline()
        return stack, handle

    def test_unlink_fails_with_eio_then_skips_the_dead_tier(self, on_dead_ssd):
        stack, handle = on_dead_ssd
        mux = stack.mux
        mux.close(handle)
        with pytest.raises(TierUnavailable) as err:
            mux.unlink("/f")
        assert err.value.errno == errno.EIO
        assert mux.registry.get(stack.tier_ids["ssd"]).health.is_offline
        assert mux.exists("/f")  # the namespace entry is intact
        mux.unlink("/f")  # the tier is now known dead: skipped, not retried
        assert mux.stats.get("unlink_skipped_offline") == 1
        assert not mux.exists("/f")

    def test_rename_fails_with_eio(self, on_dead_ssd):
        stack, _ = on_dead_ssd
        mux = stack.mux
        with pytest.raises(TierUnavailable) as err:
            mux.rename("/f", "/g")
        assert err.value.errno == errno.EIO
        assert mux.registry.get(stack.tier_ids["ssd"]).health.is_offline

    def test_rename_is_refused_while_a_participating_tier_is_offline(self):
        stack = build_stack()
        mux = stack.mux
        mux.close(place_on(stack, "/f", "ssd"))
        mux.mark_tier_offline(stack.tier_ids["ssd"])
        with pytest.raises(TierUnavailable):
            mux.rename("/f", "/g")
        assert mux.stats.get("rename_refused_offline") == 1
        assert mux.exists("/f") and not mux.exists("/g")
        mux.mark_tier_online(stack.tier_ids["ssd"])
        mux.rename("/f", "/g")
        assert mux.read_file("/g") == b"\xa5" * (64 * 1024)

    NAMESPACE_OPS = {
        "unlink": lambda mux, handle: mux.unlink("/d/f"),
        "rename": lambda mux, handle: mux.rename("/d/f", "/g"),
        "truncate": lambda mux, handle: mux.truncate(handle, 100),
        "punch_hole": lambda mux, handle: mux.punch_hole(handle, 0, 4096),
        "rmdir": lambda mux, handle: mux.rmdir("/d/empty"),
    }

    @pytest.mark.parametrize("vfs_call", sorted(NAMESPACE_OPS))
    def test_no_tier_call_escapes_the_call_maker(self, monkeypatch, vfs_call):
        stack = build_stack()
        mux = stack.mux
        mux.mkdir("/d")
        handle = place_on(stack, "/d/f", "ssd")
        mux.mkdir("/d/empty")
        mux.close(place_on(stack, "/d/empty/x", "ssd"))
        mux.unlink("/d/empty/x")  # leaves the directory's skeleton on the ssd

        real = getattr(stack.vfs, vfs_call)

        def dies_on_ssd(target, *args):
            fs = target.fs if vfs_call in ("truncate", "punch_hole") else (
                stack.vfs.resolve(target)[0]
            )
            if fs is stack.filesystems["ssd"]:
                raise DeviceOffline("ssd0 is offline")
            return real(target, *args)

        monkeypatch.setattr(stack.vfs, vfs_call, dies_on_ssd)
        with pytest.raises(FsError) as err:
            self.NAMESPACE_OPS[vfs_call](mux, handle)
        assert err.value.errno == errno.EIO
        assert mux.registry.get(stack.tier_ids["ssd"]).health.is_offline


class TestEvacuation:
    def test_evacuate_offline_device_reports_failures(self):
        """If the device still rejects reads, the drain fails loudly."""
        stack = build_stack(faults={"ssd": FaultConfig()})
        mux = stack.mux
        ssd = stack.tier_ids["ssd"]
        handle = place_on(stack, "/stuck", "ssd")
        stack.injectors["ssd"].set_offline()
        mux.mark_tier_offline(ssd)
        # a warm page cache can rescue data off a dead device (DRAM copy);
        # drop it so the drain really has to read the rejecting media
        stack.filesystems["ssd"].page_cache.drop_clean()
        summary = mux.evacuate(ssd)
        assert summary["files_failed"] == 1
        assert summary["files_drained"] == 0
        assert mux.ns.resolve("/stuck").blt.blocks_on(ssd) > 0
        mux.close(handle)

    def test_evacuate_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(stack_module, "FAULT_SEED", 23)

        def run():
            stack = build_stack(
                faults={
                    "ssd": FaultConfig(
                        read_error_p=0.2, transient_fraction=1.0
                    )
                },
            )
            handles = [
                place_on(stack, f"/e{i}", "ssd") for i in range(4)
            ]
            summary = stack.mux.evacuate(stack.tier_ids["ssd"])
            for handle in handles:
                stack.mux.close(handle)
            return summary, stack.clock.now_ns

        assert run() == run()

    def test_remove_tier_routes_around_an_offline_refuge(self):
        """remove_tier used to pick refuges fastest-first without looking
        at health: with PM offline it chose PM, the engine's health gate
        gave up, and the call died although the HDD was healthy and had
        room.  Both drains now skip non-HEALTHY destinations."""
        stack = build_stack()
        mux = stack.mux
        pm, ssd, hdd = (stack.tier_ids[n] for n in ("pm", "ssd", "hdd"))
        handle = mux.create("/a")
        mux.set_placement("/a", ssd)
        mux.write(handle, 0, b"\xa5" * 8192)
        mux.fsync(handle)
        inode = mux.ns.resolve("/a")
        assert inode.blt.blocks_on(ssd) == 2
        mux.mark_tier_offline(pm)
        mux.remove_tier(ssd)
        assert ssd not in mux.tier_ids()
        assert inode.blt.blocks_on(hdd) == 2
        # nothing points at the departed tier; what it owned failed over
        # to the healthy survivor, not to the dead PM
        owners = inode.affinity.owners()
        assert ssd not in owners.values()
        assert owners["size"] == owners["mtime"] == hdd
        assert inode.pinned_tier is None
        assert mux.read(handle, 0, 8192) == b"\xa5" * 8192
        mux.close(handle)
