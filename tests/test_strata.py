"""Strata baseline: log-then-digest writes, static migration routing,
extent-tree locking, write amplification."""

import pytest

from repro.errors import MigrationUnsupported
from repro.strata.fs import DEVICE_INDICES, SUPPORTED_MIGRATIONS, decode, encode

BS = 4096


class TestEncoding:
    def test_roundtrip(self):
        value = encode(2, 12345)
        assert decode(value) == (2, 12345)

    def test_devices_distinct(self):
        assert decode(encode(0, 5))[0] != decode(encode(1, 5))[0]


class TestLogThenDigest:
    def test_writes_land_in_log(self, strata, pm):
        handle = strata.create("/f")
        writes_before = pm.stats.bytes_written
        strata.write(handle, 0, bytes(8 * BS))
        assert pm.stats.bytes_written >= writes_before + 8 * BS
        assert strata.log_utilization > 0
        strata.close(handle)

    def test_digest_empties_log(self, strata):
        strata.write_file("/f", bytes(16 * BS))
        assert strata.log_utilization > 0
        strata.digest()
        assert strata.log_utilization == 0

    def test_reads_served_from_log_before_digest(self, strata):
        handle = strata.create("/f")
        strata.write(handle, 0, b"in the log")
        assert strata.read(handle, 0, 10) == b"in the log"
        strata.close(handle)

    def test_reads_after_digest(self, strata):
        handle = strata.create("/f")
        strata.write(handle, 0, b"digested")
        strata.digest()
        assert strata.read(handle, 0, 8) == b"digested"
        strata.close(handle)

    def test_pm_write_amplification(self, strata, pm):
        """Log + digest writes PM-bound data twice (§3.1's criticism)."""
        strata.pin_target = "pm"
        handle = strata.create("/f")
        written = 16 * BS
        before = pm.stats.bytes_written
        strata.write(handle, 0, bytes(written))
        strata.digest()
        amplification = (pm.stats.bytes_written - before) / written
        assert amplification >= 1.9
        strata.close(handle)

    def test_digest_targets_pinned_device(self, strata, ssd):
        strata.pin_target = "ssd"
        strata.write_file("/f", bytes(8 * BS))
        before = ssd.stats.bytes_written
        strata.digest()
        assert ssd.stats.bytes_written >= before + 8 * BS

    def test_log_full_forces_digest(self, strata):
        # keep writing until the log area would overflow
        handle = strata.create("/f")
        log_capacity = strata._log_alloc.count * BS
        strata.write(handle, 0, bytes(min(log_capacity // 2, 4 * 1024 * 1024)))
        digests_before = strata.stats.get("digests")
        offset = 0
        while strata.stats.get("digests") == digests_before:
            strata.write(handle, offset, bytes(64 * BS))
            offset += 64 * BS
        assert strata.stats.get("digests") > digests_before
        strata.close(handle)

    def test_overwrite_in_log_frees_old_entry(self, strata):
        handle = strata.create("/f")
        strata.write(handle, 0, bytes(BS))
        used = strata._log_alloc.used_blocks
        for _ in range(5):
            strata.write(handle, 0, bytes(BS))
        assert strata._log_alloc.used_blocks == used
        strata.close(handle)


class TestStaticRouting:
    def test_supported_pairs_exactly_figure_3a(self, strata):
        expected = {("pm", "ssd"), ("pm", "hdd")}
        names = ["pm", "ssd", "hdd"]
        supported = {
            (s, d)
            for s in names
            for d in names
            if s != d and strata.supports_migration(s, d)
        }
        assert supported == expected
        assert len(SUPPORTED_MIGRATIONS) == 2

    @pytest.mark.parametrize(
        "src,dst", [("ssd", "pm"), ("ssd", "hdd"), ("hdd", "pm"), ("hdd", "ssd")]
    )
    def test_unwired_pairs_raise_ns(self, strata, src, dst):
        strata.write_file("/f", bytes(4 * BS))
        strata.digest()
        with pytest.raises(MigrationUnsupported):
            strata.migrate_blocks("/f", 0, 4, src, dst)

    def test_pm_to_ssd_migration_moves_data(self, strata, ssd):
        strata.pin_target = "pm"
        strata.write_file("/f", bytes(16 * BS))
        strata.digest()
        before = ssd.stats.bytes_written
        moved = strata.migrate_blocks("/f", 0, 16, "pm", "ssd")
        assert moved == 16
        assert ssd.stats.bytes_written >= before + 16 * BS
        assert strata.read_file("/f") == bytes(16 * BS)

    def test_migration_skips_log_resident_blocks(self, strata):
        strata.pin_target = "pm"
        strata.write_file("/f", bytes(4 * BS))  # still in the log
        moved = strata.migrate_blocks("/f", 0, 4, "pm", "ssd")
        assert moved == 0

    def test_pair_stats_track_throughput(self, strata):
        strata.pin_target = "pm"
        strata.write_file("/f", bytes(32 * BS))
        strata.digest()
        strata.migrate_blocks("/f", 0, 32, "pm", "ssd")
        assert strata.pair_stats[("pm", "ssd")].throughput_mb_s() > 0


class TestExtentTreeLocking:
    def test_ops_during_digest_pay_lock_cost(self, strata, clock):
        handle = strata.create("/f")
        strata.write(handle, 0, bytes(BS))
        t0 = clock.now_ns
        strata.read(handle, 0, 1)
        free_cost = clock.now_ns - t0
        strata._tree_busy = True
        t0 = clock.now_ns
        strata.read(handle, 0, 1)
        locked_cost = clock.now_ns - t0
        strata._tree_busy = False
        assert locked_cost > free_cost
        strata.close(handle)


class TestStrataPosix:
    """Strata still behaves like a POSIX FS through the same interface."""

    def test_sparse(self, strata):
        handle = strata.create("/f")
        strata.write(handle, 10 * BS, b"tail")
        assert strata.read(handle, 0, 4) == bytes(4)
        assert strata.read(handle, 10 * BS, 4) == b"tail"
        strata.close(handle)

    def test_truncate(self, strata):
        handle = strata.create("/f")
        strata.write(handle, 0, b"0123456789")
        strata.truncate(handle, 4)
        assert strata.read(handle, 0, 10) == b"0123"
        strata.close(handle)

    def test_namespace(self, strata):
        strata.mkdir("/d")
        strata.write_file("/d/f", b"x")
        strata.rename("/d/f", "/d/g")
        assert strata.readdir("/d") == ["g"]
        strata.unlink("/d/g")
        strata.rmdir("/d")

    def test_digest_after_unlink_drops_stale_entries(self, strata):
        strata.write_file("/f", bytes(8 * BS))
        strata.unlink("/f")
        strata.digest()  # must not crash on stale log entries
        assert strata.log_utilization == 0

    def test_statfs_aggregates_devices(self, strata, pm, ssd, hdd):
        total = strata.statfs().total_blocks
        assert total > ssd.num_blocks  # more than any single device

    def test_crash_loses_nothing(self, strata):
        strata.write_file("/f", b"logged and flushed")
        strata.crash()
        strata.recover()
        assert strata.read_file("/f") == b"logged and flushed"

    def test_crash_after_digest(self, strata):
        strata.write_file("/f", bytes(16 * 4096))
        strata.digest()
        strata.crash()
        strata.recover()
        assert strata.read_file("/f") == bytes(16 * 4096)
        assert not strata._tree_busy
