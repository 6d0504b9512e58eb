"""Latency histograms + O_SYNC semantics."""

import pytest

from repro.core.policies import TpfsPolicy
from repro.sim.histogram import LatencyHistogram
from repro.stack import build_stack
from repro.vfs.interface import OpenFlags

MIB = 1024 * 1024


class TestLatencyHistogram:
    def test_basic_stats(self):
        hist = LatencyHistogram()
        for value in (100, 200, 300, 400):
            hist.record(value)
        assert hist.count == 4
        assert hist.mean_ns == 250
        assert hist.max_ns == 400
        assert hist.min_seen_ns == 100

    def test_percentiles_bounded_by_bucket(self):
        hist = LatencyHistogram(growth=1.07)
        for value in range(1000, 2000):
            hist.record(value)
        p50 = hist.percentile(0.5)
        assert 1400 <= p50 <= 1650  # within one bucket of the true median
        assert hist.percentile(1.0) == hist.max_ns

    def test_p99_catches_tail(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(1000)
        hist.record(1_000_000)
        assert hist.percentile(0.99) <= 1100
        assert hist.percentile(0.999) >= 900_000

    def test_interpolates_within_bucket(self):
        # 100 samples land in one middle bucket (the envelope is widened by
        # one outlier on each side); quantiles should move smoothly through
        # that bucket instead of snapping to its upper bound.
        hist = LatencyHistogram(growth=1.07)
        hist.record(10)
        for _ in range(100):
            hist.record(1000)
        hist.record(1_000_000)
        index = hist._bucket_index(1000)
        lower = hist._bucket_lower_ns(index)
        upper = hist._bucket_upper_ns(index)
        p25 = hist.percentile(0.25)
        p75 = hist.percentile(0.75)
        assert lower < p25 < p75 < upper  # strictly increasing within the bucket

    def test_identical_samples_collapse_to_value(self):
        # With every sample equal, clamping to the observed envelope makes
        # every quantile exactly that value — no bucket-bound inflation.
        hist = LatencyHistogram(growth=1.07)
        for _ in range(50):
            hist.record(777)
        assert hist.percentile(0.5) == 777
        assert hist.percentile(0.999) == 777

    def test_p999_not_quantized_to_bucket_bound(self):
        # Two histograms whose tails differ within one bucket must report
        # different p999 values — the pre-interpolation behaviour returned
        # the shared bucket upper bound for both.
        a = LatencyHistogram(growth=1.07)
        b = LatencyHistogram(growth=1.07)
        for _ in range(2000):
            a.record(1000)
            b.record(1000)
        for _ in range(5):
            a.record(1_000_000)
        for _ in range(1):
            b.record(1_000_000)
        assert a.percentile(0.999) > b.percentile(0.999)

    def test_percentiles_ns_keys(self):
        hist = LatencyHistogram()
        for value in (100, 200, 400, 800):
            hist.record(value)
        out = hist.percentiles_ns(0.5, 0.99, 0.999)
        assert set(out) == {"p50", "p99", "p999"}
        assert all(isinstance(v, int) for v in out.values())
        assert out["p50"] <= out["p99"] <= out["p999"]

    def test_invalid_inputs(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(-1)
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)

    def test_merge(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        a.record(100)
        b.record(300)
        a.merge(b)
        assert a.count == 2
        assert a.max_ns == 300

    def test_merge_parameter_mismatch(self):
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.07).merge(LatencyHistogram(growth=1.5))

    def test_summary(self):
        hist = LatencyHistogram()
        hist.record(2000)
        summary = hist.summary_us()
        assert summary["count"] == 1
        assert summary["mean_us"] == 2.0

    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.99) == 0.0
        assert hist.mean_ns == 0.0

    def test_buckets_listing(self):
        hist = LatencyHistogram()
        hist.record(5)
        hist.record(10_000)
        pairs = hist.buckets()
        assert len(pairs) == 2
        assert sum(count for _, count in pairs) == 2


class TestOSync:
    def test_sync_write_durable_without_fsync(self):
        stack = build_stack(enable_cache=False)
        mux = stack.mux
        from repro.core.policies import PinnedPolicy

        mux.policy = PinnedPolicy(stack.tier_id("hdd"))
        handle = mux.open("/f", OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.SYNC)
        mux.write(handle, 0, b"SYNCWRITE")
        # crash immediately: O_SYNC means the data must already be durable
        mux.crash()
        mux.recover()
        assert mux.read_file("/f") == b"SYNCWRITE"

    def test_sync_writes_slower(self):
        stack = build_stack(enable_cache=False)
        mux = stack.mux
        from repro.core.policies import PinnedPolicy

        mux.policy = PinnedPolicy(stack.tier_id("hdd"))
        clock = stack.clock
        plain = mux.open("/plain", OpenFlags.RDWR | OpenFlags.CREAT)
        t0 = clock.now_ns
        mux.write(plain, 0, bytes(4096))
        plain_cost = clock.now_ns - t0
        sync = mux.open("/sync", OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.SYNC)
        t0 = clock.now_ns
        mux.write(sync, 0, bytes(4096))
        sync_cost = clock.now_ns - t0
        assert sync_cost > plain_cost * 5
        mux.close(plain)
        mux.close(sync)

    def test_tpfs_routes_sync_writes_to_pm(self):
        stack = build_stack(policy=TpfsPolicy(), enable_cache=False)
        mux = stack.mux
        # large writes normally go to hdd; O_SYNC forces them to pm
        handle = mux.open("/s", OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.SYNC)
        mux.write(handle, 0, bytes(4 * MIB))
        inode = mux.ns.get(handle.ino)
        assert inode.blt.tiers_used() == [stack.tier_id("pm")]
        mux.close(handle)

    def test_native_sync_write(self, ext4):
        handle = ext4.open("/f", OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.SYNC)
        ext4.write(handle, 0, b"durable now")
        ext4.crash()
        ext4.recover()
        assert ext4.read_file("/f") == b"durable now"
