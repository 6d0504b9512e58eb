"""Contracts of the placement snapshots and of the write-spill order.

``TierState``, ``FileView``, ``PlacementRequest`` and ``FsStats`` are
read-only records handed across the policy and VFS boundaries: they must
refuse attribute assignment, build from keywords with their defaults and
keep their derived properties, whatever type implements them.  The load
a ``TierState`` carries is :meth:`PressureMonitor.load_of`, whose rule is
pinned here too.

``MuxFileSystem._write_segment`` writes a segment on the tier placement
chose and, when that tier is offline or its file system refuses, spills:
slower (or equal) ranks first, fastest-first, then the faster ones.  The
spill order is built only once the placed tier has been passed over, so
the common case asks the registry for no ordering at all.
"""

from __future__ import annotations

import pytest

from repro.core.health import HealthState
from repro.core.policy import FileView, PlacementRequest, TierState
from repro.core.pressure import PressureMonitor
from repro.devices.profile import DeviceKind
from repro.errors import NoSpace
from repro.stack import build_stack
from repro.vfs.stat import FsStats

MIB = 1024 * 1024


# -- the four snapshot records ------------------------------------------------


def test_tier_state_defaults_and_properties():
    state = TierState(
        tier_id=2, name="hdd", rank=2, kind=DeviceKind.HARD_DISK,
        free_bytes=25 * MIB, total_bytes=100 * MIB,
    )
    assert state.health is HealthState.HEALTHY
    assert state.load == 0.0
    assert state.used_bytes == 75 * MIB
    assert state.utilization == 0.75
    empty = TierState(
        tier_id=0, name="x", rank=0, kind=DeviceKind.SOLID_STATE,
        free_bytes=0, total_bytes=0,
    )
    assert empty.utilization == 0.0


class _Gauge:
    """A load hint whose backlog the test sets directly."""

    nchannels = 2

    def __init__(self) -> None:
        self.queued = 0

    def queued_at(self, now_ns: int) -> int:
        return self.queued


def test_tier_pressure_defaults_and_load():
    monitor = PressureMonitor()
    gauge = _Gauge()
    monitor.attach(1, gauge)
    # untracked and never-sampled tiers both read as unloaded
    assert monitor.load_of(0) == 0.0
    assert monitor.load_of(1) == 0.0
    # the placement signal is the larger of the instant and smoothed
    # per-channel backlog: a burst shows at once ...
    monitor.sample(0)
    gauge.queued = 4
    monitor.sample(monitor.sample_interval_ns)
    assert monitor.snapshot()[1] == {"queued": 2.0, "backlog": 0.6, "samples": 2}
    assert monitor.load_of(1) == 2.0
    # ... and its tail decays through the EWMA instead of dropping to 0
    gauge.queued = 0
    monitor.sample(2 * monitor.sample_interval_ns)
    assert monitor.load_of(1) == monitor.snapshot()[1]["backlog"] == 0.42


def test_placement_request_defaults():
    request = PlacementRequest(path="/f", ino=7, length=4096)
    assert request.synchronous is False
    assert request.length == 4096


def test_fs_stats_properties():
    stats = FsStats(block_size=4096, total_blocks=100, free_blocks=25)
    assert stats.free_bytes == 25 * 4096
    assert stats.total_bytes == 100 * 4096
    assert stats.used_bytes == 75 * 4096
    assert stats.utilization == 0.75


@pytest.mark.parametrize(
    "record, field",
    [
        (TierState(0, "pm", 0, DeviceKind.PERSISTENT_MEMORY, 1, 2), "free_bytes"),
        (FileView(1, "/f", 0), "size"),
        (PlacementRequest("/f", 1, 1), "length"),
        (FsStats(4096, 1, 1), "free_blocks"),
    ],
)
def test_records_reject_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.brand_new_attribute = 1


# -- spill order --------------------------------------------------------------


@pytest.fixture
def stack():
    return build_stack(enable_cache=False)


def spy_writes(mux, full=()):
    """Record the tier of every segment write; tiers in ``full`` answer
    ENOSPC the way a file system out of blocks does."""
    visited = []
    real = mux.files.write

    def write(inode, tier_id, offset, data, **kwargs):
        visited.append(tier_id)
        if tier_id in full:
            raise NoSpace(f"tier {tier_id} full")
        return real(inode, tier_id, offset, data, **kwargs)

    mux.files.write = write
    return visited


def count_ordered(mux):
    calls = []
    real = mux.registry.ordered

    def ordered():
        calls.append(1)
        return real()

    mux.registry.ordered = ordered
    return calls


def new_inode(mux, path="/spill"):
    handle = mux.create(path)
    return mux.ns.get(handle.ino)


def test_spill_from_a_full_middle_tier_goes_slower_first_then_faster(stack):
    mux = stack.mux
    pm, ssd, hdd = (stack.tier_ids[n] for n in ("pm", "ssd", "hdd"))
    inode = new_inode(mux)
    visited = spy_writes(mux, full={ssd, hdd})
    landed = mux._write_segment(inode, ssd, 0, b"\x5a" * 8192)
    assert landed == pm
    assert visited == [ssd, hdd, pm]
    assert mux.stats.get("write_spills") == 2


def test_spill_from_the_slowest_tier_goes_fastest_first(stack):
    mux = stack.mux
    pm, ssd, hdd = (stack.tier_ids[n] for n in ("pm", "ssd", "hdd"))
    inode = new_inode(mux)
    visited = spy_writes(mux, full={hdd, pm})
    assert mux._write_segment(inode, hdd, 0, b"\x5a" * 4096) == ssd
    assert visited == [hdd, pm, ssd]


def test_an_offline_placed_tier_is_skipped(stack):
    mux = stack.mux
    pm, ssd = stack.tier_ids["pm"], stack.tier_ids["ssd"]
    inode = new_inode(mux)
    mux.mark_tier_offline(pm)
    visited = spy_writes(mux)
    assert mux._write_segment(inode, pm, 0, b"\x5a" * 4096) == ssd
    assert visited == [ssd]
    assert mux.stats.get("write_spills") == 0


def test_everything_full_raises_the_last_enospc(stack):
    mux = stack.mux
    inode = new_inode(mux)
    visited = spy_writes(mux, full=set(stack.tier_ids.values()))
    with pytest.raises(NoSpace):
        mux._write_segment(inode, stack.tier_ids["ssd"], 0, b"\x5a" * 4096)
    assert len(visited) == 3


def test_a_write_that_lands_asks_for_no_ordering(stack):
    mux = stack.mux
    inode = new_inode(mux)
    calls = count_ordered(mux)
    assert mux._write_segment(inode, stack.tier_ids["ssd"], 0, b"\x5a" * 4096) == (
        stack.tier_ids["ssd"]
    )
    assert calls == []
