"""Unit tests for the deterministic fault-injection substrate.

Covers the injector itself (seeded schedules, transient vs. persistent
latching, torn-prefix materialization, latency spikes, offline rejection)
and its wiring through :func:`repro.stack.build_stack`.
"""

import pytest

from repro.devices.base import Device
from repro.devices.faults import FaultConfig, FaultInjector
from repro.devices.profile import OPTANE_SSD_P4800X
from repro.errors import DeviceIoError, DeviceOffline
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro import stack as stack_module
from repro.stack import build_stack

MIB = 1024 * 1024


def make_device(config=None, seed=42):
    clock = SimClock()
    device = Device("d0", OPTANE_SSD_P4800X, 16 * MIB, clock)
    if config is not None:
        device.set_fault_injector(FaultInjector("d0", config, DeterministicRng(seed)))
    return device, clock


class TestSchedules:
    def test_same_seed_same_schedule(self):
        """The whole point: a (seed, op sequence) pair replays exactly."""

        def run(seed):
            device, _ = make_device(FaultConfig(write_error_p=0.3), seed=seed)
            outcomes = []
            for i in range(200):
                try:
                    device.write_blocks(i % 64, b"\xaa" * device.block_size)
                    outcomes.append("ok")
                except DeviceIoError:
                    outcomes.append("err")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)  # different seed, different schedule

    def test_fork_is_stable(self):
        """Substreams derive from the label, not the process hash salt."""
        a = DeterministicRng(99).fork("ssd")
        b = DeterministicRng(99).fork("ssd")
        assert [a.random() for _ in range(16)] == [b.random() for _ in range(16)]
        c = DeterministicRng(99).fork("hdd")
        assert [c.random() for _ in range(4)] != [
            DeterministicRng(99).fork("ssd").random() for _ in range(4)
        ]

    def test_no_injector_no_errors(self):
        device, _ = make_device(None)
        for i in range(50):
            device.write_blocks(i, b"\xaa" * device.block_size)
            device.read_blocks(i, 1)


class TestTransientVsPersistent:
    def test_transient_errors_do_not_latch(self):
        device, _ = make_device(
            FaultConfig(write_error_p=1.0, transient_fraction=1.0)
        )
        with pytest.raises(DeviceIoError) as excinfo:
            device.write_blocks(0, b"\xaa" * device.block_size)
        assert excinfo.value.transient
        assert not device.faults._latched_write

    def test_persistent_errors_latch_the_block(self):
        device, _ = make_device(
            FaultConfig(write_error_p=1.0, transient_fraction=0.0)
        )
        with pytest.raises(DeviceIoError) as excinfo:
            device.write_blocks(3, b"\xaa" * device.block_size)
        assert not excinfo.value.transient
        # the defect persists with the error probability turned off: the
        # latch, not the coin flip, is what keeps failing
        device.faults.config = FaultConfig()
        with pytest.raises(DeviceIoError):
            device.write_blocks(3, b"\xbb" * device.block_size)
        device.write_blocks(9, b"\xcc" * device.block_size)  # other blocks fine

    def test_clear_latched_repairs(self):
        device, _ = make_device(FaultConfig())
        device.faults.fail_block(5)
        with pytest.raises(DeviceIoError):
            device.read_blocks(5, 1)
        device.faults.clear_latched()
        device.read_blocks(5, 1)


class TestTornWrites:
    def test_torn_write_materializes_prefix(self):
        device, _ = make_device(FaultConfig(torn_write_p=1.0))
        bs = device.block_size
        payload = b"".join(bytes([i]) * bs for i in range(1, 5))
        with pytest.raises(DeviceIoError) as excinfo:
            device.write_blocks(0, payload)
        assert excinfo.value.transient
        prefix = device.faults.stats.get("torn_writes")
        assert prefix == 1
        # some strict prefix of the four blocks made it to the media,
        # the rest still hold zeroes
        data = device.read_blocks(0, 4)
        written = [data[i * bs : (i + 1) * bs] != bytes(bs) for i in range(4)]
        assert any(written) and not all(written)
        assert written == sorted(written, reverse=True)  # prefix, not holes

    def test_single_block_writes_never_tear(self):
        device, _ = make_device(FaultConfig(torn_write_p=1.0))
        for i in range(30):
            device.write_blocks(i, b"\xaa" * device.block_size)
        assert device.faults.stats.get("torn_writes") == 0


class TestLatencySpikes:
    def test_spike_multiplies_cost(self):
        plain, plain_clock = make_device(None)
        spiky, spiky_clock = make_device(
            FaultConfig(latency_spike_p=1.0, latency_spike_mult=8.0)
        )
        plain.read_blocks(0, 4)
        spiky.read_blocks(0, 4)
        assert spiky_clock.now_ns == 8 * plain_clock.now_ns

    def test_no_spike_no_charge(self):
        plain, plain_clock = make_device(None)
        quiet, quiet_clock = make_device(FaultConfig(latency_spike_p=0.0))
        plain.read_blocks(0, 4)
        quiet.read_blocks(0, 4)
        assert quiet_clock.now_ns == plain_clock.now_ns


class TestOffline:
    def test_offline_rejects_everything(self):
        device, _ = make_device(FaultConfig())
        device.faults.set_offline()
        with pytest.raises(DeviceOffline):
            device.read_blocks(0, 1)
        with pytest.raises(DeviceOffline):
            device.write_blocks(0, b"\xaa" * device.block_size)
        assert device.faults.stats.get("offline_rejections") == 2

    def test_online_restores_service(self):
        device, _ = make_device(FaultConfig())
        device.faults.set_offline()
        device.faults.set_online()
        device.write_blocks(0, b"\xaa" * device.block_size)
        assert device.read_blocks(0, 1) == b"\xaa" * device.block_size


class TestStackWiring:
    def test_build_stack_attaches_injectors(self):
        stack = build_stack(faults={"ssd": FaultConfig(write_error_p=0.1)})
        assert set(stack.injectors) == {"ssd"}
        assert stack.devices["ssd"].faults is stack.injectors["ssd"]
        assert stack.devices["pm"].faults is None
        assert stack.devices["hdd"].faults is None

    def test_unknown_tier_rejected(self):
        from repro.errors import InvalidArgument

        with pytest.raises(InvalidArgument):
            build_stack(faults={"tape": FaultConfig()})

    def test_per_device_streams_independent(self, monkeypatch):
        """Faulting hdd too must not perturb ssd's schedule."""
        monkeypatch.setattr(stack_module, "FAULT_SEED", 11)

        def ssd_draws(fault_map):
            stack = build_stack(faults=fault_map)
            return [stack.injectors["ssd"].rng.random() for _ in range(8)]

        only_ssd = ssd_draws({"ssd": FaultConfig(write_error_p=0.2)})
        both = ssd_draws(
            {
                "hdd": FaultConfig(write_error_p=0.2),
                "ssd": FaultConfig(write_error_p=0.2),
            }
        )
        assert only_ssd == both

    def test_spike_mult_defaults_per_kind(self):
        stack = build_stack(
            faults={
                "pm": FaultConfig(latency_spike_p=0.5),
                "hdd": FaultConfig(latency_spike_p=0.5),
            }
        )
        pm_mult = stack.injectors["pm"].config.latency_spike_mult
        hdd_mult = stack.injectors["hdd"].config.latency_spike_mult
        assert pm_mult < hdd_mult  # PM spikes are mild, HDD seek storms are not

    def test_healthy_stack_charges_nothing_extra(self):
        """A stack with no faults map runs bit-identical to the plain one."""

        def fingerprint(**kwargs):
            stack = build_stack(**kwargs)
            handle = stack.mux.create("/f")
            stack.mux.write(handle, 0, b"\xa5" * 65536)
            stack.mux.fsync(handle)
            stack.mux.read(handle, 0, 65536)
            stack.mux.close(handle)
            return (
                stack.clock.now_ns,
                {n: d.stats.snapshot() for n, d in sorted(stack.devices.items())},
            )

        assert fingerprint() == fingerprint(faults=None)
