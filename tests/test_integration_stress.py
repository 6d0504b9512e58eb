"""Capstone integration test: a day in the life of the stack.

Mixed application workloads, background policy maintenance, asynchronous
migrations racing foreground writes, a crash in the middle, recovery —
then full fsck of every layer and content verification of files whose
durability was guaranteed.
"""

import pytest

from repro.bench import macro
from repro.bench.macro import fileserver, varmail, webserver
from repro.core.policies import LruTieringPolicy
from repro.sim.rng import DeterministicRng
from repro.stack import build_stack
from repro.tools.fsck import check_mux, check_native_fs
from repro.vfs.interface import OpenFlags

MIB = 1024 * 1024
BS = 4096


class EagerLru(LruTieringPolicy):
    HIGH_WATERMARK = 0.7
    LOW_WATERMARK = 0.5


@pytest.fixture
def world():
    return build_stack(
        capacities={"pm": 24 * MIB, "ssd": 64 * MIB, "hdd": 256 * MIB},
        policy=EagerLru(),
    )


class TestDayInTheLife:
    def test_full_lifecycle(self, world, monkeypatch):
        mux = world.mux
        rng = DeterministicRng(99)

        # --- phase 1: applications do their thing --------------------------
        monkeypatch.setattr(macro, "FILESERVER_SEED", 1)
        monkeypatch.setattr(macro, "WEBSERVER_SEED", 2)
        monkeypatch.setattr(macro, "VARMAIL_SEED", 3)
        fileserver(mux, world.clock, files=12, operations=120)
        webserver(mux, world.clock, files=40, operations=200)
        varmail(mux, world.clock, operations=80)
        mux.maintain()

        # --- phase 2: a durable database file + async migration races ------
        db = mux.open("/critical.db", OpenFlags.RDWR | OpenFlags.CREAT)
        golden = bytearray(4 * MIB)
        for i in range(0, 4 * MIB, 64 * 1024):
            chunk = bytes([rng.randint(1, 255)]) * (64 * 1024)
            mux.write(db, i, chunk)
            golden[i : i + 64 * 1024] = chunk
        mux.fsync(db)

        submitted = mux.maintain_async()
        writes = 0
        while mux.engine.tick():
            offset = rng.randint(0, 4 * MIB - 256)
            patch = bytes([rng.randint(1, 255)]) * 256
            mux.write(db, offset, patch)
            golden[offset : offset + 256] = patch
            writes += 1
        mux.fsync(db)

        # --- phase 3: consistency audit of every layer -----------------------
        assert check_mux(mux, deep=True) == []
        for fs in world.filesystems.values():
            assert check_native_fs(fs) == []
        assert mux.read(db, 0, 4 * MIB) == bytes(golden)

        # --- phase 4: power loss + recovery -----------------------------------
        mux.crash()
        mux.recover()
        db2 = mux.open("/critical.db", OpenFlags.RDONLY)
        assert mux.read(db2, 0, 4 * MIB) == bytes(golden)
        assert check_mux(mux, deep=False) == []
        for fs in world.filesystems.values():
            assert check_native_fs(fs) == []

        # --- phase 5: life goes on ---------------------------------------------
        monkeypatch.setattr(macro, "VARMAIL_SEED", 4)  # fresh spool names
        varmail(mux, world.clock, operations=40)
        mux.maintain()
        assert check_mux(mux, deep=True) == []
        mux.close(db2)

    def test_maintain_async_runs_policy_plan(self, world):
        mux = world.mux
        # overfill the pm tier so the LRU policy wants demotions
        handle = mux.create("/ballast")
        for i in range(20):
            mux.write(handle, i * MIB, bytes(MIB))
        submitted = mux.maintain_async()
        assert submitted > 0
        mux.engine.drain()
        pm_fs = world.filesystems["pm"]
        assert pm_fs.statfs().utilization < 0.75  # back under the watermark
        assert mux.read(handle, 0, 16) == bytes(16)
        assert check_mux(mux, deep=True) == []
        mux.close(handle)

    def test_report_after_stress(self, world, monkeypatch):
        mux = world.mux
        monkeypatch.setattr(macro, "FILESERVER_SEED", 5)
        fileserver(mux, world.clock, files=6, operations=40)
        mux.maintain()
        text = mux.report()
        assert "tiers:" in text
        assert "migrations:" in text
