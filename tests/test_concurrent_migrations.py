"""Multiple in-flight migrations: different files, different ranges of the
same file, and opposing directions — all interleaved by the task runner."""

import pytest

from repro.core.policy import MigrationOrder
from repro.tools.fsck import check_mux

BS = 4096


@pytest.fixture
def env(stack_nocache):
    stack = stack_nocache
    mux = stack.mux
    return stack, mux


class TestParallelMigrations:
    def test_two_files_concurrently(self, env):
        stack, mux = env
        handles = []
        for i in range(2):
            handle = mux.create(f"/f{i}")
            mux.write(handle, 0, bytes([i + 1]) * (256 * BS))
            handles.append(handle)
        mux.engine.submit(
            MigrationOrder(handles[0].ino, 0, 256, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        mux.engine.submit(
            MigrationOrder(handles[1].ino, 0, 256, stack.tier_id("pm"), stack.tier_id("hdd"))
        )
        mux.engine.drain()
        assert mux.ns.get(handles[0].ino).blt.tiers_used() == [stack.tier_id("ssd")]
        assert mux.ns.get(handles[1].ino).blt.tiers_used() == [stack.tier_id("hdd")]
        for i, handle in enumerate(handles):
            assert mux.read(handle, 0, 4) == bytes([i + 1]) * 4
            mux.close(handle)
        assert check_mux(mux, deep=True) == []

    def test_disjoint_ranges_same_file(self, env):
        stack, mux = env
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(512 * BS))
        mux.engine.submit(
            MigrationOrder(handle.ino, 0, 256, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        mux.engine.submit(
            MigrationOrder(handle.ino, 256, 256, stack.tier_id("pm"), stack.tier_id("hdd"))
        )
        mux.engine.drain()
        inode = mux.ns.get(handle.ino)
        assert inode.blt.blocks_on(stack.tier_id("ssd")) == 256
        assert inode.blt.blocks_on(stack.tier_id("hdd")) == 256
        assert inode.blt.blocks_on(stack.tier_id("pm")) == 0
        assert mux.read(handle, 0, 512 * BS) == bytes(512 * BS)
        assert check_mux(mux, deep=True) == []
        mux.close(handle)

    def test_overlapping_migrations_same_file_converge(self, env):
        """Two movements over the same range: versions race, OCC retries,
        every block ends on exactly one tier and no data is lost."""
        stack, mux = env
        handle = mux.create("/f")
        payload = bytes(range(256)) * (4 * BS // 256) * 64  # 256 KiB
        mux.write(handle, 0, payload)
        blocks = len(payload) // BS
        t1 = mux.engine.submit(
            MigrationOrder(handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        t2 = mux.engine.submit(
            MigrationOrder(handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id("hdd"))
        )
        mux.engine.drain()
        inode = mux.ns.get(handle.ino)
        total = sum(inode.blt.blocks_on(t) for t in mux.tier_ids())
        assert total == blocks
        assert inode.blt.blocks_on(stack.tier_id("pm")) == 0
        assert mux.read(handle, 0, len(payload)) == payload
        assert not inode.migration_active
        assert check_mux(mux, deep=True) == []
        mux.close(handle)

    def test_chained_migration_after_drain(self, env):
        """pm -> ssd -> hdd, back-to-back, with reads in between."""
        stack, mux = env
        handle = mux.create("/f")
        mux.write(handle, 0, b"Z" * (64 * BS))
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 64, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        assert mux.read(handle, 0, 1) == b"Z"
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 64, stack.tier_id("ssd"), stack.tier_id("hdd"))
        )
        assert mux.read(handle, 63 * BS, 1) == b"Z"
        inode = mux.ns.get(handle.ino)
        assert inode.blt.tiers_used() == [stack.tier_id("hdd")]
        mux.close(handle)

    def test_writes_racing_two_migrations(self, env):
        from repro.sim.rng import DeterministicRng

        stack, mux = env
        rng = DeterministicRng(77)
        handle = mux.create("/f")
        blocks = 512
        mux.write(handle, 0, bytes(blocks * BS))
        model = bytearray(blocks * BS)
        mux.engine.submit(
            MigrationOrder(handle.ino, 0, blocks // 2, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        mux.engine.submit(
            MigrationOrder(handle.ino, blocks // 2, blocks // 2, stack.tier_id("pm"), stack.tier_id("hdd"))
        )
        writes = 0
        while mux.engine.tick():
            offset = rng.randint(0, blocks * BS - 100)
            data = bytes([writes % 251]) * 100
            mux.write(handle, offset, data)
            model[offset : offset + 100] = data
            writes += 1
        assert writes > 0
        assert mux.read(handle, 0, blocks * BS) == bytes(model)
        assert check_mux(mux, deep=True) == []
        mux.close(handle)
