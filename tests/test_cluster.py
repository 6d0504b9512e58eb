"""Sharded multi-Mux cluster semantics (§4, "Distributed Mux").

Covers the ISSUE-10 cluster contract: consistent-hash stability under
shard membership changes (~1/N keys move), a single-namespace view over
N shards (global depth-1 directories, merged readdir, aggregate statfs),
cross-shard rename atomicity under crash injection at every protocol
step, run-level OCC rebalancing racing foreground writes, and the
cluster ring's parallel-shard overlap + ``(completed_ns, seq)`` reap
discipline.
"""

import errno

import pytest

from repro.cluster.bench import balanced_tenant_names, colocated_tenant_names
from repro.cluster.cluster import (
    MIGRATE_TMP,
    RENAME_TMP,
    Cluster,
    build_cluster,
)
from repro.cluster.hashring import HashRing
from repro.core.ring import IoRing
from repro.errors import (
    CrashTriggered,
    CrossDevice,
    DirectoryNotEmpty,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotSupported,
)
from repro.sim.tasks import Task, run_interleaved
from repro.vfs.interface import OpenFlags

MIB = 1024 * 1024
BS = 4096

#: small shards keep the tests fast; every shard is a full 3-tier stack
SMALL = {"pm": 8 * MIB, "ssd": 16 * MIB, "hdd": 64 * MIB}


def small_cluster(shards: int = 2, **kwargs) -> Cluster:
    return build_cluster(shards=shards, capacities=SMALL, **kwargs)


# ---------------------------------------------------------------------------
# consistent hashing
# ---------------------------------------------------------------------------


class TestHashRing:
    KEYS = [f"tenants/t{i}" for i in range(400)]

    def test_deterministic_and_balanced(self):
        ring = HashRing()
        for n in range(4):
            ring.add_node(n)
        assert [ring.node_for(k) for k in self.KEYS] == [
            ring.node_for(k) for k in self.KEYS
        ]
        spread = ring.spread(self.KEYS)
        assert set(spread) == {0, 1, 2, 3}
        # virtual nodes keep the imbalance bounded (perfect = 100 each)
        assert max(spread.values()) < 3 * min(spread.values())

    def test_add_moves_about_one_nth(self):
        ring = HashRing()
        for n in range(4):
            ring.add_node(n)
        before = {k: ring.node_for(k) for k in self.KEYS}
        ring.add_node(4)
        moved = [k for k in self.KEYS if ring.node_for(k) != before[k]]
        # ~1/5 of keys move, and every one of them moves TO the new shard
        assert 0.10 * len(self.KEYS) < len(moved) < 0.35 * len(self.KEYS)
        assert all(ring.node_for(k) == 4 for k in moved)

    def test_remove_moves_only_the_dead_shards_keys(self):
        ring = HashRing()
        for n in range(4):
            ring.add_node(n)
        before = {k: ring.node_for(k) for k in self.KEYS}
        ring.remove_node(2)
        for key in self.KEYS:
            if before[key] != 2:
                # survivors keep every key they already owned
                assert ring.node_for(key) == before[key]
            else:
                assert ring.node_for(key) != 2

    def test_membership_errors(self):
        ring = HashRing()
        with pytest.raises(InvalidArgument):
            ring.node_for("anything")  # empty ring
        ring.add_node(0)
        with pytest.raises(InvalidArgument):
            ring.add_node(0)
        with pytest.raises(InvalidArgument):
            ring.remove_node(7)

    def test_name_pickers(self):
        ring = HashRing()
        for n in range(4):
            ring.add_node(n)
        hot, shard = colocated_tenant_names(ring, "tenants", 6)
        assert len(hot) == 6
        assert all(ring.node_for(f"tenants/{n}") == shard for n in hot)
        spread_names = balanced_tenant_names(ring, "tenants", 8)
        owners = [ring.node_for(f"tenants/{n}") for n in spread_names]
        assert sorted(owners.count(s) for s in range(4)) == [2, 2, 2, 2]


# ---------------------------------------------------------------------------
# namespace over shards
# ---------------------------------------------------------------------------


class TestClusterNamespace:
    def test_depth1_dirs_are_global_and_merged(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/tenants")
        # every shard can resolve the global parent
        for shard in cluster.shards:
            assert shard.mux.ns.exists("/tenants")
        names = balanced_tenant_names(cluster.ring, "tenants", 4)
        for name in names:
            cluster.mkdir(f"/tenants/{name}")
        owners = {cluster.subtree_owner(f"tenants/{n}") for n in names}
        assert owners == {0, 1}, "subtrees should spread over both shards"
        # ...but readdir shows one namespace (and hides /.cluster)
        assert cluster.readdir("/tenants") == sorted(names)
        assert cluster.readdir("/") == ["tenants"]

    def test_setattr_fans_out_over_a_global_directory_only(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/tenants")
        cluster.mkdir("/tenants/a")
        cluster.write_file("/tenants/a/f", b"x")
        # a depth-1 directory exists on every shard: all copies change
        assert cluster.setattr("/tenants", mode=0o700).mode == 0o700
        for shard in cluster.shards:
            assert shard.mux.getattr("/tenants").mode == 0o700
        # anything deeper lives on its owner alone
        owner = cluster.subtree_owner("tenants/a")
        assert cluster.setattr("/tenants/a/f", mode=0o600).mode == 0o600
        assert cluster.getattr("/tenants/a/f").mode == 0o600
        assert cluster.shards[owner].mux.stats.get("setattr") == 2
        assert cluster.shards[1 - owner].mux.stats.get("setattr") == 1

    def test_read_into_routes_like_read(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        cluster.write_file("/t/a/f", b"0123456789")
        handle = cluster.open("/t/a/f", OpenFlags.RDONLY)
        heat = cluster._subtree_ops["t/a"]
        out = bytearray(b"." * 8)
        assert cluster.read_into(handle, 2, 4, out, 3) == 4
        assert bytes(out) == b"...2345."
        # counted like a read: the rebalancer's subtree heat saw it
        assert cluster._subtree_ops["t/a"] == heat + 1
        cluster.close(handle)

    def test_maintain_runs_every_shards_policy_runner(self):
        cluster = small_cluster(2).mux
        calls = []

        def stub(name, shard_id, result):
            def runner(*args):
                calls.append((name, shard_id) + args)
                return result

            return runner

        for shard in cluster.shards:
            sid = shard.shard_id
            shard.mux.maintain = stub("maintain", sid, sid + 1)
            shard.mux.maintain_async = stub("maintain_async", sid, 10 * (sid + 1))
        assert cluster.maintain() == 1 + 2
        assert cluster.maintain_async() == 10 + 20
        assert calls == [
            ("maintain", 0), ("maintain", 1),
            ("maintain_async", 0), ("maintain_async", 1),
        ]

    def test_subtree_ops_route_to_owner(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.write_file("/t/x/f", b"payload") if False else None
        cluster.mkdir("/t/x")
        cluster.write_file("/t/x/f", b"payload")
        owner = cluster.shards[cluster.subtree_owner("t/x")]
        other = cluster.shards[1 - owner.shard_id]
        assert owner.mux.ns.exists("/t/x/f")
        assert not other.mux.ns.exists("/t/x/f")
        assert cluster.read_file("/t/x/f") == b"payload"
        assert cluster.getattr("/t/x/f").size == 7

    def test_rmdir_global_dir_requires_empty_everywhere(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/sub")
        with pytest.raises(DirectoryNotEmpty):
            cluster.rmdir("/t")
        cluster.rmdir("/t/sub")
        cluster.rmdir("/t")
        for shard in cluster.shards:
            assert not shard.mux.ns.exists("/t")

    def test_statfs_aggregates_all_shards(self):
        cluster = small_cluster(2).mux
        single = small_cluster(1).mux
        assert (
            cluster.statfs().total_blocks == 2 * single.statfs().total_blocks
        )

    def test_unlink_routes_and_missing_paths_raise(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/d")
        cluster.mkdir("/d/s")
        cluster.write_file("/d/s/f", b"x")
        cluster.unlink("/d/s/f")
        assert not cluster.exists("/d/s/f")
        with pytest.raises(FileNotFound):
            cluster.getattr("/d/s/f")
        with pytest.raises(FileNotFound):
            cluster.unlink("/d/s/f")

    def test_shards_must_share_the_clock(self):
        from repro.cluster.cluster import ClusterMux
        from repro.stack import build_stack

        a = build_stack(capacities=SMALL)
        b = build_stack(capacities=SMALL)  # different SimClock
        with pytest.raises(InvalidArgument):
            ClusterMux([a, b], a.clock)


# ---------------------------------------------------------------------------
# rename
# ---------------------------------------------------------------------------


def _make_cross_shard_pair(cluster):
    """Two subtrees guaranteed to live on different shards."""
    cluster.mkdir("/t")
    probe = 0
    first_key = None
    names = []
    while len(names) < 2:
        name = f"d{probe}"
        probe += 1
        owner = cluster.ring.node_for(f"t/{name}")
        if first_key is None:
            first_key, names = owner, [name]
        elif owner != first_key:
            names.append(name)
    for name in names:
        cluster.mkdir(f"/t/{name}")
    return f"/t/{names[0]}", f"/t/{names[1]}"


class TestClusterRename:
    def test_same_shard_rename_is_local(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        cluster.write_file("/t/a/f", b"stay")
        cluster.rename("/t/a/f", "/t/a/g")
        assert cluster.read_file("/t/a/g") == b"stay"
        assert cluster.stats.get("cross_shard_renames") == 0

    def test_cross_shard_file_rename_moves_bytes(self):
        cluster = small_cluster(2).mux
        src_dir, dst_dir = _make_cross_shard_pair(cluster)
        payload = bytes(range(256)) * 64  # 16 KiB
        cluster.write_file(f"{src_dir}/f", payload)
        cluster.rename(f"{src_dir}/f", f"{dst_dir}/g")
        assert cluster.read_file(f"{dst_dir}/g") == payload
        assert not cluster.exists(f"{src_dir}/f")
        assert cluster.stats.get("cross_shard_renames") == 1
        # the bytes crossed the simulated wire, not host memory
        dst_shard = cluster._shard_for(f"{dst_dir}/g")
        assert dst_shard.wire.stats.get("bytes_on_wire") >= len(payload)

    def test_cross_shard_rename_onto_directory_fails(self):
        cluster = small_cluster(2).mux
        src_dir, dst_dir = _make_cross_shard_pair(cluster)
        cluster.write_file(f"{src_dir}/f", b"x")
        cluster.mkdir(f"{dst_dir}/sub")
        with pytest.raises(IsADirectory):
            cluster.rename(f"{src_dir}/f", f"{dst_dir}/sub")

    def test_subtree_root_rename_redirects_ownership(self):
        cluster = small_cluster(2).mux
        src_dir, dst_dir = _make_cross_shard_pair(cluster)
        cluster.write_file(f"{src_dir}/f", b"follow me")
        src_key = src_dir[1:]
        old_owner = cluster.subtree_owner(src_key)
        # rename the subtree ROOT to a name hashing to the other shard:
        # data stays put, the override table redirects routing
        probe = 0
        while True:
            target = f"/t/moved{probe}"
            probe += 1
            if cluster.ring.node_for(target[1:]) != old_owner:
                break
        cluster.rename(src_dir, target)
        assert cluster.subtree_owner(target[1:]) == old_owner
        assert cluster.read_file(f"{target}/f") == b"follow me"
        assert cluster.stats.get("dir_renames_redirected") == 1

    def test_deep_cross_shard_dir_rename_is_exdev(self):
        cluster = small_cluster(2).mux
        src_dir, dst_dir = _make_cross_shard_pair(cluster)
        cluster.mkdir(f"{src_dir}/inner")
        with pytest.raises(CrossDevice):
            cluster.rename(f"{src_dir}/inner", f"{dst_dir}/inner")
        cluster.mkdir("/top")
        with pytest.raises(NotSupported):
            cluster.rename("/top", "/renamed-top")


    @staticmethod
    def _name_pair(cluster, prefix_a, prefix_b, same_shard):
        """``(a, b)``: names whose subtree keys hash to one shard or two."""
        for i in range(64):
            for j in range(64):
                a, b = f"{prefix_a}{i}", f"{prefix_b}{j}"
                if a == b:
                    continue
                one = cluster.subtree_owner(a[1:]) == cluster.subtree_owner(b[1:])
                if one == same_shard:
                    return a, b
        raise AssertionError("no such name pair")

    @pytest.mark.parametrize("same_shard", [True, False])
    def test_global_directory_rename_is_refused_on_any_hash(self, same_shard):
        cluster = small_cluster(4).mux
        old, new = self._name_pair(cluster, "/d", "/d", same_shard)
        cluster.mkdir(old)
        cluster.mkdir(f"{old}/sub")
        with pytest.raises(NotSupported):
            cluster.rename(old, new)
        assert cluster.readdir("/") == [old[1:]]
        assert cluster.getattr(f"{old}/sub").is_dir
        for shard in cluster.shards:
            assert shard.mux.ns.exists(old) and not shard.mux.ns.exists(new)

    @pytest.mark.parametrize("same_shard", [True, False])
    def test_subtree_surfacing_at_depth_one_is_exdev_on_any_hash(self, same_shard):
        cluster = small_cluster(4).mux
        cluster.mkdir("/t")
        old, new = self._name_pair(cluster, "/t/d", "/n", same_shard)
        cluster.mkdir(old)
        with pytest.raises(CrossDevice):
            cluster.rename(old, new)
        assert cluster.getattr(old).is_dir
        assert not cluster.exists(new)
        # a file may still move up to depth 1
        cluster.write_file(f"{old}/f", b"up")
        cluster.rename(f"{old}/f", new)
        assert cluster.read_file(new) == b"up"


class TestReservedHousekeeping:
    """``/.cluster`` holds the routing overrides and rename intents: the
    cluster API cannot reach it."""

    def test_every_namespace_op_refuses_it(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/a")
        cluster.write_file("/a/f", b"x")
        for op in (
            lambda: cluster.getattr("/.cluster"),
            lambda: cluster.readdir("/.cluster"),
            lambda: cluster.rmdir("/.cluster"),
            lambda: cluster.mkdir("/.cluster/x"),
            lambda: cluster.create("/.cluster/overrides"),
            lambda: cluster.open("/.cluster/overrides", OpenFlags.RDONLY),
            lambda: cluster.unlink("/.cluster/overrides"),
            lambda: cluster.setattr("/.cluster", mode=0o700),
            lambda: cluster.rename("/a/f", "/.cluster/f"),
            lambda: cluster.rename("/.cluster", "/b"),
            lambda: cluster.set_placement("/.cluster/overrides", 0),
        ):
            with pytest.raises(InvalidArgument, match="reserved"):
                op()
        assert cluster.readdir("/") == ["a"]

    def test_cross_shard_dir_rename_still_persists_its_override(self):
        """``rmdir("/.cluster")`` used to succeed; the next cross-shard
        directory rename then failed in ``_persist_overrides``."""
        cluster = small_cluster(2).mux
        with pytest.raises(InvalidArgument):
            cluster.rmdir("/.cluster")
        src_dir, _ = _make_cross_shard_pair(cluster)
        owner = cluster.subtree_owner(src_dir[1:])
        probe = 0
        while cluster.ring.node_for(f"t/moved{probe}") == owner:
            probe += 1
        cluster.rename(src_dir, f"/t/moved{probe}")
        cluster.crash()
        cluster.recover()
        assert cluster.subtree_owner(f"t/moved{probe}") == owner


class TestCrossShardRenameCrash:
    """Power-cut the two-phase rename at every labeled protocol point.

    The invariant: after recovery exactly one of {old, new} exists, the
    surviving file holds the full payload, and no temp files remain.
    """

    PAYLOAD = bytes(range(256)) * 128  # 32 KiB

    @pytest.mark.parametrize(
        "cut_at", ["copied", "intent", "committed", "unlinked"]
    )
    def test_crash_converges(self, cut_at):
        cluster = small_cluster(2).mux
        src_dir, dst_dir = _make_cross_shard_pair(cluster)
        old, new = f"{src_dir}/f", f"{dst_dir}/g"
        cluster.write_file(old, self.PAYLOAD)
        handle = cluster.open(old)
        cluster.fsync(handle)
        cluster.close(handle)

        def cut(label):
            if label == cut_at:
                raise CrashTriggered(f"power cut at {label}")

        cluster._crash_hook = cut
        with pytest.raises(CrashTriggered):
            cluster.rename(old, new)
        cluster._crash_hook = None
        cluster.crash()
        cluster.recover()

        old_there = cluster.exists(old)
        new_there = cluster.exists(new)
        assert old_there != new_there, (
            f"cut at {cut_at!r}: expected exactly one of old/new, "
            f"got old={old_there} new={new_there}"
        )
        survivor = old if old_there else new
        assert cluster.read_file(survivor) == self.PAYLOAD
        # before the intent is durable the old name must win; after the
        # commit point the new name must win
        if cut_at == "copied":
            assert old_there
        if cut_at in ("committed", "unlinked"):
            assert new_there
        for shard in cluster.shards:
            leftovers = []

            def walk(path):
                for name in shard.mux.readdir(path):
                    child = path.rstrip("/") + "/" + name
                    if child == "/.cluster":
                        continue
                    if shard.mux.getattr(child).is_dir:
                        walk(child)
                    elif name.endswith(RENAME_TMP) or name.endswith(
                        MIGRATE_TMP
                    ):
                        leftovers.append(child)

            walk("/")
            assert leftovers == []

    def test_rename_then_crash_later_is_durable(self):
        cluster = small_cluster(2).mux
        src_dir, dst_dir = _make_cross_shard_pair(cluster)
        cluster.write_file(f"{src_dir}/f", self.PAYLOAD)
        cluster.rename(f"{src_dir}/f", f"{dst_dir}/g")
        cluster.crash()
        cluster.recover()
        assert cluster.read_file(f"{dst_dir}/g") == self.PAYLOAD
        assert not cluster.exists(f"{src_dir}/f")


# ---------------------------------------------------------------------------
# OCC rebalancing
# ---------------------------------------------------------------------------


class TestSubtreeMigration:
    def test_clean_migration_moves_everything(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        cluster.mkdir("/t/a/deep")
        cluster.write_file("/t/a/one", b"1" * (8 * BS))
        cluster.write_file("/t/a/deep/two", b"2" * (4 * BS))
        src = cluster.subtree_owner("t/a")
        dst = 1 - src
        summary = cluster.migrate_subtree("t/a", dst)
        assert summary["files_moved"] == 2
        assert summary["bytes_moved"] == 12 * BS
        assert cluster.subtree_owner("t/a") == dst
        assert cluster.read_file("/t/a/one") == b"1" * (8 * BS)
        assert cluster.read_file("/t/a/deep/two") == b"2" * (4 * BS)
        assert not cluster.shards[src].mux.ns.exists("/t/a")

    def test_override_survives_crash(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        cluster.write_file("/t/a/f", b"x" * BS)
        src = cluster.subtree_owner("t/a")
        dst = 1 - src
        cluster.migrate_subtree("t/a", dst)
        cluster.crash()
        cluster.recover()
        assert cluster.subtree_owner("t/a") == dst
        assert cluster.read_file("/t/a/f") == b"x" * BS

    def _race_a_migration(self, racing):
        """Interleave a subtree move with foreground mutations of one of
        its files; whatever the racer did must be detected by the OCC
        write sequence and be there, exactly, after the move."""
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        path = "/t/a/busy"
        model = bytearray(b"\x11" * (64 * BS))
        cluster.write_file(path, bytes(model))
        src = cluster.subtree_owner("t/a")
        dst = 1 - src
        handle = cluster.open(path, OpenFlags.RDWR)

        def racer(step):
            # dirty the file during the first few copy rounds, then stop
            # so OCC validation can eventually succeed
            if step >= 2:
                return
            if racing == "write":
                data = f"racer-{step}".encode()
                cluster.write(handle, step * BS, data)
                model[step * BS : step * BS + len(data)] = data
            elif racing == "truncate":
                cluster.truncate(handle, (60 - step) * BS)
                del model[(60 - step) * BS :]
            else:
                cluster.punch_hole(handle, (step + 1) * BS, BS)
                model[(step + 1) * BS : (step + 2) * BS] = bytes(BS)

        task = Task(cluster.migrate_subtree_task("t/a", dst))
        summary = run_interleaved(task, racer)
        cluster.close(handle)
        assert summary["conflicts"] > 0, f"racing {racing} must be detected"
        assert summary["attempts"] > 1
        assert cluster.subtree_owner("t/a") == dst
        assert cluster.read_file(path) == bytes(model)

    def test_foreground_writes_conflict_and_retry(self):
        self._race_a_migration("write")

    @pytest.mark.parametrize("racing", ["truncate", "punch_hole"])
    def test_foreground_truncate_and_punch_conflict_and_retry(self, racing):
        """They bump the same OCC write sequence a write does: a copy
        taken before one of them must not win the commit."""
        self._race_a_migration(racing)

    def test_lock_fallback_guarantees_completion(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        path = "/t/a/hostile"
        cluster.write_file(path, bytes(64 * BS))
        src = cluster.subtree_owner("t/a")
        dst = 1 - src
        handle = cluster.open(path, OpenFlags.RDWR)
        counter = [0]

        def hostile(step):
            # dirty the file on EVERY yield: optimistic validation can
            # never win, the pessimistic fallback must finish the move
            counter[0] += 1
            cluster.write(handle, (counter[0] % 64) * BS, b"spin")

        task = Task(cluster.migrate_subtree_task("t/a", dst))
        summary = run_interleaved(task, hostile)
        cluster.close(handle)
        assert summary["lock_fallbacks"] >= 1
        assert cluster.subtree_owner("t/a") == dst
        assert cluster.stats.get("occ_lock_fallbacks") >= 1

    def test_namespace_churn_forces_replan(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        cluster.write_file("/t/a/f0", bytes(32 * BS))
        src = cluster.subtree_owner("t/a")
        dst = 1 - src
        created = []

        def churn(step):
            if step == 0:
                cluster.write_file("/t/a/late", b"L" * BS)
                created.append("/t/a/late")

        task = Task(cluster.migrate_subtree_task("t/a", dst))
        summary = run_interleaved(task, churn)
        assert summary["conflicts"] >= 1
        assert cluster.subtree_owner("t/a") == dst
        assert cluster.read_file("/t/a/late") == b"L" * BS

    def test_migrate_to_self_is_a_noop(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        cluster.write_file("/t/a/f", b"x")
        owner = cluster.subtree_owner("t/a")
        summary = cluster.migrate_subtree("t/a", owner)
        assert summary["files_moved"] == 0


class TestRebalance:
    def _load_hot_shard(self, cluster, names):
        """Drive enough ring traffic at the named subtrees to register
        real pressure on their owner's device timelines."""
        for name in names:
            cluster.mkdir(f"/tenants/{name}")
            cluster.write_file(f"/tenants/{name}/f", bytes(16 * BS))
        ring = cluster.open_ring(depth=8)
        handles = [
            cluster.open(f"/tenants/{n}/f", OpenFlags.RDWR) for n in names
        ]
        for round_ in range(12):
            for handle in handles:
                ring.submit_write(handle, 0, bytes(8 * BS))
                ring.submit_fsync(handle)
        ring.close()
        for handle in handles:
            cluster.close(handle)

    def test_hotspot_sheds_to_cold_peer(self):
        cluster = build_cluster(
            shards=2, tiers=["hdd"], capacities=SMALL, enable_cache=False
        ).mux
        cluster.mkdir("/tenants")
        hot_names, hot_shard = colocated_tenant_names(
            cluster.ring, "tenants", 4
        )
        self._load_hot_shard(cluster, hot_names)
        loads = cluster.shard_loads()
        assert loads[hot_shard] > 0.0
        assert loads[1 - hot_shard] == 0.0
        summary = cluster.rebalance(max_moves=3, imbalance=2.0)
        # max_moves caps the shed; the rebalancer stops once the hot
        # shard's share drops to its fair fraction (2 of 4 subtrees)
        assert 1 <= summary["moves"] <= 3
        assert summary["files_moved"] == summary["moves"]
        moved = [
            n for n in hot_names
            if cluster.subtree_owner(f"tenants/{n}") != hot_shard
        ]
        assert len(moved) == summary["moves"]
        # hottest subtrees went first, data still readable via new owner
        for name in hot_names:
            assert cluster.read_file(f"/tenants/{name}/f")[:1] == b"\x00"
        assert cluster.stats.get("rebalances") == 1

    def test_balanced_cluster_does_not_churn(self):
        cluster = small_cluster(2).mux
        cluster.mkdir("/tenants")
        names = balanced_tenant_names(cluster.ring, "tenants", 4)
        for name in names:
            cluster.mkdir(f"/tenants/{name}")
            cluster.write_file(f"/tenants/{name}/f", b"x" * BS)
            cluster.read_file(f"/tenants/{name}/f")
        summary = cluster.rebalance(max_moves=4)
        assert summary["moves"] == 0


# ---------------------------------------------------------------------------
# cluster ring: parallel shard frames
# ---------------------------------------------------------------------------


class TestClusterRing:
    def _population(self, cluster, count):
        cluster.mkdir("/t")
        # balanced placement so multi-shard runs actually use every shard
        names = balanced_tenant_names(cluster.ring, "t", count)
        handles = []
        for name in names:
            cluster.mkdir(f"/t/{name}")
            path = f"/t/{name}/f"
            cluster.write_file(path, bytes(16 * BS))
            handles.append(cluster.open(path, OpenFlags.RDWR))
        return handles

    def test_reap_order_and_remapping(self):
        cluster = small_cluster(2).mux
        handles = self._population(cluster, 4)
        ring = cluster.open_ring(depth=8)
        subs = []
        for handle in handles:
            subs.append(ring.submit_read(handle, 0, BS))
            subs.append(ring.submit_write(handle, BS, b"w" * BS))
        assert [s.seq for s in subs] == list(range(8))
        comps = ring.drain()
        assert len(comps) == 8
        order = [(c.completed_ns, c.seq) for c in comps]
        assert order == sorted(order)
        assert {c.seq for c in comps} == set(range(8))
        # cluster inos encode the owning shard
        for sub in subs:
            assert sub.ino >> 32 in (0, 1)
        snap = ring.snapshot()
        assert snap["submitted"] == 8
        assert snap["reaped"] == 8
        ring.close()
        for handle in handles:
            cluster.close(handle)

    def test_ring_is_a_context_manager(self):
        cluster = small_cluster(2).mux
        handles = self._population(cluster, 2)
        with cluster.open_ring(depth=4) as ring:
            for handle in handles:
                ring.submit_write(handle, 0, b"cm" * 8)
        # leaving the block drained, closed and unregistered it; each shard
        # still lists only the view its lock fallback quiesces through
        assert ring.closed and ring.pending == 0
        assert ring.snapshot()["reaped"] == 2
        assert cluster.rings == []
        for shard in cluster.shards:
            assert len(shard.mux.rings) == 1
            assert shard.mux.rings[0].rings is cluster.rings
        with cluster.open_ring() as ring:
            ring.close()  # an explicit close inside the block is fine
        for handle in handles:
            assert cluster.read(handle, 0, 4) == b"cmcm"
            cluster.close(handle)

    def test_cluster_ring_is_an_io_ring(self):
        """The cluster's ring is the Mux ring: tickets can be waited on,
        in-flight ops counted, and a closed handle completes as EBADF the
        way it does on a Mux ring."""
        cluster = small_cluster(2).mux
        handles = self._population(cluster, 2)
        ring = cluster.open_ring(depth=8)
        assert isinstance(ring, IoRing)
        first = ring.submit_read(handles[0], 0, BS)
        ring.submit_write(handles[1], 0, b"w" * BS)
        assert ring.inflight() == 2
        assert ring.inflight(handles[0].ino) == 1
        done = ring.wait(first)
        assert (done.seq, done.ino) == (first.seq, handles[0].ino)
        cluster.close(handles[0])
        ring.submit_read(handles[0], 0, BS)
        comps = ring.drain()
        assert {(c.op, c.errno) for c in comps} == {("write", 0), ("read", errno.EBADF)}
        ring.close()
        cluster.close(handles[1])

    def test_close_twice_keeps_counters(self):
        cluster = small_cluster(2).mux
        handles = self._population(cluster, 4)
        ring = cluster.open_ring(depth=8)
        for handle in handles:
            ring.submit_read(handle, 0, BS)
        assert len(ring.close()) == 4
        assert ring.close() == []
        # the final counters survive the close (they used to read 0 / 0)
        snap = ring.snapshot()
        assert (snap["submitted"], snap["reaped"]) == (4, 4)
        assert ring.pending == 0
        with pytest.raises(InvalidArgument):
            ring.submit_read(handles[0], 0, BS)
        for handle in handles:
            cluster.close(handle)

    def test_shards_overlap_in_simulated_time(self):
        """The same ops finish sooner on 2 shards than on 1 — the shard
        device timelines genuinely overlap instead of serializing."""

        def makespan(shards: int) -> int:
            cluster = build_cluster(
                shards=shards, tiers=["hdd"], capacities=SMALL,
                enable_cache=False,
            ).mux
            handles = self._population(cluster, 4)
            start = cluster.clock.now_ns
            ring = cluster.open_ring(depth=8)
            for _ in range(4):
                for handle in handles:
                    ring.submit_write(handle, 0, bytes(8 * BS))
                    ring.submit_fsync(handle)
            ring.drain()
            ring.close()
            span = cluster.clock.now_ns - start
            for handle in handles:
                cluster.close(handle)
            return span

        assert makespan(2) < 0.75 * makespan(1)

    def test_ring_errors_surface_as_cqes(self):
        cluster = small_cluster(2).mux
        handles = self._population(cluster, 1)
        ring = cluster.open_ring(depth=4)
        ring.submit_read(handles[0], 1024 * MIB, BS)  # far past EOF
        comps = ring.drain()
        assert len(comps) == 1
        # past-EOF reads are short, not errors — but the completion must
        # carry the (empty) result
        assert comps[0].error is None
        assert comps[0].result == b""
        ring.close()
        cluster.close(handles[0])

    def test_quiesce_through_shard_occ(self):
        """A subtree migration's lock fallback must quiesce in-flight
        cluster-ring ops on the source shard (they registered with the
        shard mux), not deadlock or corrupt."""
        cluster = small_cluster(2).mux
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        path = "/t/a/f"
        cluster.write_file(path, bytes(32 * BS))
        handle = cluster.open(path, OpenFlags.RDWR)
        ring = cluster.open_ring(depth=8)
        for i in range(6):
            ring.submit_write(handle, i * BS, b"inflight")
        src = cluster.subtree_owner("t/a")

        def hostile(step):
            cluster.write(handle, 0, b"dirty")

        task = Task(cluster.migrate_subtree_task("t/a", 1 - src))
        summary = run_interleaved(task, hostile)
        assert summary["lock_fallbacks"] >= 1
        ring.drain()
        ring.close()
        cluster.close(handle)
        assert cluster.read_file(path)[:5] == b"dirty"

    def test_lock_fallback_waits_for_ring_ops_on_the_file(self):
        """The locked copy starts no earlier than the latest completion of
        the cluster-ring ops still in flight on that file.  Twelve ring
        write+fsync pairs queue on the source shard's only HDD far past
        the instant the three optimistic copies end, so a fallback that
        did not wait for them would copy early."""
        cluster = build_cluster(
            shards=2, tiers=["hdd"], capacities={"hdd": 64 * MIB},
            enable_cache=False,
        ).mux
        clock = cluster.clock
        cluster.mkdir("/t")
        cluster.mkdir("/t/a")
        path = "/t/a/f"
        cluster.write_file(path, bytes(16 * BS))
        handle = cluster.open(path, OpenFlags.RDWR)
        ring = cluster.open_ring(depth=32)
        for i in range(12):
            ring.submit_write(handle, i * BS, b"inflight")
            ring.submit_fsync(handle)
        src = cluster.shards[cluster.subtree_owner("t/a")]
        copy_starts = []
        src_open = src.mux.open

        def open_and_note(p, flags):
            if p == path and flags == OpenFlags.RDONLY:
                copy_starts.append(clock.now_ns)
            return src_open(p, flags)

        src.mux.open = open_and_note
        task = Task(cluster.migrate_subtree_task("t/a", 1 - src.shard_id))
        summary = run_interleaved(task, lambda step: cluster.write(handle, 0, b"x"))
        del src.mux.open
        assert summary["lock_fallbacks"] == 1
        latest = max(c.completed_ns for c in ring.drain() if c.ino == handle.ino)
        # the first copies ran optimistically beside the ring ops; the
        # last one is the locked copy
        assert copy_starts[0] < latest <= copy_starts[-1]
        ring.close()
        cluster.close(handle)
