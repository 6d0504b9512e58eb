"""ClusterMux: one namespace sharded across N Mux instances (§4).

Sharding model
--------------

The unit of placement is a **directory subtree**: the first two path
components (``/tenants/t3/f0`` -> subtree ``tenants/t3``; a depth-1
entry is its own subtree).  Subtrees map to shards through a
consistent-hash ring with virtual nodes (:mod:`repro.cluster.hashring`),
overridden by an explicit relocation table that rebalancing and
cross-shard directory renames maintain.  Depth-1 directories are
*global* — replicated on every shard — so every shard can resolve the
parents of the subtrees it owns; ``readdir`` on them merges the shards'
entries into one view.

Every shard is a full independent Mux stack (own devices, native file
systems, VFS), all driven on **one** :class:`~repro.sim.clock.SimClock`.
Synchronous calls route to the owning shard and charge exactly what a
single Mux would; the submit/complete path (:class:`ClusterRing`) gives
each op its own clock frame on its shard, so ops on different shards
overlap in simulated time and completions reap in ``(completed_ns, seq)``
order — the discipline of :mod:`repro.core.ring` lifted to the cluster.

Cross-shard data movement — rename and subtree rebalancing — pays a
simulated network wire (:class:`~repro.fs.nfs.NetworkFileSystem` around
the destination shard) with its RTT and bandwidth cost.  Rename is
two-phase with a durable intent record so a crash converges to exactly
one of {old, new}; rebalancing is run-level OCC: files copy while
foreground writes proceed, per-file write sequence numbers validate the
copies, conflicted files retry, and a bounded-retry pessimistic fallback
(suspended frames + ring quiesce, like :mod:`repro.core.occ`) guarantees
completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.hashring import HashRing
from repro.core.ring import Completion, Submission
from repro.errors import (
    CrossDevice,
    DirectoryNotEmpty,
    FileNotFound,
    FsError,
    InvalidArgument,
    IsADirectory,
    NotSupported,
)
from repro.fs.nfs import NetworkFileSystem
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.sim.tasks import Task
from repro.vfs import path as vpath
from repro.vfs.interface import FileHandle, FileSystem, OpenFlags
from repro.vfs.stat import FsStats, Stat

#: per-shard housekeeping directory (hidden from cluster readdir)
META_DIR = "/.cluster"
OVERRIDES_PATH = META_DIR + "/overrides"
INTENT_PATH = META_DIR + "/rename-intent"
#: temp-name suffixes for two-phase copies (cross-shard rename / rebalance)
RENAME_TMP = ".~xsr"
MIGRATE_TMP = ".~mig"
#: bytes per cross-shard copy chunk (one wire RPC each)
COPY_CHUNK = 256 * 1024
#: OCC validation attempts before the pessimistic lock fallback
OCC_MAX_RETRIES = 3


@dataclass
class _Shard:
    """One member Mux stack plus its network-facing wrapper."""

    shard_id: int
    stack: object  # repro.stack.Stack
    wire: NetworkFileSystem

    @property
    def mux(self):
        return self.stack.mux


class ClusterMux(FileSystem):
    """N sharded Mux instances behind the single-Mux VFS/ring API."""

    fs_name = "cluster"

    def __init__(self, stacks: List[object], clock: SimClock) -> None:
        if not stacks:
            raise InvalidArgument("a cluster needs at least one shard")
        self.clock = clock
        self.ring = HashRing()
        self.shards: List[_Shard] = []
        for shard_id, stack in enumerate(stacks):
            if stack.clock is not clock:
                raise InvalidArgument(
                    f"shard {shard_id} runs on a different SimClock"
                )
            wire = NetworkFileSystem(f"wire-s{shard_id}", stack.mux, clock)
            self.shards.append(_Shard(shard_id, stack, wire))
            self.ring.add_node(shard_id)
        self.block_size = self.shards[0].mux.block_size
        #: subtree key -> shard id, consulted before the hash ring
        #: (rebalanced subtrees, cross-shard directory renames)
        self.overrides: Dict[str, int] = {}
        self.stats = CounterSet()
        #: host-side routing telemetry: data ops per shard / per subtree
        self._shard_ops: Dict[int, int] = {s.shard_id: 0 for s in self.shards}
        self._subtree_ops: Dict[str, int] = {}
        #: OCC state for rebalancing: (shard_id, ino) -> write sequence,
        #: and per-subtree namespace sequence (create/unlink/rename)
        self._write_seq: Dict[Tuple[int, int], int] = {}
        self._ns_seq: Dict[str, int] = {}
        #: test hook: called at labeled points of two-phase protocols so
        #: crash tests can cut power at every step
        self._crash_hook: Optional[Callable[[str], None]] = None
        for shard in self.shards:
            shard.mux.mkdir(META_DIR)

    # -- routing -----------------------------------------------------------

    @staticmethod
    def subtree_key(path: str) -> Optional[str]:
        """The placement key of a path: its first two components."""
        comps = vpath.components(path)
        if not comps:
            return None
        return comps[0] if len(comps) == 1 else comps[0] + "/" + comps[1]

    def shard_of_key(self, key: str) -> _Shard:
        shard_id = self.overrides.get(key)
        if shard_id is None:
            shard_id = self.ring.node_for(key)
        return self.shards[shard_id]

    def _shard_for(self, path: str) -> _Shard:
        key = self.subtree_key(path)
        if key is None:
            return self.shards[0]
        return self.shard_of_key(key)

    def _hook(self, label: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(label)

    # -- handle plumbing ---------------------------------------------------

    def _wrap(self, shard: _Shard, inner: FileHandle, path: str, flags: int) -> FileHandle:
        handle = FileHandle(self, (shard.shard_id << 32) | inner.ino, path, flags)
        handle.private = {
            "shard": shard.shard_id,
            "inner": inner,
            "key": self.subtree_key(path),
        }
        return handle

    def _unwrap(self, handle: FileHandle) -> Tuple[_Shard, FileHandle]:
        handle.ensure_open()
        private = handle.private
        if not isinstance(private, dict) or "inner" not in private:
            raise RuntimeError("foreign handle passed to ClusterMux")
        return self.shards[private["shard"]], private["inner"]

    def _note_op(self, shard: _Shard, key: Optional[str]) -> None:
        """Host-side routing telemetry + pressure sampling (no clock cost)."""
        self._shard_ops[shard.shard_id] += 1
        if key is not None:
            self._subtree_ops[key] = self._subtree_ops.get(key, 0) + 1
        shard.mux.pressure.sample(self.clock.now_ns)

    def note_write(self, shard_id: int, ino: int) -> None:
        """Bump the OCC write sequence rebalancing validates against."""
        key = (shard_id, ino)
        self._write_seq[key] = self._write_seq.get(key, 0) + 1

    def _note_ns(self, key: Optional[str]) -> None:
        if key is not None:
            self._ns_seq[key] = self._ns_seq.get(key, 0) + 1

    # -- namespace ---------------------------------------------------------

    def create(self, path: str, mode: int = 0o644) -> FileHandle:
        path = vpath.normalize(path)
        shard = self._shard_for(path)
        inner = shard.mux.create(path, mode)
        self._note_ns(self.subtree_key(path))
        return self._wrap(shard, inner, path, OpenFlags.RDWR)

    def open(self, path: str, flags: int = OpenFlags.RDWR) -> FileHandle:
        path = vpath.normalize(path)
        shard = self._shard_for(path)
        existed = (flags & OpenFlags.CREAT) and shard.mux.ns.exists(path)
        inner = shard.mux.open(path, flags)
        if (flags & OpenFlags.CREAT) and not existed:
            self._note_ns(self.subtree_key(path))
        return self._wrap(shard, inner, path, flags)

    def close(self, handle: FileHandle) -> None:
        shard, inner = self._unwrap(handle)
        handle.mark_closed()
        shard.mux.close(inner)

    def unlink(self, path: str) -> None:
        path = vpath.normalize(path)
        self._shard_for(path).mux.unlink(path)
        self._note_ns(self.subtree_key(path))

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        path = vpath.normalize(path)
        comps = vpath.components(path)
        if not comps:
            raise InvalidArgument("mkdir on root")
        if len(comps) == 1:
            # depth-1 directories are global: every shard can then resolve
            # the parents of the subtrees the ring assigns to it
            for shard in self.shards:
                shard.mux.mkdir(path, mode)
        else:
            self._shard_for(path).mux.mkdir(path, mode)
            self._note_ns(self.subtree_key(path))

    def rmdir(self, path: str) -> None:
        path = vpath.normalize(path)
        comps = vpath.components(path)
        if len(comps) == 1:
            # global directory: refuse unless empty on *every* shard, so a
            # partial rmdir can never strand subtrees
            for shard in self.shards:
                if shard.mux.readdir(path):
                    raise DirectoryNotEmpty(f"cluster: {path!r} is not empty")
            for shard in self.shards:
                shard.mux.rmdir(path)
        else:
            self._shard_for(path).mux.rmdir(path)
            self._note_ns(self.subtree_key(path))

    def readdir(self, path: str) -> List[str]:
        path = vpath.normalize(path)
        comps = vpath.components(path)
        if len(comps) >= 2:
            return self._shard_for(path).mux.readdir(path)
        if len(comps) == 1:
            # a depth-1 file lives on its hash shard; a depth-1 directory
            # is global and its children are spread across all shards
            owner = self._shard_for(path)
            if not owner.mux.getattr(path).is_dir:
                return owner.mux.readdir(path)  # raises NotADirectory
        names = set()
        for shard in self.shards:
            try:
                names.update(shard.mux.readdir(path))
            except FileNotFound:
                continue
        names.discard(META_DIR[1:])
        return sorted(names)

    def getattr(self, path: str) -> Stat:
        path = vpath.normalize(path)
        return self._shard_for(path).mux.getattr(path)

    def setattr(self, path: str, **attrs: object) -> Stat:
        path = vpath.normalize(path)
        comps = vpath.components(path)
        owner = self._shard_for(path)
        result = owner.mux.setattr(path, **attrs)
        if len(comps) == 1 and result.is_dir:
            # keep the global directory skeleton consistent
            for shard in self.shards:
                if shard is not owner:
                    shard.mux.setattr(path, **attrs)
        return result

    # -- rename ------------------------------------------------------------

    def rename(self, old_path: str, new_path: str) -> None:
        old_path = vpath.normalize(old_path)
        new_path = vpath.normalize(new_path)
        src = self._shard_for(old_path)
        dst = self._shard_for(new_path)
        if src.shard_id == dst.shard_id:
            src.mux.rename(old_path, new_path)
            self._note_ns(self.subtree_key(old_path))
            self._note_ns(self.subtree_key(new_path))
            return
        moving = src.mux.getattr(old_path)  # raises FileNotFound
        if moving.is_dir:
            self._rename_dir_cross(src, old_path, new_path)
        else:
            self._rename_file_cross(src, dst, old_path, new_path)
        self._note_ns(self.subtree_key(old_path))
        self._note_ns(self.subtree_key(new_path))

    def _rename_dir_cross(self, src: _Shard, old_path: str, new_path: str) -> None:
        """Cross-shard directory rename: move the name, not the data.

        A subtree-root rename keeps the data on its current shard and
        redirects routing through the override table — the subtree can be
        shipped later by rebalancing.  Renames that would bury one
        subtree inside another shard's subtree are EXDEV, like POSIX
        cross-mount renames.
        """
        old_comps = vpath.components(old_path)
        new_comps = vpath.components(new_path)
        if len(old_comps) == 1:
            raise NotSupported("cluster: cannot rename a global top-level directory")
        if len(old_comps) != 2 or len(new_comps) != 2:
            raise CrossDevice(
                f"cluster: directory rename {old_path!r} -> {new_path!r} "
                "crosses shards"
            )
        src.mux.rename(old_path, new_path)
        old_key = self.subtree_key(old_path)
        new_key = self.subtree_key(new_path)
        self.overrides.pop(old_key, None)
        if self.ring.node_for(new_key) == src.shard_id:
            self.overrides.pop(new_key, None)
        else:
            self.overrides[new_key] = src.shard_id
        self._persist_overrides()
        self.stats.add("dir_renames_redirected")

    def _rename_file_cross(
        self, src: _Shard, dst: _Shard, old_path: str, new_path: str
    ) -> None:
        """Two-phase cross-shard file rename with a durable intent record.

        1. copy to a temp name on the destination through the wire and
           fsync it (the destination's two-phase BLT-atomic write path
           makes each copied span durable-or-absent);
        2. persist an intent record on the destination, then commit:
           rename temp over the target, unlink the source.

        A crash before the intent is durable leaves only a stray temp
        (swept at recovery — the old name wins); after it, recovery rolls
        the rename forward (the new name wins).  Exactly one of
        {old, new} survives any cut.
        """
        parent = vpath.dirname(new_path)
        if parent != vpath.ROOT:
            if not dst.mux.getattr(parent).is_dir:
                raise FileNotFound(f"cluster: {parent!r} is not a directory")
        try:
            existing = dst.mux.getattr(new_path)
        except FileNotFound:
            pass
        else:
            if existing.is_dir:
                raise IsADirectory(f"cluster: {new_path!r} is a directory")
        tmp = new_path + RENAME_TMP
        bytes_moved = self._copy_file(src, dst, old_path, tmp)
        self._hook("copied")
        self._write_intent(dst, old_path, new_path, tmp)
        self._hook("intent")
        dst.mux.rename(tmp, new_path)
        dst.mux.sync()
        self._hook("committed")
        src.mux.unlink(old_path)
        src.mux.sync()
        self._hook("unlinked")
        self._clear_intent(dst)
        self.stats.add("cross_shard_renames")
        self.stats.add("cross_shard_rename_bytes", bytes_moved)

    def _copy_file(
        self, src: _Shard, dst: _Shard, src_path: str, dst_path: str
    ) -> int:
        """:meth:`_copy_steps` driven to completion; returns bytes copied."""
        return Task(self._copy_steps(src, dst, src_path, dst_path)).join()

    def _copy_steps(
        self, src: _Shard, dst: _Shard, src_path: str, dst_path: str
    ) -> Generator[None, None, int]:
        """Copy file content shard-to-shard over the wire; returns bytes.

        Reads are local to the source shard; every written chunk pays the
        destination wire's RTT + transfer cost.  Yields between chunks so
        a rebalance can let foreground writes interleave (and be caught by
        its sequence-number validation).  The copy ends with an fsync, so
        the destination holds a durable replica before any commit step
        runs.
        """
        st = src.mux.getattr(src_path)
        rh = src.mux.open(src_path, OpenFlags.RDONLY)
        wh = dst.wire.open(
            dst_path, OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC
        )
        copied = 0
        try:
            while copied < st.size:
                chunk = min(COPY_CHUNK, st.size - copied)
                data = src.mux.read(rh, copied, chunk)
                if not data:
                    break
                dst.wire.write(wh, copied, data)
                copied += len(data)
                yield
            dst.wire.fsync(wh)
        finally:
            dst.wire.close(wh)
            src.mux.close(rh)
        return copied

    def _write_intent(self, dst: _Shard, old: str, new: str, tmp: str) -> None:
        payload = f"{old}\n{new}\n{tmp}\n".encode()
        handle = dst.mux.open(
            INTENT_PATH, OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC
        )
        try:
            dst.mux.write(handle, 0, payload)
            dst.mux.fsync(handle)
        finally:
            dst.mux.close(handle)

    def _clear_intent(self, dst: _Shard) -> None:
        if dst.mux.ns.exists(INTENT_PATH):
            dst.mux.unlink(INTENT_PATH)

    # -- data --------------------------------------------------------------

    def read(self, handle: FileHandle, offset: int, length: int) -> bytes:
        shard, inner = self._unwrap(handle)
        self._note_op(shard, handle.private.get("key"))
        return shard.mux.read(inner, offset, length)

    def read_into(
        self, handle: FileHandle, offset: int, length: int, out: bytearray, out_off: int = 0
    ) -> int:
        shard, inner = self._unwrap(handle)
        self._note_op(shard, handle.private.get("key"))
        return shard.mux.read_into(inner, offset, length, out, out_off)

    def write(self, handle: FileHandle, offset: int, data: bytes) -> int:
        shard, inner = self._unwrap(handle)
        self._note_op(shard, handle.private.get("key"))
        self.note_write(shard.shard_id, inner.ino)
        return shard.mux.write(inner, offset, data)

    def truncate(self, handle: FileHandle, size: int) -> None:
        shard, inner = self._unwrap(handle)
        self.note_write(shard.shard_id, inner.ino)
        shard.mux.truncate(inner, size)

    def fsync(self, handle: FileHandle) -> None:
        shard, inner = self._unwrap(handle)
        self._note_op(shard, handle.private.get("key"))
        shard.mux.fsync(inner)

    def punch_hole(self, handle: FileHandle, offset: int, length: int) -> None:
        shard, inner = self._unwrap(handle)
        self.note_write(shard.shard_id, inner.ino)
        shard.mux.punch_hole(inner, offset, length)

    def set_placement(self, path: str, tier_id: Optional[int]) -> None:
        """Pin ``path`` to a tier id on its owning shard (shards are
        built identically, so tier ids are cluster-wide)."""
        self._shard_for(vpath.normalize(path)).mux.set_placement(path, tier_id)

    # -- async rings -------------------------------------------------------

    def open_ring(self, depth: int = 8) -> "ClusterRing":
        """A cluster-wide submit/complete ring (one inner ring per shard)."""
        return ClusterRing(self, depth)

    # -- aggregates / housekeeping ----------------------------------------

    def statfs(self) -> FsStats:
        total = 0
        free = 0
        for shard in self.shards:
            st = shard.mux.statfs()
            total += st.total_blocks
            free += st.free_blocks
        return FsStats(
            block_size=self.block_size, total_blocks=total, free_blocks=free
        )

    def sync(self) -> None:
        for shard in self.shards:
            shard.mux.sync()

    def maintain(self, max_rounds: int = 4) -> int:
        return sum(s.mux.maintain(max_rounds) for s in self.shards)

    def maintain_async(self) -> int:
        return sum(s.mux.maintain_async() for s in self.shards)

    def crash(self) -> None:
        """Power-cut every shard (volatile cluster routing state is lost)."""
        for shard in self.shards:
            shard.mux.crash()

    def recover(self) -> None:
        """Recover every shard, then converge cluster-level two-phase state.

        The override table reloads from its durable per-shard copies;
        interrupted cross-shard renames roll forward once their intent
        record was durable (the copy is always durable before the intent),
        otherwise their stray temp files are swept and the source wins.
        """
        for shard in self.shards:
            shard.mux.recover()
            if not shard.mux.ns.exists(META_DIR):
                shard.mux.mkdir(META_DIR)
        self.overrides = self._load_overrides()
        for dst in self.shards:
            self._replay_intent(dst)
        for shard in self.shards:
            self._sweep_temps(shard)
        self._write_seq.clear()
        self._ns_seq.clear()

    def _replay_intent(self, dst: _Shard) -> None:
        if not dst.mux.ns.exists(INTENT_PATH):
            return
        lines = dst.mux.read_file(INTENT_PATH).decode().splitlines()
        if len(lines) == 3:
            old, new, tmp = lines
            src = self._shard_for(old)
            if dst.mux.ns.exists(tmp):
                # durable copy, commit never happened: roll forward
                dst.mux.rename(tmp, new)
                dst.mux.sync()
            if dst.mux.ns.exists(new) and src.mux.ns.exists(old):
                src.mux.unlink(old)
                src.mux.sync()
            self.stats.add("recovered_renames")
        self._clear_intent(dst)

    def _sweep_temps(self, shard: _Shard) -> None:
        """Unlink two-phase temp files whose protocol never reached intent."""

        def walk(path: str) -> None:
            for name in shard.mux.readdir(path):
                child = path.rstrip("/") + "/" + name
                if child == META_DIR:
                    continue
                if shard.mux.getattr(child).is_dir:
                    walk(child)
                elif name.endswith(RENAME_TMP) or name.endswith(MIGRATE_TMP):
                    shard.mux.unlink(child)
                    self.stats.add("swept_temps")

        walk("/")

    # -- override-table durability ----------------------------------------

    def _persist_overrides(self) -> None:
        payload = "".join(
            f"{key} {sid}\n" for key, sid in sorted(self.overrides.items())
        ).encode()
        for shard in self.shards:
            handle = shard.mux.open(
                OVERRIDES_PATH, OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC
            )
            try:
                if payload:
                    shard.mux.write(handle, 0, payload)
                shard.mux.fsync(handle)
            finally:
                shard.mux.close(handle)

    def _load_overrides(self) -> Dict[str, int]:
        for shard in self.shards:
            if not shard.mux.ns.exists(OVERRIDES_PATH):
                continue
            out: Dict[str, int] = {}
            for line in shard.mux.read_file(OVERRIDES_PATH).decode().splitlines():
                key, _, sid = line.rpartition(" ")
                out[key] = int(sid)
            return out
        return {}

    # -- pressure gauge + rebalancing -------------------------------------

    def shard_loads(self) -> Dict[int, float]:
        """Per-shard load: the worst tier EWMA gauge on each member Mux.

        Gauges are fed by the routed data ops (interval-gated sampling in
        :meth:`_note_op`), so a shard that just served a hotspot reads
        hot even after its queues drain.
        """
        loads: Dict[int, float] = {}
        for shard in self.shards:
            monitor = shard.mux.pressure
            loads[shard.shard_id] = max(
                (monitor.load_of(t) for t in shard.mux.tier_ids()),
                default=0.0,
            )
        return loads

    def subtree_owner(self, key: str) -> int:
        return self.shard_of_key(key).shard_id

    def rebalance(
        self, max_moves: int = 4, imbalance: float = 2.0
    ) -> Dict[str, int]:
        """Shed hot subtrees from the most-loaded shard to its peers.

        Triggered when the hottest shard's pressure load exceeds
        ``imbalance`` times the least-loaded peer's.  The hot shard's
        subtrees are ranked by routed-op count and shipped one at a time
        (run-level OCC migration over the wire) to whichever peer is
        least loaded at that point, until the hot shard's expected share
        drops to ~1/N of its traffic or ``max_moves`` is reached.
        """
        summary = {
            "moves": 0, "files_moved": 0, "bytes_moved": 0,
            "conflicts": 0, "lock_fallbacks": 0,
        }
        if len(self.shards) < 2:
            return summary
        loads = self.shard_loads()
        hot_id = max(loads, key=lambda s: (loads[s], -s))
        peers = [s for s in loads if s != hot_id]
        coldest = min(loads[p] for p in peers)
        if loads[hot_id] <= max(coldest, 0.05) * imbalance:
            return summary
        hot_keys = sorted(
            (
                key
                for key, count in self._subtree_ops.items()
                if count > 0 and self.subtree_owner(key) == hot_id
            ),
            key=lambda k: (-self._subtree_ops[k], k),
        )
        total_ops = sum(self._subtree_ops[k] for k in hot_keys)
        shed_target = total_ops * (len(self.shards) - 1) / len(self.shards)
        assigned: Dict[int, float] = {p: loads[p] for p in peers}
        shed = 0
        for key in hot_keys:
            if summary["moves"] >= max_moves or shed >= shed_target:
                break
            dst_id = min(peers, key=lambda p: (assigned[p], p))
            moved = self.migrate_subtree(key, dst_id)
            summary["moves"] += 1
            summary["files_moved"] += moved["files_moved"]
            summary["bytes_moved"] += moved["bytes_moved"]
            summary["conflicts"] += moved["conflicts"]
            summary["lock_fallbacks"] += moved["lock_fallbacks"]
            share = self._subtree_ops.get(key, 0) or 1
            assigned[dst_id] += loads[hot_id] * share / max(total_ops, 1)
            shed += share
            self._subtree_ops[key] = 0
        self.stats.add("rebalances")
        return summary

    # -- run-level OCC subtree migration ----------------------------------

    def migrate_subtree(self, key: str, dst_id: int) -> Dict[str, int]:
        """Move one subtree to ``dst_id``, driving the OCC task to completion."""
        return Task(self.migrate_subtree_task(key, dst_id)).join()

    def migrate_subtree_task(
        self, key: str, dst_id: int
    ) -> Generator[None, None, Dict[str, int]]:
        """Cooperative generator migrating subtree ``key`` between shards.

        Yields between copy chunks, so tests can interleave adversarial
        foreground writes at every step (``repro.sim.tasks``).  The OCC
        discipline mirrors :class:`repro.core.occ.OccSynchronizer` at the
        file granularity: copy optimistically, validate against the
        cluster write/namespace sequence numbers, retry conflicted files,
        and after ``OCC_MAX_RETRIES`` fall back to a pessimistic lock
        (suspended frames + shard ring quiesce) that cannot race.
        The commit — rename the copies into place on the destination,
        flip the routing override, drop the source copies — runs without
        a single yield, so no foreground op observes a half-moved subtree.
        """
        summary = {
            "files_moved": 0, "bytes_moved": 0,
            "conflicts": 0, "attempts": 0, "lock_fallbacks": 0,
        }
        src = self.shard_of_key(key)
        if src.shard_id == dst_id:
            return summary
        dst = self.shards[dst_id]
        root = "/" + key
        if not src.mux.ns.exists(root):
            raise FileNotFound(f"cluster: subtree {root!r} does not exist")

        def snapshot_tree() -> Tuple[List[str], List[str]]:
            dirs: List[str] = []
            files: List[str] = []
            if not src.mux.getattr(root).is_dir:
                files.append(root)
                return dirs, files
            dirs.append(root)
            stack = [root]
            while stack:
                path = stack.pop()
                for name in src.mux.readdir(path):
                    child = path + "/" + name
                    if src.mux.getattr(child).is_dir:
                        dirs.append(child)
                        stack.append(child)
                    else:
                        files.append(child)
            dirs.sort()
            files.sort()
            return dirs, files

        def ensure_dirs(dirs: List[str]) -> None:
            for d in dirs:
                for ancestor in vpath.ancestors(d)[1:] + [d]:
                    if not dst.mux.ns.exists(ancestor):
                        dst.mux.mkdir(ancestor)

        def wseq_of(path: str) -> int:
            ino = src.mux.ns.resolve(path).ino
            return self._write_seq.get((src.shard_id, ino), 0)

        def copy_steps(path: str) -> Generator[None, None, int]:
            return self._copy_steps(src, dst, path, path + MIGRATE_TMP)

        dirs, files = snapshot_tree()
        ensure_dirs(dirs)
        ns_snapshot = self._ns_seq.get(key, 0)
        pending = list(files)
        copied_bytes: Dict[str, int] = {}
        snapshots: Dict[str, int] = {}
        for _ in range(OCC_MAX_RETRIES):
            if not pending:
                break
            summary["attempts"] += 1
            for path in pending:
                snapshots[path] = wseq_of(path)
                copied_bytes[path] = yield from copy_steps(path)
            if self._ns_seq.get(key, 0) != ns_snapshot:
                # files appeared/vanished during the copy: re-plan the tree
                ns_snapshot = self._ns_seq.get(key, 0)
                dirs, files = snapshot_tree()
                ensure_dirs(dirs)
                pending = [p for p in files if p not in copied_bytes]
                summary["conflicts"] += 1
                self.stats.add("occ_conflicts")
                continue
            conflicted = [
                p for p in pending if wseq_of(p) != snapshots[p]
            ]
            summary["conflicts"] += len(conflicted)
            if conflicted:
                self.stats.add("occ_conflicts", len(conflicted))
            pending = conflicted
        if pending:
            # pessimistic fallback: suspend overlap frames and quiesce the
            # source shard's in-flight ring ops, then copy atomically
            summary["lock_fallbacks"] += len(pending)
            self.stats.add("occ_lock_fallbacks", len(pending))
            token = self.clock.suspend_frames()
            try:
                for path in pending:
                    src.mux.quiesce_inflight(src.mux.ns.resolve(path).ino)
                    for _ in copy_steps(path):
                        pass
            finally:
                self.clock.resume_frames(token)
        # -- commit: no yields below this line ----------------------------
        dirs, files = snapshot_tree()
        for path in files:
            dst.mux.rename(path + MIGRATE_TMP, path)
        dst.mux.sync()
        if self.ring.node_for(key) == dst_id:
            self.overrides.pop(key, None)
        else:
            self.overrides[key] = dst_id
        self._persist_overrides()
        for path in files:
            src.mux.unlink(path)
        for d in sorted(dirs, reverse=True):
            src.mux.rmdir(d)
        src.mux.sync()
        summary["files_moved"] = len(files)
        summary["bytes_moved"] = sum(copied_bytes.get(p, 0) for p in files)
        self.stats.add("subtrees_moved")
        self.stats.add("files_rebalanced", summary["files_moved"])
        self.stats.add("bytes_rebalanced", summary["bytes_moved"])
        return summary

    # -- telemetry ---------------------------------------------------------

    def shard_report(self) -> List[Dict[str, object]]:
        """Per-shard queue/backlog/ops gauges for ``bench trace --cluster``."""
        report: List[Dict[str, object]] = []
        for shard in self.shards:
            monitor = shard.mux.pressure
            gauges = monitor.snapshot()
            report.append(
                {
                    "shard": shard.shard_id,
                    "ops": self._shard_ops[shard.shard_id],
                    "queued": round(
                        max((g["queued"] for g in gauges.values()), default=0.0), 4
                    ),
                    "backlog": round(
                        max((g["backlog"] for g in gauges.values()), default=0.0), 4
                    ),
                    "load": round(
                        max(
                            (monitor.load_of(t) for t in shard.mux.tier_ids()),
                            default=0.0,
                        ),
                        4,
                    ),
                    "wire_rpcs": shard.wire.stats.get("rpcs"),
                    "wire_bytes": shard.wire.stats.get("bytes_on_wire"),
                }
            )
        return report

    def rebalance_counters(self) -> Dict[str, int]:
        """Lifetime rebalance/rename counters (deterministic)."""
        return {
            key: self.stats.get(key)
            for key in (
                "rebalances",
                "subtrees_moved",
                "files_rebalanced",
                "bytes_rebalanced",
                "occ_conflicts",
                "occ_lock_fallbacks",
                "cross_shard_renames",
                "dir_renames_redirected",
            )
        }


class ClusterRing:
    """Cluster-wide async submit/complete ring.

    One inner :class:`~repro.core.ring.IoRing` per shard, opened lazily;
    each submission routes to its shard's ring (and therefore to a clock
    frame at the submission instant on that shard's device timelines), so
    ops on different shards overlap in simulated time.  Completions are
    renumbered into one cluster sequence and reaped in
    ``(completed_ns, cluster_seq)`` order — the same determinism contract
    as a single Mux ring.
    """

    def __init__(self, cluster: ClusterMux, depth: int = 8) -> None:
        if depth < 1:
            raise InvalidArgument(f"ring depth must be >= 1, got {depth}")
        self.cluster = cluster
        self.depth = depth
        self.clock = cluster.clock
        self._inner: Dict[int, object] = {}
        #: (shard_id, inner_seq) -> (cluster_seq, cluster_ino)
        self._seq_map: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._next_seq = 0
        self.closed = False

    def _ring_for(self, shard_id: int):
        ring = self._inner.get(shard_id)
        if ring is None:
            ring = self.cluster.shards[shard_id].mux.open_ring(depth=self.depth)
            self._inner[shard_id] = ring
        return ring

    def _route(self, handle: FileHandle) -> Tuple[int, FileHandle]:
        shard, inner = self.cluster._unwrap(handle)
        self.cluster._note_op(shard, handle.private.get("key"))
        return shard.shard_id, inner

    def _register(self, shard_id: int, sub: Submission, cluster_ino: int) -> Submission:
        seq = self._next_seq
        self._next_seq += 1
        self._seq_map[(shard_id, sub.seq)] = (seq, cluster_ino)
        return Submission(
            seq=seq, op=sub.op, ino=cluster_ino, submitted_ns=sub.submitted_ns
        )

    def submit_read(self, handle: FileHandle, offset: int, length: int) -> Submission:
        if self.closed:
            raise InvalidArgument("submit on a closed ring")
        shard_id, inner = self._route(handle)
        sub = self._ring_for(shard_id).submit_read(inner, offset, length)
        return self._register(shard_id, sub, handle.ino)

    def submit_write(self, handle: FileHandle, offset: int, data: bytes) -> Submission:
        if self.closed:
            raise InvalidArgument("submit on a closed ring")
        shard_id, inner = self._route(handle)
        self.cluster.note_write(shard_id, inner.ino)
        sub = self._ring_for(shard_id).submit_write(inner, offset, data)
        return self._register(shard_id, sub, handle.ino)

    def submit_fsync(self, handle: FileHandle) -> Submission:
        if self.closed:
            raise InvalidArgument("submit on a closed ring")
        shard_id, inner = self._route(handle)
        sub = self._ring_for(shard_id).submit_fsync(inner)
        return self._register(shard_id, sub, handle.ino)

    def _remap(self, shard_id: int, completions: List[Completion]) -> List[Completion]:
        out = []
        for c in completions:
            seq, ino = self._seq_map.pop((shard_id, c.seq))
            out.append(
                Completion(
                    seq=seq, op=c.op, ino=ino,
                    submitted_ns=c.submitted_ns, completed_ns=c.completed_ns,
                    result=c.result, error=c.error,
                )
            )
        return out

    @property
    def pending(self) -> int:
        return sum(r.pending for r in self._inner.values())

    def poll(self) -> List[Completion]:
        """Reap every due completion across all shards, merged in
        ``(completed_ns, cluster_seq)`` order."""
        out: List[Completion] = []
        for shard_id in sorted(self._inner):
            out.extend(self._remap(shard_id, self._inner[shard_id].poll()))
        out.sort(key=lambda c: (c.completed_ns, c.seq))
        return out

    def drain(self) -> List[Completion]:
        """Reap everything, advancing the clock to the last completion."""
        out: List[Completion] = []
        for shard_id in sorted(self._inner):
            out.extend(self._remap(shard_id, self._inner[shard_id].drain()))
        out.sort(key=lambda c: (c.completed_ns, c.seq))
        return out

    def close(self) -> List[Completion]:
        """Drain and close every per-shard ring.  Idempotent; the closed
        inner rings are kept so :meth:`snapshot` still reports the final
        counters."""
        if self.closed:
            return []
        out = self.drain()
        for ring in self._inner.values():
            ring.close()
        self.closed = True
        return out

    def snapshot(self) -> Dict[str, object]:
        """Aggregated lifetime counters across the per-shard rings."""
        snaps = {sid: r.snapshot() for sid, r in sorted(self._inner.items())}
        return {
            "depth": self.depth,
            "submitted": sum(s["submitted"] for s in snaps.values()),
            "reaped": sum(s["reaped"] for s in snaps.values()),
            "backpressure_waits": sum(
                s["backpressure_waits"] for s in snaps.values()
            ),
            "max_inflight": max(
                (s["max_inflight"] for s in snaps.values()), default=0
            ),
            "shards": snaps,
        }

    def __enter__(self) -> "ClusterRing":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.closed:
            self.close()


@dataclass
class Cluster:
    """Everything :func:`build_cluster` assembled."""

    clock: SimClock
    mux: ClusterMux
    shards: List[object] = field(default_factory=list)


def build_cluster(
    shards: int = 2,
    clock: Optional[SimClock] = None,
    **stack_kwargs,
) -> Cluster:
    """Assemble ``shards`` full Mux stacks on one SimClock behind a ClusterMux.

    ``stack_kwargs`` pass through to each shard's
    :func:`repro.stack.build_stack` (tiers, capacities, policy, cache
    flags, profiles, ...), so a cluster of degraded or cache-less shards
    is one call away.
    """
    from repro.stack import build_stack

    if shards < 1:
        raise InvalidArgument("a cluster needs at least one shard")
    clock = clock if clock is not None else SimClock()
    stacks = [build_stack(clock=clock, **stack_kwargs) for _ in range(shards)]
    return Cluster(clock=clock, mux=ClusterMux(stacks, clock), shards=stacks)
