"""The two drivers: open loop over rings, closed loop through the VFS.

Everything here talks to the program through the surface ROADMAP fixes as
contract: the ``Stack`` fields, the VFS calls, ``open_ring`` and ring
submit/poll/drain, ``set_placement`` — plus :func:`pump_background`, the
single place that drives Mux's background movers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FileNotFound, ReproError
from repro.vfs.interface import OpenFlags

from muxbench import gen
from muxbench.shadow import BLOCK, ContentMismatch, Shadow

#: every Nth read is compared against the shadow while the run is timed
#: (all of them are compared by the sweep after it)
VERIFY_EVERY = 16
#: ops between ``maintain_async`` planning rounds on the ring workloads
PLAN_EVERY = 64
#: an open-loop op counts as submitted late when the generator reaches it
#: this long after its due time (a burst's own submit costs stay below it)
LATE_SLACK_NS = 10_000

LATENCY_CLASSES = ("read", "write", "fsync", "meta")


def pump_background(mux, mode: str = "tick") -> int:
    """Drive Mux's background movers; the only caller of ``maintain``,
    ``maintain_async``, ``engine.tick/drain`` and ``mirrors.tick/drain``.

    ``tick``  one cooperative step of in-flight migrations and mirror sync
    ``plan``  ask the policy for new orders, then ``tick``
    ``drain`` plan once more and run everything in flight to completion
    ``foreground`` plan and migrate synchronously (``mux.maintain()``)

    Returns the number of migration orders the policy issued.
    """
    if mode == "foreground":
        return mux.maintain()
    orders = mux.maintain_async() if mode != "tick" else 0
    if mode == "drain":
        mux.engine.drain()
        mux.mirrors.drain()
    else:
        mux.engine.tick()
        mux.mirrors.tick()
    return orders


@dataclass
class PhaseResult:
    """What one timed phase measured (simulated clock only)."""

    name: str
    rate: Optional[float]
    ops: int = 0
    failed: int = 0
    mismatches: int = 0
    checked_reads: int = 0
    user_bytes_written: int = 0
    late_submits: int = 0
    makespan_ns: int = 0
    #: last completion minus last due time (open loop): a backlog that is
    #: still growing when arrivals stop shows up here
    drain_lag_ns: int = 0
    latencies: Dict[str, List[int]] = field(
        default_factory=lambda: {c: [] for c in LATENCY_CLASSES}
    )


# ---------------------------------------------------------------------------
# open loop over rings
# ---------------------------------------------------------------------------


class RingRig:
    """Files opened up front, ops submitted on rings at their due times.

    ``front`` is a ``MuxFileSystem`` or a ``ClusterMux`` (same API); one
    ring per directory (a single ring on a single Mux, one cluster ring
    per tenant on the cluster).  ``muxes`` are pumped for background work
    every op; ``stacks`` are read for device statistics.
    """

    def __init__(
        self,
        clock,
        stacks: Sequence[object],
        front,
        muxes: Sequence[object],
        dir_paths: Sequence[str],
        ring_depth: int,
        pin_tier: Optional[int] = None,
        cluster=None,
        relocate: Tuple[int, int] = (0, 0),
    ) -> None:
        self.clock = clock
        self.stacks = list(stacks)
        self.front = front
        self.muxes = list(muxes)
        self.dir_paths = list(dir_paths)
        self.pin_tier = pin_tier
        self.cluster = cluster
        #: cluster only: ``(tenant, shard)`` — the subtree shipped to
        #: another shard after the first timed phase
        self.relocate = relocate
        self.shadow = Shadow()
        self.owner: Dict[int, int] = {}
        self.handles: Dict[int, object] = {}
        self.rings = [front.open_ring(depth=ring_depth) for _ in dir_paths]
        self._books: List[Dict[int, tuple]] = [{} for _ in dir_paths]
        self._reads = 0
        self._pumped = 0
        #: migration orders the policy issued so far
        self.orders = 0

    def path(self, fid: int) -> str:
        return f"{self.dir_paths[self.owner[fid]]}/f{fid}"

    # -- set-up ------------------------------------------------------------

    def populate(self, plan: gen.Plan) -> None:
        front = self.front
        for path in self.dir_paths:
            parent = path.rsplit("/", 1)[0]
            if parent and not front.exists(parent):
                front.mkdir(parent)
            front.mkdir(path)
        for fid, owner, nblocks in plan.populate:
            self.owner[fid] = owner
            self.shadow.add(fid)
            path = self.path(fid)
            handle = front.create(path)
            if self.pin_tier is not None:
                front.set_placement(path, self.pin_tier)
            front.write(handle, 0, self.shadow.payload(fid, 0, nblocks))
            # durable before the warm-up: dirty page-cache debt would
            # otherwise be billed to the first measured ops
            front.fsync(handle)
            self.handles[fid] = handle

    def warm(self, plan: gen.Plan) -> None:
        """Closed-loop, untimed pass; leaves caches, mirrors and promotions
        converged and every background copy drained."""
        front = self.front
        for _, kind, fid, a, b in plan.warm:
            self._pump()
            if kind == "R":
                front.read(self.handles[fid], a * BLOCK, b * BLOCK)
            elif kind == "W":
                front.write(self.handles[fid], a * BLOCK, self.shadow.payload(fid, a, b))
            elif kind == "F":
                front.fsync(self.handles[fid])
            else:
                self._move(fid, a)
        self.settle(None)

    def _pump(self) -> None:
        self._pumped += 1
        mode = "plan" if self._pumped % PLAN_EVERY == 0 else "tick"
        for mux in self.muxes:
            self.orders += pump_background(mux, mode)

    def settle(self, after_phase: Optional[int]) -> None:
        """Drain background work; on the cluster, ship one subtree to another
        shard after the first timed phase (handles do not survive the move)."""
        for mux in self.muxes:
            self.orders += pump_background(mux, "drain")
        if self.cluster is not None and after_phase == 0:
            for handle in self.handles.values():
                self.front.close(handle)
            # the rebalancer's data path with its chooser taken out: which
            # subtree a decayed pressure gauge picks is seed luck, and it
            # decides the cluster's capacity for the rest of the run
            tenant, shard = self.relocate
            self.cluster.migrate_subtree(self.dir_paths[tenant][1:], shard)
            for fid in self.handles:
                self.handles[fid] = self.front.open(self.path(fid))

    def _move(self, fid: int, dst: int) -> None:
        """Rename a file into another tenant's directory and reopen it."""
        front = self.front
        old = self.path(fid)
        front.close(self.handles[fid])
        self.owner[fid] = dst
        front.rename(old, self.path(fid))
        self.handles[fid] = front.open(self.path(fid))

    # -- timed phase -------------------------------------------------------

    def run_phase(self, phase: gen.Phase, set_op: Callable[[int], None]) -> PhaseResult:
        clock = self.clock
        shadow = self.shadow
        res = PhaseResult(phase.name, phase.rate, ops=len(phase.ops))
        start = clock.now_ns
        due = start
        for index, (offset, kind, fid, a, b) in enumerate(phase.ops):
            set_op(index)
            due = start + offset
            clock.advance_to(due)
            if clock.now_ns - due > LATE_SLACK_NS:
                res.late_submits += 1
            idx = self.owner[fid]
            ring = self.rings[idx]
            self._harvest(idx, ring.poll(), res)
            self._pump()
            if kind == "R":
                sub = ring.submit_read(self.handles[fid], a * BLOCK, b * BLOCK)
                self._reads += 1
                if self._reads % VERIFY_EVERY == 0:
                    entry = (due, "read", fid, a, shadow.versions(fid, a, b))
                else:
                    entry = (due, "read")
            elif kind == "W":
                data = shadow.payload(fid, a, b)
                sub = ring.submit_write(self.handles[fid], a * BLOCK, data)
                res.user_bytes_written += len(data)
                entry = (due, "write")
            elif kind == "F":
                sub = ring.submit_fsync(self.handles[fid])
                entry = (due, "fsync")
            else:
                self._timed_move(fid, a, due, res)
                continue
            self._books[idx][sub.seq] = entry
        for idx, ring in enumerate(self.rings):
            self._harvest(idx, ring.drain(), res)
        res.makespan_ns = clock.now_ns - start
        res.drain_lag_ns = clock.now_ns - due
        return res

    def _timed_move(self, fid: int, dst: int, due: int, res: PhaseResult) -> None:
        # an independent admin client: the rename runs in its own clock
        # frame, so it overlaps the tenants' ring ops instead of stalling
        # the arrival schedule for its whole duration
        self.clock.push_frame(self.clock.now_ns)
        try:
            self._move(fid, dst)
        except ReproError:
            res.failed += 1
            self.clock.pop_frame()
            return
        res.latencies["meta"].append(self.clock.pop_frame() - due)

    def _harvest(self, idx: int, completions, res: PhaseResult) -> None:
        book = self._books[idx]
        for c in completions:
            entry = book.pop(c.seq)
            if c.error is not None:
                res.failed += 1
                continue
            res.latencies[entry[1]].append(c.completed_ns - entry[0])
            if len(entry) > 2:
                res.checked_reads += 1
                try:
                    self.shadow.check(entry[2], entry[3], entry[4], c.result)
                except ContentMismatch:
                    res.mismatches += 1

    # -- after the window --------------------------------------------------

    def sweep(self) -> Tuple[int, int]:
        """Read every file back; returns ``(files_checked, mismatches)``."""
        bad = 0
        for fid in sorted(self.shadow.files()):
            nblocks = self.shadow.blocks(fid)
            try:
                if self.front.getattr(self.path(fid)).size != nblocks * BLOCK:
                    raise ContentMismatch(f"file {fid}: size")
                data = self.front.read(self.handles[fid], 0, nblocks * BLOCK)
                self.shadow.check(fid, 0, self.shadow.versions(fid, 0, nblocks), data)
            except (ContentMismatch, ReproError):
                bad += 1
        return len(self.shadow), bad

    def ring_snapshots(self) -> List[dict]:
        return [ring.snapshot() for ring in self.rings]


# ---------------------------------------------------------------------------
# closed loop through the VFS
# ---------------------------------------------------------------------------


class VfsRig:
    """One synchronous client calling ``stack.vfs`` under ``/mux``."""

    def __init__(
        self,
        stack,
        dir_paths: Sequence[str],
        chunk_blocks: int,
        maintain_every: int,
    ) -> None:
        self.clock = stack.clock
        self.stacks = [stack]
        self.vfs = stack.vfs
        self.mux = stack.mux
        self.dir_paths = list(dir_paths)
        self.chunk_blocks = chunk_blocks
        self.maintain_every = maintain_every
        self.shadow = Shadow()
        self.where: Dict[int, int] = {}
        self.members: List[set] = [set() for _ in dir_paths]
        self._reads = 0
        self._readdirs = 0
        self._done = 0
        self.orders = 0

    def path(self, fid: int) -> str:
        return f"{self.dir_paths[self.where[fid]]}/f{fid}"

    def populate(self, plan: gen.Plan) -> None:
        made = set()
        for path in self.dir_paths:
            parts = path.split("/")
            for depth in range(3, len(parts) + 1):
                ancestor = "/".join(parts[:depth])
                if ancestor not in made:
                    self.vfs.mkdir(ancestor)
                    made.add(ancestor)
        sink = PhaseResult("populate", None)
        for fid, where, nblocks in plan.populate:
            self._do(("create", fid, where, nblocks // max(1, self.chunk_blocks)), sink)
        if sink.failed:
            raise RuntimeError(f"{sink.failed} populate ops failed")

    def warm(self, plan: gen.Plan) -> None:
        sink = PhaseResult("warm", None)
        for op in plan.warm:
            self._do(op, sink)
        self.settle(None)

    def settle(self, after_phase: Optional[int]) -> None:
        if self.maintain_every:
            self.orders += pump_background(self.mux, "foreground")

    def run_phase(self, phase: gen.Phase, set_op: Callable[[int], None]) -> PhaseResult:
        res = PhaseResult(phase.name, None, ops=len(phase.ops))
        start = self.clock.now_ns
        for index, op in enumerate(phase.ops):
            set_op(index)
            self._do(op, res)
        res.makespan_ns = self.clock.now_ns - start
        return res

    def _timed(self, res: PhaseResult, cls: str, fn, *args):
        clock = self.clock
        t0 = clock.now_ns
        try:
            return fn(*args)
        finally:
            res.latencies[cls].append(clock.now_ns - t0)

    def _do(self, op: tuple, res: PhaseResult) -> None:
        self._done += 1
        if self.maintain_every and self._done % self.maintain_every == 0:
            self.orders += pump_background(self.mux, "foreground")
        try:
            self._dispatch(op, res)
        except ContentMismatch:
            res.mismatches += 1
        except ReproError:
            res.failed += 1

    def _dispatch(self, op: tuple, res: PhaseResult) -> None:
        vfs = self.vfs
        shadow = self.shadow
        timed = self._timed
        kind = op[0]
        if kind == "create":
            _, fid, where, chunks = op
            self.where[fid] = where
            self.members[where].add(fid)
            shadow.add(fid)
            handle = timed(res, "meta", vfs.create, self.path(fid))
            self._write_chunks(handle, fid, 0, chunks, res)
            vfs.close(handle)
        elif kind == "append":
            _, fid, chunks = op
            handle = timed(res, "meta", vfs.open, self.path(fid))
            self._write_chunks(handle, fid, shadow.blocks(fid), chunks, res)
            vfs.close(handle)
        elif kind == "read":
            fid = op[1]
            nblocks = shadow.blocks(fid)
            handle = timed(res, "meta", vfs.open, self.path(fid), OpenFlags.RDONLY)
            data = timed(res, "read", vfs.read, handle, 0, nblocks * BLOCK)
            vfs.close(handle)
            self._reads += 1
            if self._reads % VERIFY_EVERY == 0:
                res.checked_reads += 1
                shadow.check(fid, 0, shadow.versions(fid, 0, nblocks), data)
        elif kind == "stat":
            fid = op[1]
            st = timed(res, "meta", vfs.getattr, self.path(fid))
            if st.size != shadow.size(fid):
                raise ContentMismatch(f"file {fid}: stat size {st.size}")
        elif kind == "miss":
            _, where, serial = op
            try:
                timed(res, "meta", vfs.getattr, f"{self.dir_paths[where]}/nx{serial}")
            except FileNotFound:
                return
            raise ContentMismatch(f"negative lookup nx{serial} found a file")
        elif kind == "rename":
            _, fid, dst = op
            old = self.path(fid)
            self.members[self.where[fid]].discard(fid)
            self.where[fid] = dst
            self.members[dst].add(fid)
            timed(res, "meta", vfs.rename, old, self.path(fid))
        elif kind == "readdir":
            where = op[1]
            names = timed(res, "meta", vfs.readdir, self.dir_paths[where])
            self._readdirs += 1
            if self._readdirs % VERIFY_EVERY == 0:
                self._check_listing(where, names)
        elif kind == "fsync":
            fid = op[1]
            handle = timed(res, "meta", vfs.open, self.path(fid))
            timed(res, "fsync", vfs.fsync, handle)
            vfs.close(handle)
        elif kind == "unlink":
            fid = op[1]
            path = self.path(fid)
            self.members[self.where.pop(fid)].discard(fid)
            shadow.drop(fid)
            timed(res, "meta", vfs.unlink, path)
        else:
            raise ValueError(f"unknown op {op!r}")

    def _write_chunks(self, handle, fid: int, first: int, chunks: int, res: PhaseResult) -> None:
        cb = self.chunk_blocks
        for chunk in range(chunks):
            block = first + chunk * cb
            data = self.shadow.payload(fid, block, cb)
            self._timed(res, "write", self.vfs.write, handle, block * BLOCK, data)
            res.user_bytes_written += len(data)

    def _check_listing(self, where: int, names: List[str]) -> None:
        expected = sorted(f"f{fid}" for fid in self.members[where])
        if sorted(names) != expected:
            raise ContentMismatch(f"readdir {self.dir_paths[where]} differs")

    def sweep(self) -> Tuple[int, int]:
        bad = 0
        for fid in sorted(self.shadow.files()):
            nblocks = self.shadow.blocks(fid)
            try:
                if self.vfs.getattr(self.path(fid)).size != nblocks * BLOCK:
                    raise ContentMismatch(f"file {fid}: size")
                if nblocks:
                    data = self.vfs.read_file(self.path(fid))
                    self.shadow.check(
                        fid, 0, self.shadow.versions(fid, 0, nblocks), data
                    )
            except (ContentMismatch, ReproError):
                bad += 1
        for where in range(len(self.dir_paths)):
            try:
                self._check_listing(where, self.vfs.readdir(self.dir_paths[where]))
            except (ContentMismatch, ReproError):
                bad += 1
        return len(self.shadow) + len(self.dir_paths), bad

    def ring_snapshots(self) -> List[dict]:
        return []
