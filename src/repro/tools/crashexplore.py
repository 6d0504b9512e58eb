"""Exhaustive crash-state explorer for the Mux stack.

``test_crash_injection`` samples crash points on a *single* native file
system with hypothesis; this tool enumerates **every** media-write
boundary of a canonical workload on the *full* PM+SSD+HDD Mux stack and
crashes at each one — plus torn-prefix variants for multi-block writes —
then recovers and checks the whole stack:

* every native file system passes fsck (``check_native_fs``);
* the Mux cross-FS invariants hold (``check_mux``, deep);
* ``reconcile_cache`` drains crash-surviving dirty SCM blocks, and a
  second deep check passes afterwards;
* the one-sided durability contract holds: bytes fsync'd before the
  crash (and stable since) read back exactly; un-fsynced bytes may hold
  old, new, or zero — never garbage;
* the recovered stack stays usable (create/write/fsync/read round-trip).

Each media write is labeled with the highest-level sync point that issued
it — journal commit, checkpoint, destage batch, BLT commit/migration
two-phase step, mirror-sync copy, metafile append — so the report says
not just *where* the stack survives power loss but *during what*.

The mirror extension additionally asserts that recovery never leaves a
mirror interval *clean*: a crash invalidates every replica (they are
re-synced lazily), so a recovered stack can never serve a stale mirror
as if it were the authoritative copy.

Run via ``python -m repro.bench crashexplore [--smoke]`` or
``python -m repro.tools.crashexplore``.  ``--smoke`` explores a strided
subset (every label represented) for CI; the full sweep visits every
state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import reject_unknown
from repro.core.mux import MuxFileSystem
from repro.core.policy import MigrationOrder
from repro.errors import CrashTriggered, ReproError
from repro.stack import Stack, build_stack
from repro.tools import fsck

MIB = 1024 * 1024
BS = 4096

#: states explored by ``--smoke`` (full mode visits every state)
SMOKE_STATES = 16


# ---------------------------------------------------------------------------
# sync points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashPoint:
    """One media-write boundary of the recorded workload."""

    index: int  # global write-op index across all devices
    label: str  # enclosing sync point ("journal_commit", "destage", ...)
    device: str
    blocks: int  # payload size; > 1 enables the torn variant


@dataclass
class StateResult:
    """Outcome of crashing at one point (one variant) and recovering."""

    point: CrashPoint
    variant: str  # "cut" (nothing landed) or "torn" (prefix landed)
    problems: List[str] = field(default_factory=list)
    lost_reported: List[str] = field(default_factory=list)
    recovered_now_ns: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# durability oracle (crash-safe bookkeeping: writes recorded as *issued*)
# ---------------------------------------------------------------------------


class DurabilityOracle:
    """One-sided durability contract over the Mux.

    ``written`` is updated *before* the write is issued, so a crash in the
    middle of the operation still knows both the old and the new value a
    byte may legally hold.  ``synced`` snapshots only after fsync returns.
    """

    def __init__(self, mux: MuxFileSystem) -> None:
        self.mux = mux
        self.written: Dict[str, bytes] = {}
        self.synced: Dict[str, bytes] = {}
        self.deleted: set = set()

    def write(self, handle, path: str, offset: int, data: bytes) -> None:
        buf = bytearray(self.written.get(path, b""))
        if len(buf) < offset + len(data):
            buf.extend(bytes(offset + len(data) - len(buf)))
        buf[offset : offset + len(data)] = data
        self.written[path] = bytes(buf)
        self.mux.write(handle, offset, data)

    def fsync(self, handle, path: str) -> None:
        self.mux.fsync(handle)
        self.synced[path] = self.written[path]

    def unlink(self, path: str) -> None:
        self.written.pop(path, None)
        self.synced.pop(path, None)
        self.deleted.add(path)
        self.mux.unlink(path)

    def verify(self) -> List[str]:
        """Check every fsync'd file; returns problem strings (empty=ok)."""
        problems: List[str] = []
        for path, old in sorted(self.synced.items()):
            new = self.written.get(path)
            if not self.mux.exists(path):
                if path not in self.deleted:
                    problems.append(f"{path}: vanished without an unlink")
                continue
            got = self.mux.read_file(path)
            lengths = {len(old)}
            if new is not None:
                lengths.add(len(new))
            if len(got) not in lengths:
                problems.append(
                    f"{path}: size {len(got)} not in {sorted(lengths)}"
                )
                continue
            for i, byte in enumerate(got):
                allowed = {0}  # uncommitted size growth reads as holes
                if i < len(old):
                    allowed.add(old[i])
                if new is not None and i < len(new):
                    allowed.add(new[i])
                if byte not in allowed:
                    problems.append(
                        f"{path}: byte {i} = {byte} not in {sorted(allowed)}"
                    )
                    break
                # the hard guarantee: stable fsync'd bytes must match
                if i < len(old) and (
                    new is None or (i < len(new) and new[i] == old[i])
                ):
                    if byte != old[i]:
                        problems.append(f"{path}: fsync'd byte {i} lost")
                        break
        return problems


# ---------------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------------


class CrashExplorer:
    """Census + replay harness over the canonical workload."""

    def __init__(self) -> None:
        self.mode = "census"  # "census" | "armed"
        self.points: List[CrashPoint] = []
        self.op_index = 0
        self.target: Optional[int] = None
        self.torn_prefix = 0
        self.fired = False
        #: the device taps report here only while attached (power is on
        #: and the workload, not setup or verification, is running)
        self.attached = False
        self._labels: List[str] = []

    # -- device callback -------------------------------------------------

    def on_media_write(self, device: str, blocks: int) -> int:
        """Called before each media write.  Returns a torn prefix (blocks)
        to land before dying, or raises :class:`CrashTriggered` for a
        clean cut; 0 means the write proceeds normally."""
        if self.fired:
            raise CrashTriggered("power is off")
        idx = self.op_index
        self.op_index += 1
        if self.mode == "census":
            label = self._labels[-1] if self._labels else "data_write"
            self.points.append(CrashPoint(idx, label, device, blocks))
            return 0
        if self.target is not None and idx == self.target:
            self.fired = True
            if self.torn_prefix and blocks > 1:
                return min(self.torn_prefix, blocks - 1)
            raise CrashTriggered(f"power lost at media write #{idx}")
        return 0

    def checkpoint(self) -> None:
        """Workload-level backstop: some layers legally absorb I/O errors
        (a ring CQE, a destage retry), so after each workload op we stop
        the world ourselves if the power has gone out."""
        if self.fired:
            raise CrashTriggered("power is off")

    # -- sync-point labeling ---------------------------------------------

    def _wrap_label(self, obj, method_name: str, label: str) -> None:
        inner = getattr(obj, method_name)

        def wrapper(*args, **kwargs):
            self._labels.append(label)
            try:
                return inner(*args, **kwargs)
            finally:
                self._labels.pop()

        setattr(obj, method_name, wrapper)

    def _wrap_label_gen(self, obj, method_name: str, label: str) -> None:
        """Generator-function variant: the label must cover *iteration*,
        not just the call that builds the generator object."""
        inner = getattr(obj, method_name)

        def wrapper(*args, **kwargs):
            def run():
                self._labels.append(label)
                try:
                    yield from inner(*args, **kwargs)
                finally:
                    self._labels.pop()

            return run()

        setattr(obj, method_name, wrapper)

    # -- stack assembly ---------------------------------------------------

    def _tap_store(self, pm) -> None:
        """PM stores are crash points (no torn variant: a single store is
        a cache-line-granular operation, atomic in the NOVA model)."""
        inner = pm.store

        def store(addr: int, data) -> None:
            if self.attached:
                self.on_media_write(pm.name, 1)
            inner(addr, data)

        pm.store = store

    def _tap_write_blocks(self, device) -> None:
        """Block-device writes are crash points; multi-block writes get
        torn variants."""
        inner = device.write_blocks

        def write_blocks(block_no: int, data) -> None:
            if self.attached:
                count = len(data) // device.block_size
                prefix = self.on_media_write(device.name, count)
                if prefix:
                    # torn write: a prefix of the payload reached media
                    # before the power failed
                    device._write_span_raw(block_no, data[: prefix * device.block_size])
                    raise CrashTriggered(
                        f"power lost mid-write on {device.name}: "
                        f"{prefix}/{count} blocks landed"
                    )
            inner(block_no, data)

        device.write_blocks = write_blocks

    def build_stack(self) -> Stack:
        """PM+SSD+HDD write-back stack with every media write tapped.

        The taps go on the device *instances* and attach only *after*
        assembly, so setup traffic (cache-file preallocation,
        mkfs-equivalents) is not part of the explored workload.
        """
        stack = build_stack(
            capacities={"pm": 16 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB},
            cache_write_back=True,
        )
        mux = stack.mux
        self._tap_store(stack.devices["pm"])
        self._tap_write_blocks(stack.devices["ssd"])
        self._tap_write_blocks(stack.devices["hdd"])
        self.attached = True
        # sync-point labels (instance-level wrappers; census + replay see
        # the same call structure, so indices line up run to run)
        self._wrap_label(mux.cachectl, "destage_blocks", "destage")
        self._wrap_label(mux.mirrors, "_media_write", "mirror_sync")
        self._wrap_label(mux, "blt_commit_move", "blt_commit")
        self._wrap_label_gen(mux.engine.occ, "_copy_runs", "migration_copy")
        self._wrap_label(mux.engine.occ, "_commit", "migration_commit")
        self._wrap_label(mux.meta, "flush", "metafile_append")
        for name in ("ssd", "hdd"):
            journal = stack.filesystems[name].journal
            self._wrap_label(journal, "_write_txn", "journal_commit")
            self._wrap_label(journal, "checkpoint", "checkpoint")
        return stack

    def detach(self) -> None:
        """Power restored: recovery and verification I/O is not explored."""
        self.attached = False

    # -- canonical workload -----------------------------------------------

    def workload(self, stack: Stack, oracle: DurabilityOracle) -> None:
        """The recorded workload: covers data writes, fsyncs, migrations
        (two-phase copy + BLT commit), cache absorption + destaging,
        journal commits/checkpoints, and an unlink window."""
        mux = stack.mux
        ck = self.checkpoint
        pm, ssd, hdd = (stack.tier_ids[n] for n in ("pm", "ssd", "hdd"))

        a = mux.create("/a"); ck()
        oracle.write(a, "/a", 0, b"A" * (8 * BS)); ck()
        oracle.fsync(a, "/a"); ck()
        b = mux.create("/b"); ck()
        oracle.write(b, "/b", 0, b"C" * (4 * BS)); ck()
        oracle.fsync(b, "/b"); ck()

        # two-phase migrations: PM -> HDD (ext4 journal) and PM -> SSD
        # (XFS delayed allocation), each ending in a BLT commit
        mux.engine.migrate_now(MigrationOrder(a.ino, 0, 8, pm, hdd)); ck()
        mux.engine.migrate_now(MigrationOrder(b.ino, 0, 4, pm, ssd)); ck()

        # warm the SCM cache, then absorb writes and destage via fsync
        mux.read(a, 0, 8 * BS); ck()
        mux.read(b, 0, 4 * BS); ck()
        oracle.write(a, "/a", 2 * BS, b"B" * BS); ck()
        oracle.fsync(a, "/a"); ck()
        oracle.write(a, "/a", 5 * BS, b"D" * (2 * BS)); ck()
        oracle.fsync(a, "/a"); ck()
        oracle.write(b, "/b", 1 * BS, b"E" * BS); ck()
        oracle.fsync(b, "/b"); ck()

        # mirror the HDD-resident /a onto SSD and PM: the sync engine's
        # copies are their own labeled sync points ("mirror_sync"), with
        # torn variants on the SSD's multi-block writes; the second sync
        # covers the stale-interval re-convergence path
        ia = mux.ns.resolve("/a")
        mux.mirrors.add_mirror(ia, ssd); ck()
        mux.mirrors.add_mirror(ia, pm); ck()
        mux.mirrors.sync_file(ia); ck()
        oracle.write(a, "/a", 3 * BS, b"G" * BS); ck()
        oracle.fsync(a, "/a"); ck()
        mux.mirrors.sync_file(ia); ck()

        # an un-fsynced file plus its unlink: crashes inside the unlink
        # window exercise the mount-time orphan reconciliation
        t = mux.create("/tmp"); ck()
        oracle.write(t, "/tmp", 0, b"T" * (2 * BS)); ck()
        mux.close(t); ck()
        oracle.unlink("/tmp"); ck()

        oracle.write(a, "/a", 0, b"F" * BS); ck()
        oracle.fsync(a, "/a"); ck()
        mux.close(a); ck()
        mux.close(b); ck()
        mux.sync(); ck()

    # -- passes ------------------------------------------------------------

    def census(self) -> List[CrashPoint]:
        """Pass 1: run the workload once, recording every sync point."""
        self.mode = "census"
        self.points = []
        self.op_index = 0
        self.fired = False
        stack = self.build_stack()
        oracle = DurabilityOracle(stack.mux)
        self.workload(stack, oracle)
        # healthy-path sanity: the uncrashed end state must be clean
        self.detach()
        for name, fs in stack.filesystems.items():
            problems = fsck.check_native_fs(fs)
            if problems:
                raise ReproError(
                    f"census: fsck[{name}] dirty without a crash: {problems[0]}"
                )
        return list(self.points)

    def explore_state(self, point: CrashPoint, variant: str) -> StateResult:
        """Pass 2, one state: fresh stack, crash at ``point``, recover,
        check everything."""
        self.mode = "armed"
        self.op_index = 0
        self.target = point.index
        self.torn_prefix = point.blocks // 2 if variant == "torn" else 0
        self.fired = False
        result = StateResult(point=point, variant=variant)
        stack = self.build_stack()
        oracle = DurabilityOracle(stack.mux)
        try:
            self.workload(stack, oracle)
        except CrashTriggered:
            pass
        if not self.fired:
            result.problems.append(
                f"crash point #{point.index} never reached on replay"
            )
            return result
        self.detach()
        self._verify(stack, oracle, result)
        return result

    def _verify(
        self, stack: Stack, oracle: DurabilityOracle, result: StateResult
    ) -> None:
        mux = stack.mux
        try:
            mux.crash()
            mux.recover()
        except ReproError as exc:
            result.problems.append(f"recovery: {exc!r}")
            return
        # a crash invalidates every mirror: no replica interval may come
        # back clean, or a stale mirror could be read as authoritative
        for inode in mux.ns.files():
            replicas = inode.replicas
            clean = 0 if replicas is None else sum(map(replicas.clean_blocks, replicas.tiers()))
            if clean:
                result.problems.append(
                    f"mirror: ino {inode.ino} recovered with "
                    f"{clean} clean replica "
                    f"block(s) — stale mirror could shadow the "
                    f"authoritative copy"
                )
        for name, fs in stack.filesystems.items():
            for p in fsck.check_native_fs(fs):
                result.problems.append(f"fsck[{name}]: {p}")
        for p in fsck.check_mux(mux, deep=True):
            result.problems.append(f"fsck[mux]: {p}")
        try:
            fsck.reconcile_cache(mux, result.lost_reported)
        except ReproError as exc:
            result.problems.append(f"reconcile: {exc!r}")
        for p in fsck.check_mux(mux, deep=True):
            result.problems.append(f"fsck[mux,post-reconcile]: {p}")
        result.problems.extend(
            f"durability: {p}" for p in oracle.verify()
        )
        try:
            handle = mux.create("/postcrash")
            mux.write(handle, 0, b"alive")
            mux.fsync(handle)
            alive = mux.read(handle, 0, 5)
            mux.close(handle)
            if alive != b"alive":
                result.problems.append("usability: post-crash readback mismatch")
        except ReproError as exc:
            result.problems.append(f"usability: {exc!r}")
        result.recovered_now_ns = stack.clock.now_ns


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _select_states(
    points: List[CrashPoint], smoke: bool
) -> List[Tuple[CrashPoint, str]]:
    """Full mode: every point (+ torn variants).  Smoke: a strided subset
    with every label represented and at least one torn state."""
    full: List[Tuple[CrashPoint, str]] = []
    for point in points:
        full.append((point, "cut"))
        if point.blocks > 1:
            full.append((point, "torn"))
    if not smoke:
        return full
    chosen: List[Tuple[CrashPoint, str]] = []
    seen_labels = set()
    for point in points:  # first occurrence of each label
        if point.label not in seen_labels:
            seen_labels.add(point.label)
            chosen.append((point, "cut"))
    torn = next((p for p in points if p.blocks > 1), None)
    if torn is not None:
        chosen.append((torn, "torn"))
    stride = max(1, len(points) // max(1, SMOKE_STATES - len(chosen)))
    have = {(p.index, v) for p, v in chosen}
    for point in points[::stride]:
        if len(chosen) >= SMOKE_STATES:
            break
        if (point.index, "cut") not in have:
            have.add((point.index, "cut"))
            chosen.append((point, "cut"))
    chosen.sort(key=lambda pv: (pv[0].index, pv[1]))
    return chosen


def explore(smoke: bool, verbose: bool = False) -> Dict[str, object]:
    """Run the census + the selected crash states; return the report."""
    explorer = CrashExplorer()
    points = explorer.census()
    by_label: Dict[str, int] = {}
    for point in points:
        by_label[point.label] = by_label.get(point.label, 0) + 1
    states = _select_states(points, smoke)
    failures: List[Dict[str, object]] = []
    lost_total = 0
    clock_sum_ns = 0
    for point, variant in states:
        result = explorer.explore_state(point, variant)
        clock_sum_ns += result.recovered_now_ns
        lost_total += len(result.lost_reported)
        if not result.ok:
            failures.append(
                {
                    "index": point.index,
                    "label": point.label,
                    "device": point.device,
                    "variant": variant,
                    "problems": result.problems,
                }
            )
            if verbose:
                print(f"  FAIL #{point.index} {point.label} ({variant}):")
                for p in result.problems:
                    print(f"    - {p}")
        elif verbose:
            print(f"  ok   #{point.index} {point.label} ({variant})")
    return {
        "sync_points": len(points),
        "by_label": dict(sorted(by_label.items())),
        "states_explored": len(states),
        "failures": failures,
        "lost_intervals_reported": lost_total,
        "clock_sum_ns": clock_sum_ns,
    }


USAGE = "usage: python -m repro.bench crashexplore [--smoke] [--verbose|-v]"


def main(argv: List[str]) -> int:
    argv = list(argv)
    # a typo must not fall through to the full sweep
    reject_unknown(argv, ("--smoke", "--verbose", "-v"), USAGE)
    smoke = "--smoke" in argv
    verbose = "--verbose" in argv or "-v" in argv
    mode = "smoke subset" if smoke else "full sweep"
    print(f"crashexplore: {mode} of the canonical workload...")
    report = explore(smoke=smoke, verbose=verbose)
    print(
        f"crashexplore: {report['sync_points']} sync points "
        f"({', '.join(f'{k}={v}' for k, v in report['by_label'].items())})"
    )
    print(
        f"crashexplore: {report['states_explored']} crash states explored, "
        f"{len(report['failures'])} failed, "
        f"{report['lost_intervals_reported']} lost interval(s) reported"
    )
    if report["failures"]:
        for failure in report["failures"][:10]:
            print(
                f"  FAIL #{failure['index']} {failure['label']} "
                f"({failure['variant']}) on {failure['device']}:"
            )
            for p in failure["problems"][:4]:
                print(f"    - {p}")
        print("crashexplore: FAILED")
        return 1
    print("crashexplore: every crash state recovered cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
