"""Workload generators for the paper's experiments.

All generators run against anything implementing the
:class:`~repro.vfs.interface.FileSystem` interface (native file systems,
Mux, Strata), measure **simulated** time, and return plain numbers —
machine-independent and deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.vfs.interface import FileHandle, FileSystem, OpenFlags

MIB = 1024 * 1024

#: the §3.2 streaming benchmarks move 4 MiB per call; the sequential
#: writer fsyncs every 4th write
STREAM_IO_BYTES = 4 * MIB
SEQ_FSYNC_EVERY = 4
#: the metadata tree: files spread over 8 leaf directories, 1 KiB each
META_DIRS = 8
META_PAYLOAD = 1024


@dataclass
class ThroughputResult:
    bytes_moved: int
    elapsed_s: float

    @property
    def mb_per_s(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return (self.bytes_moved / 1e6) / self.elapsed_s


@dataclass
class LatencyResult:
    operations: int
    total_ns: int

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.operations if self.operations else 0.0

    @property
    def mean_us(self) -> float:
        return self.mean_ns / 1000.0


def make_file(
    fs: FileSystem,
    clock: SimClock,
    path: str,
    size: int,
) -> FileHandle:
    """Create ``path`` and fill it to ``size`` bytes of 0xA5 in 4 MiB
    writes, fsyncing every 8th."""
    io_size = 4 * MIB
    handle = fs.open(path, OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC)
    chunk = b"\xa5" * io_size
    written = 0
    ops = 0
    while written < size:
        n = min(io_size, size - written)
        fs.write(handle, written, chunk[:n])
        written += n
        ops += 1
        if ops % 8 == 0:
            fs.fsync(handle)
    fs.fsync(handle)
    return handle


def sequential_write(
    fs: FileSystem,
    clock: SimClock,
    path: str,
    total_bytes: int,
) -> ThroughputResult:
    """The §3.2 write benchmark: repeatedly write 4 MiB sequentially."""
    io_size, fsync_every = STREAM_IO_BYTES, SEQ_FSYNC_EVERY
    handle = fs.open(path, OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC)
    chunk = bytes(io_size)
    start_ns = clock.now_ns
    written = 0
    ops = 0
    while written < total_bytes:
        n = min(io_size, total_bytes - written)
        fs.write(handle, written, chunk[:n])
        written += n
        ops += 1
        if fsync_every and ops % fsync_every == 0:
            fs.fsync(handle)
    fs.fsync(handle)
    elapsed = (clock.now_ns - start_ns) / 1e9
    fs.close(handle)
    return ThroughputResult(written, elapsed)


def sequential_read(
    fs: FileSystem,
    clock: SimClock,
    path: str,
    total_bytes: int,
) -> ThroughputResult:
    """Sequential whole-file read in 4 MiB chunks."""
    io_size = STREAM_IO_BYTES
    handle = fs.open(path, OpenFlags.RDONLY)
    start_ns = clock.now_ns
    read = 0
    while read < total_bytes:
        n = min(io_size, total_bytes - read)
        data = fs.read(handle, read, n)
        assert len(data) == n, f"short read at {read}"
        read += n
    elapsed = (clock.now_ns - start_ns) / 1e9
    fs.close(handle)
    return ThroughputResult(read, elapsed)


def random_write(
    fs: FileSystem,
    clock: SimClock,
    path: str,
    file_size: int,
    total_bytes: int,
) -> ThroughputResult:
    """Fig. 3b workload: random aligned 16 KiB writes over a preallocated
    span, one fsync at the end (the paper measures streaming I/O)."""
    io_size = 16 * 1024
    rng = DeterministicRng(7)
    handle = fs.open(path, OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC)
    fs.truncate(handle, file_size)  # sparse span; writes materialize blocks
    chunk = bytes(io_size)
    start_ns = clock.now_ns
    written = 0
    slots = max(1, file_size // io_size)
    while written < total_bytes:
        offset = rng.randint(0, slots - 1) * io_size
        fs.write(handle, offset, chunk)
        written += io_size
    fs.fsync(handle)
    elapsed = (clock.now_ns - start_ns) / 1e9
    fs.close(handle)
    return ThroughputResult(written, elapsed)


def random_read_single_byte(
    fs: FileSystem,
    clock: SimClock,
    path: str,
    file_size: int,
    iterations: int,
) -> LatencyResult:
    """§3.2 read benchmark: repeatedly read one byte at random offsets."""
    rng = DeterministicRng(11)
    handle = fs.open(path, OpenFlags.RDONLY)
    offsets = [rng.randint(0, file_size - 1) for _ in range(iterations)]
    start_ns = clock.now_ns
    for offset in offsets:
        data = fs.read(handle, offset, 1)
        assert len(data) == 1, f"short read at {offset}"
    total = clock.now_ns - start_ns
    fs.close(handle)
    return LatencyResult(iterations, total)


def hot_set_reads(
    fs: FileSystem,
    clock: SimClock,
    path: str,
    file_size: int,
    hot_bytes: int,
    iterations: int,
) -> LatencyResult:
    """Skewed 4 KiB reads over a hot subset — exercises the SCM cache."""
    io_size = 4096
    rng = DeterministicRng(13)
    handle = fs.open(path, OpenFlags.RDONLY)
    hot_slots = max(1, hot_bytes // io_size)
    start_ns = clock.now_ns
    for _ in range(iterations):
        offset = rng.randint(0, hot_slots - 1) * io_size
        fs.read(handle, offset, io_size)
    total = clock.now_ns - start_ns
    fs.close(handle)
    return LatencyResult(iterations, total)


def metadata_tree(fs: FileSystem, files: int, root: str) -> List[str]:
    """Build the deep tree :func:`metadata_churn` runs over.

    Every file sits five components below the root — the depth real
    metadata benchmarks (e.g. filebench varmail trees) use.  Returns the
    created file paths; split out so harnesses can keep tree construction
    outside the timed section.
    """
    for d in (f"{root}/meta", f"{root}/meta/sub", f"{root}/meta/sub/tree"):
        if not fs.exists(d):
            fs.mkdir(d)
    for d in range(META_DIRS):
        fs.mkdir(f"{root}/meta/sub/tree/d{d:02d}")
    blob = bytes(META_PAYLOAD)
    live: List[str] = []
    for n in range(files):
        path = f"{root}/meta/sub/tree/d{n % META_DIRS:02d}/f{n:06d}"
        handle = fs.create(path)
        fs.write(handle, 0, blob)
        fs.close(handle)
        live.append(path)
    return live


def metadata_churn(
    fs: FileSystem,
    clock: SimClock,
    live: List[str],
    operations: int,
    root: str,
) -> LatencyResult:
    """Namespace-heavy churn: stat/open/close/lookup deep small files.

    The op mix is dominated by path resolution over a deep directory tree
    (stats, opens, negative lookups of names that do not exist) with a
    light create/unlink churn to keep cache invalidation honest, so it
    measures the control plane — dentry cache, path normalization,
    mount-table lookup — with barely any data movement.  Pass a VFS as
    ``fs`` (with ``root`` set to Mux's mount point) to exercise the full
    dispatch path applications actually take.  ``live`` is the file list
    :func:`metadata_tree` returned; the churn creates and unlinks in it.
    """
    rng = DeterministicRng(17)
    blob = bytes(META_PAYLOAD)
    next_id = len(live)
    # the negative-lookup pool is fixed names that never exist; built up
    # front so the timed loop measures resolution, not string formatting
    gone = [
        f"{root}/meta/sub/tree/d{d:02d}/gone{g:03d}"
        for d in range(META_DIRS)
        for g in range(25)
    ]

    def spawn() -> None:
        nonlocal next_id
        path = f"{root}/meta/sub/tree/d{next_id % META_DIRS:02d}/f{next_id:06d}"
        next_id += 1
        handle = fs.create(path)
        fs.write(handle, 0, blob)
        fs.close(handle)
        live.append(path)

    start_ns = clock.now_ns
    for _ in range(operations):
        roll = rng.random()
        if roll < 0.005 or not live:
            spawn()
        elif roll < 0.345:
            fs.getattr(rng.choice(live))
        elif roll < 0.595:
            handle = fs.open(rng.choice(live), OpenFlags.RDONLY)
            fs.close(handle)
        elif roll < 0.995:
            fs.exists(rng.choice(gone))
        else:
            victim = live.pop(rng.randint(0, len(live) - 1))
            fs.unlink(victim)
    total = clock.now_ns - start_ns
    return LatencyResult(operations, total)


def migration_churn(
    mux,
    clock: SimClock,
    tier_ids: List[int],
    files: int,
    file_bytes: int,
    rounds: int,
) -> ThroughputResult:
    """Promotion/demotion churn under concurrent writes (Policy Runner path).

    Files bounce between the fastest and slowest tiers through the OCC
    Synchronizer while a writer dirties a random block every third
    migration step — the adversarial §2.4 pattern at benchmark scale.  Measures
    dirty-block tracking, clean-set computation and BLT commit cost.
    """
    from repro.core.policy import MigrationOrder

    rng = DeterministicRng(23)
    if not mux.exists("/churn"):
        mux.mkdir("/churn")
    bs = mux.block_size
    chunk = bytes(512 * 1024)
    handles = []
    for i in range(files):
        handle = mux.open(
            f"/churn/f{i}", OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC
        )
        written = 0
        while written < file_bytes:
            n = min(len(chunk), file_bytes - written)
            mux.write(handle, written, chunk[:n])
            written += n
        handles.append(handle)
    blocks = file_bytes // bs
    fast, slow = tier_ids[0], tier_ids[-1]
    moved_bytes = 0
    start_ns = clock.now_ns
    demote = True
    for _ in range(rounds):
        src, dst = (fast, slow) if demote else (slow, fast)
        demote = not demote
        for handle in handles:
            task = mux.engine.submit(
                MigrationOrder(handle.ino, 0, blocks, src, dst, reason="churn")
            )
            step = 0
            while task.step():
                if step % 3 == 0:
                    offset = rng.randint(0, blocks - 1) * bs
                    mux.write(handle, offset, b"\xcd" * 512)
                step += 1
            if task.error is not None:
                raise task.error
            moved_bytes += task.result.bytes_moved
    elapsed = (clock.now_ns - start_ns) / 1e9
    for handle in handles:
        mux.close(handle)
    return ThroughputResult(moved_bytes, elapsed)


def cache_writeback(stack, file_bytes: int, operations: int) -> Dict[str, int]:
    """Durable-small-write mix: O_SYNC hot writes over a slow-tier file.

    A file is demoted to the HDD tier and pinned there (a capacity-tier
    resident that stays put), warmed into the SCM cache with one
    sequential read pass, then reopened ``O_SYNC`` — the varmail/database
    commit pattern where every small write must be durable immediately.
    The measured loop issues block-aligned writes concentrated on a hot
    1/8 of the file, mixed with reads.

    With write-back *off*, each O_SYNC write is an individual slow-tier
    write plus a journal flush.  With write-back *on*, the PM slot store
    itself satisfies durability, so writes commit at memory speed and
    dirty runs destage later (writeback budget / close) as coalesced
    batches with repeat overwrites collapsed — the returned
    ``hdd_write_ops`` makes the reduction directly comparable.
    """
    from repro.core.policy import MigrationOrder

    mux = stack.mux
    io_size = 4096
    rng = DeterministicRng(31)
    if not mux.exists("/wb"):
        mux.mkdir("/wb")
    handle = make_file(mux, stack.clock, "/wb/hot", file_bytes)
    bs = mux.block_size
    blocks = file_bytes // bs
    pm, hdd = stack.tier_ids["pm"], stack.tier_ids["hdd"]
    mux.engine.migrate_now(
        MigrationOrder(handle.ino, 0, blocks, pm, hdd, reason="wb-demote")
    )
    mux.set_placement("/wb/hot", hdd)
    # warm pass: pull the whole file into the SCM cache
    read = 0
    while read < file_bytes:
        n = min(4 * MIB, file_bytes - read)
        mux.read(handle, read, n)
        read += n
    mux.close(handle)
    handle = mux.open("/wb/hot", OpenFlags.RDWR | OpenFlags.SYNC)
    hot_blocks = max(1, blocks // 8)
    start_ns = stack.clock.now_ns
    for _ in range(operations):
        if rng.random() < 0.8:
            offset = rng.randint(0, hot_blocks - 1) * bs
            mux.write(handle, offset, b"\xbe" * io_size)
        else:
            offset = rng.randint(0, blocks - 1) * bs
            mux.read(handle, offset, io_size)
    mux.close(handle)
    counters = mux.cache.cache_counters() if mux.cache is not None else {}
    hdd_stats = stack.devices["hdd"].stats.snapshot()
    return {
        "write_hits": counters.get("write_hit", 0),
        "destage_runs": counters.get("destage_runs", 0),
        "destaged_blocks": counters.get("destaged_blocks", 0),
        "dirty_at_end": counters.get("dirty_blocks", 0),
        "hdd_write_ops": hdd_stats.get("write_ops", 0),
        "loop_ns": stack.clock.now_ns - start_ns,
    }


def fault_storm(stack, operations: int, files: int) -> Dict[str, int]:
    """Degraded-mode torture mix: survive a failing tier mid-workload.

    Requires a stack built with fault injectors on the ``ssd`` tier (and
    optionally latency spikes on ``hdd``).  Four phases over one seeded
    schedule:

    1. **populate + demote** — create files on the fast tier, migrate a
       slice to the faulty SSD; its transient write errors exercise the
       retry/backoff path inside the run-level OCC migration;
    2. **offline window** — the SSD device drops dead mid-run: reads of
       SSD-resident blocks fail with ``EIO``, reads elsewhere and all new
       writes keep succeeding (placement routes around the dead tier);
    3. **recovery** — the device comes back, the tier is drained via
       ``evacuate`` and re-admitted as healthy;
    4. **aftershock** — metadata churn plus HDD reads under latency
       spikes prove the stack runs clean again.

    Returns the event counts; all randomness is seeded, so for a fixed
    fault seed the schedule — and therefore the simulated
    fingerprint — is bit-identical across runs.
    """
    from repro.core.policy import MigrationOrder
    from repro.errors import FsError

    mux = stack.mux
    payload = 64 * 1024
    rng = DeterministicRng(29)
    pm, ssd, hdd = (stack.tier_ids[n] for n in ("pm", "ssd", "hdd"))
    ssd_injector = stack.injectors["ssd"]
    bs = mux.block_size
    blocks = payload // bs
    counts: Dict[str, int] = {
        "eio_reads": 0,
        "degraded_reads_ok": 0,
        "degraded_writes_ok": 0,
        "migrations": 0,
        "evacuated_files": 0,
        "retries": 0,
    }

    # -- phase 1: populate, then demote every other file onto the faulty SSD
    if not mux.exists("/storm"):
        mux.mkdir("/storm")
    blob = b"\xa5" * payload
    handles = []
    for i in range(files):
        handle = mux.create(f"/storm/f{i:03d}")
        mux.write(handle, 0, blob)
        handles.append(handle)
    for i in range(0, files, 2):
        result = mux.engine.migrate_now(
            MigrationOrder(handles[i].ino, 0, blocks, pm, ssd, reason="storm")
        )
        counts["migrations"] += 1
        counts["retries"] += result.retries

    # -- phase 2: offline window ------------------------------------------------
    phase_ops = max(1, operations // 3)
    ssd_injector.set_offline()
    # the native FS page cache can mask a dead device for a while; the
    # health monitor (here: the admin API) is what declares the tier dead
    mux.mark_tier_offline(ssd)
    created = 0
    for _ in range(phase_ops):
        if rng.random() < 0.6:
            i = rng.randint(0, files - 1)
            offset = rng.randint(0, blocks - 1) * bs
            try:
                mux.read(handles[i], offset, 4096)
                counts["degraded_reads_ok"] += 1
            except FsError:
                counts["eio_reads"] += 1
        else:
            handle = mux.create(f"/storm/n{created:05d}")
            created += 1
            mux.write(handle, 0, b"\x5a" * 4096)
            mux.close(handle)
            counts["degraded_writes_ok"] += 1

    # -- phase 3: recovery — drain the suspect tier, re-admit it -----------------
    ssd_injector.set_online()
    drained = mux.evacuate(ssd)
    counts["evacuated_files"] = drained["files_drained"]
    counts["retries"] += drained["retries"]
    mux.mark_tier_online(ssd)

    # -- phase 4: aftershock — churn plus HDD reads under latency spikes --------
    for i in range(1, min(files, 7), 2):
        result = mux.engine.migrate_now(
            MigrationOrder(handles[i].ino, 0, blocks, pm, hdd, reason="storm-cold")
        )
        counts["migrations"] += 1
        counts["retries"] += result.retries
    metadata_churn(mux, stack.clock, metadata_tree(mux, 16, ""), phase_ops, "")
    for _ in range(phase_ops):
        i = rng.choice([1, 3, 5])
        offset = rng.randint(0, blocks - 1) * bs
        mux.read(handles[i], offset, 4096)
    mux.engine.drain()
    for handle in handles:
        mux.close(handle)
    return counts


def striped_reads(
    stack,
    tier_ids: List[int],
    file_bytes: int,
    reads: int,
) -> LatencyResult:
    """Whole-file reads over a file striped chunk-round-robin across tiers.

    The file's blocks are scattered in 16-block chunks
    across the given tiers, so every whole-file read splits into one
    sub-request per chunk.  Under the parallel engine those sub-requests
    overlap — across tiers on separate device timelines and within a tier
    across the device's channels — and the read completes at the max of
    the completions; under the serial model they are charged one after
    another.  Page caches are dropped before every read so the devices
    are really hit.  Returns the per-read simulated latency.
    """
    from repro.core.policy import MigrationOrder

    mux = stack.mux
    clock = stack.clock
    if not mux.exists("/stripe"):
        mux.mkdir("/stripe")
    handle = mux.open(
        "/stripe/f", OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC
    )
    written = 0
    chunk = bytes(512 * 1024)
    while written < file_bytes:
        n = min(len(chunk), file_bytes - written)
        mux.write(handle, written, chunk[:n])
        written += n
    mux.fsync(handle)

    # scatter: chunk i goes to tier_ids[i % len(tier_ids)] (new writes land
    # on the fastest tier, so chunks for tier_ids[0] are already in place)
    bs = mux.block_size
    blocks = file_bytes // bs
    src = tier_ids[0]
    stripe_blocks = 16
    for i, start in enumerate(range(0, blocks, stripe_blocks)):
        dst = tier_ids[i % len(tier_ids)]
        if dst == src:
            continue
        count = min(stripe_blocks, blocks - start)
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, start, count, src, dst, reason="stripe")
        )

    total_ns = 0
    for _ in range(reads):
        stack.drop_page_caches()
        t0 = clock.now_ns
        mux.read(handle, 0, file_bytes)
        total_ns += clock.now_ns - t0
    mux.close(handle)
    return LatencyResult(reads, total_ns)
