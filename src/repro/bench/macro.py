"""Filebench-style macro workloads.

Three classic personalities, implemented against the VFS-facing
:class:`FileSystem` interface so the same workload runs unchanged on a
native file system, on Strata, or on Mux:

* **fileserver** — create/write/append/read/stat/delete over a directory
  tree of medium files (metadata + data mix);
* **webserver**  — whole-file reads of many small files with a skewed
  (hot-set) popularity distribution, plus a shared append-only log;
* **varmail**    — mail-spool pattern: create, append, fsync, read,
  delete in tight cycles (fsync-heavy).

Each run returns simulated ops/s and per-op latency, so the examples and
benches can compare storage stacks under identical request streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.vfs.interface import FileSystem, OpenFlags

KIB = 1024
MIB = 1024 * KIB

#: per-personality seeds; a run's file names carry its seed
FILESERVER_SEED = 31
WEBSERVER_SEED = 37
VARMAIL_SEED = 41


@dataclass
class MacroResult:
    name: str
    operations: int
    elapsed_s: float
    op_mix: Dict[str, int] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        return self.operations / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def mean_latency_us(self) -> float:
        if not self.operations:
            return 0.0
        return self.elapsed_s * 1e6 / self.operations

    def summary(self) -> str:
        return (
            f"{self.name}: {self.operations} ops in {self.elapsed_s * 1e3:.1f} ms "
            f"simulated -> {self.ops_per_sec:,.0f} ops/s "
            f"({self.mean_latency_us:.1f} us/op)"
        )


def _bump(mix: Dict[str, int], op: str) -> None:
    mix[op] = mix.get(op, 0) + 1


def fileserver(
    fs: FileSystem,
    clock: SimClock,
    files: int = 40,
    operations: int = 600,
) -> MacroResult:
    """Create/write/append/read/stat/delete mix over 256 KiB files."""
    seed, file_size = FILESERVER_SEED, 256 * KIB
    rng = DeterministicRng(seed)
    if not fs.exists("/srv"):
        fs.mkdir("/srv")
    live: List[str] = []
    next_id = 0
    chunk = bytes(16 * KIB)
    mix: Dict[str, int] = {}

    def create_one() -> None:
        nonlocal next_id
        path = f"/srv/file{seed}_{next_id:05d}"
        next_id += 1
        handle = fs.create(path)
        written = 0
        while written < file_size:
            fs.write(handle, written, chunk)
            written += len(chunk)
        fs.close(handle)
        live.append(path)

    for _ in range(files):
        create_one()

    start_ns = clock.now_ns
    for _ in range(operations):
        roll = rng.random()
        if roll < 0.25 or not live:
            create_one()
            _bump(mix, "create+write")
        elif roll < 0.50:
            path = rng.choice(live)
            handle = fs.open(path, OpenFlags.RDWR | OpenFlags.APPEND)
            fs.write(handle, 0, chunk)
            fs.close(handle)
            _bump(mix, "append")
        elif roll < 0.80:
            path = rng.choice(live)
            handle = fs.open(path, OpenFlags.RDONLY)
            size = fs.getattr(path).size
            fs.read(handle, 0, min(size, 64 * KIB))
            fs.close(handle)
            _bump(mix, "read")
        elif roll < 0.92:
            fs.getattr(rng.choice(live))
            _bump(mix, "stat")
        else:
            victim = live.pop(rng.randint(0, len(live) - 1))
            fs.unlink(victim)
            _bump(mix, "delete")
    elapsed = (clock.now_ns - start_ns) / 1e9
    return MacroResult("fileserver", operations, elapsed, mix)


def webserver(
    fs: FileSystem,
    clock: SimClock,
    files: int = 100,
    operations: int = 1000,
) -> MacroResult:
    """Skewed whole-file reads of 32 KiB files + a shared access log."""
    file_size = 32 * KIB
    rng = DeterministicRng(WEBSERVER_SEED)
    if not fs.exists("/www"):
        fs.mkdir("/www")
    paths = []
    for i in range(files):
        path = f"/www/page{i:05d}.html"
        fs.write_file(path, bytes([i % 251]) * file_size)
        paths.append(path)
    log = fs.open("/www/access.log", OpenFlags.RDWR | OpenFlags.CREAT)
    log_offset = fs.getattr("/www/access.log").size
    hot = max(1, int(files * 0.1))
    mix: Dict[str, int] = {}

    start_ns = clock.now_ns
    for _ in range(operations):
        # 90% of requests hit the hot 10% of pages (Zipf-ish)
        if rng.random() < 0.9:
            path = paths[rng.randint(0, hot - 1)]
        else:
            path = paths[rng.randint(0, files - 1)]
        handle = fs.open(path, OpenFlags.RDONLY)
        fs.read(handle, 0, file_size)
        fs.close(handle)
        _bump(mix, "page-read")
        entry = b"GET " + path.encode() + b" 200\n"
        fs.write(log, log_offset, entry)
        log_offset += len(entry)
        _bump(mix, "log-append")
    elapsed = (clock.now_ns - start_ns) / 1e9
    fs.close(log)
    return MacroResult("webserver", operations * 2, elapsed, mix)


def varmail(
    fs: FileSystem,
    clock: SimClock,
    operations: int = 300,
) -> MacroResult:
    """Mail-spool cycles of 8 KiB messages: create, append, fsync, read,
    delete."""
    seed, message_size = VARMAIL_SEED, 8 * KIB
    rng = DeterministicRng(seed)
    if not fs.exists("/mail"):
        fs.mkdir("/mail")
    live: List[str] = []
    next_id = 0
    mix: Dict[str, int] = {}
    message = bytes(message_size)

    start_ns = clock.now_ns
    for _ in range(operations):
        roll = rng.random()
        if roll < 0.4 or not live:
            path = f"/mail/msg{seed}_{next_id:06d}"
            next_id += 1
            handle = fs.create(path)
            fs.write(handle, 0, message)
            fs.fsync(handle)  # mail servers fsync before acking
            fs.close(handle)
            live.append(path)
            _bump(mix, "deliver")
        elif roll < 0.7:
            path = rng.choice(live)
            handle = fs.open(path, OpenFlags.RDWR | OpenFlags.APPEND)
            fs.write(handle, 0, b"X-Flag: seen\n")
            fs.fsync(handle)
            fs.close(handle)
            _bump(mix, "flag+fsync")
        elif roll < 0.9:
            path = rng.choice(live)
            handle = fs.open(path, OpenFlags.RDONLY)
            fs.read(handle, 0, message_size)
            fs.close(handle)
            _bump(mix, "read")
        else:
            victim = live.pop(rng.randint(0, len(live) - 1))
            fs.unlink(victim)
            _bump(mix, "expunge")
    elapsed = (clock.now_ns - start_ns) / 1e9
    return MacroResult("varmail", operations, elapsed, mix)


ALL_WORKLOADS = {
    "fileserver": fileserver,
    "webserver": webserver,
    "varmail": varmail,
}
