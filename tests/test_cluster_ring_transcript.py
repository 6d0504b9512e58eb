"""The cluster ring's schedule, pinned: seeded streams over 2-4 shards.

Each stream builds a cluster, spreads tenant subtrees over its shards and
drives two rings with seeded reads, writes and fsyncs mixed with
``poll``, ``drain``, clock advances and background pumping.  A ring
works on one subtree at a time and moves to another (often on another
shard) only after a drain, so its in-flight and pending ops always sit
on one shard — the traffic the open-loop cluster workloads produce.  One
stream also ships a subtree to another shard between two drains and
reopens its files there, as the cluster workloads do between phases.

Every submission and every reaped completion is recorded in reap order
as ``(seq, op, ino, submitted_ns, completed_ns)`` (completions add
whether they failed), with the clock and the ring's ``pending`` after
every step and each ring's closing counters.
``tests/data/cluster_ring_transcripts.json`` holds each transcript's
SHA-256 and its closing numbers; ``python
tests/test_cluster_ring_transcript.py`` prints a fresh recording.

The ``two-shards`` stream is different on purpose: its one ring keeps
ops in flight on two shards at once, so its clock and backpressure
depend on whether ``depth`` bounds the whole ring (as it does) or each
shard separately.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.cluster.bench import balanced_tenant_names
from repro.cluster.cluster import build_cluster
from repro.vfs.interface import OpenFlags

BS = 4096
MIB = 1024 * 1024
RECORDING = Path(__file__).parent / "data" / "cluster_ring_transcripts.json"
#: name -> (shards, hdd-only shards, ring depth, seed, steps, relocate)
CASES = {
    "2-hdd": (2, True, 4, 1, 260, False),
    "3-mixed": (3, False, 8, 2, 320, True),
    "4-hdd": (4, True, 8, 3, 400, True),
}
TWO_SHARDS = (2, True, 6, 4, 300, False)
#: the snapshot counters the recording pins
SNAPSHOT_KEYS = ("depth", "submitted", "reaped", "backpressure_waits", "max_inflight")


def _cluster(shards: int, hdd_only: bool):
    if hdd_only:
        return build_cluster(
            shards=shards, tiers=["hdd"], capacities={"hdd": 64 * MIB},
            enable_cache=False,
        ).mux
    return build_cluster(
        shards=shards, capacities={"pm": 8 * MIB, "ssd": 16 * MIB, "hdd": 64 * MIB}
    ).mux


def cluster_transcript(
    shards: int, hdd_only: bool, depth: int, seed: int, steps: int, relocate: bool,
    spread: bool,
) -> dict:
    """Run one seeded stream; ``spread`` lets the first ring submit to two
    subtrees on different shards without draining in between."""
    rng = random.Random(seed)
    cluster = _cluster(shards, hdd_only)
    clock = cluster.clock
    cluster.mkdir("/t")
    files: dict = {}
    for index, name in enumerate(balanced_tenant_names(cluster.ring, "t", 2 * shards)):
        cluster.mkdir(f"/t/{name}")
        files[f"t/{name}"] = [f"/t/{name}/f{f}" for f in range(2)]
        for f, path in enumerate(files[f"t/{name}"]):
            cluster.write_file(path, bytes([2 * index + f + 1]) * (16 * BS))
    handles = {
        path: cluster.open(path, OpenFlags.RDWR)
        for paths in files.values() for path in paths
    }
    keys = sorted(files)
    rings = [cluster.open_ring(depth=depth) for _ in range(2)]
    current = [[rng.choice(keys)] for _ in rings]
    if spread:
        owner = cluster.subtree_owner(current[0][0])
        current[0].append(next(k for k in keys if cluster.subtree_owner(k) != owner))
    events: list = []

    def record(index: int, completions) -> None:
        for c in completions:
            events.append(
                ["reap", index, c.seq, c.op, c.ino, c.submitted_ns, c.completed_ns,
                 c.error is not None]
            )

    def pump() -> None:
        for shard in cluster.shards:
            shard.mux.maintain_async()
            shard.mux.engine.tick()
            shard.mux.mirrors.tick()

    relocations = 0
    for step in range(steps):
        kind = rng.choices(
            ("read", "write", "fsync", "poll", "drain", "switch", "advance", "pump"),
            weights=(8, 4, 1, 3, 0.5, 0.5, 1.5, 1),
        )[0]
        if relocate and step == steps // 2:
            kind = "relocate"
        index = rng.randrange(len(rings))
        ring = rings[index]
        handle = handles[rng.choice(files[rng.choice(current[index])])]
        sub = None
        if kind == "read":
            sub = ring.submit_read(handle, rng.randrange(16) * BS, rng.randint(1, 8) * BS)
        elif kind == "write":
            data = bytes([rng.randrange(256)]) * (rng.randint(1, 6) * BS)
            sub = ring.submit_write(handle, rng.randrange(16) * BS, data)
        elif kind == "fsync":
            sub = ring.submit_fsync(handle)
        elif kind == "poll":
            record(index, ring.poll())
        elif kind == "drain":
            record(index, ring.drain())
        elif kind == "switch" and not (spread and index == 0):
            record(index, ring.drain())
            current[index] = [rng.choice(keys)]
        elif kind == "advance":
            clock.advance_ns(rng.choice((0, 1_000, 50_000, 2_000_000, 20_000_000)))
        elif kind == "pump":
            pump()
        elif kind == "relocate":
            # between two drains: ship a subtree away, reopen its files there
            for other, each in enumerate(rings):
                record(other, each.drain())
            key = rng.choice(keys)
            dst = rng.choice(
                [s for s in range(shards) if s != cluster.subtree_owner(key)]
            )
            for path in files[key]:
                cluster.close(handles[path])
            moved = cluster.migrate_subtree(key, dst)
            events.append(["relocate", key, dst, moved["files_moved"]])
            relocations += 1
            for path in files[key]:
                handles[path] = cluster.open(path, OpenFlags.RDWR)
        if sub is not None:
            events.append(["submit", index, sub.seq, sub.op, sub.ino, sub.submitted_ns])
        events.append(["state", index, clock.now_ns, ring.pending])
    closing = []
    for index, ring in enumerate(rings):
        record(index, ring.close())
        snap = ring.snapshot()
        closing.append({key: snap[key] for key in SNAPSHOT_KEYS})
    digest = hashlib.sha256(json.dumps(events).encode()).hexdigest()
    return {
        "sha256": digest,
        "events": len(events),
        "rings": closing,
        "relocations": relocations,
        "now_ns": clock.now_ns,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cluster_ring_transcript_matches_recording(name):
    want = json.loads(RECORDING.read_text())[name]
    assert cluster_transcript(*CASES[name], spread=False) == want


def test_recording_exercises_backpressure_and_relocation():
    recorded = json.loads(RECORDING.read_text())
    assert any(
        ring["backpressure_waits"] > 0 for name in CASES for ring in recorded[name]["rings"]
    )
    assert sum(recorded[name]["relocations"] for name in CASES) >= 2


def test_two_shard_stream_matches_ring_wide_recording():
    want = json.loads(RECORDING.read_text())["two-shards"]
    assert cluster_transcript(*TWO_SHARDS, spread=True) == want


if __name__ == "__main__":
    recording = {name: cluster_transcript(*case, spread=False) for name, case in CASES.items()}
    recording["two-shards"] = cluster_transcript(*TWO_SHARDS, spread=True)
    print(json.dumps(recording, indent=1))
