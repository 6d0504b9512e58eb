"""The ring's schedule, pinned: random submit/poll/wait/drain sequences.

Seeded random sequences of reads, writes and fsyncs run against rings of
depth 1, 8 and 64 on a real stack, mixed with ``poll``, ``wait`` (the
earliest completion, or one chosen ticket), ``drain``, ``quiesce`` and
clock advances.  After every step the ring's unreaped completions must
be queued in reap order, ``(completed_ns, seq)``.  Every reaped
completion is recorded in reap order as
``(seq, op, ino, submitted_ns, completed_ns, failed)``, together with the
clock, ``pending`` and ``inflight()`` after every step, and the ring's
``backpressure_waits``/``max_inflight`` at the end.

``tests/data/ring_transcripts.json`` holds each transcript's SHA-256 and
its closing counters.  The depth-1 entries were recorded from the ring
that scanned its whole pending list on every submit and poll; the depth-8
and depth-64 entries were re-recorded when the device timeline began to
fill gaps (ops complete sooner, so those rings reap less often to stay
full).  All six were re-recorded when SCM cache fills moved behind the
read: a read that misses the cache completes when the tier answers, so
rings hold fewer ops in flight, and the depth-64 rings now reap and idle
half as often or less so that each still fills within its run.
``python tests/test_ring_transcript.py`` prints a fresh recording.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.ring import _REAP_ORDER
from repro.stack import build_stack

BS = 4096
MIB = 1024 * 1024
RECORDING = Path(__file__).parent / "data" / "ring_transcripts.json"
#: (depth, seed, steps): the deep ring gets a long run so it fills up
CASES = [(1, 1, 160), (1, 2, 160), (8, 1, 240), (8, 2, 240), (64, 1, 400), (64, 3, 500)]


def ring_transcript(depth: int, seed: int, steps: int) -> dict:
    rng = random.Random(seed)
    stack = build_stack(capacities={"pm": 16 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB})
    mux, clock = stack.mux, stack.clock
    handles = []
    for f in range(4):
        path = f"/f{f}"
        handles.append(mux.create(path))
        mux.set_placement(path, f % 3)
        mux.write(handles[-1], 0, bytes([f + 1]) * (32 * BS))
        mux.fsync(handles[-1])
    ring = mux.open_ring(depth=depth)
    events: list = []
    tickets: dict = {}
    # reaping and idling are rarer on the deeper rings so that they fill up
    reap, idle = {1: (4, 1), 8: (2, 0.5), 64: (0.05, 0.02)}[depth]

    def record(completions) -> None:
        for c in completions:
            tickets.pop(c.seq, None)
            events.append(
                ["reap", c.seq, c.op, c.ino, c.submitted_ns, c.completed_ns, c.error is not None]
            )

    for _ in range(steps):
        kind = rng.choices(
            ("read", "write", "fsync", "poll", "wait", "wait_ticket", "drain", "advance", "quiesce"),
            weights=(8, 4, 1, reap, reap, reap, idle, 3 * idle, idle),
        )[0]
        handle = rng.choice(handles)
        if kind == "read":
            sub = ring.submit_read(handle, rng.randrange(32) * BS, rng.randint(1, 8) * BS)
        elif kind == "write":
            data = bytes([rng.randrange(256)]) * (rng.randint(1, 6) * BS)
            sub = ring.submit_write(handle, rng.randrange(32) * BS, data)
        elif kind == "fsync":
            sub = ring.submit_fsync(handle)
        else:
            sub = None
        if sub is not None:
            tickets[sub.seq] = sub
            events.append(["submit", sub.seq, sub.op, sub.submitted_ns])
        elif kind == "poll":
            record(ring.poll())
        elif kind == "wait" and ring.pending:
            record([ring.wait()])
        elif kind == "wait_ticket" and tickets:
            record([ring.wait(tickets[rng.choice(sorted(tickets))])])
        elif kind == "drain":
            record(ring.drain())
        elif kind == "advance":
            clock.advance_ns(rng.choice((0, 1_000, 50_000, 2_000_000, 20_000_000)))
        elif kind == "quiesce":
            ring.quiesce(handle.ino if rng.random() < 0.5 else None)
        assert ring._pending == sorted(ring._pending, key=_REAP_ORDER)
        events.append(["state", clock.now_ns, ring.pending, ring.inflight()])
    record(ring.close())
    snap = ring.snapshot()
    digest = hashlib.sha256(json.dumps(events).encode()).hexdigest()
    return {
        "sha256": digest,
        "events": len(events),
        "backpressure_waits": snap["backpressure_waits"],
        "max_inflight": snap["max_inflight"],
        "reaped": snap["reaped"],
        "now_ns": clock.now_ns,
    }


@pytest.mark.parametrize("depth,seed,steps", CASES)
def test_ring_transcript_matches_recording(depth, seed, steps):
    want = json.loads(RECORDING.read_text())[f"{depth}-{seed}"]
    assert ring_transcript(depth, seed, steps) == want


def test_recording_exercises_backpressure():
    recorded = json.loads(RECORDING.read_text())
    for depth, seed, _ in CASES:
        entry = recorded[f"{depth}-{seed}"]
        assert entry["backpressure_waits"] > 0, (depth, seed)
        assert entry["max_inflight"] == depth, (depth, seed)


if __name__ == "__main__":
    print(json.dumps({f"{d}-{s}": ring_transcript(d, s, n) for d, s, n in CASES}, indent=1))
