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

The op script is drawn from the seed as a list before the ring runs
(:func:`ring_script`): a wait on one ticket names a submission by its
index, and only skips when that op is already reaped.  So a change to the
timing model moves times and counters, never the op column.

``tests/data/ring_transcripts.json`` holds each transcript's SHA-256 and
its closing counters.  All six were recorded when the script stopped
reading the ring's state; earlier recordings chose the ticket to wait on
from the pending set, so a timing change reshuffled later draws.
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


KINDS = ("read", "write", "fsync", "poll", "wait", "wait_ticket", "drain", "advance", "quiesce")


def ring_script(depth: int, seed: int, steps: int) -> list:
    """The op column, drawn from the seed alone before anything runs.

    A step is ``(kind, file, args)``.  ``wait_ticket`` names a submission
    by its index in the script (one of the ``depth`` latest before it), so
    no draw depends on what the ring holds when the step runs.
    """
    rng = random.Random(seed)
    # reaping and idling are rarer on the deeper rings so that they fill up
    reap, idle = {1: (4, 1), 8: (2, 0.5), 64: (0.05, 0.02)}[depth]
    script = []
    submitted = 0
    for _ in range(steps):
        kind = rng.choices(
            KINDS, weights=(8, 4, 1, reap, reap, reap, idle, 3 * idle, idle)
        )[0]
        f = rng.randrange(4)
        if kind == "read":
            args = (rng.randrange(32) * BS, rng.randint(1, 8) * BS)
        elif kind == "write":
            args = (rng.randrange(32) * BS, rng.randrange(256), rng.randint(1, 6))
        elif kind == "wait_ticket":
            args = (rng.randrange(max(0, submitted - depth), submitted),) if submitted else ()
        elif kind == "advance":
            args = (rng.choice((0, 1_000, 50_000, 2_000_000, 20_000_000)),)
        elif kind == "quiesce":
            args = (rng.random() < 0.5,)
        else:
            args = ()
        submitted += kind in ("read", "write", "fsync")
        script.append((kind, f, args))
    return script


def ring_transcript(depth: int, seed: int, steps: int) -> dict:
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
    subs: list = []
    tickets: dict = {}

    def record(completions) -> None:
        for c in completions:
            tickets.pop(c.seq, None)
            events.append(
                ["reap", c.seq, c.op, c.ino, c.submitted_ns, c.completed_ns, c.error is not None]
            )

    for kind, f, args in ring_script(depth, seed, steps):
        handle = handles[f]
        if kind == "read":
            sub = ring.submit_read(handle, *args)
        elif kind == "write":
            offset, byte, blocks = args
            sub = ring.submit_write(handle, offset, bytes([byte]) * (blocks * BS))
        elif kind == "fsync":
            sub = ring.submit_fsync(handle)
        else:
            sub = None
        if sub is not None:
            subs.append(sub)
            tickets[sub.seq] = sub
            events.append(["submit", sub.seq, sub.op, sub.submitted_ns])
        elif kind == "poll":
            record(ring.poll())
        elif kind == "wait" and ring.pending:
            record([ring.wait()])
        elif kind == "wait_ticket" and args and subs[args[0]].seq in tickets:
            record([ring.wait(subs[args[0]])])
        elif kind == "drain":
            record(ring.drain())
        elif kind == "advance":
            clock.advance_ns(args[0])
        elif kind == "quiesce":
            ring.quiesce(handle.ino if args[0] else None)
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
