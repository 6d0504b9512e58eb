"""Input generators: every op the program sees comes from ``random.Random(seed)``.

A generator returns a :class:`Plan` — the files to populate, an untimed
warm-up op list and one op list per timed phase.  Generators keep their
own model of the namespace so that every op they emit is valid (a file is
only read, renamed or unlinked while it exists): on a correct program no
op fails.  The program never sees the seed, only the op lists.

Op tuples
---------
open loop (``due_ns`` first, offsets from the phase start)::

    (due_ns, "R", fid, first_block, nblocks)     read
    (due_ns, "W", fid, first_block, nblocks)     write
    (due_ns, "F", fid, 0, 0)                     fsync
    (due_ns, "M", fid, dst_tenant, 0)            move file to another tenant's directory

closed loop::

    ("create", fid, dir, nchunks)   ("append", fid, nchunks)   ("read", fid)
    ("stat", fid)   ("miss", dir, serial)   ("rename", fid, dst_dir)
    ("readdir", dir)   ("fsync", fid)   ("unlink", fid)
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

Op = tuple


@dataclass
class Phase:
    name: str
    #: offered rate in ops per simulated second; None for a closed loop
    rate: Optional[float]
    ops: List[Op]


@dataclass
class Plan:
    """Everything one run feeds the program."""

    #: ``(fid, dir_or_tenant, nblocks)`` files written before the warm-up
    populate: List[Tuple[int, int, int]]
    warm: List[Op]
    phases: List[Phase]
    #: seed-derived names (cluster tenants); empty elsewhere
    names: List[str] = field(default_factory=list)

    def digest(self) -> str:
        """Stable hash of the whole plan (same seed, same digest)."""
        h = hashlib.sha256()
        h.update(repr(self.populate).encode())
        h.update(repr(self.warm).encode())
        for phase in self.phases:
            h.update(repr((phase.name, phase.rate, phase.ops)).encode())
        h.update(repr(self.names).encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _zipf_cdf(n: int, alpha: float) -> List[float]:
    weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
    total = sum(weights)
    acc = 0.0
    cdf = []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def _pick(rng: random.Random, cdf: Sequence[float]) -> int:
    return bisect_left(cdf, rng.random())


class _Deck:
    """Draws from a shuffled deck that holds each item exactly ``count``
    times, reshuffling when it runs out: over every ``len(deck)`` draws the
    mix is exact, so seeds differ in order, not in how much of each op they
    issue (a free source of run-to-run spread otherwise)."""

    def __init__(self, rng: random.Random, counts: Sequence[Tuple[object, int]]) -> None:
        self._rng = rng
        self._cards = [item for item, count in counts for _ in range(count)]
        self._left: List[object] = []

    def draw(self):
        if not self._left:
            self._left = list(self._cards)
            self._rng.shuffle(self._left)
        return self._left.pop()


def _zipf_deck(rng: random.Random, n: int, alpha: float, size: int) -> _Deck:
    """A deck of about ``size`` cards over ranks ``0..n-1`` in zipf
    proportions (every rank at least once)."""
    weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
    total = sum(weights)
    return _Deck(rng, [(rank, max(1, round(size * w / total))) for rank, w in enumerate(weights)])


def _gap_ns(rng: random.Random, rate: float) -> int:
    """Exponential inter-arrival gap of a Poisson process at ``rate`` ops/s."""
    return max(1, round(rng.expovariate(rate) * 1e9))


class _LiveSet:
    """Live file ids with O(1) uniform choice and removal."""

    def __init__(self) -> None:
        self.items: List[int] = []
        self._index: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.items)

    def add(self, fid: int) -> None:
        self._index[fid] = len(self.items)
        self.items.append(fid)

    def remove(self, fid: int) -> None:
        at = self._index.pop(fid)
        last = self.items.pop()
        if last != fid:
            self.items[at] = last
            self._index[last] = at

    def choice(self, rng: random.Random) -> int:
        return self.items[rng.randrange(len(self.items))]


# ---------------------------------------------------------------------------
# 1. zipf_read_cold
# ---------------------------------------------------------------------------


def zipf_read_cold(
    seed: int,
    files: int,
    file_blocks: int,
    io_blocks: int,
    warm_ops: int,
    phases: Sequence[Tuple[str, float, int]],
    reads_per_100: int = 95,
    file_alpha: float = 1.1,
    block_alpha: float = 0.9,
) -> Plan:
    rng = random.Random(seed)
    order = list(range(files))
    rng.shuffle(order)
    # popularity is dealt from decks too: with per-op zipf draws the hit
    # ratios wander from seed to seed and the cross-seed spread of the p99
    # doubles (measured: 0.26 against 0.09)
    file_deck = _zipf_deck(rng, files, file_alpha, 4000)
    slot_deck = _zipf_deck(rng, file_blocks // io_blocks, block_alpha, 1000)
    kinds = _Deck(rng, (("R", reads_per_100), ("W", 100 - reads_per_100)))

    def access() -> Tuple[str, int, int, int]:
        return kinds.draw(), order[file_deck.draw()], slot_deck.draw() * io_blocks, io_blocks

    warm = [(0,) + access() for _ in range(warm_ops)]
    out = []
    for name, rate, n_ops in phases:
        t = 0
        ops = []
        for _ in range(n_ops):
            t += _gap_ns(rng, rate)
            ops.append((t,) + access())
        out.append(Phase(name, rate, ops))
    populate = [(fid, 0, file_blocks) for fid in range(files)]
    return Plan(populate, warm, out)


# ---------------------------------------------------------------------------
# 2. burst_write_fsync
# ---------------------------------------------------------------------------


def burst_write_fsync(
    seed: int,
    files: int,
    file_blocks: int,
    read_blocks: int,
    write_blocks: int,
    burst: int,
    warm_ops: int,
    phases: Sequence[Tuple[str, float, int]],
) -> Plan:
    rng = random.Random(seed)
    order = list(range(files))
    rng.shuffle(order)
    file_cdf = _zipf_cdf(files, 1.1)
    read_cdf = _zipf_cdf(file_blocks // read_blocks, 0.9)
    write_slots = file_blocks // write_blocks
    per_burst = burst + 1  # the writes plus their fsync
    # events, not ops, arrive as a Poisson process.  7 bursts of 9 ops to
    # 27 single reads is 63 : 27 ops, the 70/30 write-burst/read mix
    burst_events, read_events = 7, 27
    events = _Deck(rng, (("B", burst_events), ("R", read_events)))
    ops_per_event = (burst_events * per_burst + read_events) / (burst_events + read_events)

    def stream(n_ops: int, rate: Optional[float]) -> List[Op]:
        event_rate = rate / ops_per_event if rate else None
        ops: List[Op] = []
        t = 0
        while len(ops) < n_ops:
            if event_rate:
                t += _gap_ns(rng, event_rate)
            if n_ops - len(ops) >= per_burst and events.draw() == "B":
                # the write set is spread uniformly: far wider than the
                # write-back cache, so destaging runs throughout
                fid = rng.randrange(files)
                for slot in rng.sample(range(write_slots), burst):
                    ops.append((t, "W", fid, slot * write_blocks, write_blocks))
                ops.append((t + 1 if event_rate else 0, "F", fid, 0, 0))
            else:
                fid = order[_pick(rng, file_cdf)]
                ops.append(
                    (t, "R", fid, _pick(rng, read_cdf) * read_blocks, read_blocks)
                )
        return ops

    warm = stream(warm_ops, None)
    out = [Phase(name, rate, stream(n_ops, rate)) for name, rate, n_ops in phases]
    populate = [(fid, 0, file_blocks) for fid in range(files)]
    return Plan(populate, warm, out)


# ---------------------------------------------------------------------------
# 3. fileserver_sync
# ---------------------------------------------------------------------------

FILESERVER_MIX = (
    ("create", 15),
    ("append", 20),
    ("read", 35),
    ("stat", 12),
    ("rename", 5),
    ("readdir", 3),
    ("fsync", 5),
    ("unlink", 5),
)


def fileserver_sync(
    seed: int,
    dirs: int,
    start_files: int,
    chunk_blocks: int,
    warm_ops: int,
    run_ops: int,
    min_chunks: int = 2,
    max_chunks: int = 16,
) -> Plan:
    rng = random.Random(seed)
    kinds = _Deck(rng, FILESERVER_MIX)
    sizes = _Deck(rng, [(chunks, 1) for chunks in range(min_chunks, max_chunks + 1)])
    live = _LiveSet()
    populate = []
    for fid in range(start_files):
        populate.append((fid, rng.randrange(dirs), sizes.draw() * chunk_blocks))
        live.add(fid)
    next_fid = start_files
    ops: List[Op] = []
    for _ in range(warm_ops + run_ops):
        kind = kinds.draw()
        if kind == "create":
            ops.append(("create", next_fid, rng.randrange(dirs), sizes.draw()))
            live.add(next_fid)
            next_fid += 1
        elif kind == "append":
            ops.append(("append", live.choice(rng), rng.randint(1, 4)))
        elif kind == "rename":
            ops.append(("rename", live.choice(rng), rng.randrange(dirs)))
        elif kind == "readdir":
            ops.append(("readdir", rng.randrange(dirs)))
        elif kind == "unlink":
            fid = live.choice(rng)
            live.remove(fid)
            ops.append(("unlink", fid))
        else:  # read / stat / fsync
            ops.append((kind, live.choice(rng)))
    return Plan(populate, ops[:warm_ops], [Phase("run", None, ops[warm_ops:])])


# ---------------------------------------------------------------------------
# 4. meta_churn
# ---------------------------------------------------------------------------

META_MIX = (
    ("create", 20),
    ("stat", 40),
    ("miss", 10),
    ("rename", 10),
    ("readdir", 5),
    ("unlink", 15),
)


def meta_churn(
    seed: int, dirs: int, start_files: int, warm_ops: int, run_ops: int
) -> Plan:
    rng = random.Random(seed)
    kinds = _Deck(rng, META_MIX)
    live = _LiveSet()
    where: Dict[int, int] = {}
    populate = []
    for fid in range(start_files):
        where[fid] = rng.randrange(dirs)
        populate.append((fid, where[fid], 0))
        live.add(fid)
    next_fid = start_files
    ops: List[Op] = []
    for serial in range(warm_ops + run_ops):
        kind = kinds.draw()
        if kind == "create":
            where[next_fid] = rng.randrange(dirs)
            ops.append(("create", next_fid, where[next_fid], 0))
            live.add(next_fid)
            next_fid += 1
        elif kind == "stat":
            ops.append(("stat", live.choice(rng)))
        elif kind == "miss":
            ops.append(("miss", rng.randrange(dirs), serial))
        elif kind == "rename":
            fid = live.choice(rng)
            # always into another directory
            dst = (where[fid] + rng.randrange(1, dirs)) % dirs
            where[fid] = dst
            ops.append(("rename", fid, dst))
        elif kind == "readdir":
            ops.append(("readdir", rng.randrange(dirs)))
        else:
            fid = live.choice(rng)
            live.remove(fid)
            del where[fid]
            ops.append(("unlink", fid))
    return Plan(populate, ops[:warm_ops], [Phase("run", None, ops[warm_ops:])])


# ---------------------------------------------------------------------------
# 5. cluster_tenants
# ---------------------------------------------------------------------------


def cluster_tenants(
    seed: int,
    tenants: int,
    shards: int,
    files_per_tenant: int,
    file_blocks: int,
    warm_ops: int,
    phases: Sequence[Tuple[str, float, int]],
    weights: Sequence[int],
    moves_per_100: int = 2,
    name_candidates: int = 256,
) -> Plan:
    """Tenant ``i`` is placed on shard ``i % shards`` at set-up (the
    benchmark picks, from the seed-derived candidate names, ones the hash
    ring maps that way), so a move between tenants ``i`` and ``j`` with
    ``(j - i) % shards != 0`` is a cross-shard rename until a rebalance
    relocates one of the two subtrees."""
    rng = random.Random(seed)
    names = [f"t{rng.randrange(16 ** 6):06x}" for _ in range(name_candidates)]
    owned: List[List[int]] = [[] for _ in range(tenants)]
    populate = []
    for tenant in range(tenants):
        for _ in range(files_per_tenant):
            fid = len(populate)
            owned[tenant].append(fid)
            populate.append((fid, tenant, file_blocks))
    tenant_deck = _Deck(rng, list(enumerate(weights)))
    # per 100 events: 2 moves, 49 reads, 49 write+fsync pairs
    events = _Deck(rng, (("M", moves_per_100), ("R", 49), ("W", 49)))
    file_cdfs = {n: _zipf_cdf(n, 1.1) for n in range(1, len(populate) + 1)}

    def stream(n_ops: int, rate: Optional[float]) -> List[Op]:
        ops: List[Op] = []
        t = 0
        while len(ops) < n_ops:
            if rate:
                t += _gap_ns(rng, rate)
            tenant = tenant_deck.draw()
            mine = owned[tenant]
            kind = events.draw()
            if kind == "M":
                # a directory above its starting size gives a file to the
                # emptiest directory on another shard, one at or below it
                # takes one from the fullest: no directory runs empty and
                # every seed issues the same number of moves
                others = [b for b in range(tenants) if (b - tenant) % shards]
                if len(mine) > files_per_tenant:
                    least = min(len(owned[b]) for b in others)
                    src, dst = tenant, rng.choice([b for b in others if len(owned[b]) == least])
                else:
                    most = max(len(owned[b]) for b in others)
                    src, dst = rng.choice([b for b in others if len(owned[b]) == most]), tenant
                fid = owned[src].pop(rng.randrange(len(owned[src])))
                owned[dst].append(fid)
                ops.append((t, "M", fid, dst, 0))
                continue
            fid = mine[_pick(rng, file_cdfs[len(mine)])]
            block = rng.randrange(file_blocks)
            if kind != "W" or n_ops - len(ops) < 2:
                ops.append((t, "R", fid, block, 1))
            else:
                # every write demands durability (the database/logger
                # pattern the cluster_scaleout golden rig uses)
                ops.append((t, "W", fid, block, 1))
                ops.append((t + 1 if rate else 0, "F", fid, 0, 0))
                if rate:
                    t += _gap_ns(rng, rate)  # the pair is two ops of offered load
        return ops

    warm = stream(warm_ops, None)
    out = [Phase(name, rate, stream(n_ops, rate)) for name, rate, n_ops in phases]
    return Plan(populate, warm, out, names)
