#!/usr/bin/env python3
"""The paper's evaluation policy in action (§3.1): "a simple LRU policy
that evicts cold data to the slower device if no space left on faster
devices, and promotes data back upon access."

We write more data than the PM tier can hold, watch the policy runner
demote the coldest chunks downhill, then re-read an old file and watch
its blocks get promoted back.

Run:  python examples/tiering_lru_demo.py
"""

from repro import build_stack
from repro.core.policies import LruTieringPolicy

MIB = 1024 * 1024


def occupancy(stack):
    cells = []
    for name, fs in stack.filesystems.items():
        stats = fs.statfs()
        cells.append(f"{name} {100 * stats.utilization:5.1f}%")
    return " | ".join(cells)


# the policy is tuned by overriding its constants: demote from 70 % full
# down to 50 %, so the small PM tier churns
class EagerLru(LruTieringPolicy):
    HIGH_WATERMARK, LOW_WATERMARK = 0.7, 0.5


def main():
    stack = build_stack(
        capacities={"pm": 16 * MIB, "ssd": 48 * MIB, "hdd": 128 * MIB},
        policy=EagerLru(),
        enable_cache=False,
    )
    mux = stack.mux
    print(f"initial: {occupancy(stack)}\n")

    # --- phase 1: write ten 3 MiB files; PM (16 MiB) cannot hold them ----
    print("writing 10 x 3 MiB files (PM tier holds ~5)...")
    handles = {}
    for i in range(10):
        path = f"/file{i:02d}.bin"
        handle = mux.create(path)
        mux.write(handle, 0, bytes([i]) * (3 * MIB))
        handles[path] = handle
        moved = mux.maintain()  # run the policy: demote cold chunks
        if moved:
            print(f"  after {path}: ran {moved:3d} migrations -> {occupancy(stack)}")
    print(f"\nsteady state: {occupancy(stack)}")

    names = {tid: n for n, tid in stack.tier_ids.items()}
    for path, handle in list(handles.items())[:4]:
        inode = mux.ns.get(handle.ino)
        spread = {names[t]: inode.blt.blocks_on(t) for t in inode.blt.tiers_used()}
        print(f"  {path}: {spread}")

    # --- phase 2: a cold file gets hot again -------------------------------
    victim = "/file00.bin"
    inode = mux.ns.get(handles[victim].ino)
    pm_id = stack.tier_id("pm")
    print(f"\nre-reading cold {victim} (currently "
          f"{inode.blt.blocks_on(pm_id)} blocks on pm)...")
    for _ in range(3):
        mux.read(handles[victim], 0, 1 * MIB)
        mux.maintain()  # promotions queued by on_access get executed
    print(f"after access: {inode.blt.blocks_on(pm_id)} blocks of {victim} on pm")
    print(f"final occupancy: {occupancy(stack)}")

    # data integrity after all that movement
    assert mux.read(handles[victim], 0, 64) == bytes([0]) * 64
    for handle in handles.values():
        mux.close(handle)
    stats = mux.engine.stats
    print(f"\nmigration engine: {stats.get('migrations')} migrations, "
          f"{stats.get('blocks_moved')} blocks moved, "
          f"{stats.get('occ_attempts')} OCC attempts, "
          f"{stats.get('lock_fallbacks')} lock fallbacks")
    print(f"simulated time: {stack.clock.now():.3f} s")


if __name__ == "__main__":
    main()
