"""The State Bookkeeper's metafile append, characterised on two homes.

Mux appends its own records to ``/.mux_meta`` on the fastest tier: a
PM-homed stack keeps the metafile on NOVA, an HDD-only stack on ext4.
How the append reaches the home may differ between them; what Mux
records may not.  The same scripted namespace churn must leave the same
namespace, the same record and byte counts and the same sequence of log
offsets (wrap-arounds included) on both homes, and the metafile never
outgrows its cap.
"""

from __future__ import annotations

from repro.core.bookkeeper import META_FILE
from repro.stack import build_stack

#: a two-block cap, so the churn wraps the log several times
CAP = 2 * 4096
HOMES = {"pm": ["pm", "ssd", "hdd"], "hdd": ["hdd"]}
#: what the churn records, and the ops after which its log had wrapped
RECORDS = 564
WRAPS = [74, 147, 220, 293]


def churn(mux, rounds=120):
    """Create, rename, unlink and mkdir across four directories; returns
    the metafile's log offset after every namespace op."""
    mux.meta.MAX_BYTES = CAP
    offsets = []
    for i in range(rounds):
        d = f"/d{i % 4}"
        if i < 4:
            mux.mkdir(d)
            offsets.append(mux.meta._offset)
        mux.close(mux.create(f"{d}/f{i}"))
        offsets.append(mux.meta._offset)
        mux.rename(f"{d}/f{i}", f"/d{(i + 1) % 4}/g{i}" if i >= 3 else f"{d}/g{i}")
        offsets.append(mux.meta._offset)
        if i % 3:
            mux.unlink(f"/d{(i + 1) % 4}/g{i}" if i >= 3 else f"{d}/g{i}")
            offsets.append(mux.meta._offset)
    return offsets


def namespace(mux, path="/"):
    tree = {}
    for name in sorted(mux.readdir(path)):
        child = path.rstrip("/") + "/" + name
        tree[name] = namespace(mux, child) if mux.getattr(child).is_dir else None
    return tree


def wraps(offsets):
    """Indices of the ops after which the log had wrapped to its start."""
    return [i for i in range(1, len(offsets)) if offsets[i] < offsets[i - 1]]


def trail(home):
    stack = build_stack(tiers=HOMES[home])
    mux = stack.mux
    offsets = churn(mux)
    meta = mux.meta
    assert meta.fs is stack.filesystems[home]
    assert meta.fs.getattr(META_FILE).size <= CAP
    return {
        "namespace": namespace(mux),
        "records": meta.stats.get("records"),
        "bytes": meta.stats.get("bytes"),
        "offsets": offsets,
    }


def test_churn_leaves_the_same_metafile_trail_on_a_pm_and_an_hdd_home():
    pm, hdd = trail("pm"), trail("hdd")
    assert pm == hdd
    assert (pm["records"], pm["bytes"]) == (RECORDS, RECORDS * 64)
    assert wraps(pm["offsets"]) == WRAPS
    assert sorted(pm["namespace"]) == ["d0", "d1", "d2", "d3"]
