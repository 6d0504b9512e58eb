"""Differential test: the journaled file systems' write-back path against a
flat byte model.

Each journaled file system runs on a 64-page cache
(``tests/small_cache.py``), so random write, overwrite,
read and fsync sequences over three files keep evicting dirty pages.
After every step each file's contents must equal a ``bytearray`` per
file.  A crash step drops all volatile state and recovers: every byte
that was fsynced and not written since must still be there, and the model
then continues from what recovery left.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.small_cache import BS, make_fs

FILES = 3
SPAN_BLOCKS = 64  # three files of up to 128 blocks overflow 64 pages


offsets = st.builds(
    lambda block, jitter: block * BS + jitter,
    st.integers(0, SPAN_BLOCKS - 1),
    st.sampled_from([0, 0, 0, 100, BS - 1]),
)
lengths = st.one_of(
    st.integers(1, 3).map(lambda n: n * BS),
    st.integers(24, 64).map(lambda n: n * BS),
    st.integers(1, 2 * BS),
)
files = st.integers(0, FILES - 1)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), files, offsets, lengths),
        st.tuples(st.just("write"), files, offsets, lengths),
        st.tuples(st.just("write"), files, offsets, lengths),
        st.tuples(st.just("overwrite"), files, offsets, lengths),
        st.tuples(st.just("read"), files, offsets, lengths),
        st.tuples(st.just("fsync"), files),
        st.tuples(st.just("crash"),),
    ),
    min_size=6,
    max_size=30,
)


def check_contents(fs, handles, model):
    for i, handle in enumerate(handles):
        assert fs.read(handle, 0, len(model[i]) + BS) == bytes(model[i]), i


def run(name, script):
    fs = make_fs(name)
    paths = [f"/f{i}" for i in range(FILES)]
    handles = [fs.create(p) for p in paths]
    model = [bytearray() for _ in range(FILES)]
    durable = [bytearray() for _ in range(FILES)]
    #: per file, the byte positions written since its last fsync
    touched = [set() for _ in range(FILES)]
    fill = 0
    for op in script:
        kind = op[0]
        if kind in ("write", "overwrite"):
            _, i, offset, length = op
            if kind == "overwrite":
                # land inside what the file already holds
                if not model[i]:
                    continue
                offset %= len(model[i])
                length = max(1, min(length, len(model[i]) - offset))
            fill = fill % 250 + 1
            data = bytes([fill]) * length
            fs.write(handles[i], offset, data)
            if offset > len(model[i]):
                model[i].extend(bytes(offset - len(model[i])))
            model[i][offset : offset + length] = data
            touched[i].update(range(offset, offset + length))
        elif kind == "read":
            _, i, offset, length = op
            expect = bytes(model[i][offset : offset + length])
            assert fs.read(handles[i], offset, length) == expect
        elif kind == "fsync":
            i = op[1]
            fs.fsync(handles[i])
            durable[i] = bytearray(model[i])
            touched[i].clear()
        else:
            fs.crash()
            fs.recover()
            handles = [fs.open(p) for p in paths]
            for i, handle in enumerate(handles):
                got = fs.read(handle, 0, max(len(model[i]), len(durable[i])) + BS)
                for pos in range(len(durable[i])):
                    if pos not in touched[i]:
                        assert pos < len(got) and got[pos] == durable[i][pos], (i, pos)
                model[i] = bytearray(got)
                durable[i] = bytearray(got)
                touched[i].clear()
        check_contents(fs, handles, model)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=ops)
def test_ext4_on_hdd_matches_the_byte_model(script):
    run("ext4", script)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=ops)
def test_xfs_on_ssd_matches_the_byte_model(script):
    run("xfs", script)
