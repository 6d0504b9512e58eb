"""Tests for the muxtrace format, generators, and replay engine."""

import hashlib

import pytest

from repro.bench.tracereplay import (
    CANONICAL_TRACE_PARAMS,
    KIB,
    BlockTrace,
    TraceOp,
    bursty_trace,
    canonical_trace,
    dumps_trace,
    load_canonical,
    load_trace,
    parse_trace,
    replay_trace,
    zipf_trace,
)
from repro.errors import InvalidArgument
from repro.stack import build_stack


class TestFormat:
    def test_dumps_parse_round_trip(self):
        trace = zipf_trace(duration_ns=500_000, files=4, file_bytes=64 * KIB)
        again = parse_trace(dumps_trace(trace))
        assert again.ops == trace.ops
        assert again.files == trace.files
        assert again.file_bytes == trace.file_bytes
        assert again.comments == trace.comments

    def test_load_trace_reads_a_file(self, tmp_path):
        trace = bursty_trace(duration_ns=500_000, files=4, file_bytes=256 * KIB)
        path = tmp_path / "user.muxtrace"
        path.write_text(dumps_trace(trace))
        assert load_trace(path).ops == trace.ops

    def test_missing_magic_rejected(self):
        with pytest.raises(InvalidArgument, match="muxtrace"):
            parse_trace("# files 4\n# file_bytes 65536\n0 R 0 0 4096\n")

    def test_missing_headers_rejected(self):
        with pytest.raises(InvalidArgument, match="files"):
            parse_trace("# muxtrace v1\n0 R 0 0 4096\n")

    def test_bad_field_count_rejected(self):
        text = "# muxtrace v1\n# files 1\n# file_bytes 65536\n0 R 0 0\n"
        with pytest.raises(InvalidArgument, match="5 fields"):
            parse_trace(text)

    def test_bad_op_letter_rejected(self):
        text = "# muxtrace v1\n# files 1\n# file_bytes 65536\n0 X 0 0 4096\n"
        with pytest.raises(InvalidArgument, match="R, W or F"):
            parse_trace(text)


class TestValidate:
    def _trace(self, ops):
        return BlockTrace(ops, files=2, file_bytes=64 * KIB)

    def test_decreasing_arrivals_rejected(self):
        trace = self._trace(
            [TraceOp(100, "read", 0, 0, 4096), TraceOp(50, "read", 0, 0, 4096)]
        )
        with pytest.raises(InvalidArgument, match="non-decreasing"):
            trace.validate()

    def test_file_id_out_of_range_rejected(self):
        trace = self._trace([TraceOp(0, "read", 2, 0, 4096)])
        with pytest.raises(InvalidArgument, match="out of range"):
            trace.validate()

    def test_fsync_with_length_rejected(self):
        trace = self._trace([TraceOp(0, "fsync", 0, 0, 4096)])
        with pytest.raises(InvalidArgument, match="fsync"):
            trace.validate()

    def test_op_past_file_bytes_rejected(self):
        trace = self._trace([TraceOp(0, "write", 0, 60 * KIB, 8 * KIB)])
        with pytest.raises(InvalidArgument, match="past file_bytes"):
            trace.validate()

    def test_bad_op_name_rejected(self):
        trace = self._trace([TraceOp(0, "flush", 0, 0, 0)])
        with pytest.raises(InvalidArgument, match="bad op"):
            trace.validate()

    def test_truncated_keeps_prefix(self):
        trace = zipf_trace(duration_ns=1_000_000, files=4, file_bytes=64 * KIB)
        half = trace.truncated(0.5)
        cutoff = int(trace.duration_ns * 0.5)
        assert half.ops == [op for op in trace.ops if op.arrival_ns <= cutoff]
        assert half.files == trace.files

    def test_truncated_fraction_bounds(self):
        trace = zipf_trace(duration_ns=100_000, files=2, file_bytes=64 * KIB)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidArgument):
                trace.truncated(bad)


class TestGenerators:
    def test_deterministic_in_seed(self):
        kwargs = dict(duration_ns=1_000_000, files=8, file_bytes=256 * KIB)
        for gen in (zipf_trace, bursty_trace):
            assert gen(**kwargs).ops == gen(**kwargs).ops
            assert gen(seed=1, **kwargs).ops != gen(seed=2, **kwargs).ops

    def test_generated_traces_validate(self):
        kwargs = dict(duration_ns=1_000_000, files=8, file_bytes=256 * KIB)
        for gen in (zipf_trace, bursty_trace):
            gen(**kwargs).validate()  # raises on any malformed record

    def test_bursty_fsyncs_follow_bursts(self):
        trace = bursty_trace(
            duration_ns=2_000_000,
            files=8,
            file_bytes=256 * KIB,
            burst_gap_ns=500_000,
            burst_size=4,
        )
        mix = trace.op_mix()
        assert mix.get("fsync", 0) > 0
        writes_at = {op.arrival_ns for op in trace.ops if op.op == "write"}
        for op in trace.ops:
            if op.op == "fsync":
                assert op.arrival_ns - 1 in writes_at


#: sha256 of ``dumps_trace(canonical_trace(name))``
CANONICAL_SHA256 = {
    "bursty": "3458e2da8bf6a2ba6a23f01681ffcd569d74fafb95f7f95647cb2d7c09f9e6d8",
    "zipf": "8e79c6a7fc2af18082f2e7ad77a09f24da097db30fffc94a2f4d52311277183a",
}


class TestCanonical:
    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidArgument, match="unknown canonical"):
            canonical_trace("nope")

    @pytest.mark.parametrize("name", sorted(CANONICAL_TRACE_PARAMS))
    def test_canonical_trace_sha256_pinned(self, name):
        """The generator is the only source of the canonical traces, so
        its exact output is the contract: CANONICAL_TRACE_PARAMS, the
        generators and the rng may not drift under the goldens."""
        text = dumps_trace(canonical_trace(name))
        assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_SHA256[name]

    @pytest.mark.parametrize("name", sorted(CANONICAL_TRACE_PARAMS))
    def test_load_canonical(self, name):
        trace = load_canonical(name)
        trace.validate()
        assert trace.ops


class TestReplay:
    def test_small_replay_completes_all_ops(self):
        trace = zipf_trace(
            duration_ns=300_000, files=4, file_bytes=128 * KIB, mean_gap_ns=10_000
        )
        stack = build_stack(enable_cache=False)
        result = replay_trace(stack, trace, ring_depth=8, maintain_every=16)
        assert result.submitted == len(trace.ops)
        assert result.errors == 0
        mix = trace.op_mix()
        assert result.merged("read").count == mix.get("read", 0)
        # fsyncs land in the writes histogram alongside writes
        assert result.merged("write").count == mix.get("write", 0) + mix.get("fsync", 0)
        assert stack.clock.now_ns > trace.duration_ns

    def test_replay_is_deterministic(self):
        trace = bursty_trace(
            duration_ns=300_000,
            files=4,
            file_bytes=128 * KIB,
            burst_gap_ns=100_000,
            burst_size=4,
        )
        runs = []
        for _ in range(2):
            stack = build_stack(enable_cache=False)
            result = replay_trace(stack, trace, ring_depth=8)
            runs.append(
                (result.percentiles_ns("read"), result.percentiles_ns("write"))
            )
        assert runs[0] == runs[1]
