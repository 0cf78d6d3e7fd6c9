"""Segmented-log framing: roundtrip, CRC rejection, torn tails, rolling."""

import glob
import os

import pytest

from repro.db.faults import FaultPlan, InjectedCrash
from repro.db.log import (
    HEADER,
    KIND_COMMIT,
    KIND_NODE,
    MAGIC,
    LogError,
    SegmentedLog,
    decode_commit_payload,
    decode_node_payload,
    encode_commit_payload,
    encode_node_payload,
)


def segment_files(directory):
    return sorted(glob.glob(os.path.join(directory, "seg-*.log")))


class TestRoundtrip:
    def test_append_scan_roundtrip(self, tmp_path):
        log = SegmentedLog(str(tmp_path))
        payloads = [b"a" * 40, b"b" * 7, b"c" * 100]
        for payload in payloads:
            log.append(KIND_NODE, payload)
        log.append(KIND_COMMIT, b"marker")
        log.close()

        log = SegmentedLog(str(tmp_path))
        records = list(log.scan())
        log.close()
        assert [(k, p) for k, p, *_ in records] == [
            (KIND_NODE, payloads[0]),
            (KIND_NODE, payloads[1]),
            (KIND_NODE, payloads[2]),
            (KIND_COMMIT, b"marker"),
        ]

    def test_read_at_offset(self, tmp_path):
        log = SegmentedLog(str(tmp_path))
        sid, offset = log.append(KIND_NODE, b"hello world")
        assert log.read(sid, offset, 11) == b"hello world"
        log.close()

    def test_reads_follow_the_growing_log(self, tmp_path):
        """Reads slice a map of the segment: bytes appended after the map
        was made, a segment sealed by a roll, and a segment that truncation
        made active again must all read back."""
        log = SegmentedLog(str(tmp_path), segment_bytes=64)
        first = log.append(KIND_NODE, b"one" * 10)
        assert log.read(*first, 30) == b"one" * 10          # maps segment 0
        second = log.append(KIND_NODE, b"two" * 10)         # past that map
        assert log.read(*second, 30) == b"two" * 10
        assert log.maybe_roll()
        third = log.append(KIND_NODE, b"three")
        assert third[0] == first[0] + 1
        assert log.read(*first, 30) == b"one" * 10          # sealed segment
        assert log.read(*third, 5) == b"three"
        log.truncate_to(second[0], second[1] + 30)         # drops segment 1
        fourth = log.append(KIND_NODE, b"four")
        assert fourth[0] == first[0]
        assert log.read(*fourth, 4) == b"four"
        assert log.read(*second, 30) == b"two" * 10
        with pytest.raises(LogError):
            log.read(fourth[0], fourth[1], 400)            # past the end
        log.close()

    def test_node_payload_helpers(self):
        digest = bytes(range(32))
        payload = encode_node_payload(digest, b"encoded-bytes")
        assert decode_node_payload(payload) == (digest, b"encoded-bytes")

    def test_commit_payload_helpers(self):
        root = bytes(reversed(range(32)))
        assert decode_commit_payload(encode_commit_payload(7, root)) == (7, root)
        assert decode_commit_payload(encode_commit_payload(0, None)) == (0, None)


class TestCorruption:
    def _write_three(self, tmp_path):
        log = SegmentedLog(str(tmp_path))
        locs = [log.append(KIND_NODE, bytes([i]) * 20) for i in range(3)]
        log.close()
        return locs

    def test_crc_mismatch_stops_scan(self, tmp_path):
        locs = self._write_three(tmp_path)
        path = segment_files(str(tmp_path))[0]
        # Flip a byte inside the second record's payload.
        with open(path, "r+b") as handle:
            handle.seek(locs[1][1] + 3)
            byte = handle.read(1)
            handle.seek(locs[1][1] + 3)
            handle.write(bytes([byte[0] ^ 0xFF]))
        log = SegmentedLog(str(tmp_path))
        kinds = [k for k, *_ in log.scan()]
        log.close()
        assert len(kinds) == 1  # only the record before the corruption

    def test_torn_header_stops_scan(self, tmp_path):
        self._write_three(tmp_path)
        path = segment_files(str(tmp_path))[0]
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 25)  # tear into the last record
        log = SegmentedLog(str(tmp_path))
        kinds = [k for k, *_ in log.scan()]
        log.close()
        assert len(kinds) == 2

    def test_bad_magic_yields_nothing(self, tmp_path):
        self._write_three(tmp_path)
        path = segment_files(str(tmp_path))[0]
        with open(path, "r+b") as handle:
            handle.write(b"NOTMAGIC")
        log = SegmentedLog(str(tmp_path))
        assert list(log.scan()) == []
        log.close()

    def test_truncate_to_discards_suffix(self, tmp_path):
        log = SegmentedLog(str(tmp_path))
        log.append(KIND_NODE, b"x" * 16)
        sid, offset = log.append(KIND_COMMIT, b"m")
        end = offset + 1
        log.append(KIND_NODE, b"y" * 16)
        removed = log.truncate_to(sid, end)
        assert removed == HEADER.size + 16
        records = list(log.scan())
        log.close()
        assert [k for k, *_ in records] == [KIND_NODE, KIND_COMMIT]


class TestSegments:
    def test_roll_on_size(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_bytes=128)
        for i in range(8):
            log.append(KIND_NODE, bytes([i]) * 50)
            log.maybe_roll()
        log.close()
        assert len(segment_files(str(tmp_path))) > 1

        log = SegmentedLog(str(tmp_path), segment_bytes=128)
        payloads = [p for _, p, *_ in log.scan()]
        log.close()
        assert payloads == [bytes([i]) * 50 for i in range(8)]

    def test_every_segment_starts_with_magic(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_bytes=64)
        for i in range(4):
            log.append(KIND_NODE, b"z" * 40)
            log.maybe_roll()
        log.close()
        for path in segment_files(str(tmp_path)):
            with open(path, "rb") as handle:
                assert handle.read(len(MAGIC)) == MAGIC

    def test_delete_segments_before(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_bytes=64)
        for i in range(4):
            log.append(KIND_NODE, b"z" * 40)
            log.maybe_roll()
        keep = log.active_id
        log.delete_segments_before(keep)
        log.close()
        files = segment_files(str(tmp_path))
        assert len(files) == 1 and f"{keep:08d}" in files[0]


class TestFaults:
    def test_crash_after_bytes_tears_mid_record(self, tmp_path):
        log = SegmentedLog(str(tmp_path), faults=FaultPlan(crash_after_bytes=20))
        log.append(KIND_NODE, b"a" * 8)  # 17 bytes, under budget
        with pytest.raises(InjectedCrash):
            log.append(KIND_NODE, b"b" * 8)  # would cross the budget
        # Recovery sees only the record that fully landed.
        log = SegmentedLog(str(tmp_path))
        assert [p for _, p, *_ in log.scan()] == [b"a" * 8]
        log.close()

    def test_torn_tail_on_close(self, tmp_path):
        log = SegmentedLog(str(tmp_path), faults=FaultPlan(torn_tail_bytes=5))
        log.append(KIND_NODE, b"a" * 8)
        log.append(KIND_NODE, b"b" * 8)
        log.close()
        log = SegmentedLog(str(tmp_path))
        assert [p for _, p, *_ in log.scan()] == [b"a" * 8]
        log.close()

    def test_skip_fsync_reports_zero_time(self, tmp_path):
        log = SegmentedLog(str(tmp_path), faults=FaultPlan(skip_fsync=True))
        log.append(KIND_NODE, b"a" * 8)
        assert log.sync() == 0.0
        log.close()
