"""Contribution-log tests: durability, replay, and the two-phase drain."""

from __future__ import annotations

import json

import pytest

from repro.online import ContributionLog, LogEntry


@pytest.fixture()
def records(contribution_records):
    return list(contribution_records[:6])


class TestAppend:
    def test_append_assigns_monotonic_seqs(self, tmp_path, records):
        log = ContributionLog(tmp_path / "log.jsonl")
        assert log.append("ec2-us-east", records[:3]) == 3
        assert log.append("ec2-us-east", records[3:5]) == 2
        assert [e.seq for e in log.pending()] == [1, 2, 3, 4, 5]
        assert log.total == 5

    def test_flush_batches_writes(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        log = ContributionLog(path, flush_every=4)
        log.append("ec2-us-east", records[:3])
        assert not path.exists()  # buffered, below the flush threshold
        log.append("ec2-us-east", records[3:4])
        assert len(path.read_text().splitlines()) == 4
        log.append("ec2-us-east", records[4:5])
        log.close()
        assert len(path.read_text().splitlines()) == 5

    def test_entry_round_trips_exactly(self, records):
        entry = LogEntry(seq=7, platform="ec2-us-east", record=records[0])
        back = LogEntry.from_line(entry.to_line())
        assert back == entry  # includes every float, bit for bit

    def test_rejects_bad_flush_every(self, tmp_path):
        with pytest.raises(ValueError):
            ContributionLog(tmp_path / "log.jsonl", flush_every=0)


class TestTwoPhaseDrain:
    def test_pending_is_a_peek(self, tmp_path, records):
        log = ContributionLog(tmp_path / "log.jsonl")
        log.append("ec2-us-east", records[:4])
        assert len(log.pending()) == 4
        assert len(log.pending()) == 4  # unchanged: nothing was consumed
        assert len(log.pending(limit=2)) == 2

    def test_commit_advances_the_cursor(self, tmp_path, records):
        log = ContributionLog(tmp_path / "log.jsonl")
        log.append("ec2-us-east", records[:4])
        log.commit(2)
        assert log.committed == 2
        assert [e.seq for e in log.pending()] == [3, 4]
        assert log.cursor_path.read_text() == "2"

    def test_commit_never_regresses(self, tmp_path, records):
        log = ContributionLog(tmp_path / "log.jsonl")
        log.append("ec2-us-east", records[:4])
        log.commit(3)
        log.commit(1)  # stale commit is a no-op
        assert log.committed == 3

    def test_commit_flushes_data_before_cursor(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        log = ContributionLog(path, flush_every=100)
        log.append("ec2-us-east", records[:3])
        log.commit(3)
        # The cursor may never point past entries that are not on disk.
        assert len(path.read_text().splitlines()) == 3


class TestReplay:
    def test_restart_preserves_pending_and_seq(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        first = ContributionLog(path, flush_every=1)
        first.append("ec2-us-east", records[:4])
        first.commit(2)

        reopened = ContributionLog(path, flush_every=1)
        assert reopened.committed == 2
        assert [e.seq for e in reopened.pending()] == [3, 4]
        # New appends continue the sequence, never reuse it.
        reopened.append("ec2-us-east", records[4:5])
        assert reopened.pending()[-1].seq == 5

    def test_replayed_records_are_identical(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        first = ContributionLog(path, flush_every=1)
        first.append("ec2-us-east", records)
        reopened = ContributionLog(path)
        assert [e.record for e in reopened.pending()] == records

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        log = ContributionLog(path, flush_every=1)
        log.append("ec2-us-east", records[:3])
        with path.open("a") as sink:
            sink.write('{"seq": 4, "platform": "ec2-us-e')  # crash mid-write
        reopened = ContributionLog(path)
        assert reopened.dropped_lines == 1
        assert [e.seq for e in reopened.pending()] == [1, 2, 3]

    def test_corrupt_line_mid_log_is_skipped(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        log = ContributionLog(path, flush_every=1)
        log.append("ec2-us-east", records[:1])
        with path.open("a") as sink:
            sink.write(json.dumps({"seq": 99}) + "\n")  # missing fields
        log2 = ContributionLog(path)
        log2.append("ec2-us-east", records[1:2])
        assert log2.dropped_lines == 1
        # seq continues from the *valid* high-water mark
        assert [e.seq for e in log2.pending()] == [1, 2]

    def test_non_finite_record_line_is_dropped(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        log = ContributionLog(path, flush_every=1)
        log.append("ec2-us-east", records[:2])
        payload = json.loads(path.read_text().splitlines()[-1])
        payload["seq"] = 3
        payload["record"]["perf_improvement"] = float("nan")
        with path.open("a") as sink:
            sink.write(json.dumps(payload) + "\n")  # carries a NaN literal
        reopened = ContributionLog(path)
        assert reopened.dropped_lines == 1
        assert [e.seq for e in reopened.pending()] == [1, 2]

    def test_corrupt_cursor_resets_to_zero(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        log = ContributionLog(path, flush_every=1)
        log.append("ec2-us-east", records[:2])
        log.commit(2)
        log.cursor_path.write_text("not-a-number")
        reopened = ContributionLog(path)
        # Unreadable cursor re-drains everything (at-least-once, safe).
        assert reopened.committed == 0
        assert len(reopened.pending()) == 2
