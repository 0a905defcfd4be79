"""Tests for trace records and JSONL serialization."""

import re

import pytest

from repro.pubsub.topics import TopicKind
from repro.trace.io import SHARD_COLUMNS, iter_trace, read_trace, shard_columns, write_trace
from repro.trace.records import NotificationRecord, check_record_columns


def record(**overrides):
    base = dict(
        notification_id=1,
        recipient_id=2,
        sender_id=3,
        kind=TopicKind.FRIEND,
        track_id=4,
        album_id=5,
        artist_id=6,
        track_popularity=70,
        album_popularity=65,
        artist_popularity=80,
        tie_strength=0.4,
        is_friend=True,
        favorite_genre=False,
        timestamp=1000.0,
        hovered=True,
        clicked=True,
        click_time=1600.0,
    )
    base.update(overrides)
    return NotificationRecord(**base)


class TestRecordInvariants:
    def test_click_implies_hover(self):
        with pytest.raises(ValueError):
            record(hovered=False, clicked=True)

    def test_click_needs_click_time(self):
        with pytest.raises(ValueError):
            record(clicked=True, click_time=None)

    def test_click_cannot_precede_notification(self):
        with pytest.raises(ValueError):
            record(click_time=999.0)

    def test_timestamp_must_be_finite_and_non_negative(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="timestamp must be finite"):
                record(timestamp=bad, clicked=False, click_time=None)

    def test_click_time_must_be_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="click time must be finite"):
                record(click_time=bad)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("timestamp", float("nan"), "timestamp must be finite and >= 0"),
            ("timestamp", -1.0, "timestamp must be finite and >= 0"),
            ("click_time", float("inf"), "click time must be finite"),
            ("tie_strength", 1.5, "tie strength must be in [0, 1]"),
            ("tie_strength", float("nan"), "tie strength must be in [0, 1]"),
            ("hovered", 0, "a click implies mouse attention"),
            ("click_time", float("nan"), "clicked records need a click time"),
            ("click_time", 999.0, "click cannot precede the notification"),
        ],
    )
    def test_column_check_names_user_and_row(self, name, value, message):
        """The invariants above, checked on one user's shard columns."""
        records = [record(notification_id=i) for i in range(3)]
        columns = dict(zip(SHARD_COLUMNS, shard_columns(records, SHARD_COLUMNS)))
        check_record_columns(2, columns)
        columns[name] = columns[name].copy()
        columns[name][1] = value
        with pytest.raises(ValueError, match=re.escape(f"user 2, row 1: {message}")):
            check_record_columns(2, columns)

    def test_attended_property(self):
        assert record().attended
        assert not record(hovered=False, clicked=False, click_time=None).attended

    def test_time_features(self):
        # Epoch starts Monday 00:00; 1000 s in = hour 0.27..., weekday.
        r = record(timestamp=1000.0, click_time=2000.0)
        assert r.hour_of_day() == pytest.approx(1000.0 / 3600.0)
        assert not r.is_weekend()
        assert r.is_night()
        saturday = record(timestamp=5.2 * 86400.0, click_time=5.3 * 86400.0)
        assert saturday.is_weekend()

    def test_dict_round_trip(self):
        r = record()
        assert NotificationRecord.from_dict(r.to_dict()) == r


class TestTraceIo:
    def test_lines_are_pinned(self, tmp_path):
        """``to_dict`` builds the line's dict from the fields directly; the
        JSONL bytes are those ``dataclasses.asdict`` gave."""
        records = [
            record(),
            record(
                notification_id=7, kind=TopicKind.ARTIST, tie_strength=0.1,
                hovered=False, clicked=False, click_time=None,
            ),
        ]
        path = tmp_path / "trace.jsonl"
        write_trace(path, records)
        assert path.read_text().splitlines() == [
            '{"format": "richnote-trace", "version": 1}',
            '{"album_id": 5, "album_popularity": 65, "artist_id": 6, '
            '"artist_popularity": 80, "click_time": 1600.0, "clicked": true, '
            '"favorite_genre": false, "hovered": true, "is_friend": true, '
            '"kind": "friend", "notification_id": 1, "recipient_id": 2, '
            '"sender_id": 3, "tie_strength": 0.4, "timestamp": 1000.0, '
            '"track_id": 4, "track_popularity": 70}',
            '{"album_id": 5, "album_popularity": 65, "artist_id": 6, '
            '"artist_popularity": 80, "click_time": null, "clicked": false, '
            '"favorite_genre": false, "hovered": false, "is_friend": true, '
            '"kind": "artist", "notification_id": 7, "recipient_id": 2, '
            '"sender_id": 3, "tie_strength": 0.1, "timestamp": 1000.0, '
            '"track_id": 4, "track_popularity": 70}',
        ]
        assert read_trace(path) == records

    def test_round_trip(self, tmp_path):
        records = [
            record(notification_id=i, clicked=False, click_time=None)
            for i in range(5)
        ]
        path = tmp_path / "trace.jsonl"
        assert write_trace(path, records) == 5
        loaded = read_trace(path)
        assert loaded == records

    def test_streaming_iteration(self, tmp_path):
        records = [record(notification_id=i, clicked=False, click_time=None)
                   for i in range(3)]
        path = tmp_path / "trace.jsonl"
        write_trace(path, records)
        assert [r.notification_id for r in iter_trace(path)] == [0, 1, 2]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            list(iter_trace(path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "other", "version": 1}\n')
        with pytest.raises(ValueError, match="not a richnote-trace"):
            list(iter_trace(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "richnote-trace", "version": 99}\n')
        with pytest.raises(ValueError, match="unsupported version"):
            list(iter_trace(path))

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "richnote-trace", "version": 1}\n{"nope": true}\n'
        )
        with pytest.raises(ValueError, match=":2:"):
            list(iter_trace(path))

    def test_nan_timestamp_rejected_with_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [record(clicked=False, click_time=None)])
        text = path.read_text().replace('"timestamp": 1000.0', '"timestamp": NaN')
        assert "NaN" in text
        path.write_text(text)
        with pytest.raises(ValueError, match=":2: .*timestamp must be finite"):
            read_trace(path)

    def test_infinite_click_time_rejected_with_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [record()])
        text = path.read_text().replace('"click_time": 1600.0', '"click_time": Infinity')
        assert "Infinity" in text
        path.write_text(text)
        with pytest.raises(ValueError, match=":2: .*click time must be finite"):
            read_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        r = record(clicked=False, click_time=None)
        path = tmp_path / "trace.jsonl"
        write_trace(path, [r])
        path.write_text(path.read_text() + "\n\n")
        assert read_trace(path) == [r]
