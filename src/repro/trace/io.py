"""Trace serialization: JSONL read/write plus a packed columnar shard store.

Two on-disk shapes, for two access patterns:

* **JSONL** (:func:`write_trace` / :func:`iter_trace` /
  :func:`read_trace`) -- one record per line behind a versioned header;
  human-greppable, streamable, the interchange format.  Paths ending in
  ``.gz`` are transparently gzip-compressed (notification traces
  compress ~10x).
* **Columnar shard store** (:class:`ShardStoreWriter` /
  :class:`TraceShardStore`) -- a directory of flat little-endian binary
  columns partitioned by user (``user_ids.npy`` + ``offsets.npy`` index,
  ``index.json`` manifest).  Written once in a streaming append pass,
  then memory-mapped read-only, so a population-scale trace costs each
  experiment worker address space instead of heap and deserialization
  time.  This is the format the experiment pool ships to workers: a
  path, not pickled record lists.  Records cross into and out of it
  through one column-backed type, :class:`RecordsView`, and one seam,
  :func:`shard_columns`.
"""

from __future__ import annotations

import json
import gzip
import math
import mmap
from collections.abc import Collection, Iterable, Iterator, Sequence
from dataclasses import fields
from itertools import repeat
from pathlib import Path

import numpy as np

from repro.pubsub.topics import TopicKind
from repro.trace.records import CHECKED_COLUMNS, NotificationRecord, first_broken_record

FORMAT_NAME = "richnote-trace"
FORMAT_VERSION = 1

SHARD_FORMAT_NAME = "richnote-trace-shards"
SHARD_FORMAT_VERSION = 1
#: Rows per block when :class:`TraceShardStore` checks record values.
_CHECK_ROWS = 1 << 14

#: Column layout of the shard store.  ``recipient_id`` is implied by the
#: user partitioning (``user_ids`` + ``offsets``) and not stored per
#: record; ``click_time`` stores ``NaN`` for ``None``; ``kind`` stores an
#: index into the manifest's ``kinds`` list.
SHARD_COLUMNS: dict[str, str] = {
    "notification_id": "<i8",
    "sender_id": "<i8",
    "kind": "|i1",
    "track_id": "<i8",
    "album_id": "<i8",
    "artist_id": "<i8",
    "track_popularity": "<i4",
    "album_popularity": "<i4",
    "artist_popularity": "<i4",
    "tie_strength": "<f8",
    "is_friend": "|u1",
    "favorite_genre": "|u1",
    "timestamp": "<f8",
    "hovered": "|u1",
    "clicked": "|u1",
    "click_time": "<f8",
}


def _open(path: Path, mode: str):
    """Text-mode open with transparent gzip for ``.gz`` paths."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return path.open(mode, encoding="utf-8")


def write_trace(path: str | Path, records: Iterable[NotificationRecord]) -> int:
    """Write records as JSONL (with a header line); returns record count."""
    path = Path(path)
    count = 0
    with _open(path, "w") as handle:
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION}
        handle.write(json.dumps(header) + "\n")
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def iter_trace(path: str | Path) -> Iterator[NotificationRecord]:
    """Stream records from a trace file, validating the header."""
    path = Path(path)
    with _open(path, "r") as handle:
        header_line = handle.readline()
        if not header_line:
            raise ValueError(f"{path}: empty trace file")
        try:
            header = json.loads(header_line)
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ValueError(f"{path}: not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported version {header.get('version')} "
                f"(expected {FORMAT_VERSION})"
            )
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                yield NotificationRecord.from_dict(json.loads(line))
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{line_number}: malformed record: {error}"
                ) from error


def read_trace(path: str | Path) -> list[NotificationRecord]:
    """Load an entire trace into memory.

    Convenience for small traces only: this materializes every record at
    once.  Callers that merely iterate -- computing statistics,
    re-sharding, filtering -- should stream with :func:`iter_trace`
    instead, which holds one record at a time; population-scale cohorts
    should use the columnar shard store (:class:`ShardStoreWriter` /
    :class:`TraceShardStore`) and never round-trip through record lists
    at all.
    """
    return list(iter_trace(path))


# -- columnar shard store ------------------------------------------------------


class ShardStoreWriter:
    """Streaming writer for the columnar shard store.

    Appends one user's records at a time to flat binary column files --
    no buffering of the whole trace, no need to know counts up front --
    then seals the directory with the index arrays and manifest on
    :meth:`close`.  Records reach the files through :func:`shard_columns`:
    a :class:`RecordsView` (what :func:`repro.trace.generator.iter_users`
    yields and :meth:`TraceShardStore.records_at` returns) is written
    from its arrays as they are, any other sequence field by field.  Use
    as a context manager:

    >>> with ShardStoreWriter(tmp_path / "shards") as writer:  # doctest: +SKIP
    ...     for user_id, records in iter_users(10_000):
    ...         writer.append(user_id, records)
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._handles = {
            name: (self.path / f"{name}.bin").open("wb")
            for name in SHARD_COLUMNS
        }
        self._user_ids: list[int] = []
        self._appended: set[int] = set()
        self._offsets: list[int] = [0]
        self._closed = False

    def append(
        self, user_id: int, records: Sequence[NotificationRecord]
    ) -> None:
        """Append one user's partition (records in their replay order).

        ``recipient_id`` is implied by the partition, so records addressed
        to another user (a view of another user) and a user id appended
        before raise ``ValueError`` naming the user, as does a view whose
        columns are not :data:`SHARD_COLUMNS` dtypes of one length.
        Nothing is written for a refused partition.
        """
        if self._closed:
            raise ValueError("shard store writer is closed")
        if user_id in self._appended:
            raise ValueError(f"user {user_id} was already appended")
        if isinstance(records, RecordsView):
            strays = [records.user_id] if records.user_id != user_id else []
        else:
            strays = [r.recipient_id for r in records if r.recipient_id != user_id]
        if strays:
            raise ValueError(
                f"user {user_id}: records addressed to user {strays[0]}"
            )
        columns = shard_columns(records, SHARD_COLUMNS)
        for name, column in zip(SHARD_COLUMNS, columns):
            if column.dtype != SHARD_COLUMNS[name] or len(column) != len(columns[0]):
                raise ValueError(
                    f"user {user_id}: column {name} is {len(column)} x {column.dtype}, "
                    f"the store takes {len(columns[0])} x {SHARD_COLUMNS[name]}"
                )
        for name, column in zip(SHARD_COLUMNS, columns):
            self._handles[name].write(np.ascontiguousarray(column))
        self._appended.add(user_id)
        self._user_ids.append(user_id)
        self._offsets.append(self._offsets[-1] + len(columns[0]))

    def close(self) -> None:
        """Seal the store: flush columns, write index arrays + manifest."""
        if self._closed:
            return
        for handle in self._handles.values():
            handle.close()
        np.save(
            self.path / "user_ids.npy",
            np.asarray(self._user_ids, dtype=np.int64),
        )
        np.save(
            self.path / "offsets.npy",
            np.asarray(self._offsets, dtype=np.int64),
        )
        manifest = {
            "format": SHARD_FORMAT_NAME,
            "version": SHARD_FORMAT_VERSION,
            "n_users": len(self._user_ids),
            "n_records": self._offsets[-1],
            "columns": dict(SHARD_COLUMNS),
            "kinds": [kind.value for kind in _KINDS],
        }
        (self.path / "index.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        self._closed = True

    def __enter__(self) -> "ShardStoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_shard_store(
    path: str | Path,
    user_records: Iterable[tuple[int, Sequence[NotificationRecord]]],
) -> int:
    """Write ``(user_id, records)`` pairs to a shard store; returns records."""
    with ShardStoreWriter(path) as writer:
        for user_id, records in user_records:
            writer.append(user_id, records)
        total = writer._offsets[-1]
    return total


class RecordsView(Sequence):
    """One user's records as a lazy sequence over shard-store columns.

    The columns are :data:`SHARD_COLUMNS` arrays: zero-copy slices of a
    mapped store (:meth:`TraceShardStore.records_at`) or the arrays
    :func:`repro.trace.generator.iter_users` drew, and ``kinds`` decodes
    the ``kind`` codes.  ``column(name)`` is the array itself;
    :class:`NotificationRecord` objects exist only while someone
    iterates or indexes (each pass rebuilds them -- callers that walk the
    records more than once should ``list(view)`` first).  Compares equal
    to any sequence of equal records and prints as the list of them.
    """

    __slots__ = ("user_id", "_columns", "kinds")

    def __init__(self, user_id: int, columns: dict[str, np.ndarray], kinds) -> None:
        self.user_id = user_id
        self._columns = columns
        self.kinds = kinds

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __len__(self) -> int:
        return len(self._columns["notification_id"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            columns = {name: c[index] for name, c in self._columns.items()}
            return RecordsView(self.user_id, columns, self.kinds)
        start = range(len(self))[index]  # normalizes, raises IndexError
        return next(iter(self[start : start + 1]))

    def __iter__(self) -> Iterator[NotificationRecord]:
        data = {name: column.tolist() for name, column in self._columns.items()}
        data["recipient_id"] = repeat(self.user_id)
        data["kind"] = [self.kinds[code] for code in data["kind"]]
        for name in ("is_friend", "favorite_genre", "hovered", "clicked"):
            data[name] = map(bool, data[name])
        data["click_time"] = [
            None if math.isnan(time) else time for time in data["click_time"]
        ]
        return map(NotificationRecord, *(data[name] for name in _RECORD_FIELDS))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


_RECORD_FIELDS = tuple(field.name for field in fields(NotificationRecord))

#: The kinds a written store's ``kind`` codes index (its manifest's list).
_KINDS = list(TopicKind)

#: The columns the columnar cohort path reads (all it needs of a record).
COHORT_COLUMNS = ("notification_id", "timestamp", "clicked", "click_time")


def shard_columns(
    records: Sequence[NotificationRecord], names: Collection[str]
) -> tuple[np.ndarray, ...]:
    """One user's columns ``names``, in :data:`SHARD_COLUMNS` dtypes.

    The one seam from records to columns.  A :class:`RecordsView` serves
    its arrays as they are (``kind`` codes remapped to :class:`TopicKind`
    order if the view's ``kinds`` list another); any other record
    sequence is read field by field (numpy turns a ``None``
    ``click_time`` into ``NaN``, the store's own encoding, and a kind
    becomes its index in :class:`TopicKind`).
    """
    if isinstance(records, RecordsView):
        columns = tuple(records.column(name) for name in names)
        if "kind" not in names or records.kinds == _KINDS:
            return columns
        recode = np.asarray(
            [_KINDS.index(kind) for kind in records.kinds], dtype=SHARD_COLUMNS["kind"]
        )
        return tuple(
            recode[column] if name == "kind" else column
            for name, column in zip(names, columns)
        )
    return tuple(
        np.asarray(
            [_KINDS.index(r.kind) for r in records]
            if name == "kind"
            else [getattr(r, name) for r in records],
            dtype=SHARD_COLUMNS[name],
        )
        for name in names
    )


def record_columns(records: Sequence[NotificationRecord]) -> tuple[np.ndarray, ...]:
    """One user's :data:`COHORT_COLUMNS`, through :func:`shard_columns`."""
    return shard_columns(records, COHORT_COLUMNS)


class TraceShardStore:
    """Zero-copy reader over a shard store directory.

    Columns are ``np.memmap``-ed read-only: opening costs a few stat
    calls regardless of trace size, slicing costs page faults only for
    the pages actually touched, and forked/spawned workers opening the
    same store share the page cache instead of each holding a heap copy.
    :meth:`records_at` hands out a lazy :class:`RecordsView`, so the
    columnar cohort path (:func:`record_columns`) never builds a record.
    :meth:`close` drops the store's own references (further reads raise
    ``ValueError``); a view handed out earlier keeps its slices, and with
    them the mapping and its file descriptor, alive until it is garbage
    too -- drop both before deleting the directory on Windows-like
    platforms.

    Concurrent readers are safe by construction: a sealed store is
    immutable (the writer renames nothing into place after
    :meth:`ShardStoreWriter.close`, it only ever appends before), every
    map is opened ``mode="r"``, and no reader mutates shared state -- so
    N processes may open the same directory simultaneously and must
    observe byte-identical columns and records.  The shard-parallel
    executor (``experiments/pool.py``) leans on exactly this: workers
    receive the store *path* and read disjoint position ranges through
    the shared page cache; ``tests/test_shard_parallel.py`` pins the
    byte-identity across concurrent processes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        manifest_path = self.path / "index.json"
        if not manifest_path.exists():
            raise ValueError(f"{self.path}: not a shard store (no index.json)")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("format") != SHARD_FORMAT_NAME:
            raise ValueError(f"{self.path}: not a {SHARD_FORMAT_NAME} store")
        if manifest.get("version") != SHARD_FORMAT_VERSION:
            raise ValueError(
                f"{self.path}: unsupported version {manifest.get('version')} "
                f"(expected {SHARD_FORMAT_VERSION})"
            )
        self.manifest = manifest
        self._kinds = [TopicKind(value) for value in manifest["kinds"]]
        self.user_ids = np.load(self.path / "user_ids.npy")
        self.offsets = np.load(self.path / "offsets.npy")
        self._check_index()
        n_records = int(self.offsets[-1])
        self._maps: dict[str, np.ndarray] | None = {}
        for name, dtype_str in manifest["columns"].items():
            dtype = np.dtype(dtype_str)
            column_path = self.path / f"{name}.bin"
            expected = n_records * dtype.itemsize
            actual = column_path.stat().st_size
            if actual != expected:
                raise ValueError(
                    f"{column_path}: {actual} bytes, index implies {expected}"
                )
            if n_records == 0:
                self._maps[name] = np.empty(0, dtype=dtype)
            else:
                # asarray: same pages, but slices skip np.memmap's Python
                # __getitem__ (5x cheaper per slice, 16 slices per view).
                mapped = np.memmap(column_path, dtype=dtype, mode="r")
                self._maps[name] = np.asarray(mapped)
        kind = self._maps["kind"]
        if kind.size and (kind.min() < 0 or kind.max() >= len(self._kinds)):
            raise ValueError(
                f"{self.path / 'kind.bin'}: kind codes span "
                f"{kind.min()}..{kind.max()}, the manifest lists "
                f"{len(self._kinds)} kinds"
            )
        self._check_values()

    def _check_values(self) -> None:
        """Raise ``ValueError`` naming the column file, user and row of the
        first record that breaks a :class:`NotificationRecord` invariant
        (:func:`first_broken_record`, vectorised over a block of rows at a
        time), so a hostile store fails on open instead of deep inside a
        run.  It reads through maps of its own, unmapped when it returns,
        so the pages it touches leave this process's resident set again: a
        run may never read some of these columns."""
        if self.n_records == 0:
            return
        columns = {}
        for name in CHECKED_COLUMNS:
            with open(self.path / f"{name}.bin", "rb") as handle:
                pages = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            columns[name] = np.frombuffer(pages, dtype=self.manifest["columns"][name])
        # Small blocks keep the masks small, and they leave no heap behind.
        for start in range(0, self.n_records, _CHECK_ROWS):
            broken = first_broken_record(
                {name: column[start : start + _CHECK_ROWS] for name, column in columns.items()}
            )
            if broken is not None:
                break
        else:
            return
        row, column, message = broken
        row += start
        user = int(np.searchsorted(self.offsets, row, side="right")) - 1
        raise ValueError(
            f"{self.path / f'{column}.bin'}: user {int(self.user_ids[user])}, "
            f"row {row - int(self.offsets[user])}: {message}"
        )

    def _check_index(self) -> None:
        """Raise ``ValueError`` naming the first broken index invariant.

        A store whose index disagrees with itself would otherwise open
        and silently re-partition users, or fail with a bare ``KeyError``
        at the first iteration.  User ids are distinct when no two are
        equal neighbours once sorted (``np.unique`` would do the same sort,
        and import ``numpy.ma`` into every pool worker that opens a store).
        """
        manifest, offsets, user_ids = self.manifest, self.offsets, self.user_ids
        ordered = np.sort(user_ids, axis=None)
        if set(manifest["columns"]) != set(SHARD_COLUMNS):
            broken = (
                f"manifest columns {sorted(manifest['columns'])} are not "
                f"SHARD_COLUMNS {sorted(SHARD_COLUMNS)}"
            )
        elif not len(offsets) == len(user_ids) + 1 == manifest["n_users"] + 1:
            broken = (
                f"{len(offsets)} offsets and {len(user_ids)} user ids for "
                f"{manifest['n_users']} users (need n_users + 1 offsets)"
            )
        elif offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            broken = "offsets must start at 0 and never decrease"
        elif offsets[-1] != manifest["n_records"]:
            broken = (
                f"offsets end at {offsets[-1]}, the manifest says "
                f"{manifest['n_records']} records"
            )
        elif (ordered[1:] == ordered[:-1]).any():
            broken = "user ids are not unique"
        else:
            return
        raise ValueError(f"{self.path}: {broken}")

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_records(self) -> int:
        return int(self.offsets[-1])

    def _open_maps(self) -> dict[str, np.ndarray]:
        if self._maps is None:
            raise ValueError(f"{self.path}: shard store is closed")
        return self._maps

    def column(self, name: str) -> np.ndarray:
        """The raw memory-mapped column (length ``n_records``)."""
        return self._open_maps()[name]

    def records_at(self, position: int) -> RecordsView:
        """One partition as a lazy view over the mapped columns (no copy)."""
        maps = self._open_maps()
        if not 0 <= position < self.n_users:
            raise IndexError(f"position {position} outside 0..{self.n_users - 1}")
        start, end = int(self.offsets[position]), int(self.offsets[position + 1])
        return RecordsView(
            int(self.user_ids[position]),
            {name: column[start:end] for name, column in maps.items()},
            self._kinds,
        )

    def iter_users(self) -> Iterator[tuple[int, RecordsView]]:
        """Stream ``(user_id, records)`` partitions in store order."""
        for position in range(self.n_users):
            yield int(self.user_ids[position]), self.records_at(position)

    def close(self) -> None:
        """Drop the store's maps; views already handed out keep theirs."""
        self._maps = None

    def __enter__(self) -> "TraceShardStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
