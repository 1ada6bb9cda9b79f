"""On-disk JSONL checkpoint journal for long evaluation sweeps.

One JSON object per line, appended and flushed as each (clip, rule)
job completes, following the version-tagged-dict conventions of
:mod:`repro.clips.serialization`.  Every record is additionally
*sealed* with a SHA-256 checksum of its canonical form
(:mod:`repro.util.integrity`), so silent corruption of the artifact --
bit flips, partial writes, manual edits, version skew -- is detected
at load time instead of resuming a sweep from wrong data.

An interrupted sweep reloads the journal and skips finished pairs.
Loading is *tolerant*: any record that fails to parse, carries an
unknown schema version, or fails its checksum is moved to a sidecar
quarantine file (``<journal>.quarantine``) and dropped from the
resume set -- the affected pair simply re-solves, which heals both
the result and (after compaction) the artifact.  A load therefore
never raises on a corrupt journal and never resumes from a record it
cannot vouch for.

The journal doubles as a *multi-writer coordination log* for
distributed sweeps (:mod:`repro.exec.distributed`): every worker
process appends result and lease records to the same file.  Appends
are single ``O_APPEND`` writes guarded by an advisory ``flock`` where
available, so concurrent lines never interleave; a worker SIGKILLed
mid-write leaves at most one torn final line, which the quarantine
path absorbs.  Concurrent readers must use :meth:`read` -- a
side-effect-free tolerant snapshot -- because :meth:`load`'s healing
compaction (an ``os.replace``) would race in-flight appends; only the
coordinator may heal, before workers start or after they exit.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

try:  # advisory cross-process append lock (POSIX; absent on Windows)
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None  # type: ignore[assignment]

from repro.exec.faults import maybe_raise_disk_full
from repro.util.integrity import seal_record, verify_seal

#: Current record schema.  v2 added the integrity seal; v1 records
#: (pre-seal) are quarantined rather than trusted -- a resumed pair
#: re-solves, which is always sound.
RECORD_VERSION = 2


class CheckpointJournal:
    """Append-only JSONL journal of completed job records.

    Thread-safe: a lease worker's heartbeat thread appends while its
    main thread claims and finishes groups.  Records are plain dicts;
    the eval layer owns the outcome <-> record conversion.

    After :meth:`load`, ``quarantined`` holds a ``(line_number,
    reason, raw_line)`` tuple per rejected record of that load.
    """

    def __init__(self, path: "str | os.PathLike[str]"):
        self.path = Path(path)
        self._lock = threading.Lock()
        self.quarantined: list[tuple[int, str, str]] = []
        #: durable-write failures (ENOSPC and kin) absorbed by this
        #: instance instead of crashing the sweep; callers that need a
        #: complete journal (the service layer) check this to mark the
        #: affected experiment DEGRADED.
        self.write_failures = 0
        self.last_write_error: "str | None" = None

    @property
    def quarantine_path(self) -> Path:
        return self.path.with_name(self.path.name + ".quarantine")

    def exists(self) -> bool:
        return self.path.exists()

    def clear(self) -> None:
        """Start a fresh journal (truncates any previous run)."""
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")

    def append(self, record: dict) -> bool:
        """Durably append one sealed record (flush + fsync per line).

        Safe for concurrent writers: the line is written by a single
        buffered write under an advisory ``flock`` (where available),
        so records from different processes never interleave.

        Returns ``True`` on success.  A disk-level failure (ENOSPC,
        I/O error) is absorbed: the journal stays usable, the failure
        is counted in :attr:`write_failures`, and ``False`` comes
        back so the caller can degrade instead of crash.  A write
        torn mid-line by a real ENOSPC is absorbed by the quarantine
        path on the next load, exactly like a torn crash write.
        """
        tagged = seal_record({"v": RECORD_VERSION, **record})
        line = json.dumps(tagged, sort_keys=True)
        try:
            with self._lock:
                self._append_locked(self.path, [line])
        except OSError as exc:
            self.write_failures += 1
            self.last_write_error = f"{type(exc).__name__}: {exc}"
            return False
        return True

    def _append_locked(self, path: Path, lines: "list[str]") -> None:
        """The one blessed journal sink: durably append ``lines``.

        Every file append of the checkpoint layer -- journal records
        and quarantine sidecar entries alike -- funnels through here
        so there is exactly one open/flock/write/flush/fsync sequence
        to audit (and for the concurrency lint to bless).  The lines
        go out as a single buffered write under an advisory ``flock``,
        so concurrent appenders never interleave bytes.
        """
        maybe_raise_disk_full(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = "".join(line + "\n" for line in lines)
        with open(path, "a", encoding="utf-8") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def load(self, heal: bool = True) -> list[dict]:
        """All trustworthy journaled records, oldest first.

        Records that fail parsing, schema, or checksum validation are
        written to the sidecar quarantine file and dropped; with
        ``heal`` (the default) the journal is then atomically
        compacted to only the surviving records, so quarantining is
        one-shot rather than repeated on every load.

        Never call this while other processes are appending -- the
        compaction would drop their in-flight records.  Concurrent
        pollers use :meth:`read` instead.
        """
        with self._lock:
            return self._load_locked(heal)

    def read(self) -> list[dict]:
        """Tolerant, side-effect-free snapshot of the journal.

        Invalid lines are skipped (``quarantined`` is still populated
        for inspection) but nothing is written: no sidecar append, no
        compaction.  This is the only safe way to observe a journal
        that other worker processes are actively appending to.
        """
        with self._lock:
            return self._load_locked(heal=False, quarantine=False)

    def _load_locked(self, heal: bool, quarantine: bool = True) -> list[dict]:
        self.quarantined = []
        if not self.path.exists():
            return []
        # Decode per line, not per file: one bit flip into an invalid
        # UTF-8 byte must quarantine that record, not crash the load.
        raw_lines = [
            raw for raw in self.path.read_bytes().splitlines() if raw.strip()
        ]
        records: list[dict] = []
        kept_lines: list[str] = []
        for i, raw in enumerate(raw_lines):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                self.quarantined.append((
                    i + 1,
                    "invalid UTF-8 (corrupted bytes)",
                    raw.decode("utf-8", errors="replace"),
                ))
                continue
            reason = _validate_line(line)
            if reason is None:
                records.append(json.loads(line))
                kept_lines.append(line)
            else:
                self.quarantined.append((i + 1, reason, line))
        if self.quarantined and quarantine:
            # Healing is best-effort: a full disk must not turn a
            # *load* into a crash.  The bad records stay quarantined
            # in memory and the pairs re-solve either way; only the
            # sidecar/compaction persistence is skipped.
            try:
                self._write_quarantine()
                if heal:
                    self._compact(kept_lines)
            except OSError as exc:
                self.write_failures += 1
                self.last_write_error = f"{type(exc).__name__}: {exc}"
        return records

    def _write_quarantine(self) -> None:
        self._append_locked(
            self.quarantine_path,
            [
                json.dumps(
                    {"line": line_number, "reason": reason, "raw": raw},
                    sort_keys=True,
                )
                for line_number, reason, raw in self.quarantined
            ],
        )

    def _compact(self, kept_lines: list[str]) -> None:
        """Atomically rewrite the journal with only valid records."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in kept_lines:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)


def record_kind(record: dict) -> str:
    """Classify a journal record.

    Result records predate the multi-writer protocol and carry no
    ``kind`` tag (kept that way for journal compatibility); every
    coordination record written since tags itself (``"lease"``).
    """
    return str(record.get("kind", "result"))


def result_records(records: "list[dict]") -> "list[dict]":
    """The (clip, rule) result records of a journal snapshot."""
    return [r for r in records if record_kind(r) == "result"]


def dedupe_results(records: "list[dict]") -> "list[dict]":
    """First-wins dedup of result records by (clip, rule).

    Distributed execution is at-least-once: a lease that expires
    mid-group is reclaimed and its pairs re-solved, so the journal may
    legitimately hold two records for one pair.  Results are
    deterministic per pair, so which copy survives is immaterial for
    correctness; keeping the *first* makes the choice reproducible.
    """
    seen: set[tuple[str, str]] = set()
    unique: list[dict] = []
    for record in result_records(records):
        key = (str(record.get("clip")), str(record.get("rule")))
        if key in seen:
            continue
        seen.add(key)
        unique.append(record)
    return unique


def _validate_line(line: str) -> "str | None":
    """Reason the line is untrustworthy, or None when it is valid."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return "unparseable JSON (truncated or corrupted write)"
    if not isinstance(record, dict):
        return "record is not an object"
    if record.get("v") != RECORD_VERSION:
        return f"unsupported record version {record.get('v')!r}"
    if not verify_seal(record):
        return "checksum mismatch (content does not match its seal)"
    return None
