"""Content-addressed persistent cache of MILP solve outcomes.

A solve is pure: the same model under the same solver options always
admits the same status and optimal objective.  Keying on the SHA-256
of the insertion-order-invariant serialization
(:meth:`repro.ilp.csr.CsrModel.canonical_text`) plus the canonical
JSON of the solver options therefore lets repeated and resumed sweeps
skip identical solves entirely -- a second ``repro evaluate
--solve-cache`` run over an unchanged clip set performs zero backend
solves.

Entries store the status, objective, and the solution's nonzero
values **by variable name** (indices are an insertion-order artifact;
names are what the canonical key is built from), plus the original
solve accounting so a cache hit reproduces the journaled record of the
run that populated it.  Writes are atomic (temp file + rename).

Every entry is *sealed* with a SHA-256 checksum of its canonical JSON
form (:mod:`repro.util.integrity`).  A malformed, version-mismatched,
or checksum-failing entry is moved into a ``quarantine/`` subdirectory,
under a name of its own, and reads as a miss, so a corrupted, shared,
or interrupted cache degrades to extra solves -- never to wrong
results -- and the re-solve that follows heals the entry in place.

Statuses cached: OPTIMAL, INFEASIBLE, and LIMIT (the time limit is
part of the key, so a LIMIT outcome is only replayed for the same
budget).  ERROR outcomes are never cached -- crashes are environment,
not model, properties.

In front of the entries sits a *pair index* (``index/``): sealed
records from a caller's content address of a model's *inputs* (for
the router: the program digest, the clip, the rule, the cost weights
and these solver options) to the entry's key, the model's size
statistics and the caller's decoded form of the solution (the
router's routing).  A caller whose inputs are indexed reads the entry
and the decoded solution without building or hashing the model.  A
missing, dangling or corrupt index record is a miss and the caller
builds and hashes as before; :func:`program_digest` in the key
retires every index record when any module changes.

Beside them sit *proof sheets* (``proofs/``): one sealed record per
caller key (for the sweep: the program digest, the clip, the cost
weights and ``allow_via_shapes``) holding a caller's proofs about that
key's models, by the caller's own keys.  A missing or corrupt sheet
is a miss, and the caller proves again.  Neither index records nor
sheets count as entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

import repro
from repro.ilp.csr import CsrModel
from repro.ilp.status import Solution, SolveStatus
from repro.util.integrity import seal_record, verify_seal

#: v2 added the per-entry integrity seal; unsealed v1 entries read as
#: misses (the re-solve rewrites them sealed).  v2 entries that store
#: every value (no ``has_point`` key) read as they always did.
ENTRY_VERSION = 2

#: Version of the pair index's records (see :meth:`SolveCache.get_indexed`);
#: v2 added the decoded solution.
INDEX_VERSION = 2

#: Version of the proof sheets (see :meth:`SolveCache.get_proofs`).
PROOF_VERSION = 1

#: Subdirectory corrupt records are moved into (never read as hits).
QUARANTINE_DIR = "quarantine"

#: Subdirectory of the pair index, sharded like the entries.
INDEX_DIR = "index"

#: Subdirectory of the proof sheets, sharded like the entries.
PROOF_DIR = "proofs"

#: What a caller's decode hook may raise on a record it rejects.
_MALFORMED = (KeyError, TypeError, ValueError)

#: Outcomes worth persisting (see module docstring).
_CACHEABLE = (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.LIMIT)


_PROGRAM_DIGEST: "str | None" = None


def program_digest() -> str:
    """SHA-256 over the path and bytes of every module of the ``repro``
    package, computed once per process.

    Pair-index keys carry it, so an index written by other code is
    never read.  A sweep computes it before it forks lease workers or
    attempt processes, so each fork inherits it.
    """
    global _PROGRAM_DIGEST
    if _PROGRAM_DIGEST is None:
        root = os.path.dirname(repro.__file__)
        modules = sorted(
            os.path.relpath(os.path.join(folder, name), root)
            for folder, _, names in os.walk(root)
            for name in names
            if name.endswith(".py")
        )
        digest = hashlib.sha256()
        for module in modules:
            with open(os.path.join(root, module), "rb") as fh:
                digest.update(b"%s\0%s\0" % (module.encode("utf-8"), fh.read()))
        _PROGRAM_DIGEST = digest.hexdigest()
    return _PROGRAM_DIGEST


class IndexRecord(NamedTuple):
    """One pair-index record (see :meth:`SolveCache.get_indexed`)."""

    #: the key of the entry the pair's solve outcome is cached under
    key: str
    #: the model's size statistics
    stats: dict[str, int]
    #: the caller's decoded form of the solution (None = none stored)
    decoded: Any


@dataclass
class CacheEntry:
    """One cached solve outcome, in model-independent (name-keyed) form.

    ``values_by_name`` holds the solution's nonzero values only;
    ``has_point`` says whether the solution had a point at all, so
    that a point whose every value is zero still replays as one.
    """

    status: SolveStatus
    objective: float | None = None
    values_by_name: dict[str, float] = field(default_factory=dict)
    best_bound: float | None = None
    n_nodes: int = 0
    solve_seconds: float = 0.0
    has_point: bool = False

    def to_solution(self, model: CsrModel) -> Solution:
        """Remap name-keyed values onto this model's variable indices.
        A solution with a point gets a value for every column of the
        model, zeros included, as the solve returned it."""
        if self.has_point:
            stored = self.values_by_name
            values = {
                j: stored.get(name, 0 if integer else 0.0)
                for j, (name, integer) in enumerate(
                    zip(model.var_names, model.integer.tolist())
                )
            }
        else:
            by_name = model.name_to_index
            values = {
                by_name[name]: value
                for name, value in self.values_by_name.items()
                if name in by_name
            }
        return Solution(
            status=self.status,
            objective=self.objective,
            values=values,
            best_bound=self.best_bound,
            n_nodes=self.n_nodes,
            solve_seconds=self.solve_seconds,
        )

    def to_dict(self) -> dict:
        return seal_record({
            "v": ENTRY_VERSION,
            "status": self.status.value,
            "objective": self.objective,
            "values": self.values_by_name,
            "best_bound": self.best_bound,
            "n_nodes": self.n_nodes,
            "solve_seconds": self.solve_seconds,
            "has_point": self.has_point,
        })

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheEntry":
        values = dict(payload["values"])
        # Entries written before values were stored sparsely hold every
        # value of a point, so they have one exactly when any is stored.
        has_point = payload.get("has_point", bool(values))
        if not isinstance(has_point, bool):
            raise TypeError(f"has_point is {has_point!r}")
        return cls(
            status=SolveStatus(payload["status"]),
            objective=payload["objective"],
            values_by_name=values,
            best_bound=payload.get("best_bound"),
            n_nodes=int(payload.get("n_nodes", 0)),
            solve_seconds=float(payload.get("solve_seconds", 0.0)),
            has_point=has_point,
        )


class SolveCache:
    """Sharded on-disk store of :class:`CacheEntry` objects, with the
    pair index and the proof sheets beside them.

    Safe to share between threads and processes: reads of a missing or
    half-written record are misses; writes go through a same-directory
    temp file and ``os.replace``.  No locks are held (instances are
    pickled into worker processes by the supervised runner).
    """

    def __init__(self, root: "str | os.PathLike[str]"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        #: durable-write failures (ENOSPC and kin) absorbed by the
        #: writes of entries, index records and sheets; each one
        #: degrades the record to a miss on the next run instead of
        #: crashing the sweep.
        self.write_failures = 0
        self.last_write_error: "str | None" = None

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key_for(model: CsrModel, options: dict) -> str:
        """SHA-256 over the canonical model bytes and solver options."""
        payload = model.canonical_text() + json.dumps(
            options, sort_keys=True, default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _index_path(self, pair_key: str) -> Path:
        return self.root / INDEX_DIR / pair_key[:2] / f"{pair_key}.json"

    def _proof_path(self, sheet_key: str) -> Path:
        return self.root / PROOF_DIR / sheet_key[:2] / f"{sheet_key}.json"

    # -- access -------------------------------------------------------------

    def get(
        self,
        model: "CsrModel | None",
        options: dict,
        key: "str | None" = None,
    ) -> "CacheEntry | None":
        """Look up a solve outcome.  ``key`` is an optional precomputed
        :meth:`key_for` result, so a caller that also writes the entry
        serializes the model once, not twice (and one that read the key
        from the pair index passes no model at all)."""
        if key is None:
            assert model is not None
            key = self.key_for(model, options)
        entry = self._load(self._path(key), self._read_entry)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    @staticmethod
    def _read_sealed(
        path: Path, version: int
    ) -> "tuple[dict | None, str | None]":
        """Parse one sealed record file; (payload, None) on success,
        (None, reason) on failure ("absent" = no file, not corruption)."""
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None, "absent"
        try:
            payload = json.loads(text)
        except ValueError:
            return None, "unparseable JSON (truncated or corrupted write)"
        if not isinstance(payload, dict):
            return None, "entry is not an object"
        if payload.get("v") != version:
            return None, f"unsupported entry version {payload.get('v')!r}"
        if not verify_seal(payload):
            return None, "checksum mismatch (content does not match its seal)"
        return payload, None

    @classmethod
    def _read_entry(cls, path: Path) -> "tuple[CacheEntry | None, str | None]":
        """Parse and validate one entry file (see :meth:`_read_sealed`)."""
        payload, reason = cls._read_sealed(path, ENTRY_VERSION)
        if payload is None:
            return None, reason
        try:
            return CacheEntry.from_dict(payload), None
        except _MALFORMED as exc:
            return None, f"malformed entry: {type(exc).__name__}: {exc}"

    @classmethod
    def _read_index(
        cls, path: Path
    ) -> "tuple[IndexRecord | None, str | None]":
        """Parse and validate one pair-index file: (record, None) on
        success, else (None, reason) as :meth:`_read_sealed`."""
        payload, reason = cls._read_sealed(path, INDEX_VERSION)
        if payload is None:
            return None, reason
        key, stats = payload.get("key"), payload.get("stats")
        if not (
            isinstance(key, str)
            and len(key) == 64
            and isinstance(stats, dict)
            and all(isinstance(v, int) for v in stats.values())
        ):
            return None, "malformed index entry"
        return IndexRecord(key, stats, payload.get("decoded")), None

    @classmethod
    def _read_proofs(cls, path: Path) -> "tuple[dict | None, str | None]":
        """Parse and validate one proof sheet: (proofs by the caller's
        keys, None) on success, else (None, reason) as
        :meth:`_read_sealed`."""
        payload, reason = cls._read_sealed(path, PROOF_VERSION)
        if payload is None:
            return None, reason
        proofs = payload.get("proofs")
        if not (
            isinstance(proofs, dict)
            and all(isinstance(proof, dict) for proof in proofs.values())
        ):
            return None, "malformed proof sheet"
        return proofs, None

    def _load(
        self,
        path: Path,
        read: "Callable[[Path], tuple[Any, str | None]]",
        decode: "Callable[[Any], Any] | None" = None,
    ) -> Any:
        """Read one record with ``read`` and hand it to ``decode``; a
        record either rejects is quarantined, and reads as a miss (None)
        as an absent one does."""
        record, reason = read(path)
        if record is not None and decode is not None:
            try:
                record = decode(record)
            except _MALFORMED as exc:
                record = None
                reason = f"rejected by its reader: {type(exc).__name__}: {exc}"
        if record is None and reason != "absent":
            assert reason is not None
            self._quarantine(path, reason)
        return record

    def quarantine(self, key: str, reason: str) -> None:
        """Move entry ``key`` aside: a caller found it wrong under a
        valid seal.  Pair-index entries pointing at it dangle, which
        reads as a miss, and the next solve of the model heals the
        slot and the index."""
        path = self._path(key)
        if path.exists():
            self._quarantine(path, reason)

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt record aside so it can never read as a hit;
        the next write of its key heals the slot.  Every move gets a
        name of its own (the record's kind, its key and a unique
        suffix), so quarantining one key twice keeps both copies, and
        each copy's sidecar note records why."""
        qdir = self.root / QUARANTINE_DIR
        kind = path.parent.parent
        prefix = path.stem + "."
        if kind != self.root:
            prefix = f"{kind.name}-{prefix}"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            fd, target = tempfile.mkstemp(dir=qdir, prefix=prefix, suffix=".json")
            os.close(fd)
        except OSError:
            return
        try:
            os.replace(path, target)
        except OSError:
            # A racing reader already moved it; counting is best-effort.
            try:
                os.unlink(target)
            except OSError:
                pass
            return
        self.quarantined += 1
        try:
            with open(target + ".reason", "w", encoding="utf-8") as fh:
                fh.write(reason + "\n")
        except OSError:
            pass

    def put(
        self,
        model: CsrModel,
        options: dict,
        solution: Solution,
        key: "str | None" = None,
    ) -> bool:
        """Persist a solve outcome; returns False for uncacheable ones.
        ``key`` is an optional precomputed :meth:`key_for` result.
        Only the nonzero values are stored (see :class:`CacheEntry`)."""
        if solution.status not in _CACHEABLE:
            return False
        names = model.var_names
        entry = CacheEntry(
            status=solution.status,
            objective=solution.objective,
            values_by_name={
                names[index]: value
                for index, value in solution.values.items()
                if value and 0 <= index < len(names)
            },
            best_bound=solution.best_bound,
            n_nodes=solution.n_nodes,
            solve_seconds=solution.solve_seconds,
            has_point=bool(solution.values),
        )
        path = self._path(key if key is not None else
                          self.key_for(model, options))
        return self._write_atomic(path, entry.to_dict())

    def get_indexed(
        self,
        pair_key: str,
        decode: "Callable[[Any], Any] | None" = None,
    ) -> "IndexRecord | None":
        """The pair index's record for ``pair_key``, or None.

        ``decode`` turns the record's stored decoded solution, when it
        has one, into the caller's form.  A corrupt record, or one
        whose decoded solution ``decode`` rejects (by raising KeyError,
        TypeError or ValueError), is quarantined and reads as a miss,
        as a corrupt entry does.
        """

        def decoded(record: IndexRecord) -> IndexRecord:
            if decode is None or record.decoded is None:
                return record
            return record._replace(decoded=decode(record.decoded))

        return self._load(self._index_path(pair_key), self._read_index, decoded)

    def put_indexed(
        self,
        pair_key: str,
        key: str,
        stats: "dict[str, int]",
        decoded: Any = None,
    ) -> bool:
        """Point ``pair_key`` at the entry ``key``, with the model's
        stats and the caller's decoded solution (JSON-serializable;
        None = none); False when the write failed."""
        record = seal_record({
            "v": INDEX_VERSION,
            "key": key,
            "stats": dict(stats),
            "decoded": decoded,
        })
        return self._write_atomic(self._index_path(pair_key), record)

    def get_proofs(
        self,
        sheet_key: str,
        decode: "Callable[[dict], Any] | None" = None,
    ) -> Any:
        """The proof sheet ``sheet_key`` (a dict of JSON objects by the
        caller's keys, or what ``decode`` makes of it), or None.  A
        corrupt sheet, or one ``decode`` rejects, is quarantined and
        reads as a miss."""
        return self._load(self._proof_path(sheet_key), self._read_proofs, decode)

    def put_proofs(self, sheet_key: str, proofs: "dict[str, dict]") -> bool:
        """Write the proof sheet ``sheet_key`` whole (JSON objects by
        the caller's keys); False when the write failed."""
        record = seal_record({"v": PROOF_VERSION, "proofs": proofs})
        return self._write_atomic(self._proof_path(sheet_key), record)

    def _write_atomic(self, path: Path, record: dict) -> bool:
        """Write one sealed record through a same-directory temp file
        and ``os.replace``: the one write path of entries, index
        records and sheets alike."""
        # Every step of the atomic write -- mkdir, temp-file creation,
        # the write itself, the rename -- can hit a full disk; all of
        # them degrade to "entry not cached" (the next run re-solves)
        # with the temp file cleaned up, never to a crash.
        # Imported lazily: repro.exec.runner imports this module, so a
        # top-level import of the fault injector would be circular.
        from repro.exec.faults import maybe_raise_disk_full

        tmp: "str | None" = None
        try:
            maybe_raise_disk_full(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            self.write_failures += 1
            self.last_write_error = f"{type(exc).__name__}: {exc}"
            return False
        return True

    # -- maintenance --------------------------------------------------------

    def _entry_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            f
            for f in self.root.glob("*/*.json")
            if f.parent.name != QUARANTINE_DIR
        )

    def _index_files(self) -> list[Path]:
        return sorted((self.root / INDEX_DIR).glob("*/*.json"))

    def _proof_files(self) -> list[Path]:
        return sorted((self.root / PROOF_DIR).glob("*/*.json"))

    def _quarantine_files(self) -> list[Path]:
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return []
        return sorted(qdir.glob("*.json"))

    def stats(self) -> dict:
        """Record counts and sizes: ``entries``/``bytes`` cover solve
        entries only, ``index_entries`` the pair index, ``proof_sheets``
        the proof sheets, and ``quarantined`` every record ever moved
        into quarantine."""
        files = self._entry_files()
        return {
            "root": str(self.root),
            "entries": len(files),
            "bytes": sum(f.stat().st_size for f in files),
            "index_entries": len(self._index_files()),
            "proof_sheets": len(self._proof_files()),
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": len(self._quarantine_files()),
        }

    def scan(self) -> dict:
        """Validate every entry, index record and proof sheet on disk,
        quarantining corrupt ones.

        Returns ``{"checked": n, "valid": n, "quarantined": [(name,
        reason), ...]}`` -- the integrity audit behind ``repro audit
        --solve-cache``.  Index records are named ``index/<file>`` and
        sheets ``proofs/<file>``.
        """
        quarantined: list[tuple[str, str]] = []
        checks: "list[tuple[Path, str, Callable[[Path], tuple[object, str | None]]]]"
        checks = [
            (path, path.name, self._read_entry) for path in self._entry_files()
        ]
        checks += [
            (path, f"{INDEX_DIR}/{path.name}", self._read_index)
            for path in self._index_files()
        ]
        checks += [
            (path, f"{PROOF_DIR}/{path.name}", self._read_proofs)
            for path in self._proof_files()
        ]
        for path, name, read in checks:
            record, reason = read(path)
            if record is None and reason not in (None, "absent"):
                assert reason is not None
                self._quarantine(path, reason)
                quarantined.append((name, reason))
        return {
            "checked": len(checks),
            "valid": len(checks) - len(quarantined),
            "quarantined": quarantined,
        }

    def evict(
        self,
        max_bytes: "int | None" = None,
        older_than_seconds: "float | None" = None,
        now: "float | None" = None,
    ) -> dict:
        """Bound the cache: LRU eviction by entry mtime.

        The shared cross-tenant tier grows without bound otherwise.
        Two independent criteria, either or both:

        - ``older_than_seconds``: drop entries not touched for that
          long (mtime is refreshed by :meth:`os.replace` on re-put, so
          it approximates last-write; an LRU by last *read* would cost
          a utime per hit, which the lock-free design avoids).
        - ``max_bytes``: after age-based eviction, drop oldest-first
          until the remaining live entries fit the budget.

        Quarantined entries are never touched -- they are evidence for
        the integrity audit, not cache capacity -- and never counted
        against ``max_bytes``.  Index records and sheets do not count
        either: one past the age criterion goes, and so does an index
        record pointing at an entry that is gone (a dangling one would
        only read as a miss).  Returns ``{"removed", "bytes_freed",
        "remaining_entries", "remaining_bytes", "index_removed",
        "sheets_removed"}``.
        """
        clock: float = time.time() if now is None else now

        def stale(f: Path) -> bool:
            return (
                older_than_seconds is not None
                and clock - f.stat().st_mtime > older_than_seconds
            )

        survivors: list[tuple[float, int, Path]] = []
        removed = 0
        bytes_freed = 0
        for f in self._entry_files():
            try:
                st = f.stat()
            except OSError:
                continue  # racing eviction/quarantine; nothing to do
            age = clock - st.st_mtime
            if older_than_seconds is not None and age > older_than_seconds:
                try:
                    f.unlink()
                except OSError:
                    continue
                removed += 1
                bytes_freed += st.st_size
            else:
                survivors.append((st.st_mtime, st.st_size, f))
        total = sum(size for _, size, _ in survivors)
        if max_bytes is not None and total > max_bytes:
            survivors.sort()  # oldest mtime first = least recently written
            while survivors and total > max_bytes:
                _, size, f = survivors.pop(0)
                try:
                    f.unlink()
                except OSError:
                    continue
                removed += 1
                bytes_freed += size
                total -= size
        index_removed = 0
        for f in self._index_files():
            indexed, _ = self._read_index(f)
            try:
                if stale(f) or (
                    indexed is not None and not self._path(indexed.key).exists()
                ):
                    f.unlink()
                    index_removed += 1
            except OSError:
                continue
        sheets_removed = 0
        for f in self._proof_files():
            try:
                if stale(f):
                    f.unlink()
                    sheets_removed += 1
            except OSError:
                continue
        return {
            "removed": removed,
            "bytes_freed": bytes_freed,
            "remaining_entries": len(survivors),
            "remaining_bytes": total,
            "index_removed": index_removed,
            "sheets_removed": sheets_removed,
        }

    def clear(self) -> int:
        """Delete every entry, index record and proof sheet; returns
        the number of entries removed."""
        files = self._entry_files()
        for f in files + self._index_files() + self._proof_files():
            try:
                f.unlink()
            except OSError:
                pass
        return len(files)
