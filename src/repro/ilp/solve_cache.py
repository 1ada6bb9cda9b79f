"""Content-addressed persistent cache of MILP solve outcomes.

A solve is pure: the same model under the same solver options always
admits the same status and optimal objective.  Keying on the SHA-256
of the insertion-order-invariant serialization
(:func:`repro.ilp.lp_format.write_lp_canonical`) plus the canonical
JSON of the solver options therefore lets repeated and resumed sweeps
skip identical solves entirely -- a second ``repro evaluate
--solve-cache`` run over an unchanged clip set performs zero backend
solves.

Entries store the status, objective, and solution values **by
variable name** (indices are an insertion-order artifact; names are
what the canonical key is built from), plus the original solve
accounting so a cache hit reproduces the journaled record of the run
that populated it.  Writes are atomic (temp file + rename).

Every entry is *sealed* with a SHA-256 checksum of its canonical JSON
form (:mod:`repro.util.integrity`).  A malformed, version-mismatched,
or checksum-failing entry is moved into a ``quarantine/`` subdirectory
and reads as a miss, so a corrupted, shared, or interrupted cache
degrades to extra solves -- never to wrong results -- and the re-solve
that follows heals the entry in place.

Statuses cached: OPTIMAL, INFEASIBLE, and LIMIT (the time limit is
part of the key, so a LIMIT outcome is only replayed for the same
budget).  ERROR outcomes are never cached -- crashes are environment,
not model, properties.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.ilp.csr import CsrModel
from repro.ilp.lp_format import write_lp_canonical
from repro.ilp.model import Model
from repro.ilp.status import Solution, SolveStatus
from repro.util.integrity import seal_record, verify_seal


def _canonical_text(model: "Model | CsrModel") -> str:
    """Canonical LP text of either representation.  The two are
    byte-for-byte identical on equivalent models (a property-tested
    invariant of :meth:`CsrModel.canonical_text`), so cache keys are
    oblivious to which representation produced them."""
    if isinstance(model, CsrModel):
        return model.canonical_text()
    return write_lp_canonical(model)


def _names_by_index(model: "Model | CsrModel") -> dict[int, str]:
    if isinstance(model, CsrModel):
        return dict(enumerate(model.var_names))
    return {v.index: v.name for v in model.variables}

#: v2 added the per-entry integrity seal; unsealed v1 entries read as
#: misses (the re-solve rewrites them sealed).
ENTRY_VERSION = 2

#: Subdirectory corrupt entries are moved into (never read as hits).
QUARANTINE_DIR = "quarantine"

#: Outcomes worth persisting (see module docstring).
_CACHEABLE = (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.LIMIT)


@dataclass
class CacheEntry:
    """One cached solve outcome, in model-independent (name-keyed) form."""

    status: SolveStatus
    objective: float | None = None
    values_by_name: dict[str, float] = field(default_factory=dict)
    best_bound: float | None = None
    n_nodes: int = 0
    solve_seconds: float = 0.0

    def to_solution(self, model: "Model | CsrModel") -> Solution:
        """Remap name-keyed values onto this model's variable indices."""
        if isinstance(model, CsrModel):
            by_name = model.name_to_index
        else:
            by_name = {v.name: v.index for v in model.variables}
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
        })

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheEntry":
        return cls(
            status=SolveStatus(payload["status"]),
            objective=payload["objective"],
            values_by_name=dict(payload["values"]),
            best_bound=payload.get("best_bound"),
            n_nodes=int(payload.get("n_nodes", 0)),
            solve_seconds=float(payload.get("solve_seconds", 0.0)),
        )


class SolveCache:
    """Sharded on-disk store of :class:`CacheEntry` objects.

    Safe to share between threads and processes: reads of a missing or
    half-written entry are misses; writes go through a same-directory
    temp file and ``os.replace``.  No locks are held (instances are
    pickled into worker processes by the supervised runner).
    """

    def __init__(self, root: "str | os.PathLike[str]"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        #: durable-write failures (ENOSPC and kin) absorbed by put();
        #: each one degrades the entry to a miss on the next run
        #: instead of crashing the sweep.
        self.write_failures = 0
        self.last_write_error: "str | None" = None

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key_for(model: "Model | CsrModel", options: dict) -> str:
        """SHA-256 over the canonical model bytes and solver options."""
        payload = _canonical_text(model) + json.dumps(
            options, sort_keys=True, default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- access -------------------------------------------------------------

    def get(
        self,
        model: "Model | CsrModel",
        options: dict,
        key: "str | None" = None,
    ) -> "CacheEntry | None":
        """Look up a solve outcome.  ``key`` is an optional precomputed
        :meth:`key_for` result, so a caller that also writes the entry
        serializes the model once, not twice."""
        path = self._path(key if key is not None else
                          self.key_for(model, options))
        entry, reason = self._read_entry(path)
        if entry is None:
            if reason is not None and reason != "absent":
                self._quarantine(path, reason)
            self.misses += 1
            return None
        self.hits += 1
        return entry

    @staticmethod
    def _read_entry(path: Path) -> "tuple[CacheEntry | None, str | None]":
        """Parse and validate one entry file; (entry, None) on success,
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
        if payload.get("v") != ENTRY_VERSION:
            return None, f"unsupported entry version {payload.get('v')!r}"
        if not verify_seal(payload):
            return None, "checksum mismatch (content does not match its seal)"
        try:
            return CacheEntry.from_dict(payload), None
        except (ValueError, KeyError, TypeError) as exc:
            return None, f"malformed entry: {type(exc).__name__}: {exc}"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside so it can never read as a hit;
        the next put() of the same key heals the slot with a fresh
        solve.  The sidecar note records why."""
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
            with open(
                qdir / (path.name + ".reason"), "w", encoding="utf-8"
            ) as fh:
                fh.write(reason + "\n")
        except OSError:
            return  # racing reader already moved it; counting is best-effort
        self.quarantined += 1

    def put(
        self,
        model: "Model | CsrModel",
        options: dict,
        solution: Solution,
        key: "str | None" = None,
    ) -> bool:
        """Persist a solve outcome; returns False for uncacheable ones.
        ``key`` is an optional precomputed :meth:`key_for` result."""
        if solution.status not in _CACHEABLE:
            return False
        by_index = _names_by_index(model)
        entry = CacheEntry(
            status=solution.status,
            objective=solution.objective,
            values_by_name={
                by_index[index]: value
                for index, value in solution.values.items()
                if index in by_index
            },
            best_bound=solution.best_bound,
            n_nodes=solution.n_nodes,
            solve_seconds=solution.solve_seconds,
        )
        path = self._path(key if key is not None else
                          self.key_for(model, options))
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
                json.dump(entry.to_dict(), fh, sort_keys=True)
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

    def _quarantine_files(self) -> list[Path]:
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return []
        return sorted(qdir.glob("*.json"))

    def stats(self) -> dict:
        files = self._entry_files()
        return {
            "root": str(self.root),
            "entries": len(files),
            "bytes": sum(f.stat().st_size for f in files),
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": len(self._quarantine_files()),
        }

    def scan(self) -> dict:
        """Validate every entry on disk, quarantining corrupt ones.

        Returns ``{"checked": n, "valid": n, "quarantined": [(name,
        reason), ...]}`` -- the integrity audit behind ``repro audit
        --solve-cache``.
        """
        quarantined: list[tuple[str, str]] = []
        files = self._entry_files()
        for path in files:
            entry, reason = self._read_entry(path)
            if entry is None and reason not in (None, "absent"):
                assert reason is not None
                self._quarantine(path, reason)
                quarantined.append((path.name, reason))
        return {
            "checked": len(files),
            "valid": len(files) - len(quarantined),
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
        against ``max_bytes``.  Returns ``{"removed", "bytes_freed",
        "remaining_entries", "remaining_bytes"}``.
        """
        if now is None:
            now = time.time()
        survivors: list[tuple[float, int, Path]] = []
        removed = 0
        bytes_freed = 0
        for f in self._entry_files():
            try:
                st = f.stat()
            except OSError:
                continue  # racing eviction/quarantine; nothing to do
            age = now - st.st_mtime
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
        return {
            "removed": removed,
            "bytes_freed": bytes_freed,
            "remaining_entries": len(survivors),
            "remaining_bytes": total,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        files = self._entry_files()
        for f in files:
            try:
                f.unlink()
            except OSError:
                pass
        return len(files)
