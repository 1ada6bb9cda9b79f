"""Artifact integrity under random corruption (journal + solve cache).

The load-bearing property: a corrupted artifact may cost re-solves,
but it must never yield a record that differs from one the run
actually wrote.  Hypothesis drives random byte corruption and
truncation against sealed journals; whatever survives validation must
be byte-identical to an original record, and everything else must be
quarantined -- never a wrong resume.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.exec import CheckpointJournal, flip_bit, truncate_file
from repro.ilp import CooBuilder, solve_with_bnb
from repro.ilp.solve_cache import SolveCache
from repro.util.integrity import canonical_checksum, seal_record, verify_seal
from repro.verify import scan_cache, scan_journal


def sample_records(n=4):
    return [
        {
            "clip": f"clip_{i}", "rule": "RULE3", "status": "optimal",
            "cost": 10.0 + i, "wirelength": 6 + i, "n_vias": 1,
            "solve_seconds": 0.01, "certified": False,
        }
        for i in range(n)
    ]


class TestSeal:
    def test_seal_and_verify_round_trip(self):
        sealed = seal_record({"a": 1, "b": [1, 2]})
        assert verify_seal(sealed)
        assert canonical_checksum(sealed) == sealed["sha"]

    def test_any_content_change_breaks_seal(self):
        sealed = seal_record({"a": 1, "b": [1, 2]})
        tampered = {**sealed, "a": 2}
        assert not verify_seal(tampered)

    def test_key_order_is_irrelevant(self):
        sealed = seal_record({"a": 1, "z": 2})
        reordered = {"z": sealed["z"], "sha": sealed["sha"], "a": sealed["a"]}
        assert verify_seal(reordered)


class TestJournalCorruptionProperty:
    @given(
        byte_index=st.integers(min_value=0, max_value=10_000),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_flip_never_yields_a_wrong_record(
        self, tmp_path_factory, byte_index, bit
    ):
        tmp_path = tmp_path_factory.mktemp("flip")
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        originals = sample_records()
        for record in originals:
            journal.append(record)
        pristine_lines = set(path.read_text().splitlines())

        flip_bit(path, byte_index % path.stat().st_size, bit)
        loaded = journal.load()

        # Every surviving record is byte-identical to a written one.
        for record in loaded:
            assert json.dumps(record, sort_keys=True) in pristine_lines
        # Nothing was both kept and quarantined, and the journal now
        # re-loads clean (compaction healed the artifact).
        reloaded = journal.load()
        assert reloaded == loaded
        assert journal.quarantined == []

    @given(drop=st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_truncation_never_yields_a_wrong_record(
        self, tmp_path_factory, drop
    ):
        tmp_path = tmp_path_factory.mktemp("trunc")
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        originals = sample_records()
        for record in originals:
            journal.append(record)
        pristine_lines = path.read_text().splitlines()

        truncate_file(path, drop)
        loaded = journal.load()

        # A torn tail only ever costs the damaged suffix: the loaded
        # records are exactly an intact prefix of what was written.
        kept = [json.dumps(record, sort_keys=True) for record in loaded]
        assert kept == pristine_lines[: len(kept)]
        assert len(loaded) + len(journal.quarantined) <= len(originals)


class TestJournalScan:
    def test_scan_reports_and_heals(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        for record in sample_records(3):
            journal.append(record)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 2, "not": "sealed"}\n')
        report = scan_journal(path)
        assert report.checked == 4
        assert report.valid == 3
        assert report.quarantined == 1
        assert not report.ok
        assert "checksum" in report.details[0]
        # One-shot: the sidecar holds the evidence, the journal is clean.
        again = scan_journal(path)
        assert again.ok and again.checked == 3

    def test_scan_of_clean_journal_is_ok(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        for record in sample_records(2):
            journal.append(record)
        report = scan_journal(path)
        assert report.ok and report.valid == 2
        assert str(report).endswith("ok")


def tiny_model():
    builder = CooBuilder()
    x = builder.binary("x")
    y = builder.binary("y")
    builder.ge(x + y, 1)
    builder.minimize(2 * x + 3 * y + 1.0)
    return builder.freeze("tiny")


class TestCacheCorruption:
    def _populate(self, tmp_path):
        cache = SolveCache(tmp_path / "cache")
        model = tiny_model()
        solution = solve_with_bnb(model)
        assert cache.put(model, {}, solution)
        return cache, model

    def test_round_trip_before_corruption(self, tmp_path):
        cache, model = self._populate(tmp_path)
        entry = cache.get(model, {})
        assert entry is not None
        assert entry.best_bound == entry.objective

    def test_bit_flip_reads_as_miss_and_quarantines(self, tmp_path):
        cache, model = self._populate(tmp_path)
        (entry_file,) = cache._entry_files()
        flip_bit(entry_file, byte_index=-5)
        assert cache.get(model, {}) is None
        assert cache.quarantined == 1
        assert not entry_file.exists()
        assert cache.stats()["quarantined"] == 1
        # put() heals the slot; subsequent reads hit again.
        assert cache.put(model, {}, solve_with_bnb(model))
        assert cache.get(model, {}) is not None

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        cache, model = self._populate(tmp_path)
        (entry_file,) = cache._entry_files()
        truncate_file(entry_file, 10)
        assert cache.get(model, {}) is None
        assert cache.quarantined == 1

    def test_scan_cache_quarantines_and_reports(self, tmp_path):
        cache, model = self._populate(tmp_path)
        (entry_file,) = cache._entry_files()
        flip_bit(entry_file, byte_index=20)
        report = scan_cache(cache.root)
        assert report.checked == 1
        assert report.quarantined == 1
        assert not report.ok
        assert scan_cache(cache.root).ok  # one-shot

    def test_unsealed_v1_entry_is_not_trusted(self, tmp_path):
        cache, model = self._populate(tmp_path)
        (entry_file,) = cache._entry_files()
        payload = json.loads(entry_file.read_text())
        payload["v"] = 1
        del payload["sha"]
        entry_file.write_text(json.dumps(payload))
        assert cache.get(model, {}) is None
        assert cache.quarantined == 1
