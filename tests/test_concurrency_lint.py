"""Determinism/race lint: one positive and one negative case per rule,
allowlist semantics, and the committed tree's lint-cleanliness."""

import json
import textwrap

from repro.analysis.concurrency import (
    LintConfig,
    lint_concurrency,
    lint_source,
)

JOURNAL_PATH = "repro/exec/checkpoint.py"
PURE_PATH = "repro/exec/leases.py"
SERIAL_PATH = "repro/eval/report.py"
NEUTRAL_PATH = "repro/router/opt.py"


def _rules(findings):
    return sorted({f.rule for f in findings})


def _lint(source, path, config=None):
    return lint_source(textwrap.dedent(source), path, config)


# ---------------------------------------------------------------------------
# CONC001: unblessed journal writes
# ---------------------------------------------------------------------------


def test_conc001_flags_raw_write_open_in_journal_module():
    findings = _lint(
        """
        def sneaky(path, line):
            with open(path, "a") as fh:
                fh.write(line)
        """,
        JOURNAL_PATH,
    )
    assert _rules(findings) == ["CONC001"]
    assert findings[0].symbol == "sneaky"


def test_conc001_flags_write_text_and_replace():
    findings = _lint(
        """
        import os

        def clobber(path, tmp):
            path.write_text("")
            os.replace(tmp, path)
        """,
        JOURNAL_PATH,
    )
    assert [f.rule for f in findings] == ["CONC001", "CONC001"]


def test_conc001_blessed_sink_is_clean():
    config = LintConfig(
        blessed_sinks=(f"{JOURNAL_PATH}:Journal._append_locked",)
    )
    findings = _lint(
        """
        class Journal:
            def _append_locked(self, path, lines):
                with open(path, "a") as fh:
                    fh.write("".join(lines))
        """,
        JOURNAL_PATH,
        config,
    )
    assert findings == []


def test_conc001_read_open_and_non_journal_module_are_clean():
    source = """
    def peek(path):
        with open(path) as fh:
            return fh.read()
    """
    assert _lint(source, JOURNAL_PATH) == []
    write_source = """
    def dump(path):
        with open(path, "w") as fh:
            fh.write("x")
    """
    assert _lint(write_source, NEUTRAL_PATH) == []


# ---------------------------------------------------------------------------
# CONC002: wall clock / randomness in pure modules
# ---------------------------------------------------------------------------


def test_conc002_flags_wall_clock_and_randomness():
    findings = _lint(
        """
        import random
        import time
        from datetime import datetime

        def replay(records):
            stamp = time.time()
            when = datetime.now()
            jitter = random.random()
            return stamp, when, jitter
        """,
        PURE_PATH,
    )
    assert [f.rule for f in findings] == ["CONC002"] * 3


def test_conc002_injected_clock_default_is_clean():
    # ``clock=time.time`` as a default is a reference, not a call: the
    # blessed injection pattern stays clean.
    findings = _lint(
        """
        import time

        def make_manager(clock=time.time):
            return clock
        """,
        PURE_PATH,
    )
    assert findings == []


def test_conc002_ignores_impure_modules():
    source = """
    import time

    def now():
        return time.time()
    """
    assert _lint(source, NEUTRAL_PATH) == []


# ---------------------------------------------------------------------------
# CONC003: unordered iteration / unsorted serialization
# ---------------------------------------------------------------------------


def test_conc003_flags_set_iteration_anywhere():
    findings = _lint(
        """
        def total(edges):
            acc = 0.0
            for edge in set(edges):
                acc += edge.cost
            return acc
        """,
        NEUTRAL_PATH,
    )
    assert _rules(findings) == ["CONC003"]


def test_conc003_sorted_set_iteration_is_clean():
    findings = _lint(
        """
        def total(edges):
            acc = 0.0
            for edge in sorted(set(edges)):
                acc += edge.cost
            return acc
        """,
        NEUTRAL_PATH,
    )
    assert findings == []


def test_conc003_flags_unsorted_json_in_serializing_module():
    source = """
    import json

    def render(payload):
        return json.dumps(payload, indent=2)
    """
    assert _rules(_lint(source, SERIAL_PATH)) == ["CONC003"]
    fixed = """
    import json

    def render(payload):
        return json.dumps(payload, indent=2, sort_keys=True)
    """
    assert _lint(fixed, SERIAL_PATH) == []
    # Outside the serializing scope the same call is fine.
    assert _lint(source, NEUTRAL_PATH) == []


def test_conc003_flags_join_over_set():
    findings = _lint(
        """
        def label(names):
            return ",".join({n.lower() for n in names})
        """,
        NEUTRAL_PATH,
    )
    assert _rules(findings) == ["CONC003"]


# ---------------------------------------------------------------------------
# CONC004: fork-unsafe module-level state
# ---------------------------------------------------------------------------


def test_conc004_flags_module_level_handles():
    findings = _lint(
        """
        import threading

        LOCK = threading.Lock()
        LOG = open("/tmp/log", "a")
        """,
        NEUTRAL_PATH,
    )
    assert [f.rule for f in findings] == ["CONC004", "CONC004"]
    assert all(f.symbol == "<module>" for f in findings)


def test_conc004_function_local_state_is_clean():
    findings = _lint(
        """
        import threading

        def make_lock():
            return threading.Lock()
        """,
        NEUTRAL_PATH,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# CONC005: non-reentrant signal handlers
# ---------------------------------------------------------------------------


def test_conc005_flags_journal_write_in_handler():
    findings = _lint(
        """
        import signal

        def handler(signum, frame):
            journal.append({"event": "stop"})
            lock.acquire()

        signal.signal(signal.SIGTERM, handler)
        """,
        NEUTRAL_PATH,
    )
    assert [f.rule for f in findings] == ["CONC005", "CONC005"]


def test_conc005_flag_only_handlers_and_allow_flag_setting():
    findings = _lint(
        """
        import signal

        def handler(signum, frame):
            STOP.set()

        def not_a_handler():
            lock.acquire()

        signal.signal(signal.SIGTERM, handler)
        """,
        NEUTRAL_PATH,
    )
    assert findings == []


def test_conc005_inspects_lambda_handlers():
    findings = _lint(
        """
        import signal

        signal.signal(signal.SIGTERM, lambda s, f: fh.flush())
        """,
        NEUTRAL_PATH,
    )
    assert _rules(findings) == ["CONC005"]


# ---------------------------------------------------------------------------
# Allowlist semantics
# ---------------------------------------------------------------------------


def test_allowlist_downgrades_finding_with_justification():
    config = LintConfig(
        allow=(
            f"CONC002:{PURE_PATH}:stamp -- timing metadata only",
        )
    )
    findings = _lint(
        """
        import time

        def stamp():
            return time.time()
        """,
        PURE_PATH,
        config,
    )
    assert len(findings) == 1
    assert findings[0].allowlisted
    assert findings[0].justification == "timing metadata only"


def test_allowlist_is_scoped_to_rule_path_and_symbol():
    config = LintConfig(
        allow=(f"CONC002:{PURE_PATH}:other -- elsewhere",)
    )
    findings = _lint(
        """
        import time

        def stamp():
            return time.time()
        """,
        PURE_PATH,
        config,
    )
    assert not findings[0].allowlisted


def test_allowlist_wildcard_symbol():
    config = LintConfig(allow=(f"CONC002:{PURE_PATH} -- whole module",))
    findings = _lint(
        """
        import time

        def stamp():
            return time.time()
        """,
        PURE_PATH,
        config,
    )
    assert findings[0].allowlisted


def test_stale_allowlist_entry_is_an_unexcusable_error():
    # An entry naming a module that no longer exists matches nothing;
    # so does an entry trying to excuse the resulting CONC006 itself.
    missing = "CONC002:repro/analysis/gone.py:solve -- module deleted"
    excuse = "CONC006:repro/analysis/gone.py -- hides the stale entry"
    report = lint_concurrency(config=LintConfig(allow=(missing, excuse)))
    stale = [f for f in report.findings if f.rule == "CONC006"]
    assert [f.message for f in stale] == [
        "allowlist entry matches no finding: "
        "CONC002:repro/analysis/gone.py:solve",
        "allowlist entry matches no finding: "
        "CONC006:repro/analysis/gone.py",
    ]
    assert all(f in report.errors for f in stale)


# ---------------------------------------------------------------------------
# The committed tree and report determinism
# ---------------------------------------------------------------------------


def test_committed_tree_is_lint_clean():
    """Acceptance criterion: zero non-allowlisted findings on the tree,
    and every allowlist hit carries its inline justification."""
    report = lint_concurrency()
    assert report.errors == [], [str(f) for f in report.errors]
    for finding in report.findings:
        assert finding.allowlisted
        assert finding.justification, str(finding)


def test_report_is_byte_deterministic():
    first = json.dumps(lint_concurrency().to_dict(), sort_keys=True)
    second = json.dumps(lint_concurrency().to_dict(), sort_keys=True)
    assert first == second


def test_findings_sorted_by_location():
    report = lint_concurrency()
    keys = [f.sort_key() for f in report.findings]
    assert keys == sorted(keys)
