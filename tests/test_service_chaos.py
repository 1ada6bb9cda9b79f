"""The service's acceptance chaos scenario, end to end, out of process.

One module-scoped fixture drives the whole cycle against real
``repro serve`` subprocesses:

1. start the server with ``--chaos-kill-after 2`` and submit a
   six-pair experiment over HTTP; the server SIGKILLs itself right
   after the second durable journal append (mid-sweep, zero cleanup);
2. restart the server on the same data directory: WAL recovery
   requeues the experiment, the sweep resumes from its pair journal,
   and it reaches DONE;
3. the served report is byte-identical to a sequential
   ``repro evaluate`` of the same payload in a fresh process;
4. a second tenant submits the identical payload: a distinct
   experiment, served almost entirely from the shared solve cache,
   with every result audit-certified;
5. SIGTERM drains the server gracefully: exit code 0.

A second fixture runs the kill, restart and drain with ``--procs 2``,
each sweep on two lease workers, and checks that no process outlives
the cycle.  The individual tests below just assert over the captured
artifacts.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: Omitting "rules" selects the tech's default rule set -- the same
#: six N7-9T rules a default ``repro evaluate`` sweeps, so the CLI
#: baseline below is exactly this payload.
PAYLOAD = {
    "synthetic": {"count": 1, "nx": 4, "ny": 5, "nz": 3, "nets": 2},
    "time_limit": 10.0,
}

BASELINE_CLI = [
    "evaluate", "--clips", "1", "--nx", "4", "--ny", "5", "--nz", "3",
    "--nets", "2", "--time-limit", "10", "--no-audit",
]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _start_server(data_dir, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--data-dir", str(data_dir), "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
        cwd=REPO,
    )
    port = None
    for line in proc.stdout:
        if line.startswith("repro-serve listening on"):
            port = int(line.rsplit(":", 1)[1])
            break
    if port is None:
        raise RuntimeError(
            f"server died before listening (rc={proc.poll()})"
        )
    return proc, port


def _request(port, method, path, body=None, headers=None, timeout=60):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


def _wait_terminal(port, exp_id, timeout=280.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, raw = _request(port, "GET", f"/v1/experiments/{exp_id}")
        doc = json.loads(raw)
        if doc["state"] in ("DONE", "FAILED", "CANCELLED"):
            return doc
        time.sleep(0.3)
    raise TimeoutError(f"experiment {exp_id} did not terminate")


def _processes_naming(path):
    """PIDs of live processes whose command line names ``path`` (lease
    workers are forks of the server, so they carry its command line);
    None where ``/proc`` is not available."""
    proc = Path("/proc")
    if not proc.is_dir():
        return None
    needle = str(path).encode()
    pids = []
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # exited while we looked
        if needle in cmdline:
            pids.append(int(entry.name))
    return pids


@pytest.fixture(scope="module")
def baseline_stdout():
    """The sequential baseline: one CLI sweep in a fresh process."""
    baseline = subprocess.run(
        [sys.executable, "-m", "repro.cli", *BASELINE_CLI],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=REPO,
        timeout=280,
        check=True,
    )
    return baseline.stdout


@pytest.fixture(scope="module")
def chaos(tmp_path_factory, baseline_stdout):
    root = tmp_path_factory.mktemp("chaos")
    data = root / "data"
    captured = {}

    # -- phase 1: SIGKILL mid-sweep, right after a durable append ----------
    proc, port = _start_server(data, "--chaos-kill-after", "2")
    status, raw = _request(port, "POST", "/v1/experiments", body=PAYLOAD)
    assert status == 201, raw
    exp_id = json.loads(raw)["id"]
    captured["exp_id"] = exp_id
    captured["kill_rc"] = proc.wait(timeout=280)
    proc.stdout.close()

    journal = data / "experiments" / exp_id / "journal.jsonl"
    captured["pairs_at_crash"] = (
        len(journal.read_text().splitlines()) if journal.exists() else 0
    )

    # -- phase 2: restart, recover, resume to DONE -------------------------
    proc2, port2 = _start_server(data)
    try:
        captured["final"] = _wait_terminal(port2, exp_id)
        status, report = _request(
            port2, "GET", f"/v1/experiments/{exp_id}/report"
        )
        assert status == 200, report
        captured["report"] = report

        # -- phase 4: second tenant, same payload, shared cache ------------
        status, raw = _request(
            port2, "POST", "/v1/experiments", body=PAYLOAD,
            headers={"X-Tenant": "bravo"},
        )
        assert status == 201, raw
        bravo_id = json.loads(raw)["id"]
        captured["bravo_id"] = bravo_id
        captured["bravo_final"] = _wait_terminal(port2, bravo_id)
        _, ndjson = _request(
            port2, "GET", f"/v1/experiments/{bravo_id}/results"
        )
        captured["bravo_results"] = [
            json.loads(line) for line in ndjson.decode().splitlines()
        ]
        _, stats_raw = _request(port2, "GET", "/v1/stats")
        captured["stats"] = json.loads(stats_raw)
    finally:
        # -- phase 5: graceful drain ---------------------------------------
        proc2.send_signal(signal.SIGTERM)
        captured["drain_rc"] = proc2.wait(timeout=120)
        captured["drain_log"] = proc2.stdout.read()
        proc2.stdout.close()

    # -- phase 3: the sequential baseline, in a fresh process --------------
    captured["baseline_stdout"] = baseline_stdout
    return captured


@pytest.fixture(scope="module")
def procs_chaos(tmp_path_factory, baseline_stdout):
    """The kill/restart/drain cycle with two lease workers per sweep."""
    data = tmp_path_factory.mktemp("procs-chaos") / "data"
    captured = {"baseline_stdout": baseline_stdout}

    # The coordinator reports pairs as its journal polls see them, so
    # the server still dies right after its second reported pair; its
    # orphaned workers finish their group and exit on their own.
    proc, port = _start_server(
        data, "--procs", "2", "--chaos-kill-after", "2"
    )
    status, raw = _request(port, "POST", "/v1/experiments", body=PAYLOAD)
    assert status == 201, raw
    exp_id = json.loads(raw)["id"]
    captured["kill_rc"] = proc.wait(timeout=280)
    proc.stdout.close()

    proc2, port2 = _start_server(data, "--procs", "2")
    try:
        captured["final"] = _wait_terminal(port2, exp_id)
        status, report = _request(
            port2, "GET", f"/v1/experiments/{exp_id}/report"
        )
        assert status == 200, report
        captured["report"] = report
    finally:
        proc2.send_signal(signal.SIGTERM)
        captured["drain_rc"] = proc2.wait(timeout=120)
        captured["drain_log"] = proc2.stdout.read()
        proc2.stdout.close()

    from repro.exec import CheckpointJournal, record_kind

    journal = CheckpointJournal(data / "experiments" / exp_id / "journal.jsonl")
    captured["journal_kinds"] = [record_kind(r) for r in journal.read()]

    deadline = time.monotonic() + 60.0
    left = _processes_naming(data)
    while left and time.monotonic() < deadline:
        time.sleep(0.5)
        left = _processes_naming(data)
    captured["left_behind"] = left
    return captured


class TestChaosCycle:
    def test_server_sigkilled_itself_mid_sweep(self, chaos):
        assert chaos["kill_rc"] == -signal.SIGKILL
        # The kill fired right after the second durable append: the
        # journal holds exactly the two pairs that were acknowledged.
        assert chaos["pairs_at_crash"] == 2

    def test_recovery_resumes_to_done(self, chaos):
        final = chaos["final"]
        assert final["state"] == "DONE"
        assert final["completed_pairs"] == final["n_pairs"] == 6
        # Recovery is visible in the stats the restarted server serves.
        assert chaos["stats"]["recovery"]["requeued"] == 1

    def test_report_byte_identical_to_sequential_run(self, chaos):
        # The crash, restart, and resume must leave no trace in the
        # Δcost report: same bytes as one sequential CLI sweep.
        assert chaos["report"].decode("utf-8") == chaos["baseline_stdout"]

    def test_second_tenant_is_distinct_but_shares_the_cache(self, chaos):
        assert chaos["bravo_id"] != chaos["exp_id"]
        assert chaos["bravo_final"]["state"] == "DONE"
        results = chaos["bravo_results"]
        assert len(results) == 6
        for record in results:
            # No backend solve: either a shared-cache hit or a pair
            # the restriction prover discharged without solving.
            assert record["cache_hit"] or record["restriction_certified"]
            # And the shared result was independently re-certified.
            assert record["audited"] is True
            assert record["audit_ok"] is True
        assert any(record["cache_hit"] for record in results)

    def test_graceful_drain_exits_zero(self, chaos):
        assert chaos["drain_rc"] == 0
        assert "drain complete" in chaos["drain_log"]


class TestLeaseWorkerCycle:
    def test_server_sigkilled_itself_mid_sweep(self, procs_chaos):
        assert procs_chaos["kill_rc"] == -signal.SIGKILL

    def test_sweep_ran_on_lease_workers(self, procs_chaos):
        # Workers claim the clip's group with lease records in the
        # experiment's journal; an inline sweep writes none.
        assert "lease" in procs_chaos["journal_kinds"]
        assert procs_chaos["journal_kinds"].count("result") >= 6

    def test_recovery_resumes_to_done(self, procs_chaos):
        final = procs_chaos["final"]
        assert final["state"] == "DONE"
        assert final["completed_pairs"] == final["n_pairs"] == 6

    def test_report_byte_identical_to_sequential_run(self, procs_chaos):
        assert (
            procs_chaos["report"].decode("utf-8")
            == procs_chaos["baseline_stdout"]
        )

    def test_graceful_drain_exits_zero(self, procs_chaos):
        assert procs_chaos["drain_rc"] == 0
        assert "drain complete" in procs_chaos["drain_log"]

    def test_no_process_outlives_the_cycle(self, procs_chaos):
        if procs_chaos["left_behind"] is None:
            pytest.skip("no /proc to list processes")
        assert procs_chaos["left_behind"] == []
