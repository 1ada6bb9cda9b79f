"""Experiment scheduler: feeds the store's queue into the sweep fabric.

Worker threads (``n_workers``) pull QUEUED experiments and run each
through :func:`repro.eval.flow.evaluate_clips` -- the same supervised,
checkpointed, audited path the CLI uses, on ``sweep_procs`` lease
workers, which is what makes the service's reports byte-identical to
a sequential ``repro evaluate``.

**Ordering.**  Tenants are served round-robin (least recently served
first), so one tenant's backlog cannot starve another; within a
tenant, hardest-first by summed :func:`~repro.exec.portfolio.hardness`
(the paper's pin-cost difficulty proxy), so the most uncertain work
runs while the service is freshest.  Ordering never affects results
-- per-pair outcomes are deterministic -- only latency.

**Tiered degradation.**  Queue depth picks a service tier at the
moment an experiment is scheduled:

- tier 0: the experiment runs as submitted;
- tier 1 (:data:`BASELINE_AT_DEPTH`): a tight :class:`SweepBudget` is
  imposed, under which the sweep degrades from the exact backend to
  the heuristic baseline once the budget is nearly spent; the
  experiment is marked DEGRADED because budget-expired pairs carry no
  optimality guarantee.

**Crash / drain / cancel.**  Every experiment runs with
``resume=True`` against its own checkpoint journal, so a re-run after
SIGKILL re-solves only un-journaled pairs -- and a re-run of a
*complete* journal performs zero solves and just re-renders the
report.  A drain or cancel sets the experiment's stop event; the
sweep raises :class:`SweepInterrupted` *after* journaling the
in-flight pair (on lease workers, at the coordinator's next journal
poll, after reaping the workers), and the scheduler maps that to
QUEUED (drain -- resumes after restart) or CANCELLED (client asked).

**Chaos hook.**  ``chaos_kill_after=N`` SIGKILLs the *whole server
process* after the Nth journaled pair -- the acceptance scenario's
mid-sweep crash, placed right after a durable write so the test can
assert nothing journaled is ever lost.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass

from repro.exec.distributed import SweepInterrupted
from repro.service.experiments import Experiment, ExperimentState
from repro.service.store import ExperimentStore, TransitionError

#: Queue depth at which the sweep budget is imposed (tier 1).
BASELINE_AT_DEPTH = 8
#: Tier-1 budget: this many seconds per (clip, rule) pair.
BASELINE_SECONDS_PER_PAIR = 5.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler knobs."""

    #: concurrent experiments (threads; each runs one sweep).
    n_workers: int = 1
    #: lease-worker processes *inside* each sweep
    #: (``EvalConfig.n_procs``; 1 = one inline process).
    sweep_procs: int = 1
    #: shared content-addressed solve-cache directory (None disables).
    solve_cache_dir: "str | None" = None
    #: SIGKILL the server after this many journaled pairs (0 = off).
    chaos_kill_after: int = 0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.sweep_procs < 1:
            raise ValueError("sweep_procs must be >= 1")


class Scheduler:
    """Pulls experiments from the store and runs them to terminal."""

    def __init__(
        self, store: ExperimentStore, config: "SchedulerConfig | None" = None
    ):
        self.store = store
        self.config = config or SchedulerConfig()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._lock = threading.Lock()
        #: stop events of in-flight experiments, by id.
        self._active: dict[str, threading.Event] = {}
        #: tenants in order of last service (index 0 = longest ago).
        self._served: list[str] = []
        #: journaled pairs across all experiments (chaos trigger).
        self.pairs_journaled = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for i in range(self.config.n_workers):
            thread = threading.Thread(
                target=self._loop, name=f"sweep-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def wake(self) -> None:
        """Nudge idle workers (called on submission)."""
        self._wake.set()

    def drain(self, timeout: "float | None" = None) -> bool:
        """Graceful shutdown: stop pulling, checkpoint in-flight.

        In-flight sweeps get their stop event; each finishes (and
        journals) its current pair, then the scheduler requeues the
        experiment -- a restart resumes from exactly there.  Returns
        True when every worker thread exited within the timeout.
        """
        self._stop.set()
        self._wake.set()
        with self._lock:
            for event in self._active.values():
                event.set()
        ok = True
        for thread in self._threads:
            thread.join(timeout)
            ok = ok and not thread.is_alive()
        return ok

    def cancel(self, exp_id: str) -> Experiment:
        """Cancel an experiment: QUEUED dies now, RUNNING at its next
        journaled pair (nothing completed is discarded)."""
        experiment = self.store.get(exp_id)
        if experiment.state is ExperimentState.QUEUED:
            return self.store.transition(
                exp_id, ExperimentState.CANCELLED, "cancelled while queued"
            )
        with self._lock:
            event = self._active.get(exp_id)
            if event is not None:
                experiment.cancel_requested = True
                event.set()
                return experiment
        raise TransitionError(
            f"experiment {exp_id} is {experiment.state.value}; "
            "only QUEUED or in-flight experiments can be cancelled"
        )

    # -- scheduling ---------------------------------------------------------

    def _tier(self) -> int:
        depth = self.store.counts()["pending_total"]
        return 1 if depth >= BASELINE_AT_DEPTH else 0

    def _pick_next(self) -> "Experiment | None":
        queued = self.store.queued()
        if not queued:
            return None
        by_tenant: dict[str, list[Experiment]] = {}
        for experiment in queued:
            by_tenant.setdefault(experiment.tenant, []).append(experiment)

        def recency(tenant: str) -> "tuple[int, object]":
            # Never-served tenants first (name-stable), then least
            # recently served (smallest position in the rotation).
            try:
                return (1, self._served.index(tenant))
            except ValueError:
                return (0, tenant)

        with self._lock:
            tenant = min(by_tenant, key=recency)
            if tenant in self._served:
                self._served.remove(tenant)
            self._served.append(tenant)
        # Hardest-first within the tenant; ties to submission order.
        return max(
            by_tenant[tenant],
            key=lambda e: (e.resolved.hardness, -e.seq),
        )

    def _loop(self) -> None:
        while not self._stop.is_set():
            experiment = self._pick_next()
            if experiment is None:
                self._wake.wait(0.05)
                self._wake.clear()
                continue
            tier = self._tier()
            try:
                self.store.transition(
                    experiment.id,
                    ExperimentState.RUNNING,
                    f"scheduled at tier {tier}",
                )
            except (TransitionError, KeyError):
                continue  # another worker claimed it first
            self._run(experiment, tier)

    # -- execution ----------------------------------------------------------

    def _run(self, experiment: Experiment, tier: int) -> None:
        experiment.degrade_tier = tier
        stop = threading.Event()
        if self._stop.is_set():
            stop.set()
        with self._lock:
            self._active[experiment.id] = stop
        try:
            if tier >= 1:
                self.store.transition(
                    experiment.id,
                    ExperimentState.DEGRADED,
                    "overload: sweep budget imposed (tier 1)",
                    degraded=True,
                )
            study = self._evaluate(experiment, tier, stop)
        except SweepInterrupted:
            if experiment.cancel_requested:
                self.store.transition(
                    experiment.id,
                    ExperimentState.CANCELLED,
                    "cancelled mid-run; completed pairs retained",
                )
            else:
                self.store.transition(
                    experiment.id,
                    ExperimentState.QUEUED,
                    "checkpointed at drain; resumes on restart",
                )
            return
        except Exception as exc:  # noqa: BLE001 - terminal FAILED state
            try:
                self.store.transition(
                    experiment.id,
                    ExperimentState.FAILED,
                    f"{type(exc).__name__}: {exc}",
                )
            except TransitionError:
                pass
            return
        finally:
            with self._lock:
                self._active.pop(experiment.id, None)

        experiment.report = self._render(experiment, study)
        experiment.completed_pairs = experiment.n_pairs
        degraded_now = study.journal_write_failures > 0
        if degraded_now and experiment.state is ExperimentState.RUNNING:
            self.store.transition(
                experiment.id,
                ExperimentState.DEGRADED,
                f"{study.journal_write_failures} journal append(s) "
                "absorbed (disk failure); results correct, resume "
                "durability reduced",
                degraded=True,
            )
        try:
            self.store.transition(
                experiment.id,
                ExperimentState.DONE,
                "report ready",
            )
        except TransitionError:
            pass  # cancelled in the gap between sweep end and here

    def _evaluate(
        self, experiment: Experiment, tier: int, stop: threading.Event
    ):
        from repro.eval.flow import EvalConfig, evaluate_clips

        resolved = experiment.resolved
        time_budget = resolved.time_budget
        if tier >= 1:
            tight = BASELINE_SECONDS_PER_PAIR * experiment.n_pairs
            time_budget = (
                tight if time_budget is None else min(time_budget, tight)
            )
        config = EvalConfig(
            time_limit_per_clip=resolved.time_limit,
            solve_cache_dir=self.config.solve_cache_dir,
            n_procs=self.config.sweep_procs,
            time_budget=time_budget,
        )
        journal_path = self.store.journal_path(experiment.id)
        experiment.completed_pairs = self._journaled_pairs(journal_path)

        def on_outcome(_outcome) -> None:
            experiment.completed_pairs += 1
            self.pairs_journaled += 1
            if (
                self.config.chaos_kill_after > 0
                and self.pairs_journaled >= self.config.chaos_kill_after
            ):
                # The chaos scenario: die *hard*, right after a
                # durable journal append, with zero cleanup.
                os.kill(os.getpid(), signal.SIGKILL)

        return evaluate_clips(
            resolved.clips,
            resolved.rules,
            config,
            checkpoint_path=journal_path,
            resume=True,
            stop_event=stop,
            on_outcome=on_outcome,
        )

    def _journaled_pairs(self, journal_path) -> int:
        from repro.exec.checkpoint import CheckpointJournal, dedupe_results

        journal = CheckpointJournal(journal_path)
        if not journal.exists():
            return 0
        return len(dedupe_results(journal.read()))

    @staticmethod
    def _render(experiment: Experiment, study) -> str:
        """The service report: byte-identical to ``repro evaluate
        --no-audit`` stdout for the same payload (table + traces,
        one trailing newline each, exactly as ``print`` emits)."""
        from repro.eval.report import (
            format_delta_cost_table,
            format_sorted_traces,
        )

        tech = experiment.resolved.tech
        return (
            format_delta_cost_table(study, title=f"Δcost study ({tech})")
            + "\n"
            + format_sorted_traces(study)
            + "\n"
        )

    # -- reports ------------------------------------------------------------

    def report_for(self, exp_id: str) -> str:
        """The experiment's Δcost report, rebuilding if not cached.

        After a restart the in-memory report is gone but every pair
        is journaled: re-entering the sweep with ``resume=True``
        performs zero solves and deterministically re-renders the
        same bytes.  Only callable for terminal DONE experiments.
        """
        experiment = self.store.get(exp_id)
        if experiment.report is not None:
            return experiment.report
        if experiment.state is not ExperimentState.DONE:
            raise TransitionError(
                f"experiment {exp_id} is {experiment.state.value}; "
                "the report exists once it is DONE"
            )
        study = self._evaluate(experiment, tier=0, stop=threading.Event())
        experiment.report = self._render(experiment, study)
        return experiment.report
