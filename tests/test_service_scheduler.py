"""Tests for the experiment scheduler's load tiers.

Queue depth picks a tier when an experiment is scheduled: tier 0 runs
the experiment as submitted, and tier 1 (from ``BASELINE_AT_DEPTH``
pending experiments) imposes a tight sweep budget and marks the
experiment DEGRADED.
"""

import pytest

from repro.service import ExperimentState, ExperimentStore, resolve_payload
from repro.service.scheduler import Scheduler


def payload(time_limit):
    return {
        "synthetic": {"count": 1, "nx": 4, "ny": 5, "nz": 3, "nets": 2},
        "rules": ["RULE1", "RULE3"],
        "time_limit": time_limit,
    }


def queue(tmp_path, depth):
    """A store holding ``depth`` distinct QUEUED experiments."""
    store = ExperimentStore(tmp_path)
    for i in range(depth):
        store.submit(resolve_payload(payload(10.0 + i)))
    return store


class TestTiers:
    @pytest.mark.parametrize("depth, tier", [(3, 0), (4, 0), (7, 0), (8, 1)])
    def test_tier_follows_queue_depth(self, tmp_path, depth, tier):
        assert Scheduler(queue(tmp_path, depth))._tier() == tier

    @pytest.mark.parametrize(
        "depth, budget_per_pair, state",
        [
            (3, None, ExperimentState.RUNNING),
            (4, None, ExperimentState.RUNNING),
            (7, None, ExperimentState.RUNNING),
            (8, 5.0, ExperimentState.DEGRADED),
        ],
    )
    def test_tier_shapes_the_sweep(
        self, tmp_path, monkeypatch, depth, budget_per_pair, state
    ):
        import repro.eval.flow as flow

        handed = []
        evaluate = flow.evaluate_clips

        def spy(clips, rules, config, **kwargs):
            handed.append((config, experiment.state))
            return evaluate(clips, rules, config, **kwargs)

        monkeypatch.setattr(flow, "evaluate_clips", spy)
        store = queue(tmp_path, depth)
        scheduler = Scheduler(store)
        # One turn of the scheduler loop, run in this thread.
        tier = scheduler._tier()
        experiment = scheduler._pick_next()
        store.transition(experiment.id, ExperimentState.RUNNING)
        scheduler._run(experiment, tier)

        [(config, state_during_sweep)] = handed
        if budget_per_pair is None:
            assert config.time_budget is None
        else:
            assert config.time_budget == budget_per_pair * experiment.n_pairs
        assert state_during_sweep is state
        assert experiment.state is ExperimentState.DONE
        assert experiment.degraded is (state is ExperimentState.DEGRADED)
