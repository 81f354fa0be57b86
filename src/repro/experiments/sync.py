"""Checkpoint-synchronized time-varying comparisons (Figures 5 and 12).

Comparing per-epoch IPCs across policies is only meaningful if every
policy starts each epoch from the same machine state.  Following
Section 3.3, the OFF-LINE learner's per-epoch checkpoints are reused:
each comparison policy replays the epoch from the same checkpoint, then
the reference learner advances the real machine.
"""

from dataclasses import dataclass

from repro.core.controller import EpochController, EpochResult
from repro.core.metrics import WeightedIPC
from repro.core.offline import (
    OfflineEpoch,
    OfflineExhaustiveLearner,
    exhaustive_curve,
)
from repro.core.trials import TrialRunner
from repro.pipeline.checkpoint import Checkpoint
from repro.policies.static_partition import StaticPartitionPolicy


@dataclass
class SyncTimeline:
    """Per-epoch metric values, synchronized to common execution points."""

    workload: str
    #: {policy name: [metric value per epoch]}; includes "OFF-LINE".
    series: dict
    #: The OFF-LINE epochs (carrying the full per-epoch curves).
    offline_epochs: list
    #: For policy-referenced timelines: the policy's first-thread share per
    #: epoch (None entries when unpartitioned).
    policy_shares: list = None

    def epoch_win_rate(self, name, against="OFF-LINE"):
        """Fraction of epochs where ``against`` beats ``name`` — the
        paper's "OFF-LINE outperforms X in N% of epochs" statistic."""
        wins = sum(
            1 for mine, theirs in zip(self.series[name], self.series[against])
            if theirs > mine
        )
        return wins / max(1, len(self.series[name]))


def _epoch_metric(proc, epoch_size, metric, single_ipcs):
    before = proc.stats.copy()
    proc.run(epoch_size)
    committed, cycles = proc.stats.delta_since(before)
    ipcs = [count / max(cycles, 1) for count in committed]
    if metric.needs_single_ipc:
        return metric.value(ipcs, single_ipcs)
    return metric.value(ipcs)


def synchronized_timeline(workload, policy_factories, scale, metric=None,
                          single_ipcs=None, epochs=None, learner=None,
                          jobs=None):
    """Run OFF-LINE as the reference and replay each epoch under every
    comparison policy from the shared checkpoint.

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.mixes.Workload`.
    policy_factories:
        {name: factory} of policies to synchronize against OFF-LINE.
    scale:
        :class:`~repro.experiments.runner.ExperimentScale`.
    metric / single_ipcs:
        Metric for the per-epoch series (default weighted IPC, with solo
        IPCs computed on demand).
    learner:
        Optionally a pre-built learner (e.g. RAND-HILL) used as the
        reference in place of OFF-LINE; its own trial runner is used.
    jobs:
        Trial worker processes of the default OFF-LINE reference (see
        :mod:`repro.core.trials`).  One pool serves the whole call.
    """
    from repro.experiments.runner import make_processor, solo_ipcs as solo

    metric = metric or WeightedIPC()
    if single_ipcs is None and metric.needs_single_ipc:
        single_ipcs = solo(workload, scale)
    if learner is None:
        proc = make_processor(workload, StaticPartitionPolicy(), scale)
        learner = OfflineExhaustiveLearner(
            proc, scale.epoch_size, metric=metric,
            single_ipcs=single_ipcs, stride=scale.stride, jobs=jobs,
        )
    epochs = epochs if epochs is not None else scale.epochs
    series = {name: [] for name in policy_factories}
    series["OFF-LINE"] = []
    offline_epochs = []
    with learner.trials:
        for __ in range(epochs):
            checkpoint = Checkpoint(learner.proc)
            for name, factory in policy_factories.items():
                trial = checkpoint.materialize()
                policy = factory()
                trial.policy = policy
                policy.attach(trial)
                series[name].append(
                    _epoch_metric(trial, scale.epoch_size, metric,
                                  single_ipcs)
                )
            epoch = learner.run_epoch()
            offline_epochs.append(epoch)
            ipcs = epoch.result.ipcs
            if metric.needs_single_ipc:
                series["OFF-LINE"].append(metric.value(ipcs, single_ipcs))
            else:
                series["OFF-LINE"].append(metric.value(ipcs))
    return SyncTimeline(
        workload=workload.name,
        series=series,
        offline_epochs=offline_epochs,
    )


def policy_synchronized_timeline(workload, policy_factory, scale,
                                 metric=None, single_ipcs=None, epochs=None,
                                 policy_name="HILL", jobs=None):
    """Synchronize OFF-LINE *to a continuously running policy* (the
    Figure 12 methodology: "we synchronize OFF-LINE to HILL-WIPC").

    The policy's machine runs epoch after epoch, learning normally.  At
    every epoch boundary the machine is checkpointed and OFF-LINE's
    exhaustive sweep replays the upcoming epoch from that checkpoint —
    yielding, per epoch, both the policy's actual performance/partition
    and the full performance-vs-partitioning curve around it.

    Returns a :class:`SyncTimeline` whose ``offline_epochs`` carry the
    curves, plus a ``policy_shares`` list (the policy's first-thread share
    per epoch) stored on the timeline as an attribute.  The sweeps' trial
    epochs run on ``jobs`` worker processes (see
    :mod:`repro.core.trials`), one pool for the whole call.
    """
    from repro.experiments.runner import make_processor, solo_ipcs as solo

    metric = metric or WeightedIPC()
    if single_ipcs is None and metric.needs_single_ipc:
        single_ipcs = solo(workload, scale)
    proc = make_processor(workload, policy_factory(), scale)
    controller = EpochController(proc, epoch_size=scale.epoch_size)
    epochs = epochs if epochs is not None else scale.epochs
    series = {policy_name: [], "OFF-LINE": []}
    offline_epochs = []
    policy_shares = []
    with TrialRunner(jobs) as runner:
        for epoch_id in range(epochs):
            checkpoint = Checkpoint(controller.proc)
            curve, best_shares, best_value = exhaustive_curve(
                controller.proc, checkpoint, scale.epoch_size, metric,
                single_ipcs, scale.stride, runner=runner,
            )
            offline_epochs.append(OfflineEpoch(
                epoch_id=epoch_id,
                curve=curve,
                best_shares=best_shares,
                best_value=best_value,
                result=EpochResult(epoch_id=epoch_id, kind="normal",
                                   committed=[0] * proc.num_threads,
                                   cycles=1, shares=list(best_shares)),
            ))
            series["OFF-LINE"].append(best_value)
            shares = controller.proc.partitions.shares
            policy_shares.append(shares[0] if shares else None)
            result = controller.run_epoch()
            if metric.needs_single_ipc:
                series[policy_name].append(
                    metric.value(result.ipcs, single_ipcs))
            else:
                series[policy_name].append(metric.value(result.ipcs))
    return SyncTimeline(
        workload=workload.name,
        series=series,
        offline_epochs=offline_epochs,
        policy_shares=policy_shares,
    )
