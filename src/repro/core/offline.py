"""OFF-LINE: the idealized exhaustive learning algorithm (Section 3.1).

At the start of each epoch the machine is checkpointed; the epoch is then
executed once for every candidate partitioning on a stride grid, the best
trial's partitioning is selected using performance feedback from the
*currently executing* epoch, and the machine advances with that
partitioning.  Only the best trial's execution time is charged — the
sampling cost of the other trials is free, which is what makes OFF-LINE an
upper bound rather than a realizable policy.

The paper sweeps every 2nd of 256 partitionings (127 trials/epoch); the
``stride`` parameter controls that here (tests use stride 2 on small
machines, benches use coarser strides — see EXPERIMENTS.md).

As a by-product, OFF-LINE records the full performance-vs-partitioning
curve of every epoch, which feeds the hill-width analysis (Figures 6/7)
and the gray-scale behaviour plots (Figure 12).
"""

from dataclasses import dataclass

from repro.core.controller import EpochResult
from repro.core.metrics import WeightedIPC
from repro.core.partition import share_grid
from repro.core.trials import TrialRunner
from repro.pipeline.checkpoint import Checkpoint


@dataclass
class OfflineEpoch:
    """One OFF-LINE epoch: the swept curve plus the committed result."""

    epoch_id: int
    #: List of (shares tuple, metric value, per-thread IPCs) per trial.
    curve: list
    best_shares: tuple
    best_value: float
    result: EpochResult

    def curve_over_first_share(self):
        """(first-thread share, value) pairs, sorted — the Figure 6 view."""
        points = [(shares[0], value) for shares, value, __ in self.curve]
        return sorted(points)


def exhaustive_curve(proc, checkpoint, epoch_size, metric, single_ipcs,
                     stride, jobs=None, runner=None):
    """Sweep every stride-grid partitioning of one epoch from a checkpoint.

    ``proc`` is the processor ``checkpoint`` was taken from; only its
    config and thread count are read.  The trials run through ``runner``
    (an open :class:`~repro.core.trials.TrialRunner` to reuse across
    epochs) or, without one, through a runner made from ``jobs`` for this
    call; the curve is the same for every job count.

    Returns (curve, best_shares, best_value) where ``curve`` is a list of
    (shares tuple, metric value, per-thread IPCs) in grid order, and the
    best is the first maximum.  Used by the OFF-LINE learner and by the
    synchronized comparisons that replay OFF-LINE's search from another
    policy's machine state (Figure 12).
    """
    config = proc.config
    grid = [tuple(shares) for shares in share_grid(
        proc.num_threads, config.rename_int, config.min_partition, stride)]
    if runner is None:
        runner = TrialRunner(jobs)
    with runner:
        outcomes = runner.run(checkpoint, grid, epoch_size)
    curve = []
    best_shares = None
    best_value = None
    for shares, (committed, cycles) in zip(grid, outcomes):
        ipcs = [count / max(cycles, 1) for count in committed]
        value = metric.value(ipcs, single_ipcs) if metric.needs_single_ipc \
            else metric.value(ipcs)
        curve.append((shares, value, ipcs))
        if best_value is None or value > best_value:
            best_value = value
            best_shares = shares
    return curve, best_shares, best_value


class OfflineExhaustiveLearner:
    """Checkpoint-replay exhaustive search, one epoch at a time.

    Parameters
    ----------
    proc:
        Processor whose policy respects the programmed partitions and uses
        ICOUNT fetch (e.g. a ``StaticPartitionPolicy``).
    epoch_size:
        Epoch length in cycles.
    metric:
        Selection metric (the paper uses weighted IPC for the limit study).
    single_ipcs:
        Stand-alone IPCs for the weighted metrics, known a priori off-line.
    stride:
        Grid stride over the integer-rename shares.
    jobs:
        Trial worker processes (see :mod:`repro.core.trials`); ``None``
        uses the usable CPUs.  Results do not depend on it.
    """

    def __init__(self, proc, epoch_size, metric=None, single_ipcs=None,
                 stride=16, jobs=None):
        self.proc = proc
        self.epoch_size = epoch_size
        self.metric = metric if metric is not None else WeightedIPC()
        self.single_ipcs = single_ipcs
        self.stride = stride
        self.epoch_id = 0
        self.epochs = []
        self._start_stats = proc.stats.copy()
        #: Runs the trial epochs; one pool serves a whole :meth:`run`.
        self.trials = TrialRunner(jobs)

    def run_epoch(self):
        """Exhaustively search this epoch, then advance with the winner."""
        checkpoint = Checkpoint(self.proc)
        curve, best_shares, best_value = exhaustive_curve(
            self.proc, checkpoint, self.epoch_size, self.metric,
            self.single_ipcs, self.stride, runner=self.trials,
        )
        # Advance the real machine under the best partitioning; only this
        # execution is charged.
        self.proc = checkpoint.materialize()
        self.proc.partitions.set_shares(best_shares)
        before = self.proc.stats.copy()
        self.proc.run(self.epoch_size)
        committed, cycles = self.proc.stats.delta_since(before)
        result = EpochResult(
            epoch_id=self.epoch_id,
            kind="normal",
            committed=committed,
            cycles=cycles,
            shares=list(best_shares),
        )
        epoch = OfflineEpoch(
            epoch_id=self.epoch_id,
            curve=curve,
            best_shares=best_shares,
            best_value=best_value,
            result=result,
        )
        self.epochs.append(epoch)
        self.epoch_id += 1
        return epoch

    def run(self, num_epochs):
        with self.trials:
            return [self.run_epoch() for __ in range(num_epochs)]

    def overall_ipcs(self):
        """Whole-run per-thread IPCs over the committed (charged) epochs."""
        committed, cycles = self.proc.stats.delta_since(self._start_stats)
        if cycles == 0:
            return [0.0] * self.proc.num_threads
        return [count / cycles for count in committed]
