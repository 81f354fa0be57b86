"""RAND-HILL: checkpointed multi-start hill-climbing (Section 4.3).

Exhaustive search is intractable for 4-thread machines, so the paper's
4-thread ideal runs the Figure 8 hill climber *with checkpointing*: every
trial restores machine state to the epoch-start checkpoint (zero overhead),
and when a pass reaches a peak a new pass starts from a random anchor.
The search for one epoch stops after ``budget`` total trials (128 in the
paper); the best partitioning found is then used to advance the machine.
"""

import random
from dataclasses import dataclass

from repro.core.controller import EpochResult
from repro.core.metrics import WeightedIPC
from repro.core.partition import clamp_shares, shift_shares
from repro.core.trials import TrialRunner
from repro.pipeline.checkpoint import Checkpoint


@dataclass
class RandHillEpoch:
    """One RAND-HILL epoch: best found + search statistics."""

    epoch_id: int
    best_shares: tuple
    best_value: float
    trials: int
    passes: int
    result: EpochResult


class RandHillLearner:
    """Multi-start hill-climbing over each epoch via checkpoints.

    Each climbing round's favoured shifts run as one trial batch through
    :attr:`trials` (``jobs`` worker processes, see
    :mod:`repro.core.trials`); the search itself stays in this process,
    so results do not depend on ``jobs``.
    """

    def __init__(self, proc, epoch_size, metric=None, single_ipcs=None,
                 delta=4, budget=128, seed=0, jobs=None):
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.proc = proc
        self.epoch_size = epoch_size
        self.metric = metric if metric is not None else WeightedIPC()
        self.single_ipcs = single_ipcs
        self.delta = delta
        self.budget = budget
        self.rng = random.Random(seed)  # repro: allow-nondeterminism[ND105] (seeded from the experiment config)
        self.epoch_id = 0
        self.epochs = []
        self._start_stats = proc.stats.copy()
        #: Runs the trial epochs; one pool serves a whole :meth:`run`.
        self.trials = TrialRunner(jobs)

    def _evaluate(self, committed, cycles):
        """Metric value of one trial's outcome."""
        ipcs = [count / max(cycles, 1) for count in committed]
        if self.metric.needs_single_ipc:
            return self.metric.value(ipcs, self.single_ipcs)
        return self.metric.value(ipcs)

    def _random_anchor(self, num_threads, total, minimum):
        raw = [self.rng.randrange(minimum, total) for __ in range(num_threads)]
        scale = total / max(1, sum(raw))
        return clamp_shares([share * scale for share in raw], total, minimum)

    def _search(self, checkpoint, num, total, minimum):
        """The ``budget``-trial multi-start climb over one epoch; returns
        (best shares, best value, trials used, passes)."""
        remaining = self.budget
        passes = 0
        best_shares = None
        best_value = None
        while remaining > 0:
            passes += 1
            anchor = self._random_anchor(num, total, minimum)
            previous_round_best = None
            while remaining > 0:
                # One batch per round: the favoured shifts depend only on
                # the anchor, never on each other's outcomes.
                batch = [shift_shares(anchor, favored, self.delta, total,
                                      minimum)
                         for favored in range(min(num, remaining))]
                outcomes = self.trials.run(checkpoint, batch, self.epoch_size)
                remaining -= len(batch)
                round_best_value = None
                round_best_thread = None
                for favored, (trial, outcome) in enumerate(zip(batch,
                                                               outcomes)):
                    value = self._evaluate(*outcome)
                    if best_value is None or value > best_value:
                        best_value = value
                        best_shares = tuple(trial)
                    if round_best_value is None or value > round_best_value:
                        round_best_value = value
                        round_best_thread = favored
                if previous_round_best is not None and \
                        round_best_value <= previous_round_best:
                    break  # peak reached: start a new pass
                previous_round_best = round_best_value
                anchor = shift_shares(anchor, round_best_thread, self.delta,
                                      total, minimum)
        return best_shares, best_value, self.budget - remaining, passes

    def run_epoch(self):
        """Search the current epoch with a ``budget``-trial multi-start hill
        climb, then advance with the best partitioning found."""
        proc = self.proc
        config = proc.config
        checkpoint = Checkpoint(proc)
        with self.trials:
            best_shares, best_value, trials, passes = self._search(
                checkpoint, proc.num_threads, config.rename_int,
                config.min_partition)

        self.proc = checkpoint.materialize()
        self.proc.partitions.set_shares(list(best_shares))
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
        epoch = RandHillEpoch(
            epoch_id=self.epoch_id,
            best_shares=best_shares,
            best_value=best_value,
            trials=trials,
            passes=passes,
            result=result,
        )
        self.epochs.append(epoch)
        self.epoch_id += 1
        return epoch

    def run(self, num_epochs):
        with self.trials:
            return [self.run_epoch() for __ in range(num_epochs)]

    def overall_ipcs(self):
        """Whole-run per-thread IPCs over the committed epochs."""
        committed, cycles = self.proc.stats.delta_since(self._start_stats)
        if cycles == 0:
            return [0.0] * self.proc.num_threads
        return [count / cycles for count in committed]
