"""The Figure 2 experiment: IPC as a function of the resource distribution
across three simultaneous threads.

The paper plots the IPC of mesa/vortex/fma3d over a 32K-cycle interval as
the fraction of resources given to each thread varies, showing the
hill-shaped sensitivity that motivates hill-climbing.  This module sweeps
a (share0, share1) grid — share2 takes the remainder — replaying the same
interval from a checkpoint for every grid point.
"""

from dataclasses import dataclass

from repro.core.trials import TrialRunner
from repro.pipeline.checkpoint import Checkpoint


@dataclass
class DistributionSurface:
    """The swept surface plus its peak."""

    share_axis: list      # grid values used for share0 and share1
    #: ipc[(share0, share1)] -> aggregate IPC (only feasible points).
    ipc: dict
    peak_shares: tuple    # (share0, share1, share2) at max IPC
    peak_ipc: float

    def rows(self):
        """Matrix view: list of (share0, [(share1, ipc) ...]) rows."""
        rows = []
        for share0 in self.share_axis:
            row = [
                (share1, self.ipc[(share0, share1)])
                for share1 in self.share_axis
                if (share0, share1) in self.ipc
            ]
            if row:
                rows.append((share0, row))
        return rows


def distribution_surface(proc, interval, step=None, jobs=None):
    """Sweep the 3-thread distribution space from the machine's current
    state.

    Parameters
    ----------
    proc:
        A 3-context :class:`~repro.pipeline.processor.SMTProcessor` (warm);
        its state is not modified.
    interval:
        Cycles to replay per grid point (the paper uses 32K).
    step:
        Grid step in integer rename registers.
    jobs:
        Trial worker processes (see :mod:`repro.core.trials`); ``None``
        uses the usable CPUs.  The surface does not depend on it.
    """
    if proc.num_threads != 3:
        raise ValueError("Figure 2 surface needs exactly 3 threads")
    config = proc.config
    total = config.rename_int
    minimum = config.min_partition
    step = step or max(4, total // 16)
    checkpoint = Checkpoint(proc)
    axis = list(range(minimum, total - 2 * minimum + 1, step))
    points = [(share0, share1, total - share0 - share1)
              for share0 in axis for share1 in axis
              if total - share0 - share1 >= minimum]
    with TrialRunner(jobs) as runner:
        outcomes = runner.run(checkpoint, points, interval)
    ipc = {}
    peak = None
    for shares, (committed, cycles) in zip(points, outcomes):
        value = sum(committed) / max(cycles, 1)
        ipc[shares[:2]] = value
        if peak is None or value > peak[1]:
            peak = (shares, value)
    return DistributionSurface(
        share_axis=axis,
        ipc=ipc,
        peak_shares=peak[0],
        peak_ipc=peak[1],
    )
