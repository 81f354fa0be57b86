"""Trial epochs replayed from one checkpoint, in-process or in parallel.

OFF-LINE, RAND-HILL and the Figure 2 surface replay one interval from a
checkpoint once per candidate partitioning.  A trial depends only on the
checkpoint, its shares and the cycle count, so a batch of trials can run
in any process: :class:`TrialRunner` materializes the checkpoint,
programs the shares, runs the cycles and returns ``(committed, cycles)``
per share vector, in the order the vectors were given.  Callers keep
every decision — metric evaluation, tie-breaking, the charged re-run of
the winner — so their results are identical for every job count.

Jobs rule: ``jobs=None`` means the usable CPUs, capped at the batch
size; ``jobs=1``, a daemonic caller, or a platform without ``fork`` or
``os.sched_getaffinity`` runs in-process.  Otherwise a fork-context
process pool is created at the first batch with more than one trial,
reused for every later batch while the runner is open, and shut down
when the outermost ``with`` block exits or any batch fails.  Fork, not
spawn: a forked worker starts with the simulator already imported, and
the learners start no threads that a fork could copy mid-operation.
Failures fail closed: a trial's exception, or a dead worker's
``BrokenProcessPool``, re-raises in the caller; nothing falls back to
serial.
"""

import os

# ``multiprocessing`` and ``concurrent.futures`` are imported where a
# pool is needed: ``import repro`` loads this module, and most programs
# (the sweep CLI among them) never fork trial workers, so importing them
# up front only grows every process's memory.


def run_trial(checkpoint, shares, cycles):
    """One trial: ``(per-thread committed deltas, cycle delta)`` of
    ``cycles`` cycles run from ``checkpoint`` under ``shares``."""
    trial = checkpoint.materialize()
    trial.partitions.set_shares(shares)
    before = trial.stats.copy()
    trial.run(cycles)
    return trial.stats.delta_since(before)


def trial_workers(jobs, batch):
    """Worker processes for a batch of ``batch`` trials; 1 means
    in-process."""
    import multiprocessing

    if multiprocessing.current_process().daemon \
            or "fork" not in multiprocessing.get_all_start_methods() \
            or not hasattr(os, "sched_getaffinity"):
        return 1
    if jobs is None:
        jobs = len(os.sched_getaffinity(0))
    return max(1, min(jobs, batch))


class TrialRunner:
    """Runs batches of trial epochs; reentrant as a context manager.

    Open it with ``with`` around every batch that should share one pool
    (a learner holds it across a whole run); nested ``with`` blocks reuse
    the pool, and the outermost exit shuts it down.
    """

    def __init__(self, jobs=None):
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be positive, got %r" % (jobs,))
        self.jobs = jobs
        self._pool = None
        self._depth = 0

    def __enter__(self):
        self._depth += 1
        return self

    def __exit__(self, *exc_info):
        self._depth -= 1
        if self._depth == 0:
            self.close()
        return False

    def run(self, checkpoint, shares_list, cycles):
        """``[(committed, cycles), ...]``, one per share vector of the list
        ``shares_list``, in order."""
        if len(shares_list) > 1 and self._pool is None:
            workers = trial_workers(self.jobs, len(shares_list))
            if workers > 1:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
        if self._pool is None or len(shares_list) == 1:
            return [run_trial(checkpoint, shares, cycles)
                    for shares in shares_list]
        try:
            futures = [self._pool.submit(run_trial, checkpoint, shares, cycles)
                       for shares in shares_list]
            return [future.result() for future in futures]
        except BaseException:
            self.close()
            raise

    def close(self):
        """Shut the pool down (waiting for its workers); idempotent."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
