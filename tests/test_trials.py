"""Parallel trial epochs: every job count gives the same learner results,
failures re-raise in the caller, and no worker outlives a learner run."""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.surface import distribution_surface
from repro.core.metrics import AvgIPC, WeightedIPC
from repro.core.offline import OfflineExhaustiveLearner
from repro.core.rand_hill import RandHillLearner
from repro.core.trials import TrialRunner, trial_workers
from repro.pipeline.checkpoint import Checkpoint
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.policies.static_partition import StaticPartitionPolicy
from repro.workloads.spec2000 import get_profile


def make_proc(benchmarks, seed=1, warmup=1500):
    profiles = [get_profile(name) for name in benchmarks]
    proc = SMTProcessor(SMTConfig.tiny(), profiles, seed=seed,
                        policy=StaticPartitionPolicy())
    proc.run(warmup)
    return proc


def offline_record(jobs, epochs=3):
    learner = OfflineExhaustiveLearner(
        make_proc(("art", "gzip")), 512, metric=WeightedIPC(),
        single_ipcs=[1.2, 2.0], stride=4, jobs=jobs)
    learner.run(epochs)
    return [(epoch.curve, epoch.best_shares, epoch.best_value,
             epoch.result.committed, epoch.result.cycles)
            for epoch in learner.epochs], learner.overall_ipcs()


def rand_hill_record(benchmarks, jobs, epochs=3):
    learner = RandHillLearner(make_proc(benchmarks), 512, metric=AvgIPC(),
                              budget=9, seed=5, jobs=jobs)
    learner.run(epochs)
    return [(epoch.best_shares, epoch.best_value, epoch.trials,
             epoch.passes, epoch.result.committed, epoch.result.cycles,
             epoch.result.shares)
            for epoch in learner.epochs], learner.overall_ipcs()


class TrialFailed(RuntimeError):
    """Raised by a patched trial; defined here so workers can pickle it."""


def fail_trials_with_share(monkeypatch, share0, failure):
    """Make every run of a machine whose first share is ``share0`` call
    ``failure()``; machines materialized in worker processes see the
    patch because the pool forks after it is installed."""
    original = SMTProcessor.run

    def run(self, num_cycles):
        if self.partitions.shares and self.partitions.shares[0] == share0:
            failure()
        return original(self, num_cycles)

    monkeypatch.setattr(SMTProcessor, "run", run)


def raise_trial_failed():
    raise TrialFailed("trial exploded")


class TestIdentityAcrossJobCounts:
    def test_offline(self):
        assert offline_record(jobs=1) == offline_record(jobs=2)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("benchmarks", [("art", "gzip"),
                                            ("art", "gzip", "mcf", "eon")])
    def test_rand_hill(self, benchmarks):
        assert rand_hill_record(benchmarks, jobs=1) == \
            rand_hill_record(benchmarks, jobs=2)
        assert not multiprocessing.active_children()

    def test_surface(self):
        proc = make_proc(("mesa", "vortex", "fma3d"), warmup=2000)
        serial = distribution_surface(proc, 256, step=8, jobs=1)
        parallel = distribution_surface(proc, 256, step=8, jobs=2)
        assert serial == parallel
        assert not multiprocessing.active_children()

    def test_policy_synchronized_timeline(self):
        from repro.core.hill_climbing import HillClimbingPolicy
        from repro.experiments.runner import ExperimentScale
        from repro.experiments.sync import policy_synchronized_timeline
        from repro.workloads.mixes import get_workload

        def timeline(jobs):
            result = policy_synchronized_timeline(
                get_workload("art-mcf"),
                lambda: HillClimbingPolicy(sample_period=None,
                                           software_cost=0),
                ExperimentScale.smoke(), metric=AvgIPC(), epochs=3,
                jobs=jobs)
            return (result.series, result.policy_shares,
                    [(epoch.curve, epoch.best_shares, epoch.best_value)
                     for epoch in result.offline_epochs])

        assert timeline(1) == timeline(2)
        assert not multiprocessing.active_children()

    def test_runner_keeps_order_and_reuses_one_pool(self):
        proc = make_proc(("art", "gzip"))
        checkpoint = Checkpoint(proc)
        grid = [[share, 32 - share] for share in (2, 10, 18, 26)]
        expected = TrialRunner(jobs=1).run(checkpoint, grid, 256)
        with TrialRunner(jobs=2) as runner:
            assert runner.run(checkpoint, grid, 256) == expected
            pool = runner._pool
            assert runner.run(checkpoint, grid[::-1], 256) == expected[::-1]
            assert runner._pool is pool
        assert runner._pool is None
        assert not multiprocessing.active_children()


class TestFailuresFailClosed:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trial_exception_reraises(self, monkeypatch, jobs):
        fail_trials_with_share(monkeypatch, 10, raise_trial_failed)
        learner = OfflineExhaustiveLearner(make_proc(("art", "gzip")), 512,
                                           metric=AvgIPC(), stride=4,
                                           jobs=jobs)
        with pytest.raises(TrialFailed):
            learner.run(2)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rand_hill_exception_reraises(self, monkeypatch, jobs):
        # Fail every partitioned run, so the first batch already fails.
        original = SMTProcessor.run

        def run(self, num_cycles):
            if self.partitions.shares:
                raise_trial_failed()
            return original(self, num_cycles)

        proc = make_proc(("art", "gzip"))
        monkeypatch.setattr(SMTProcessor, "run", run)
        learner = RandHillLearner(proc, 512, metric=AvgIPC(), budget=6,
                                  jobs=jobs)
        with pytest.raises(TrialFailed):
            learner.run(1)
        assert not multiprocessing.active_children()

    def test_dead_worker_reraises(self, monkeypatch):
        parent = os.getpid()

        def die():
            if os.getpid() != parent:
                os._exit(3)

        fail_trials_with_share(monkeypatch, 10, die)
        learner = OfflineExhaustiveLearner(make_proc(("art", "gzip")), 512,
                                           metric=AvgIPC(), stride=4,
                                           jobs=2)
        with pytest.raises(BrokenProcessPool):
            learner.run(1)
        assert not multiprocessing.active_children()


def _learn_in_daemon(conn):
    conn.send((multiprocessing.current_process().daemon,
               trial_workers(4, 8), offline_record(jobs=2, epochs=1)))
    conn.close()


class TestJobsRule:
    def test_none_means_usable_cpus_capped_at_batch(self):
        cpus = len(os.sched_getaffinity(0))
        assert trial_workers(None, 1000) == cpus
        assert trial_workers(None, 1) == 1
        assert trial_workers(8, 3) == 3
        assert trial_workers(1, 8) == 1

    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError):
            TrialRunner(jobs=0)

    def test_daemonic_caller_runs_in_process(self):
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_learn_in_daemon, args=(send,),
                                daemon=True)
        child.start()
        daemon, workers, record = receive.recv()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert daemon and workers == 1
        assert record == offline_record(jobs=1, epochs=1)
