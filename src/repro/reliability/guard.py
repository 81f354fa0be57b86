"""Guarded, resumable experiment execution.

A ``full``-scale sweep runs for hours; a single exception, zero-commit
livelock, or SIGKILL at epoch 30 of 32 must not lose the run.  This module
wraps :func:`~repro.experiments.runner.run_policy` with:

* **budgets** — a per-invocation wall-clock and cycle budget
  (:class:`RunBudget`), raising the structured :class:`BudgetExceeded`
  with all state saved;
* **a watchdog** — :class:`Watchdog` detects zero-commit livelock (no
  thread commits anything for N consecutive epochs);
* **retry-from-last-good-epoch** — every completed epoch the whole
  controller (processor, policy, accounting) is snapshotted; a failed
  epoch is retried from the last good snapshot after clearing fetch locks
  and re-normalizing partitions, up to ``max_retries`` times;
* **on-disk resume** — with a ``run_dir``, snapshots become pickle blobs
  on disk next to a JSONL manifest (:class:`RunStore`, atomic
  write-then-rename), and ``resume=True`` picks an interrupted run up
  where it died.  A finished run leaves ``result.json``; resuming a
  finished run just reloads it.

Because everything the run depends on lives inside the pickled controller
(stream RNGs included), an interrupted-then-resumed run produces *exactly*
the metrics of an uninterrupted one at the same seed.
"""

import json
import os
import pickle
import time

from repro.core.controller import EpochController
from repro.experiments.runner import (
    RunResult,
    attach_solos,
    make_processor,
)
from repro.reliability.invariants import InvariantViolation


class ReliabilityError(Exception):
    """Base class for structured, expected failures of a guarded run."""


class LivelockDetected(ReliabilityError):
    """No thread committed a single instruction for N consecutive epochs."""

    def __init__(self, epochs, epoch_id):
        self.epochs = epochs
        self.epoch_id = epoch_id
        super().__init__(
            "zero-commit livelock: no instructions committed for %d "
            "consecutive epochs (last epoch %d)" % (epochs, epoch_id))


class BudgetExceeded(ReliabilityError):
    """The run hit its wall-clock or cycle budget; state was saved."""


class RunInterrupted(ReliabilityError):
    """The run stopped early on request (``stop_after``); state was saved.

    Used by tests and demos to emulate a mid-sweep kill deterministically.
    """


class Watchdog:
    """Detects zero-commit livelock across consecutive epochs."""

    def __init__(self, livelock_epochs=5):
        if livelock_epochs <= 0:
            raise ValueError("livelock_epochs must be positive")
        self.livelock_epochs = livelock_epochs
        self._streak = 0

    def observe(self, result):
        """Feed one :class:`~repro.core.controller.EpochResult`; raises
        :class:`LivelockDetected` when the streak reaches the threshold."""
        if sum(result.committed) == 0:
            self._streak += 1
            if self._streak >= self.livelock_epochs:
                raise LivelockDetected(self._streak, result.epoch_id)
        else:
            self._streak = 0

    def reset(self):
        self._streak = 0


class RunBudget:
    """Wall-clock and simulated-cycle budget for one invocation."""

    def __init__(self, max_wall_seconds=None, max_cycles=None, start_cycle=0):
        self.max_wall_seconds = max_wall_seconds
        self.max_cycles = max_cycles
        self.start_cycle = start_cycle
        self._t0 = time.monotonic()  # repro: allow-nondeterminism[ND101] (watchdog timer, not results)

    def check(self, proc):
        if self.max_wall_seconds is not None:
            elapsed = time.monotonic() - self._t0  # repro: allow-nondeterminism[ND101] (watchdog timer, not results)
            if elapsed > self.max_wall_seconds:
                raise BudgetExceeded(
                    "wall-clock budget exhausted (%.1fs > %.1fs)"
                    % (elapsed, self.max_wall_seconds))
        if self.max_cycles is not None:
            spent = proc.cycle - self.start_cycle
            if spent > self.max_cycles:
                raise BudgetExceeded(
                    "cycle budget exhausted (%d > %d cycles)"
                    % (spent, self.max_cycles))


# ----------------------------------------------------------------------
# On-disk run state
# ----------------------------------------------------------------------


class RunStore:
    """Crash-safe on-disk state of one resilient run.

    Layout of ``run_dir``::

        ckpt_NNNNNN.pkl   controller snapshot after NNNNNN completed epochs
                          (only the two most recent are kept)
        manifest.jsonl    append-only log: one record per completed epoch
        result.json       final RunResult (present only when complete)

    All non-append writes go through write-to-temp + ``os.replace`` so a
    kill mid-write can never corrupt the latest good state.
    """

    def __init__(self, run_dir):
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.manifest_path = os.path.join(run_dir, "manifest.jsonl")
        self.result_path = os.path.join(run_dir, "result.json")

    # -- atomic write helper ----------------------------------------------

    def _write_atomic(self, path, data, mode="wb"):
        tmp = path + ".tmp"
        with open(tmp, mode) as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    # -- checkpoints -------------------------------------------------------

    def _checkpoint_path(self, epochs_done):
        return os.path.join(self.run_dir, "ckpt_%06d.pkl" % epochs_done)

    def _checkpoint_files(self):
        found = []
        for name in os.listdir(self.run_dir):
            if name.startswith("ckpt_") and name.endswith(".pkl"):
                try:
                    found.append((int(name[5:-4]), name))
                except ValueError:
                    continue
        return sorted(found)

    def save_checkpoint(self, epochs_done, blob, keep=2):
        self._write_atomic(self._checkpoint_path(epochs_done), blob)
        for __, name in self._checkpoint_files()[:-keep]:
            try:
                os.remove(os.path.join(self.run_dir, name))
            except OSError:
                pass

    def latest_checkpoint(self):
        """(epochs_done, blob) of the newest readable checkpoint, or None.

        Falls back to the previous checkpoint when the newest is
        unreadable (e.g. the process died mid-write on a filesystem
        without atomic rename).
        """
        for epochs_done, name in reversed(self._checkpoint_files()):
            path = os.path.join(self.run_dir, name)
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
                pickle.loads(blob)  # readability probe
            except Exception:
                continue
            return epochs_done, blob
        return None

    # -- manifest ----------------------------------------------------------

    def append_manifest(self, record):
        with open(self.manifest_path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def manifest_records(self):
        if not os.path.exists(self.manifest_path):
            return []
        records = []
        with open(self.manifest_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue  # torn final line from a kill mid-append
        return records

    # -- final result ------------------------------------------------------

    def save_result(self, result):
        payload = json.dumps(result.to_dict(), indent=1)
        self._write_atomic(self.result_path, payload, mode="w")

    def load_result(self):
        if not os.path.exists(self.result_path):
            return None
        try:
            with open(self.result_path) as handle:
                return RunResult.from_dict(json.load(handle))
        except Exception:
            return None


# ----------------------------------------------------------------------
# Controller snapshot/restore
# ----------------------------------------------------------------------


def _snapshot_controller(controller):
    """Serialize everything a resumed run needs: the processor (policy and
    stream RNGs included) plus the controller's accounting."""
    return pickle.dumps({
        "proc": controller.proc,
        "epoch_id": controller.epoch_id,
        "history": controller.history,
        "start_stats": controller._start_stats,
        "repairs": controller.repairs,
    }, protocol=pickle.HIGHEST_PROTOCOL)


def _restore_controller(blob, epoch_size, checker=None, injector=None,
                        sanitize_partitions=False):
    state = pickle.loads(blob)
    controller = EpochController(
        state["proc"], epoch_size=epoch_size, checker=checker,
        injector=injector, sanitize_partitions=sanitize_partitions)
    controller.epoch_id = state["epoch_id"]
    controller.history = state["history"]
    controller._start_stats = state["start_stats"]
    controller.repairs = state["repairs"]
    return controller


def _recover(proc):
    """Post-restore recovery actions: clear stuck fetch state and repair
    any illegal partition registers so the retry can make progress."""
    for thread in proc.threads:
        thread.policy_locked = False
        if thread.fetch_blocked_until > proc.cycle:
            thread.fetch_blocked_until = proc.cycle
    proc.enable_all()
    return proc.partitions.sanitize()


# ----------------------------------------------------------------------
# The resilient runner
# ----------------------------------------------------------------------


def run_policy_resilient(workload, policy, scale, **options):
    """Guarded, checkpointing, resumable version of
    :func:`~repro.experiments.runner.run_policy`.

    Returns the same :class:`~repro.experiments.runner.RunResult` (with a
    ``reliability`` report attached); on a clean machine it produces
    *identical* metrics.  With ``run_dir`` set, state persists on disk and
    ``resume=True`` continues an interrupted run — or returns the stored
    result if the run already finished.

    ``policy`` is used only for a fresh start; on resume the checkpointed
    policy (with its learned state) takes over.

    ``on_epoch``, if given, is called with the completed epoch id after
    each epoch's checkpoint/manifest writes — a liveness hook: the sweep
    supervisor touches a per-cell heartbeat file here, which is what lets
    it tell a slow-but-alive cell from a hung one (docs/RELIABILITY.md,
    "Sweep supervision").  Exceptions it raises are *not* retried.

    This is :func:`simulate_policy_resilient` (which takes the
    ``options``: ``epochs``, ``run_dir``, ``resume``, ``max_retries``,
    ``livelock_epochs``, ``max_wall_seconds``, ``max_cycles``,
    ``checker``, ``injector``, ``sanitize_partitions``,
    ``checkpoint_period``, ``stop_after``, ``log``, ``on_epoch``)
    followed by :func:`~repro.experiments.runner.attach_solos`.
    """
    result = simulate_policy_resilient(workload, policy, scale, **options)
    return attach_solos(result, workload, scale)


def simulate_policy_resilient(workload, policy, scale, epochs=None,
                              run_dir=None, resume=False, max_retries=2,
                              livelock_epochs=5, max_wall_seconds=None,
                              max_cycles=None, checker=None, injector=None,
                              sanitize_partitions=True, checkpoint_period=1,
                              stop_after=None, log=None, on_epoch=None):
    """The simulation half of :func:`run_policy_resilient`: every guard,
    checkpoint and resume rule, but the returned result (and the
    ``result.json`` a finished run leaves) carries no SingleIPCs — the
    sweep engine's workers call this half and the parent attaches solos
    shared across cells."""
    say = log if log is not None else (lambda message: None)
    target = scale.epochs if epochs is None else epochs
    store = RunStore(run_dir) if run_dir is not None else None

    if store is not None and resume:
        finished = store.load_result()
        if finished is not None:
            say("resume: run already complete, loaded result.json")
            return finished

    controller = None
    resumed_from = None
    if store is not None and resume:
        found = store.latest_checkpoint()
        if found is not None:
            resumed_from, blob = found
            controller = _restore_controller(
                blob, scale.epoch_size, checker=checker, injector=injector,
                sanitize_partitions=sanitize_partitions)
            say("resume: restored checkpoint after epoch %d" % resumed_from)
    if controller is None:
        proc = make_processor(workload, policy, scale)
        controller = EpochController(
            proc, epoch_size=scale.epoch_size, checker=checker,
            injector=injector, sanitize_partitions=sanitize_partitions)

    last_good = _snapshot_controller(controller)
    if store is not None and resumed_from is None:
        store.save_checkpoint(controller.epoch_id, last_good)

    watchdog = Watchdog(livelock_epochs)
    budget = RunBudget(max_wall_seconds=max_wall_seconds,
                       max_cycles=max_cycles,
                       start_cycle=controller.proc.cycle)
    retries = 0
    failures = []
    ran_this_invocation = 0

    while controller.epoch_id < target:
        budget.check(controller.proc)
        try:
            result = controller.run_epoch()
            watchdog.observe(result)
        except (KeyboardInterrupt, SystemExit, BudgetExceeded):
            raise
        except Exception as exc:
            # InvariantViolation, LivelockDetected, or any pipeline crash:
            # roll back to the last good epoch and try again.
            failures.append("epoch %d: %s: %s"
                            % (controller.epoch_id, type(exc).__name__, exc))
            retries += 1
            if retries > max_retries:
                say("giving up after %d retries: %s" % (max_retries, exc))
                raise
            say("retry %d/%d after %s: %s"
                % (retries, max_retries, type(exc).__name__, exc))
            controller = _restore_controller(
                last_good, scale.epoch_size, checker=checker,
                injector=injector, sanitize_partitions=sanitize_partitions)
            watchdog.reset()
            repair = _recover(controller.proc)
            if repair is not None:
                controller.repairs.append(
                    (controller.epoch_id, "retry-recovery", repair))
            continue
        ran_this_invocation += 1
        completed = controller.epoch_id
        if completed % checkpoint_period == 0 or completed >= target:
            last_good = _snapshot_controller(controller)
            if store is not None:
                store.save_checkpoint(completed, last_good)
        if store is not None:
            store.append_manifest({
                "epoch_id": result.epoch_id,
                "kind": result.kind,
                "committed": list(result.committed),
                "cycles": result.cycles,
                "ipcs": list(result.ipcs),
                "shares": result.shares,
                "solo_thread": result.solo_thread,
            })
        if on_epoch is not None:
            on_epoch(completed)
        if stop_after is not None and ran_this_invocation >= stop_after \
                and controller.epoch_id < target:
            raise RunInterrupted(
                "stopped after %d epochs this invocation; state saved "
                "through epoch %d" % (ran_this_invocation,
                                      controller.epoch_id))

    committed, cycles = controller.totals()
    proc = controller.proc
    run_result = RunResult(
        workload=workload.name,
        policy=proc.policy.name,
        ipcs=controller.overall_ipcs(),
        committed=committed,
        cycles=cycles,
        epoch_history=controller.history,
        reliability={
            "retries": retries,
            "failures": failures,
            "resumed_from": resumed_from,
            "partition_repairs": len(controller.repairs),
            "faults_injected": injector.summary() if injector is not None
            else {},
        },
    )
    if store is not None:
        store.save_result(run_result)
    return run_result


def compare_policies_resilient(workload, policy_factories, scale,
                               resume_dir, epochs=None, resume=True,
                               log=None, **kwargs):
    """Resumable version of
    :func:`~repro.experiments.runner.compare_policies`.

    Each (workload, policy, seed) run gets its own subdirectory of
    ``resume_dir``; completed runs are skipped on re-invocation, and an
    interrupted run continues from its last checkpoint, so killing a sweep
    mid-flight and re-running the same command completes it with identical
    metrics.
    """
    results = {}
    for name, factory in policy_factories.items():
        run_dir = os.path.join(
            resume_dir, run_slug(workload.name, name, scale.seed))
        results[name] = run_policy_resilient(
            workload, factory(), scale, epochs=epochs, run_dir=run_dir,
            resume=resume, log=log, **kwargs)
    return results


def run_slug(workload_name, policy_name, seed):
    """Filesystem-safe subdirectory name for one (workload, policy, seed)."""
    raw = "%s__%s__s%d" % (workload_name, policy_name, seed)
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in raw)


__all__ = [
    "BudgetExceeded",
    "InvariantViolation",
    "LivelockDetected",
    "ReliabilityError",
    "RunBudget",
    "RunInterrupted",
    "RunStore",
    "Watchdog",
    "compare_policies_resilient",
    "run_policy_resilient",
    "run_slug",
    "simulate_policy_resilient",
]
