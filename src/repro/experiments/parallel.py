"""Parallel sweep engine with content-addressed on-disk result caching.

Every figure/table of the paper reduces to an embarrassingly parallel grid
of independent (workload, policy, seed) simulations — the same structure
the thread-to-core allocation literature exploits by evaluating candidate
allocations as independent trials.  This module fans that grid out over a
:class:`concurrent.futures.ProcessPoolExecutor` and memoizes every cell in
a content-addressed on-disk cache, so that

* a sweep saturates however many cores the host has (``jobs=N``);
* re-running a sweep after editing one policy re-simulates only the cells
  whose cache keys changed (the key includes a per-policy code
  fingerprint — see :func:`cache_key`);
* a killed sweep resumes: completed cells return from the cache, and with
  a ``resume_dir`` each in-flight cell checkpoints per epoch through
  :func:`repro.reliability.guard.run_policy_resilient` and continues from
  its last good epoch;
* merged results are deterministic — cell order follows the *request*
  order, never completion order, so ``jobs=4`` produces byte-identical
  JSON to ``jobs=1`` (:func:`merged_json`);
* every distinct SingleIPC solo a sweep needs is simulated once, as its
  own task, and cached by content (:class:`SoloCache`), instead of once
  per worker that happens to need it.

Progress is surfaced as a lightweight JSONL event stream (one object per
line: sweep/cell lifecycle, done/cached/running counts, ETA, worker
count) plus an optional ``on_event`` callback for interactive display.

With a :class:`~repro.reliability.supervisor.Supervision` config the
engine additionally runs every cell under the cell supervisor: per-cell
heartbeat timeouts, retry with deterministic backoff, pool rebuild after
``BrokenProcessPool``, quarantine of repeat offenders into a
``quarantine.jsonl`` ledger, and graceful degrade to in-process serial
execution (``repro sweep`` enables this by default; see
docs/RELIABILITY.md "Sweep supervision").  Supervision never changes
*what* a result is — a fault-free supervised sweep is byte-identical to
a plain serial one, a contract the ``repro chaos`` harness enforces.

The cache directory defaults to ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-sweeps``; ``python -m repro cache info|clear`` inspects
and empties it.  docs/PARALLEL.md documents the architecture, the key
derivation and the invalidation rules.
"""

import hashlib
import json
import math
import os
import sys
import tempfile
import time
from collections import namedtuple
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from repro.experiments.export import _jsonable
from repro.experiments.runner import (
    RunResult,
    attach_solos,
    simulate_policy,
    solo_ipc,
)
from repro.policies import BASELINE_POLICIES  # repro: allow-reexport[FP005] (registry lookup; per-family sources hash the defining modules)
from repro.reliability.supervisor import (
    SWEEP_EVENTS,
    CellBootstrapError,
    CellResultError,
    CellSupervisor,
    QuarantineLedger,
    Supervision,
)
from repro.workloads.mixes import get_workload, workloads_in_group

DEFAULT_POLICIES = ("ICOUNT", "FLUSH", "DCRA", "HILL")

#: ``repro sweep --preset`` shorthands: (groups, policies) per figure grid.
SWEEP_PRESETS = {
    "fig4": (("ILP2", "MIX2", "MEM2"), ("ICOUNT", "FLUSH", "DCRA")),
    "fig9": (("ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"),
             ("ICOUNT", "FLUSH", "DCRA", "HILL")),
    "fig10": (("ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"),
              ("ICOUNT", "FLUSH", "DCRA",
               "HILL-IPC", "HILL-WIPC", "HILL-HWIPC")),
    "sec5": (("ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"),
             ("HILL", "PHASE-HILL")),
}


# ----------------------------------------------------------------------
# Policy specs: canonical names -> fresh policy instances
# ----------------------------------------------------------------------

_HILL_METRICS = ("IPC", "WIPC", "HWIPC")


def canonical_policy(name):
    """Normalize a policy spelling to its canonical sweep-cell form.

    Baselines keep their registry name; hill climbers always carry their
    metric suffix (``HILL`` -> ``HILL-WIPC``, ``PHASE-HILL`` ->
    ``PHASE-HILL-WIPC``) so equivalent spellings share cache entries.
    Raises :class:`ValueError` for unknown names.
    """
    upper = name.upper()
    if upper in BASELINE_POLICIES:
        return upper
    for prefix in ("PHASE-HILL", "HILL"):
        if upper == prefix:
            return prefix + "-WIPC"
        if upper.startswith(prefix + "-"):
            suffix = upper[len(prefix) + 1:]
            if suffix in _HILL_METRICS:
                return prefix + "-" + suffix
            break
    raise ValueError(
        "unknown policy %r (valid: %s, HILL[-IPC|-WIPC|-HWIPC], "
        "PHASE-HILL[-IPC|-WIPC|-HWIPC])"
        % (name, ", ".join(sorted(BASELINE_POLICIES))))


def policy_factory(name, scale):
    """Zero-argument factory for a policy name, with hill-climbing
    overheads (software stall, sampling period) scaled to the experiment.

    This is the single name-resolution point shared by the CLI and the
    sweep workers; raises :class:`ValueError` for unknown names.
    """
    from repro.core.hill_climbing import HillClimbingPolicy  # repro: dispatch[HILL]
    from repro.core.metrics import metric_by_name
    from repro.core.phase_hill import PhaseHillPolicy  # repro: dispatch[PHASE-HILL]

    spec = canonical_policy(name)
    if spec in BASELINE_POLICIES:
        return BASELINE_POLICIES[spec]
    cls = PhaseHillPolicy if spec.startswith("PHASE-") else HillClimbingPolicy
    metric_name = spec.split("-")[-1].lower()
    return lambda: cls(metric=metric_by_name(metric_name),
                       software_cost=scale.hill_software_cost,
                       sample_period=scale.hill_sample_period)


# ----------------------------------------------------------------------
# Sweep cells and cache keys
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a (workload, policy, seed) simulation request."""

    workload: str
    policy: str          # canonical policy name (see canonical_policy)
    seed: int = 0
    epochs: int = None   # None: the scale's epoch count

    @property
    def label(self):
        return "%s/%s/s%d" % (self.workload, self.policy, self.seed)


def grid_cells(workloads=None, groups=None, policies=DEFAULT_POLICIES,
               seeds=(0,), epochs=None, workloads_per_group=None):
    """The cartesian sweep grid, workload-major, in deterministic order.

    ``workloads`` (explicit names) and ``groups`` (Table 3 group names)
    combine; with neither, all six groups are swept.
    """
    names = list(workloads or [])
    for group in (groups if groups is not None
                  else ([] if workloads else
                        ("ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"))):
        members = [w.name for w in workloads_in_group(group)]
        if workloads_per_group is not None:
            members = members[:workloads_per_group]
        names.extend(members)
    cells = []
    for name in names:
        get_workload(name)  # fail fast on unknown names
        for policy in policies:
            for seed in seeds:
                cells.append(SweepCell(workload=name,
                                       policy=canonical_policy(policy),
                                       seed=seed, epochs=epochs))
    return cells


# -- code fingerprint ---------------------------------------------------

#: Entry modules whose transitive import closure defines "code every cell
#: depends on".  ``repro lint`` (the fingerprint auditor, rule FP001)
#: proves that ``_CORE_SOURCES`` + ``_POLICY_SOURCES[family]`` covers the
#: import closure of ``_CORE_ENTRIES`` + ``_FAMILY_ENTRIES[family]``; the
#: opt-in ``REPRO_FINGERPRINT_MODE=graph`` fingerprint hashes the closure
#: itself (see :func:`code_fingerprint`).
_CORE_ENTRIES = ("experiments/runner.py", "experiments/parallel.py")

#: Per-family entry modules: the lazily imported policy implementations.
#: Their lazy import sites carry ``# repro: dispatch[FAMILY]`` markers so
#: the auditor can attribute each to one family (rule FP006).
_FAMILY_ENTRIES = {
    "ICOUNT": ("policies/icount.py",),
    "FPG": ("policies/fpg.py",),
    "STALL": ("policies/stall.py",),
    "FLUSH": ("policies/flush.py",),
    "STALL-FLUSH": ("policies/stall_flush.py",),
    "DG": ("policies/dg.py",),
    "PDG": ("policies/dg.py",),
    "DCRA": ("policies/dcra.py",),
    "STATIC": ("policies/static_partition.py",),
    "HILL": ("core/hill_climbing.py",),
    "PHASE-HILL": ("core/phase_hill.py",),
}

#: Source files every cell depends on, relative to the ``repro`` package:
#: the simulator substrate, the run machinery (including the reliability
#: guard the resumable path executes under), the policy registry and the
#: default fetch policy (ICOUNT drives both default fetch priority and
#: SingleIPC runs).  Package ``__init__`` files are hashed because
#: importing any closure module executes them; the graph-mode fingerprint
#: additionally depends on the import-graph builder itself.
_CORE_SOURCES = (
    # Directory entries hash every .py under them, so the run-loop core
    # modules (pipeline/fastpath.py, pipeline/profile.py) are covered by
    # "pipeline" — editing the fast core invalidates every cell, exactly
    # as editing the reference loop does.
    "pipeline", "memory", "branch", "workloads",
    "__init__.py", "core/__init__.py", "experiments/__init__.py",
    "policies/__init__.py", "reliability/__init__.py",
    "analysis/__init__.py", "analysis/lint/__init__.py",
    "analysis/lint/findings.py", "analysis/lint/importgraph.py",
    "core/controller.py", "core/metrics.py",
    "policies/base.py", "policies/icount.py",
    "experiments/runner.py", "experiments/parallel.py",
    "experiments/export.py",
    "reliability/guard.py", "reliability/invariants.py",
    "reliability/supervisor.py",
)

#: Extra sources per policy family; editing one of these invalidates only
#: that family's cells.
_POLICY_SOURCES = {
    "ICOUNT": (),
    "FPG": ("policies/fpg.py",),
    "STALL": ("policies/stall.py",),
    "FLUSH": ("policies/flush.py",),
    "STALL-FLUSH": ("policies/stall_flush.py", "policies/flush.py"),
    "DG": ("policies/dg.py",),
    "PDG": ("policies/dg.py",),
    "DCRA": ("policies/dcra.py",),
    "STATIC": ("policies/static_partition.py",),
    "HILL": ("core/hill_climbing.py", "core/partition.py"),
    "PHASE-HILL": ("core/phase_hill.py", "core/hill_climbing.py",
                   "core/partition.py", "phase"),
}

#: Memoized fingerprints, keyed by (mode, family).
_fingerprint_memo = {}


def _package_root():
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _iter_source_files(root, rel):
    path = os.path.join(root, rel)
    if os.path.isfile(path):
        yield rel, path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root), full


def fingerprint_mode():
    """``static`` (default: hash the audited hand lists) or ``graph``
    (hash the transitive import closure computed from the AST), selected
    by the ``REPRO_FINGERPRINT_MODE`` environment variable."""
    mode = os.environ.get("REPRO_FINGERPRINT_MODE", "static")
    if mode not in ("static", "graph"):
        raise ValueError(
            "REPRO_FINGERPRINT_MODE must be 'static' or 'graph', got %r"
            % mode)
    return mode


def _fingerprint_files(root, family, mode):
    """Package-relative source files one family's fingerprint hashes."""
    if mode == "graph":
        from repro.analysis.lint.importgraph import closure_files

        return closure_files(root, "repro",
                             _CORE_ENTRIES + _FAMILY_ENTRIES[family])
    files = []
    for rel in _CORE_SOURCES + _POLICY_SOURCES[family]:
        files.extend(relpath for relpath, _ in _iter_source_files(root, rel))
    return tuple(sorted(set(files)))


def code_fingerprint(policy):
    """Hash of the source files a policy's simulation depends on.

    The fingerprint covers the simulator substrate plus the policy's own
    module(s), so editing ``policies/dcra.py`` invalidates DCRA cells
    only, while editing the pipeline invalidates everything.  In the
    default ``static`` mode the file set is the audited hand lists
    (``repro lint`` proves them sufficient); ``REPRO_FINGERPRINT_MODE=
    graph`` derives the set from the import graph instead.
    """
    family = canonical_policy(policy)
    if family.startswith("PHASE-HILL"):
        family = "PHASE-HILL"
    elif family.startswith("HILL"):
        family = "HILL"
    mode = fingerprint_mode()
    memo = _fingerprint_memo.get((mode, family))
    if memo is not None:
        return memo
    root = _package_root()
    digest = hashlib.sha256()
    for relpath in _fingerprint_files(root, family, mode):
        digest.update(relpath.encode())
        with open(os.path.join(root, relpath), "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    value = digest.hexdigest()
    _fingerprint_memo[(mode, family)] = value
    return value


def clear_fingerprint_memo():
    """Forget memoized fingerprints (tests edit sources mid-process)."""
    _fingerprint_memo.clear()


def cache_key(cell, scale):
    """Content address of one cell's result.

    The key hashes everything the simulation's outcome depends on: the
    full machine configuration, the workload's benchmark profiles (their
    parameters, not just their names), the canonical policy spec, the
    seed, the epoch schedule (epoch size, epoch count, warmup), and the
    relevant code fingerprint.  Anything else — job count, cache
    location, event stream, resume state — deliberately stays out.
    """
    workload = get_workload(cell.workload)
    payload = {
        "config": _jsonable(scale.config),
        "workload": cell.workload,
        "profiles": [_jsonable(profile) for profile in workload.profiles],
        "policy": cell.policy,
        "seed": cell.seed,
        "schedule": {
            "epoch_size": scale.epoch_size,
            "epochs": cell.epochs if cell.epochs is not None
            else scale.epochs,
            "warmup": scale.warmup,
        },
        "code": code_fingerprint(cell.policy),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- SingleIPC solos ----------------------------------------------------


@dataclass(frozen=True)
class SoloTask:
    """One SingleIPC solo: a benchmark run alone on the scaled machine.

    The weighted metrics (Eq. 2-3) divide every thread's IPC by its
    benchmark's stand-alone IPC, so each pending cell needs one solo per
    thread.  The engine plans every distinct solo of a sweep once, runs
    the missing ones as their own tasks and attaches the values to the
    cells in the parent (see :class:`SweepEngine`).
    """

    profile: object      # BenchmarkProfile
    seed: int = 0

    @property
    def label(self):
        return "solo:%s/s%d" % (self.profile.name, self.seed)


def cell_solos(cell):
    """The solos a cell's result needs, in thread order."""
    return [SoloTask(profile=profile, seed=cell.seed)
            for profile in get_workload(cell.workload).profiles]


def solo_key(task, scale):
    """Content address of one solo's SingleIPC.

    Hashes the benchmark profile's parameters, the machine config, the
    seed, the epoch size, the *scale's* epoch count (a cell's ``epochs``
    override never reaches its solos), warmup, and the ICOUNT family's
    code fingerprint — solos run under ICOUNT on the substrate, so
    editing a policy never invalidates them.
    """
    payload = {
        "config": _jsonable(scale.config),
        "profile": _jsonable(task.profile),
        "seed": task.seed,
        "schedule": {
            "epoch_size": scale.epoch_size,
            "epochs": scale.epochs,
            "warmup": scale.warmup,
        },
        "code": code_fingerprint("ICOUNT"),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------

#: ``corrupt``/``corrupt_bytes`` count the ``<key>.corrupt`` entries that
#: :meth:`ResultCache.get` sidelined (they are misses, not results, but
#: they occupy disk until ``repro cache clear --corrupt-only``).
CacheStats = namedtuple("CacheStats",
                        "entries bytes corrupt corrupt_bytes directory")


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-sweeps")


class ResultCache:
    """Content-addressed store of finished cell results.

    Layout: ``<dir>/objects/<key[:2]>/<key>.json``, one JSON document per
    cell holding the cell description (for ``cache info`` debugging), the
    entry's own cache key, a sha256 digest of the canonical result
    payload, and the :meth:`RunResult.to_dict` payload.  Writes are
    atomic (write-to-temp + ``os.replace``); unreadable entries count as
    misses.  A *readable but corrupt* entry — truncated JSON from a
    crash mid-write elsewhere, a bad payload shape, a payload whose
    digest no longer matches, or an entry filed under the wrong key —
    also counts as a miss and is moved aside to ``<key>.corrupt`` with a
    one-line warning, so it can never shadow the re-simulated result nor
    poison later invocations.  ``repro cache info`` counts the sidelined
    entries.  :class:`SoloCache` stores SingleIPC solos the same way
    under ``<dir>/solos/``.
    """

    #: Subdirectory of the cache directory holding this store's entries.
    namespace = "objects"
    #: Document field describing the cached item.
    item_field = "cell"
    #: Qualifier in the corrupt-entry warning.
    warning_prefix = ""

    def __init__(self, directory=None):
        self.directory = directory or default_cache_dir()
        self.objects_dir = os.path.join(self.directory, self.namespace)

    def _path(self, key):
        return os.path.join(self.objects_dir, key[:2], key + ".json")

    @staticmethod
    def _result_digest(result_dict):
        """sha256 of the canonical (sorted-key) result payload bytes."""
        blob = json.dumps(result_dict, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @staticmethod
    def _encode(result):
        return result.to_dict()

    @staticmethod
    def _decode(payload):
        return RunResult.from_dict(payload)

    def get(self, key):
        path = self._path(key)
        try:
            with open(path) as handle:
                document = json.load(handle)
            if document["key"] != key:
                raise ValueError(
                    "entry filed under key %s… carries key %s…"
                    % (key[:12], str(document["key"])[:12]))
            digest = self._result_digest(document["result"])
            if document["sha256"] != digest:
                raise ValueError(
                    "stored digest %s… does not match payload digest %s…"
                    % (str(document["sha256"])[:12], digest[:12]))
            return self._decode(document["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            try:
                os.replace(path, path[:-len(".json")] + ".corrupt")
            except OSError:
                pass
            print("warning: corrupt %scache entry %s… treated as a miss, "
                  "moved to .corrupt (%s: %s)"
                  % (self.warning_prefix, key[:12], type(exc).__name__,
                     exc), file=sys.stderr)
            return None

    def put(self, key, item, result):
        """Atomically store one result; safe under concurrent engines.

        Two writers racing on the same key both succeed: the keys are
        content addresses, so the duplicate ``os.replace`` onto the same
        path is a silent no-op by construction.  A racing
        :meth:`clear`/``rmtree`` that removes the bucket directory
        between the ``makedirs`` and the write is absorbed by recreating
        the directory and retrying once — ``put`` never raises
        ``FileNotFoundError`` at a victim of someone else's cleanup.
        """
        path = self._path(key)
        result_dict = self._encode(result)
        payload = json.dumps(
            {self.item_field: _jsonable(item), "key": key,
             "sha256": self._result_digest(result_dict),
             "result": result_dict},
            sort_keys=True)
        tmp = path + ".tmp.%d" % os.getpid()
        for retry in (False, True):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            try:
                with open(tmp, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                if retry:
                    raise

    def _entries(self, suffix=".json"):
        if not os.path.isdir(self.objects_dir):
            return
        for dirpath, dirnames, filenames in os.walk(self.objects_dir):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(suffix):
                    yield os.path.join(dirpath, name)

    @staticmethod
    def _measure(paths):
        count = 0
        total = 0
        for path in paths:
            count += 1
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return count, total

    def info(self):
        entries, total = self._measure(self._entries())
        corrupt, corrupt_total = self._measure(self._entries(".corrupt"))
        return CacheStats(entries=entries, bytes=total, corrupt=corrupt,
                          corrupt_bytes=corrupt_total,
                          directory=self.directory)

    def clear(self, corrupt_only=False):
        """Delete cached results; returns the number of files removed.

        ``corrupt_only=True`` removes only the sidelined ``.corrupt``
        entries and leaves every valid result in place; the default
        empties the cache, sidelined entries included.  Already-removed
        files (a concurrent ``clear``) are skipped, not errors.
        """
        suffixes = (".corrupt",) if corrupt_only else (".json", ".corrupt")
        removed = 0
        for suffix in suffixes:
            for path in list(self._entries(suffix)):
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
        return removed


class SoloCache(ResultCache):
    """Content-addressed store of SingleIPC solos, one entry per
    :func:`solo_key`: ``<dir>/solos/<key[:2]>/<key>.json`` holding the
    solo's description, its key, the payload digest and the payload
    ``{"single_ipc": value}``.  Reads fail closed exactly like cell
    entries: a wrong key, a digest mismatch or a non-finite value moves
    the entry to ``<key>.corrupt`` and counts as a miss, so the solo is
    re-simulated."""

    namespace = "solos"
    item_field = "solo"
    warning_prefix = "solo "

    @staticmethod
    def _encode(value):
        return {"single_ipc": value}

    @staticmethod
    def _decode(payload):
        value = payload["single_ipc"]
        if not isinstance(value, float) or not math.isfinite(value):
            raise ValueError("single_ipc %r is not a finite float"
                             % (value,))
        return value


# ----------------------------------------------------------------------
# Workers (top-level: must be picklable by the process pool)
# ----------------------------------------------------------------------


def _touch_heartbeat(path):
    """Create-or-touch one heartbeat file; never raises (a full disk must
    not turn a healthy cell into a 'hung' one mid-run)."""
    try:
        with open(path, "a"):
            pass
        os.utime(path, None)
    except OSError:
        pass


def _cell_scale(scale, seed):
    """``scale`` at one cell's or solo's seed."""
    return scale if scale.seed == seed else scale.with_overrides(seed=seed)


def _execute_cell(cell, scale, resume_dir, heartbeat_path=None, attempt=1,
                  fault_plan=None):
    """Simulate one cell (runs inside a worker process).

    Only the simulation half runs here: the returned result carries no
    SingleIPCs.  The engine attaches the solos it planned and shared
    across cells in the parent; other callers (the service worker) use
    :func:`_attach_cell_solos`.

    With ``resume_dir`` the run goes through the resilient runner:
    per-epoch crash-safe checkpoints in a per-cell subdirectory, so a
    killed sweep continues mid-cell.  The attached ``reliability`` report
    is dropped before caching — it describes the *execution* (retries,
    resume point), not the result, and would break the determinism
    contract between fresh, resumed and cached runs.

    Supervised sweeps additionally pass a ``heartbeat_path`` (touched
    once per completed epoch through the guard's ``on_epoch`` hook, so
    the parent can tell slow from hung), the 1-based ``attempt`` number,
    and optionally a chaos ``fault_plan`` (duck-typed, picklable; see
    :mod:`repro.reliability.chaos`) whose hooks perturb this attempt.
    Failures raised while *constructing* the cell — unknown workload or
    policy, a broken registry inside the child — are wrapped in
    :class:`~repro.reliability.supervisor.CellBootstrapError`: they are
    deterministic, so the supervisor aborts instead of retrying.
    """
    if fault_plan is not None:
        fault_plan.before_cell(cell, attempt)
    try:
        workload = get_workload(cell.workload)
        policy = policy_factory(cell.policy, scale)()
    except CellBootstrapError:
        raise
    except Exception as exc:
        raise CellBootstrapError(
            "cannot construct cell %s: %s: %s"
            % (cell.label, type(exc).__name__, exc)) from exc
    seeded = _cell_scale(scale, cell.seed)
    hooks = []
    if heartbeat_path is not None:
        _touch_heartbeat(heartbeat_path)
        hooks.append(lambda epoch_id: _touch_heartbeat(heartbeat_path))
    if fault_plan is not None:
        hooks.append(lambda epoch_id: fault_plan.on_epoch(cell, attempt,
                                                          epoch_id))
    on_epoch = (None if not hooks
                else lambda epoch_id: [hook(epoch_id) for hook in hooks])
    if resume_dir is not None or on_epoch is not None:
        from repro.reliability.guard import run_slug, simulate_policy_resilient

        run_dir = None
        if resume_dir is not None:
            run_dir = os.path.join(
                resume_dir, run_slug(cell.workload, cell.policy, cell.seed))
        result = simulate_policy_resilient(
            workload, policy, seeded, epochs=cell.epochs, run_dir=run_dir,
            resume=True, sanitize_partitions=False, on_epoch=on_epoch)
        resumed = bool(result.reliability
                       and result.reliability.get("resumed_from") is not None)
        result.reliability = None
    else:
        result = simulate_policy(workload, policy, seeded, epochs=cell.epochs)
        resumed = False
    if fault_plan is not None:
        result = fault_plan.transform_result(cell, attempt, result)
    return result, resumed


def _attach_cell_solos(cell, scale, result):
    """Attach a cell's SingleIPCs in process (through the runner's solo
    LRU) — for callers that run :func:`_execute_cell` outside the
    engine's solo plan."""
    return attach_solos(result, get_workload(cell.workload),
                        _cell_scale(scale, cell.seed))


def _execute_solo(task, scale, attempt=1, fault_plan=None):
    """Measure one SingleIPC solo (runs inside a worker process)."""
    if fault_plan is not None:
        fault_plan.before_solo(task, attempt)
    return solo_ipc(task.profile, _cell_scale(scale, task.seed))


def _execute_task(task, scale, resume_dir, heartbeat_path, attempt,
                  fault_plan):
    """Supervised worker: one planned task, a cell or a solo."""
    if isinstance(task, SoloTask):
        return _execute_solo(task, scale, attempt, fault_plan)
    return _execute_cell(task, scale, resume_dir, heartbeat_path, attempt,
                         fault_plan)


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _validate_simulated(cell, value):
    """Reject malformed worker payloads *before* they are accepted.

    A cell worker must return ``(RunResult, resumed)`` with finite IPCs;
    anything else (a chaos-corrupted payload, a future pickling bug)
    raises :class:`CellResultError` so the supervisor retries the cell
    instead of caching garbage.  SingleIPCs are not checked here: the
    engine attaches them later (:func:`_validate_cell_value`)."""
    ok = (isinstance(value, tuple) and len(value) == 2
          and isinstance(value[0], RunResult)
          and isinstance(value[1], bool))
    if ok:
        result = value[0]
        ok = _finite(list(result.ipcs) + [result.avg_ipc])
    if not ok:
        raise CellResultError(
            "cell %s returned an invalid payload (%r...)"
            % (cell.label, repr(value)[:80]))


def _validate_cell_value(cell, value):
    """Full payload check of a finished cell, SingleIPCs attached: the
    contract every result meets before it reaches a cache."""
    _validate_simulated(cell, value)
    result = value[0]
    singles = result.single_ipcs
    ok = (isinstance(singles, list) and len(singles) == len(result.ipcs)
          and _finite(singles))
    if ok:
        ok = _finite([result.weighted_ipc, result.harmonic_weighted_ipc])
    if not ok:
        raise CellResultError(
            "cell %s returned an invalid payload (%r...)"
            % (cell.label, repr(value)[:80]))


def _validate_solo_value(task, value):
    if not (isinstance(value, float) and math.isfinite(value)):
        raise CellResultError("solo %s returned an invalid payload (%r)"
                              % (task.label, repr(value)[:80]))


def _validate_task_value(task, value):
    if isinstance(task, SoloTask):
        _validate_solo_value(task, value)
    else:
        _validate_simulated(task, value)


def pool_map(fn, tasks, jobs=None):
    """Order-preserving map over argument tuples, optionally fanned out
    over a process pool (``jobs`` <= 1: plain serial calls, no pool).

    The generic sibling of :class:`SweepEngine` for non-cell work
    (Table 2 characterization, ablation points): ``fn`` must be a
    top-level function and every argument picklable.
    """
    tasks = list(tasks)
    if not tasks:
        return []  # never build a pool for zero tasks (max_workers >= 1)
    if not jobs or jobs <= 1 or len(tasks) == 1:
        return [fn(*args) for args in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(fn, *args) for args in tasks]
        return [future.result() for future in futures]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class _SoloJoin:
    """One run's solo plan and the parent-side join of cells to solos.

    ``missing`` lists every distinct solo the pending cells need that
    neither the engine's memory nor its solo cache holds, in first-need
    order.  Cell results land without SingleIPCs; a cell finishes —
    solos attached, validated, cached, ``cell-done`` — once all of its
    solos have landed, and waits parked until then.  Progress fields
    (``done``/``total``/``eta_s``) count cells only.
    """

    def __init__(self, engine, cells, cached, total, started_at):
        self.engine = engine
        self.cells = list(cells)
        self.done = cached   # cells finished, cached ones included
        self.live = 0        # cells finished by this run
        self.cached = cached
        self.total = total
        self.started_at = started_at
        self.needs = {cell: cell_solos(cell) for cell in self.cells}
        self.missing = []
        for tasks in self.needs.values():
            for task in tasks:
                if task not in self.missing and not engine._have_solo(task):
                    self.missing.append(task)
        self.parked = {}

    def schedule(self, jobs):
        """Dispatch order: the first ``jobs`` cells, the missing solos,
        the remaining cells — the first cells start as early as they
        would with no solos to run, and every solo lands in the first
        wave."""
        return self.cells[:jobs] + self.missing + self.cells[jobs:]

    def _progress(self, running):
        return self.engine._progress(
            self.done, self.cached, running, self.total, self.started_at,
            self.live)

    def start(self, task, running, **fields):
        if isinstance(task, SoloTask):
            self.engine._emit("solo-start", solo=task.label, **fields)
        else:
            fields.update(self._progress(running))
            self.engine._emit("cell-start", cell=task.label, **fields)

    def land(self, task, value, running):
        engine = self.engine
        if isinstance(task, SoloTask):
            engine._store_solo(task, value)
            engine._emit("solo-done", solo=task.label, single_ipc=value)
            for cell in [cell for cell in self.parked if self._ready(cell)]:
                self._finish(cell, self.parked.pop(cell), running)
        elif task not in engine.quarantined:
            if self._ready(task):
                self._finish(task, value, running)
            else:
                self.parked[task] = value

    def _ready(self, cell):
        return all(task in self.engine._solos for task in self.needs[cell])

    def _finish(self, cell, value, running):
        engine = self.engine
        result, resumed = value
        result.single_ipcs = [engine._solos[task]
                              for task in self.needs[cell]]
        _validate_cell_value(cell, value)
        engine._store(cell, result, resumed)
        self.done += 1
        self.live += 1
        engine._emit("cell-done", cell=cell.label, resumed=resumed,
                     **self._progress(running))

    def solo_failed(self, task, entry):
        """A solo was quarantined: so is every unfinished cell that
        needs it (supervised runs only — elsewhere failures raise)."""
        for cell in self.cells:
            if (task in self.needs[cell] and cell not in self.engine._memory
                    and cell not in self.engine.quarantined):
                self.parked.pop(cell, None)
                self.engine._quarantine_dependent(cell, task, entry)


class SweepEngine:
    """Runs sweep grids over a process pool with read-through caching.

    SingleIPC solos are planned per run: every distinct solo the pending
    cells need (:func:`cell_solos`) is read from memory or the
    :class:`SoloCache`, and each missing one runs once, as its own task
    (:func:`_execute_solo`).  Cell workers only simulate; the parent
    attaches a cell's solos once they have all landed, then validates,
    caches and reports the cell.  Tasks dispatch in the order: the first
    ``jobs`` pending cells, the missing solos, the remaining cells.

    Parameters
    ----------
    scale:
        The :class:`~repro.experiments.runner.ExperimentScale` every cell
        runs at (cells may override ``seed`` and ``epochs``).
    jobs:
        Worker processes.  ``1`` (default) runs cells in-process — the
        reference serial order whose merged JSON parallel runs must
        reproduce byte-for-byte.
    cache_dir:
        Result cache directory (default :func:`default_cache_dir`).
        ``use_cache=False`` disables caching entirely.
    events_path:
        Optional JSONL file receiving one progress event per line.
    on_event:
        Optional callable receiving each event dict (for live display).
    resume_dir:
        Optional directory for per-cell crash-safe checkpoints; killed
        sweeps resume mid-cell from here (see docs/PARALLEL.md).
    supervision:
        Optional :class:`~repro.reliability.supervisor.Supervision`:
        cells then run under the cell supervisor (heartbeat timeouts,
        retry with backoff, pool rebuild, quarantine, degrade-to-serial
        — docs/RELIABILITY.md "Sweep supervision").  ``None`` (default)
        keeps the classic fail-fast behaviour: the first worker
        exception propagates.
    fault_plan:
        Optional picklable chaos plan (:mod:`repro.reliability.chaos`)
        whose hooks perturb supervised workers; test/bench-only.
    """

    def __init__(self, scale, jobs=1, cache_dir=None, events_path=None,
                 on_event=None, resume_dir=None, use_cache=True,
                 supervision=None, fault_plan=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if fault_plan is not None and supervision is None:
            raise ValueError("fault_plan requires supervision")
        self.scale = scale
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if use_cache else None
        self.solo_cache = SoloCache(cache_dir) if use_cache else None
        self.events_path = events_path
        if events_path is not None:
            parent = os.path.dirname(events_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
        self.on_event = on_event
        self.resume_dir = resume_dir
        self.supervision = supervision
        self.fault_plan = fault_plan
        self.stats = {"hits": 0, "misses": 0, "resumed": 0}
        self.solo_stats = {"hits": 0, "misses": 0}
        self.quarantined = {}
        self.quarantined_solos = {}
        self.supervisor_stats = {"retries": 0, "timeouts": 0,
                                 "pool_breaks": 0, "degraded": False}
        self._memory = {}
        self._solos = {}
        self._work_dir = None
        if supervision is not None:
            # Heartbeats and the quarantine ledger live next to the
            # checkpoints when resuming, else in a throwaway directory.
            self._work_dir = resume_dir or tempfile.mkdtemp(
                prefix="repro-sweep-")
            os.makedirs(os.path.join(self._work_dir, "heartbeats"),
                        exist_ok=True)

    @property
    def quarantine_path(self):
        """Path of the ``quarantine.jsonl`` ledger (supervised engines
        only; ``None`` otherwise)."""
        if self._work_dir is None:
            return None
        return os.path.join(self._work_dir, "quarantine.jsonl")

    # -- events ----------------------------------------------------------

    def _emit(self, event, **fields):
        if event not in SWEEP_EVENTS:
            raise ValueError("unknown sweep event %r (valid: %s)"
                             % (event, ", ".join(SWEEP_EVENTS)))
        record = {"ts": round(time.time(), 3), "event": event}  # repro: allow-nondeterminism[ND101] (progress log timestamps, not results)
        record.update(fields)
        if self.events_path is not None:
            with open(self.events_path, "a") as handle:
                handle.write(json.dumps(record) + "\n")
        if self.on_event is not None:
            self.on_event(record)

    def _progress(self, done, cached, running, total, started_at,
                  finished_live):
        fields = {"done": done, "cached": cached, "running": running,
                  "total": total, "workers": self.jobs}
        if finished_live:
            per_cell = (time.time() - started_at) / finished_live  # repro: allow-nondeterminism[ND101] (ETA estimate, not results)
            remaining = total - done
            fields["eta_s"] = round(
                per_cell * remaining / max(1, min(self.jobs, remaining)), 1)
        return fields

    # -- execution -------------------------------------------------------

    def run_cells(self, cells):
        """Simulate a list of cells; returns results in *request order*.

        Duplicate cells are simulated once.  Completed cells come from
        the in-memory map, then the on-disk cache; the rest fan out over
        the pool.  Event stream and statistics update as cells land.
        """
        cells = list(cells)
        unique = list(dict.fromkeys(cells))
        keys = {cell: cache_key(cell, self.scale) for cell in unique}
        pending = []
        cached = 0
        for cell in unique:
            if cell in self._memory:
                cached += 1
                continue
            hit = self.cache.get(keys[cell]) if self.cache else None
            if hit is not None:
                self._memory[cell] = hit
                self.stats["hits"] += 1
                cached += 1
                self._emit("cell-cached", cell=cell.label)
            else:
                self.stats["misses"] += 1
                pending.append(cell)
        started_at = time.time()  # repro: allow-nondeterminism[ND101] (wall-clock reporting, not results)
        self._emit("sweep-start", total=len(unique), cached=cached,
                   pending=len(pending), jobs=self.jobs)
        if pending:
            # An empty pending list short-circuits to a pure-cache merge:
            # no pool, no supervisor, no max_workers=0 to trip over.
            self._run_planned(pending, cached, len(unique), started_at)
        self._emit("sweep-done", total=len(unique), cached=cached,
                   simulated=len(pending),
                   quarantined=len([cell for cell in pending
                                    if cell in self.quarantined]),
                   wall_s=round(time.time() - started_at, 3))  # repro: allow-nondeterminism[ND101] (wall-clock reporting, not results)
        if self.supervision is not None:
            # Quarantined cells have no result; callers get None and the
            # details through ``quarantined`` / the ledger.
            return [self._memory.get(cell) for cell in cells]
        return [self._memory[cell] for cell in cells]

    def _store(self, cell, result, resumed):
        if resumed:
            self.stats["resumed"] += 1
        if self.cache is not None:
            self.cache.put(cache_key(cell, self.scale), cell, result)
        self._memory[cell] = result

    def _have_solo(self, task):
        """Whether a solo's value is in memory or (read through) the
        solo cache; a miss means the solo must run."""
        if task in self._solos:
            return True
        value = (self.solo_cache.get(solo_key(task, self.scale))
                 if self.solo_cache is not None else None)
        if value is None:
            self.solo_stats["misses"] += 1
            return False
        self.solo_stats["hits"] += 1
        self._solos[task] = value
        return True

    def _store_solo(self, task, value):
        if self.solo_cache is not None:
            self.solo_cache.put(solo_key(task, self.scale), task, value)
        self._solos[task] = value

    def _task_call(self, task):
        """``(worker, *args)`` of one unsupervised task."""
        if isinstance(task, SoloTask):
            return (_execute_solo, task, self.scale)
        return (_execute_cell, task, self.scale, self.resume_dir)

    def _run_planned(self, pending, cached, total, started_at):
        """Run pending cells plus their missing solos (see the class
        docstring) in-process (``jobs=1``), over the process pool, or
        under the cell supervisor."""
        join = _SoloJoin(self, pending, cached, total, started_at)
        tasks = join.schedule(self.jobs)
        if self.supervision is not None:
            self._run_supervised(tasks, join)
        elif self.jobs == 1:
            for task in tasks:
                join.start(task, running=1)
                worker, *args = self._task_call(task)
                join.land(task, worker(*args), running=0)
        else:
            with ProcessPoolExecutor(max_workers=min(self.jobs,
                                                     len(tasks))) as pool:
                futures = {}
                for task in tasks:
                    futures[pool.submit(*self._task_call(task))] = task
                    join.start(task, running=len(futures))
                outstanding = set(futures)
                while outstanding:
                    finished, outstanding = wait(
                        outstanding, return_when=FIRST_COMPLETED)
                    for future in finished:
                        join.land(futures[future], future.result(),
                                  running=len(outstanding))

    # -- supervised execution --------------------------------------------

    def _heartbeat_file(self, cell):
        from repro.reliability.guard import run_slug

        return os.path.join(
            self._work_dir, "heartbeats",
            run_slug(cell.workload, cell.policy, cell.seed) + ".hb")

    def _ledger_info(self, cell):
        if isinstance(cell, SoloTask):
            return {"solo": cell.profile.name, "seed": cell.seed,
                    "key": solo_key(cell, self.scale)}
        checkpoint = None
        if self.resume_dir is not None:
            from repro.reliability.guard import run_slug

            checkpoint = os.path.join(
                self.resume_dir,
                run_slug(cell.workload, cell.policy, cell.seed))
        return {"workload": cell.workload, "policy": cell.policy,
                "seed": cell.seed, "key": cache_key(cell, self.scale),
                "checkpoint": checkpoint}

    def _merge_supervisor(self, supervisor):
        for item, entry in supervisor.quarantined.items():
            if isinstance(item, SoloTask):
                self.quarantined_solos[item] = entry
            else:
                # A cell given up on because of its solo keeps that entry.
                self.quarantined.setdefault(item, entry)
        self.supervisor_stats["retries"] += supervisor.retries
        self.supervisor_stats["timeouts"] += supervisor.timeouts
        self.supervisor_stats["pool_breaks"] += supervisor.pool_breaks
        self.supervisor_stats["degraded"] |= supervisor.degraded

    def _run_supervised(self, tasks, join):
        """Run planned cells and solos under one cell supervisor.

        Cell events come through with the same progress fields as the
        unsupervised paths, plus the supervisor's own ``cell-retry`` /
        ``cell-timeout`` / ``cell-quarantined`` / ``pool-broken`` /
        ``pool-rebuilt`` / ``sweep-degraded`` events; a solo's lifecycle
        is reported as ``solo-start`` / ``solo-retry`` /
        ``solo-quarantined`` / ``solo-done`` instead.  Solos heartbeat
        nothing (a solo is one uninterrupted run), so ``cell_timeout``
        never fires on them.
        """
        by_label = {task.label: task for task in tasks}
        timeouts = self.supervision.cell_timeout is not None

        def heartbeat(task):
            if isinstance(task, SoloTask):
                return None
            return self._heartbeat_file(task)

        def task_args(task, attempt):
            return (task, self.scale, self.resume_dir,
                    heartbeat(task) if timeouts else None,
                    attempt, self.fault_plan)

        def forward(event, **fields):
            task = by_label.get(fields.get("cell"))
            if event == "cell-start":
                del fields["cell"]
                join.start(task, **fields)
            elif isinstance(task, SoloTask):
                fields["solo"] = fields.pop("cell")
                self._emit(event.replace("cell-", "solo-", 1), **fields)
                if event == "cell-quarantined":
                    # The supervisor files the entry before emitting.
                    join.solo_failed(task, supervisor.quarantined[task])
            else:
                self._emit(event, **fields)

        supervisor = CellSupervisor(
            worker=_execute_task, task_args=task_args, jobs=self.jobs,
            config=self.supervision,
            item_key=lambda task: task.label,
            item_label=lambda task: task.label,
            heartbeat_path=heartbeat if timeouts else None,
            validate=_validate_task_value,
            on_result=join.land, emit=forward,
            ledger=QuarantineLedger(self.quarantine_path),
            ledger_info=self._ledger_info,
            progress=lambda task: not isinstance(task, SoloTask))
        supervisor.run(tasks)
        self._merge_supervisor(supervisor)

    def _quarantine_dependent(self, cell, task, entry):
        """Give up on a cell whose solo ``task`` was quarantined: ledger
        record, ``cell-quarantined`` event, no result."""
        last = entry["last_error"].splitlines()
        error = ("SoloQuarantined: %s failed %d attempts: %s"
                 % (task.label, entry["attempts"], last[0] if last else ""))
        record = {
            "cell": cell.label,
            "attempts": entry["attempts"],
            "failures": [error],
            "last_error": error,
            "quarantined_at": round(time.time(), 3),  # repro: allow-nondeterminism[ND101] (ledger timestamp, not results)
        }
        record.update(self._ledger_info(cell))
        QuarantineLedger(self.quarantine_path).record(record)
        self.quarantined[cell] = record
        self._emit("cell-quarantined", cell=cell.label,
                   attempts=entry["attempts"], error=error)

    # -- grid conveniences ----------------------------------------------

    def sweep(self, workloads=None, groups=None, policies=DEFAULT_POLICIES,
              seeds=None, epochs=None, workloads_per_group=None):
        """Run a cartesian grid; returns (cells, results) in grid order."""
        cells = grid_cells(
            workloads=workloads, groups=groups, policies=policies,
            seeds=seeds if seeds is not None else (self.scale.seed,),
            epochs=epochs,
            workloads_per_group=(workloads_per_group
                                 if workloads_per_group is not None
                                 else self.scale.workloads_per_group))
        return cells, self.run_cells(cells)

    def compare_policies(self, workload, policy_names, epochs=None):
        """Drop-in for :func:`repro.experiments.runner.compare_policies`:
        {requested name: RunResult} for one workload, read through the
        cache/pool."""
        cells = [SweepCell(workload=workload.name,
                           policy=canonical_policy(name),
                           seed=self.scale.seed, epochs=epochs)
                 for name in policy_names]
        return dict(zip(policy_names, self.run_cells(cells)))

    def prefetch(self, workloads, policy_names, seeds=None, epochs=None):
        """Warm the engine for a whole grid in one parallel pass, so
        later per-workload :meth:`compare_policies` calls are lookups."""
        self.sweep(workloads=[getattr(w, "name", w) for w in workloads],
                   groups=[], policies=policy_names, seeds=seeds,
                   epochs=epochs)


# ----------------------------------------------------------------------
# Deterministic merge
# ----------------------------------------------------------------------


def merged_document(cells, results, scale, quarantined=None):
    """The canonical merged form of one sweep: scale description plus one
    record per cell *in request order* with the full result payload and
    the three Section 3.1.1 metrics.

    A partial (supervised) sweep stays valid: cells whose result is
    ``None`` move to the always-present ``"quarantined"`` section — one
    record per given-up cell with its attempt count and last error, fed
    from ``SweepEngine.quarantined``.  A complete sweep serializes with
    ``"quarantined": []``, so fault-free supervised runs remain
    byte-identical to plain ones.
    """
    quarantined = quarantined or {}
    records = []
    dropped = []
    for cell, result in zip(cells, results):
        if result is None:
            info = quarantined.get(cell, {})
            last_error = info.get("last_error") or ""
            dropped.append({
                "workload": cell.workload,
                "policy": cell.policy,
                "seed": cell.seed,
                "attempts": info.get("attempts"),
                "last_error": last_error.splitlines()[0] if last_error
                else "",
            })
            continue
        records.append({
            "workload": cell.workload,
            "policy": cell.policy,
            "seed": cell.seed,
            "epochs": cell.epochs if cell.epochs is not None
            else scale.epochs,
            "metrics": {
                "avg_ipc": result.avg_ipc,
                "weighted_ipc": result.weighted_ipc,
                "harmonic_weighted_ipc": result.harmonic_weighted_ipc,
            },
            "result": result.to_dict(),
        })
    return {
        "scale": {
            "config": _jsonable(scale.config),
            "epoch_size": scale.epoch_size,
            "epochs": scale.epochs,
            "warmup": scale.warmup,
        },
        "cells": records,
        "quarantined": dropped,
    }


def merged_json(cells, results, scale, quarantined=None):
    """Byte-stable JSON of a sweep: independent of job count, completion
    order, caching, and resume history."""
    return json.dumps(merged_document(cells, results, scale,
                                      quarantined=quarantined),
                      indent=1, sort_keys=True) + "\n"


__all__ = [
    "CacheStats",
    "CellBootstrapError",
    "CellResultError",
    "DEFAULT_POLICIES",
    "ResultCache",
    "SWEEP_EVENTS",
    "Supervision",
    "SWEEP_PRESETS",
    "SoloCache",
    "SoloTask",
    "SweepCell",
    "SweepEngine",
    "cache_key",
    "canonical_policy",
    "cell_solos",
    "clear_fingerprint_memo",
    "code_fingerprint",
    "default_cache_dir",
    "grid_cells",
    "merged_document",
    "merged_json",
    "policy_factory",
    "pool_map",
    "solo_key",
]
