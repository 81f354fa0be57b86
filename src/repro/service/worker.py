"""The ``repro worker`` process: pull, simulate, heartbeat, upload.

A worker owns no scheduling state.  It registers with the daemon, then
loops: lease one cell, simulate it through the exact same
:func:`~repro.experiments.parallel._execute_cell` path the process-pool
workers use (checkpointed into the daemon's shared ``resume_dir``, so a
reclaimed cell resumes mid-run on whichever node picks it up), attach
its SingleIPC solos from this worker's own in-process solo LRU, renew
the lease with heartbeats while the simulation runs on a background
thread, and upload the ``RunResult``.  Losing the lease (HTTP 410) is
*not* fatal: the worker finishes and uploads anyway — the result is
content-addressed, so a late duplicate is harmless and an early arrival
simply resolves the cell for whoever holds the lease now.

With ``--batch-cells N`` the worker leases up to N cells per loop and
runs the fresh ones as one lockstep pack through the batched core lane
(:mod:`repro.experiments.batchrun`) — byte-identical results, shared
replay tapes and SingleIPC runs.  Cells that already *have* a
checkpoint to resume, or are on a retry attempt, keep the per-cell
resilient path; every leased cell is heartbeated while the pack runs,
and results are uploaded individually.  A pack failure never charges
its innocent cells: the worker falls back to per-cell execution for
every packed cell instead of reporting the whole pack failed, and a
cell evicted by the runtime mirror audit (``REPRO_AUDIT=mirror``)
reruns on the scalar lane in the same loop (docs/RELIABILITY.md,
"Batched-lane supervision").

The ``fault`` hook exists for the service chaos presets: e.g.
``split-result:2`` makes the first two uploads carry a torn result
payload, proving the daemon's validation charges the attempt and never
lets the bytes near the cache.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request

from repro.experiments.parallel import _attach_cell_solos, _execute_cell
from repro.service import protocol


def _has_checkpoint(resume_dir, cell):
    """Whether a cell already has mid-run checkpoint state to resume.

    Such cells must keep the per-cell resilient path — packing would
    ignore the checkpoint and re-simulate from scratch."""
    if not resume_dir:
        return False
    from repro.reliability.guard import run_slug

    run_dir = os.path.join(
        resume_dir, run_slug(cell.workload, cell.policy, cell.seed))
    try:
        return bool(os.listdir(run_dir))
    except OSError:
        return False


def _http(method, url, payload=None, timeout=60.0):
    """One synchronous JSON request; returns ``(status, parsed_body)``.

    HTTP error statuses are returned, not raised; only transport errors
    (connection refused, timeouts) propagate as ``URLError``/``OSError``.
    """
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status = response.status
            body = response.read()
    except urllib.error.HTTPError as exc:
        status = exc.code
        body = exc.read()
    try:
        parsed = json.loads(body.decode("utf-8")) if body else None
    except (UnicodeDecodeError, ValueError):
        parsed = None
    return status, parsed


class _Fault:
    """Parsed ``--fault`` spec, e.g. ``split-result:2``."""

    KINDS = ("split-result",)

    def __init__(self, spec):
        self.kind = None
        self.remaining = 0
        if not spec:
            return
        kind, _sep, count = spec.partition(":")
        if kind not in self.KINDS:
            raise ValueError("unknown worker fault %r (valid: %s)"
                             % (kind, ", ".join(self.KINDS)))
        self.kind = kind
        self.remaining = int(count) if count else 1

    def corrupt_result(self):
        """Consume one split-result charge, if armed."""
        if self.kind == "split-result" and self.remaining > 0:
            self.remaining -= 1
            return True
        return False


def _split_payload(result_dict):
    """A torn upload: the result object with half its fields missing,
    as if the writer died mid-serialization."""
    keys = sorted(result_dict)
    return {key: result_dict[key] for key in keys[:len(keys) // 2]}


def run_worker(server_url, poll_interval=0.25, max_cells=None,
               idle_exit=None, fault=None, name=None, log=None,
               batch_cells=1):
    """Serve cells from ``server_url`` until told to stop.

    ``max_cells`` bounds how many cells this worker resolves (chaos
    presets use 1-cell workers to force churn); ``idle_exit`` exits
    after that many consecutive seconds without work (so workers drain
    away with their daemon); ``batch_cells > 1`` leases up to that many
    cells per loop and packs the fresh ones through the batched core
    lane.  Returns a summary dict.
    """
    from repro.reliability.packsup import audit_mode, validate_batch_cells

    validate_batch_cells(batch_cells)
    audit = audit_mode() == "mirror"
    say = log or (lambda message: None)
    fault_plan = _Fault(fault)
    server_url = server_url.rstrip("/")
    summary = {"completed": 0, "failed": 0, "lease_lost": 0,
               "faulted": 0, "reregistered": 0}

    def register():
        last_error = None
        for _attempt in range(50):
            try:
                status, body = _http(
                    "POST", server_url + "/v1/workers/register",
                    {"name": name or "worker"})
            except (urllib.error.URLError, OSError) as exc:
                last_error = exc
                time.sleep(0.1)
                continue
            if status == 200:
                return body
            last_error = RuntimeError("register got HTTP %d" % status)
            time.sleep(0.1)
        raise RuntimeError("cannot register with %s: %s"
                           % (server_url, last_error))

    registration = register()
    worker_id = registration["worker"]
    lease_timeout = float(registration.get("lease_timeout", 30.0))
    heartbeat_every = max(0.05, lease_timeout / 4.0)
    say("worker %s registered with %s" % (worker_id, server_url))
    idle_since = time.monotonic()  # repro: allow-nondeterminism[ND101] (idle-exit timer)

    while True:
        if max_cells is not None and summary["completed"] >= max_cells:
            say("worker %s done: %d cell(s) served" %
                (worker_id, summary["completed"]))
            return summary
        try:
            status, task = _http(
                "POST", "%s/v1/workers/%s/lease" % (server_url, worker_id))
        except (urllib.error.URLError, OSError):
            # Daemon gone (drained or crashed): workers outlive it only
            # by idle_exit, so fleets wind down on their own.
            if idle_exit is not None \
                    and time.monotonic() - idle_since > idle_exit:  # repro: allow-nondeterminism[ND101] (idle-exit timer)
                say("worker %s exiting: server unreachable" % worker_id)
                return summary
            time.sleep(poll_interval)
            continue
        if status == 404:
            # The daemon restarted and forgot us; enroll again.
            registration = register()
            worker_id = registration["worker"]
            summary["reregistered"] += 1
            continue
        if status != 200 or task is None:
            if idle_exit is not None \
                    and time.monotonic() - idle_since > idle_exit:  # repro: allow-nondeterminism[ND101] (idle-exit timer)
                say("worker %s exiting: idle for %.1fs"
                    % (worker_id, idle_exit))
                return summary
            time.sleep(poll_interval)
            continue

        idle_since = time.monotonic()  # repro: allow-nondeterminism[ND101] (idle-exit timer)
        limit = batch_cells if max_cells is None else min(
            batch_cells, max_cells - summary["completed"])
        batch = [task]
        while len(batch) < limit:
            try:
                status, extra = _http(
                    "POST", "%s/v1/workers/%s/lease"
                    % (server_url, worker_id))
            except (urllib.error.URLError, OSError):
                break
            if status != 200 or extra is None:
                break
            batch.append(extra)
        entries = []
        for task in batch:
            entries.append({
                "task": task,
                "cell": protocol.cell_from_spec(task["cell"]),
                "scale": protocol.scale_from_spec(task["scale"]),
                "outcome": {},
            })
            say("worker %s leased %s (attempt %d)"
                % (worker_id, entries[-1]["cell"].label, task["attempt"]))

        # Pack fresh first-attempt cells that share a scale; cells with
        # an existing mid-run checkpoint, or on a retry attempt, keep the
        # per-cell resilient path — the batched lane's divergence-risk
        # fallback (docs/PERFORMANCE.md).
        pack = []
        pack_scale = None
        if len(entries) > 1:
            for entry in entries:
                task = entry["task"]
                if task["attempt"] != 1 \
                        or _has_checkpoint(task["resume_dir"],
                                           entry["cell"]):
                    continue
                if pack_scale is None:
                    pack_scale = (task["scale"], entry["scale"])
                if task["scale"] == pack_scale[0]:
                    pack.append(entry)
            if len(pack) < 2:
                pack = []
        packed = {id(entry) for entry in pack}
        if pack:
            say("worker %s packing %d cell(s) through the batched lane"
                % (worker_id, len(pack)))

        def simulate():
            if pack:
                from repro.experiments.batchrun import run_pack

                try:
                    results = run_pack(
                        [entry["cell"] for entry in pack], pack_scale[1],
                        audit=audit)
                except BaseException as exc:  # contain, don't charge
                    # A pack failure says nothing about which cell is at
                    # fault; rerunning every packed cell per-cell below
                    # keeps innocent cells from being charged a failed
                    # attempt on the service side.
                    say("worker %s pack failed (%s: %s); falling back "
                        "to per-cell execution"
                        % (worker_id, type(exc).__name__, exc))
                    packed.clear()
                else:
                    for entry, result in zip(pack, results):
                        if result is None:
                            # Audit-evicted: rerun on the scalar lane.
                            say("worker %s evicting %s from its pack "
                                "(mirror divergence)"
                                % (worker_id, entry["cell"].label))
                            packed.discard(id(entry))
                        else:
                            entry["outcome"]["value"] = (result, False)
            for entry in entries:
                if id(entry) in packed:
                    continue
                task = entry["task"]
                try:
                    result, resumed = _execute_cell(
                        entry["cell"], entry["scale"],
                        task["resume_dir"], attempt=task["attempt"])
                    _attach_cell_solos(entry["cell"], entry["scale"], result)
                    entry["outcome"]["value"] = (result, resumed)
                except BaseException as exc:  # report, don't die
                    entry["outcome"]["error"] = "%s: %s" \
                        % (type(exc).__name__, exc)

        thread = threading.Thread(target=simulate, daemon=True)
        thread.start()
        while thread.is_alive():
            thread.join(heartbeat_every)
            if not thread.is_alive():
                break
            for entry in entries:
                try:
                    status, _body = _http(
                        "POST", "%s/v1/workers/%s/heartbeat"
                        % (server_url, worker_id),
                        {"key": entry["task"]["key"]})
                except (urllib.error.URLError, OSError):
                    continue
                if status == 410:
                    # Lease reclaimed; finish and upload anyway — the
                    # content-addressed result is valid whoever posts it.
                    summary["lease_lost"] += 1

        for entry in entries:
            task = entry["task"]
            cell = entry["cell"]
            outcome = entry["outcome"]
            if "error" in outcome:
                payload = {"key": task["key"], "ok": False,
                           "error": outcome["error"]}
                summary["failed"] += 1
            else:
                result, resumed = outcome["value"]
                result_dict = result.to_dict()
                if fault_plan.corrupt_result():
                    result_dict = _split_payload(result_dict)
                    summary["faulted"] += 1
                    say("worker %s splitting result upload for %s"
                        % (worker_id, cell.label))
                payload = {"key": task["key"], "ok": True,
                           "result": result_dict, "resumed": resumed}
            try:
                status, body = _http(
                    "POST", "%s/v1/workers/%s/result"
                    % (server_url, worker_id), payload)
            except (urllib.error.URLError, OSError):
                continue  # daemon will reclaim the lease and requeue
            if status == 200 and payload["ok"]:
                summary["completed"] += 1
                say("worker %s uploaded %s" % (worker_id, cell.label))
            elif status == 400:
                say("worker %s upload rejected for %s: %s"
                    % (worker_id, cell.label,
                       (body or {}).get("error", "invalid")))


__all__ = ["run_worker"]
