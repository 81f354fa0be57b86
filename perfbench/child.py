"""Child processes of the benchmark (one fresh interpreter per run).

    python3 perfbench/child.py sweep --spans DIR -- <repro sweep args>
        ``repro sweep`` through :func:`repro.cli.main` with the layer
        tracer installed (the timed runs call ``python -m repro`` itself).
    python3 perfbench/child.py learn --seed N --out FILE [--spans DIR]
        the ``learn-offline`` workload: OFF-LINE, RAND-HILL and the
        matching policy cells, in process.
    python3 perfbench/child.py probe --cell WORKLOAD/POLICY --seed N
            --epochs E --out FILE
        one cell on the fast core, the reference core, and the fast core
        with ``CoreProfile`` attached.

The parent puts ``src`` on ``PYTHONPATH``.  Each mode writes a JSON
report; ``dispatch_s`` is the wall-clock time just before the first
simulation starts (set-up ends there).
"""

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402  (benchmark-local module next to this file)


def _canonical_digest(document):
    blob = json.dumps(document, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _install_tracer(spans_dir):
    """Install the layer tracer when spans are requested; returns it."""
    if spans_dir is None:
        return None
    import tracer

    tracer.install(spans_dir)
    return tracer.TRACER


def cmd_sweep(args):
    _install_tracer(args.spans)
    from repro.cli import main

    return main(args.repro_args)


def _learn_units():
    """(workload, unit) pairs run by ``learn-offline``, in order."""
    units = []
    for name in spec.LEARN_WORKLOADS:
        units.extend((name, unit) for unit in spec.LEARN_CELLS)
        units.append((name, "OFF-LINE"))
        if name in spec.LEARN_RAND_HILL:
            units.append((name, "RAND-HILL"))
    return units


def _learner_record(learner, singles, metric):
    epochs = []
    for epoch in learner.epochs:
        record = {"best_shares": list(epoch.best_shares),
                  "best_value": epoch.best_value,
                  "committed": epoch.result.committed,
                  "cycles": epoch.result.cycles,
                  "ipcs": epoch.result.ipcs}
        if hasattr(epoch, "curve"):
            record["curve"] = [[list(shares), value, ipcs]
                               for shares, value, ipcs in epoch.curve]
        else:
            record["trials"] = epoch.trials
            record["passes"] = epoch.passes
        epochs.append(record)
    ipcs = learner.overall_ipcs()
    return {"epochs": epochs, "ipcs": ipcs, "single_ipcs": singles,
            "weighted_ipc": metric.value(ipcs, singles)}


def _check_learner(unit, record, budget):
    """Replay checks: the charged epoch reruns the winning trial from the
    same checkpoint, so it must reproduce that trial exactly."""
    errors = []
    for index, epoch in enumerate(record["epochs"]):
        if "curve" in epoch:
            values = [value for __, value, __ in epoch["curve"]]
            if epoch["best_value"] != max(values):
                errors.append("%s epoch %d: best value is not the curve "
                              "maximum" % (unit, index))
            winners = [ipcs for shares, __, ipcs in epoch["curve"]
                       if shares == epoch["best_shares"]]
            if not winners or winners[0] != epoch["ipcs"]:
                errors.append("%s epoch %d: charged epoch does not replay "
                              "the best trial" % (unit, index))
        elif epoch["trials"] != budget:
            errors.append("%s epoch %d: %d trials, budget %d"
                          % (unit, index, epoch["trials"], budget))
    return errors


def cmd_learn(args):
    trace = _install_tracer(args.spans)
    from repro.core.metrics import WeightedIPC
    from repro.experiments.figures import run_offline, run_rand_hill
    from repro.experiments.parallel import policy_factory
    from repro.experiments.runner import run_policy, solo_ipcs
    from repro.workloads.mixes import get_workload

    scale = spec.learn_scale(args.seed)
    metric = WeightedIPC()
    units = _learn_units()
    results = {}
    errors = []
    committed = 0
    dispatch_s = time.time()
    for name, unit in units:
        label = "%s/%s" % (name, unit)
        if trace is not None:
            trace.cell = label
        workload = get_workload(name)
        if unit == "OFF-LINE":
            learner = run_offline(workload, scale, metric)
        elif unit == "RAND-HILL":
            learner = run_rand_hill(workload, scale, metric)
        else:
            result = run_policy(workload, policy_factory(unit, scale)(),
                                scale)
            results[label] = {"result": result.to_dict(),
                              "weighted_ipc": result.weighted_ipc}
            committed += sum(result.committed)
            continue
        record = _learner_record(learner, solo_ipcs(workload, scale),
                                 metric)
        errors.extend(_check_learner(label, record, scale.rand_hill_budget))
        results[label] = record
        committed += sum(sum(epoch["committed"])
                         for epoch in record["epochs"])
    if trace is not None:
        trace.cell = None
    report = {
        "dispatch_s": dispatch_s,
        "units": [list(unit) for unit in units],
        "weighted_ipc": {label: record["weighted_ipc"]
                         for label, record in results.items()},
        "committed": committed,
        "digest": _canonical_digest(results),
        "errors": errors,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


def cmd_probe(args):
    from repro.core.controller import EpochController
    from repro.experiments.parallel import policy_factory
    from repro.experiments.runner import make_processor
    from repro.pipeline.fastpath import forced_core
    from repro.pipeline.profile import CoreProfile
    from repro.workloads.mixes import get_workload

    workload_name, policy_name = args.cell.split("/")
    scale = spec.bench_scale(args.seed, args.epochs)

    def simulate(core, profile=None):
        with forced_core(core):
            start = time.perf_counter()
            proc = make_processor(get_workload(workload_name),
                                  policy_factory(policy_name, scale)(),
                                  scale)
            proc.profile = profile
            controller = EpochController(proc, epoch_size=scale.epoch_size)
            controller.run(scale.epochs)
            wall = time.perf_counter() - start
        proc.profile = None
        state = {"history": [vars(epoch) for epoch in controller.history],
                 "stats": vars(proc.stats)}
        return wall, _canonical_digest(state)

    fast_s, fast_digest = simulate("fast")
    reference_s, reference_digest = simulate("reference")
    profile = CoreProfile()
    __, profiled_digest = simulate("fast", profile)
    report = {
        "fast_s": fast_s,
        "reference_s": reference_s,
        "identical": fast_digest == reference_digest == profiled_digest,
        "stage_active": dict(profile.active_cycles),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--spans", required=True)
    sweep.add_argument("repro_args", nargs=argparse.REMAINDER)
    learn = sub.add_parser("learn")
    learn.add_argument("--seed", type=int, required=True)
    learn.add_argument("--out", required=True)
    learn.add_argument("--spans", default=None)
    probe = sub.add_parser("probe")
    probe.add_argument("--cell", required=True)
    probe.add_argument("--seed", type=int, required=True)
    probe.add_argument("--epochs", type=int, required=True)
    probe.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "sweep" and args.repro_args[:1] == ["--"]:
        args.repro_args = args.repro_args[1:]
    return {"sweep": cmd_sweep, "learn": cmd_learn,
            "probe": cmd_probe}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
