"""The repository benchmark: cold paper-regeneration sweeps and a rollback
learner run, timed end to end (``--trace 0``) or split per layer
(``--trace 1``).

    python3 perfbench/run.py --workload sweep-ilp --seed 1 --trace 0
    python3 perfbench/run.py --workload sweep-mem --seed 1 --trace 1
    python3 perfbench/run.py --workload learn-offline --steady 10

Run from the repository root (the simulator is imported from ``src``).
Every repetition is a fresh process with a fresh result cache:

* ``sweep-ilp`` / ``sweep-mem`` time ``python -m repro sweep --scale bench
  --jobs 2`` -- the supervised engine path users get;
* ``learn-offline`` times OFF-LINE and RAND-HILL (checkpoint/restore per
  trial) plus the matching policy cells, in one process.

``--trace 0`` repeats the workload for ``--seconds`` (at least three
times) and reports medians.  ``--trace 1`` runs it once untraced, once
warm from that run's result cache (sweeps), once traced, and probes one
named cell on the fast and reference cores; all results must be
byte-identical.  ``--steady N`` runs ``--trace 0`` N times on seeds
``--seed`` .. ``--seed + N - 1`` and prints median, quartiles and max/min
of every end-to-end metric.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (cells or learner runs that failed, or a
``sim_digest`` mismatch -- the error rate is ``failed / attempted``) and
``metrics``.  The run exits 1 when any of those fail, and 2 when the
simulator sources are missing or BENCHMARK.json disagrees with this
benchmark.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark-local modules next to this file)
import spec  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "kips": "kinstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    # Simulated: the workload's learner (HILL on the sweeps, OFF-LINE on
    # learn-offline) over a baseline, mean weighted-IPC ratio.
    "wipc_ratio_learner_vs_icount": "x",
    "wipc_ratio_learner_vs_dcra": "x",
}

MIN_REPS = 3
#: One repetition may not take longer than this (a hung child is killed).
REP_TIMEOUT_S = 150


class BenchError(Exception):
    """A repetition could not run or its output is wrong."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Every child compiles its imports from source, wherever it runs.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # The measured path is the default one: fast core, static
    # fingerprints, no audit, no inherited cache location.
    for name in ("REPRO_CORE", "REPRO_AUDIT", "REPRO_FINGERPRINT_MODE",
                 "REPRO_CACHE_DIR"):
        env.pop(name, None)
    return env


def _stop_group(pgid):
    """Kill whatever is left of a child's process group (pool workers of
    a killed sweep) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _spawn(cmd, log_path):
    """Run one child to completion; returns (exit code, start time, wall
    seconds, peak RSS in MB of the child and its reaped descendants)."""
    with open(log_path, "wb") as log:
        start = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        reaped = threading.Event()

        def kill_hung():
            if not reaped.is_set():
                os.killpg(proc.pid, signal.SIGKILL)

        # A blocking wait (no polling competes with the child for CPU);
        # the timer kills a hung child.
        timer = threading.Timer(REP_TIMEOUT_S, kill_hung)
        timer.start()
        try:
            __, status, usage = os.wait4(proc.pid, 0)
            wall = time.time() - start
            reaped.set()
        finally:
            timer.cancel()
            timer.join()
            if not reaped.is_set():
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
            _stop_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_maxrss / 1024.0


def _tail(path, lines=8):
    try:
        with open(path, errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return ""


def _mean(values):
    return sum(values) / len(values)


# -- sweeps ---------------------------------------------------------------


def _sweep_args(workload, seed, run_dir, cache_dir):
    return ["sweep", "--workloads", *workload["workloads"],
            "--policies", *spec.SWEEP_POLICIES, "--scale", "bench",
            "--epochs", str(workload["epochs"]), "--seed", str(seed),
            "--seeds", str(seed), "--jobs", str(spec.SWEEP_JOBS),
            "--cache-dir", cache_dir,
            "--out", os.path.join(run_dir, "merged.json"),
            "--events", os.path.join(run_dir, "events.jsonl"), "--quiet"]


def _check_sweep(workload, seed, doc):
    """Failed cells of one merged document, and per-workload WIPC."""
    errors = []
    wipc = {}
    expected = {(name, policy) for name in workload["workloads"]
                for policy in spec.SWEEP_POLICIES}
    for record in doc["quarantined"]:
        errors.append("quarantined %s/%s" % (record["workload"],
                                             record["policy"]))
    for record in doc["cells"]:
        policy = record["policy"].split("-WIPC")[0]
        result = record["result"]
        ipcs, singles = result["ipcs"], result["single_ipcs"]
        # Recompute the Section 3.1.1 metrics from the raw payload.
        weighted = _mean([ipc / max(single, 1e-12)
                          for ipc, single in zip(ipcs, singles)])
        ok = (record["seed"] == seed
              and result["cycles"] > 0 and sum(result["committed"]) > 0
              and all(math.isfinite(v) and v > 0 for v in ipcs + singles)
              and math.isclose(weighted, record["metrics"]["weighted_ipc"],
                               rel_tol=1e-9)
              and math.isclose(sum(ipcs), record["metrics"]["avg_ipc"],
                               rel_tol=1e-9))
        if not ok:
            errors.append("bad result %s/%s" % (record["workload"],
                                                record["policy"]))
        expected.discard((record["workload"], policy))
        wipc.setdefault(record["workload"], {})[policy] = \
            record["metrics"]["weighted_ipc"]
    errors.extend("missing %s/%s" % cell for cell in sorted(expected))
    return errors, wipc


def _events(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def run_sweep(name, seed, run_dir, traced=False, cache_dir=None):
    workload = spec.WORKLOADS[name]
    os.makedirs(run_dir, exist_ok=True)
    cache_dir = cache_dir or os.path.join(run_dir, "cache")
    repro_args = _sweep_args(workload, seed, run_dir, cache_dir)
    spans = os.path.join(run_dir, "spans")
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "sweep",
               "--spans", spans, "--"] + repro_args
    else:
        cmd = [sys.executable, "-m", "repro"] + repro_args
    log = os.path.join(run_dir, "log.txt")
    code, start, wall, rss = _spawn(cmd, log)
    attempted = len(workload["workloads"]) * len(spec.SWEEP_POLICIES)
    if code != 0:
        raise BenchError("repro sweep exited %d:\n%s" % (code, _tail(log)))
    with open(os.path.join(run_dir, "merged.json"), "rb") as handle:
        merged = handle.read()
    doc = json.loads(merged)
    errors, wipc = _check_sweep(workload, seed, doc)
    events = _events(os.path.join(run_dir, "events.jsonl"))
    starts = {e["cell"]: e["ts"] for e in events if e["event"] == "cell-start"}
    dones = sorted(e["ts"] for e in events if e["event"] == "cell-done")
    busy = sum(e["ts"] - starts[e["cell"]] for e in events
               if e["event"] == "cell-done" and e["cell"] in starts)
    # The pool's tail: from the first worker running out of cells to the
    # last cell landing.
    idle_from = dones[max(0, len(dones) - spec.SWEEP_JOBS)] if dones else 0
    return {
        "wall_s": wall,
        "setup_s": (min(starts.values()) - start) if starts else wall,
        "peak_rss_mb": rss,
        "committed": sum(sum(record["result"]["committed"])
                         for record in doc["cells"]),
        "digest": hashlib.sha256(merged).hexdigest(),
        "attempted": attempted,
        "errors": errors,
        "ratios": {
            "HILL/ICOUNT": _mean([v["HILL"] / v["ICOUNT"]
                                  for v in wipc.values()]),
            "HILL/DCRA": _mean([v["HILL"] / v["DCRA"]
                                for v in wipc.values()]),
        },
        "busy_ratio": busy / (spec.SWEEP_JOBS * wall),
        "tail_s": (dones[-1] - idle_from) if dones else 0.0,
        "spans": spans if traced else None,
    }


# -- learn-offline --------------------------------------------------------


def run_learn(name, seed, run_dir, traced=False, cache_dir=None):
    os.makedirs(run_dir, exist_ok=True)
    out = os.path.join(run_dir, "learn.json")
    spans = os.path.join(run_dir, "spans")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "learn",
           "--seed", str(seed), "--out", out]
    if traced:
        cmd += ["--spans", spans]
    log = os.path.join(run_dir, "log.txt")
    code, start, wall, rss = _spawn(cmd, log)
    if code != 0:
        raise BenchError("learn-offline child exited %d:\n%s"
                         % (code, _tail(log)))
    with open(out) as handle:
        report = json.load(handle)
    wipc = report["weighted_ipc"]

    def ratio(unit, base):
        pairs = [(wipc["%s/%s" % (w, unit)], wipc["%s/%s" % (w, base)])
                 for w in spec.LEARN_WORKLOADS
                 if "%s/%s" % (w, unit) in wipc]
        return _mean([a / b for a, b in pairs])

    return {
        "wall_s": wall,
        "setup_s": report["dispatch_s"] - start,
        "peak_rss_mb": rss,
        "committed": report["committed"],
        "digest": report["digest"],
        "attempted": len(report["units"]),
        "errors": report["errors"],
        "ratios": {
            "OFF-LINE/ICOUNT": ratio("OFF-LINE", "ICOUNT"),
            "OFF-LINE/DCRA": ratio("OFF-LINE", "DCRA"),
            "RAND-HILL/DCRA": ratio("RAND-HILL", "DCRA"),
        },
        "busy_ratio": 0.0,
        "tail_s": 0.0,
        "spans": spans if traced else None,
    }


RUNNERS = {"sweep": run_sweep, "learn": run_learn}


def _rep(name, seed, run_dir, traced=False, cache_dir=None):
    runner = RUNNERS[spec.WORKLOADS[name]["kind"]]
    return runner(name, seed, run_dir, traced=traced, cache_dir=cache_dir)


# -- identity -------------------------------------------------------------


def _source_digest():
    """Hash of the simulator's and the benchmark's own sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for file_name in sorted(files):
                if file_name.endswith(".py"):
                    path = os.path.join(base, file_name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def _remember_digest(name, seed, digest, source):
    """Compare with the digest an earlier traced or timed run of the same
    workload, seed and sources recorded in this checkout; record it if
    none did.  Returns an error string on a mismatch."""
    store = os.path.join(WORK, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-s%d-%s.json"
                        % (name, seed, _source_digest()[:16]))
    try:
        with open(path) as handle:
            earlier = json.load(handle)
    except (OSError, ValueError):
        tmp = "%s.%d" % (path, os.getpid())
        with open(tmp, "w") as handle:
            json.dump({"digest": digest, "source": source}, handle)
        os.replace(tmp, path)
        return None
    if earlier["digest"] != digest:
        return ("sim_digest %s differs from the %s run's %s"
                % (digest[:16], earlier["source"], earlier["digest"][:16]))
    return None


# -- reporting ------------------------------------------------------------


def _honesty(name, seed, ratios):
    print("[perfbench] modelled design, validated in direction only: "
          "synthetic SPEC2000 profiles, a subset of the Table 3 "
          "workloads, bench scale trimmed to %d epoch(s), caches pre-"
          "warmed by SMTProcessor._warm_caches plus scale.warmup cycles "
          "before measurement.  HILL spends its first epochs on SingleIPC "
          "solo samples, so at a trimmed epoch count it trails the "
          "baselines." % spec.WORKLOADS[name]["epochs"])
    print("[perfbench] seed %d (a baseline uses the seeds passed with "
          "--seed); held-back seed for confirming later claims: %d"
          % (seed, spec.HELD_BACK_SEED))
    for pair, ratio in sorted(ratios.items()):
        paper = spec.PAPER_GAINS_PCT.get(pair)
        print("[perfbench] simulated WIPC gain %-16s %+7.2f%%   (paper %s)"
              % (pair, (ratio - 1) * 100,
                 "n/a" if paper is None else "%+.1f%%" % paper))


def _emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }))


def _timed(args, work):
    reps = []
    errors = []
    start = time.time()
    while True:
        rep_dir = os.path.join(work, "rep%d" % len(reps))
        try:
            reps.append(_rep(args.workload, args.seed, rep_dir))
        except BenchError as exc:
            errors.append(str(exc))
            break
        errors.extend(reps[-1]["errors"])
        shutil.rmtree(rep_dir, ignore_errors=True)
        # End at the repetition boundary nearest to --seconds.
        elapsed = time.time() - start
        walls = [rep["wall_s"] for rep in reps]
        if len(reps) >= MIN_REPS and \
                elapsed + statistics.median(walls) / 2 > args.seconds:
            break
    if len({rep["digest"] for rep in reps}) > 1:
        errors.append("merged results differ between repetitions")
    metrics = {key: 0.0 for key in END_TO_END}
    if reps:
        sim_digest = reps[0]["digest"]
        mismatch = _remember_digest(args.workload, args.seed, sim_digest,
                                    "timed")
        if mismatch:
            errors.append(mismatch)
        print("[perfbench] %s: %d repetitions, sim_digest %s"
              % (args.workload, len(reps), sim_digest))
        walls = [rep["wall_s"] for rep in reps]
        ratios = reps[0]["ratios"]
        learner = spec.WORKLOADS[args.workload]["learner"]
        metrics = {
            "wall_s": statistics.median(walls),
            "kips": statistics.median(rep["committed"] / rep["wall_s"]
                                      / 1000.0 for rep in reps),
            "setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                             for rep in reps),
            "wipc_ratio_learner_vs_icount": ratios[learner + "/ICOUNT"],
            "wipc_ratio_learner_vs_dcra": ratios[learner + "/DCRA"],
        }
        _honesty(args.workload, args.seed, ratios)
        print("[perfbench] walls %s"
              % " ".join("%.3f" % wall for wall in walls))
    attempted = sum(rep["attempted"] for rep in reps) or 1
    failed = min(attempted, len(errors))
    for error in errors:
        print("[perfbench] error: %s" % error.splitlines()[0],
              file=sys.stderr)
    print("[perfbench] error_rate %.4f (%d of %d)"
          % (failed / attempted, failed, attempted))
    _emit(not errors, attempted, failed, metrics, END_TO_END)
    return 0 if not errors else 1


def _probe(args, work):
    workload = spec.WORKLOADS[args.workload]
    out = os.path.join(work, "probe.json")
    log = os.path.join(work, "probe-log.txt")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "probe",
           "--cell", workload["probe_cell"], "--seed", str(args.seed),
           "--epochs", str(workload["epochs"]), "--out", out]
    code = _spawn(cmd, log)[0]
    if code != 0:
        raise BenchError("probe exited %d:\n%s" % (code, _tail(log)))
    with open(out) as handle:
        return json.load(handle)


def _traced(args, work):
    errors = []
    metrics = {key: 0.0 for key in layers.PER_LAYER}
    attempted = 1
    try:
        cache_dir = os.path.join(work, "untraced", "cache")
        untraced = _rep(args.workload, args.seed,
                        os.path.join(work, "untraced"), cache_dir=cache_dir)
        attempted = 2 * untraced["attempted"]
        errors.extend(untraced["errors"])
        if spec.WORKLOADS[args.workload]["kind"] == "sweep":
            # A warm re-run reads every cell from the cold run's cache.
            warm = _rep(args.workload, args.seed, os.path.join(work, "warm"),
                        cache_dir=cache_dir)
            if warm["digest"] != untraced["digest"]:
                errors.append("warm re-run differs from the cold run")
            metrics["parallel.cache.warm_rerun_s"] = warm["wall_s"]
        traced = _rep(args.workload, args.seed, os.path.join(work, "traced"),
                      traced=True)
        errors.extend(traced["errors"])
        if traced["digest"] != untraced["digest"]:
            errors.append("traced results differ from the untraced run")
        mismatch = _remember_digest(args.workload, args.seed,
                                    traced["digest"], "traced")
        if mismatch:
            errors.append(mismatch)
        dumps = layers.load_spans(traced["spans"])
        traced_cells = sum(span[3] == "parallel.cell"
                           for dump in dumps for span in dump["spans"])
        if not dumps or (spec.WORKLOADS[args.workload]["kind"] == "sweep"
                         and traced_cells != untraced["attempted"]):
            # Pool workers inherit the wrappers by fork; a worker that
            # does not leaves its cells untraced.
            errors.append("the traced run recorded %d of %d cells"
                          % (traced_cells, untraced["attempted"]))
        metrics.update(layers.layer_metrics(dumps))
        trace_path = os.path.join(WORK, "trace-%s-s%d.json"
                                  % (args.workload, args.seed))
        with open(trace_path, "w") as handle:
            json.dump(layers.span_records(dumps), handle)
        print("[perfbench] spans written to %s"
              % os.path.relpath(trace_path, ROOT))
        probe = _probe(args, work)
        if not probe["identical"]:
            errors.append("fast, reference and profiled cores differ on %s"
                          % spec.WORKLOADS[args.workload]["probe_cell"])
        metrics["pipeline.fast_vs_reference"] = (probe["reference_s"]
                                                 / probe["fast_s"])
        for stage, value in probe["stage_active"].items():
            metrics["pipeline.stage_active." + stage] = value
        ratios = untraced["ratios"]
        metrics["core.rand_hill_vs_dcra"] = ratios.get("RAND-HILL/DCRA", 0.0)
        metrics["parallel.pool.busy_ratio"] = untraced["busy_ratio"]
        metrics["parallel.pool.tail_s"] = untraced["tail_s"]
        metrics["trace.overhead_ratio"] = (traced["wall_s"]
                                           / untraced["wall_s"])
        print("[perfbench] %s: sim_digest %s (untraced) %s (traced)"
              % (args.workload, untraced["digest"], traced["digest"]))
        _honesty(args.workload, args.seed, ratios)
    except BenchError as exc:
        errors.append(str(exc))
    for error in errors:
        print("[perfbench] error: %s" % error.splitlines()[0],
              file=sys.stderr)
    failed = min(attempted, len(errors))
    print("[perfbench] error_rate %.4f (%d of %d)"
          % (failed / attempted, failed, attempted))
    _emit(not errors, attempted, failed, metrics,
          {key: unit for key, (unit, __) in layers.PER_LAYER.items()})
    return 0 if not errors else 1


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _steady(args):
    """Run the workload ``--steady`` times, one seed each, and print the
    spread of every end-to-end metric."""
    values = {key: [] for key in END_TO_END}
    for index in range(args.steady):
        seed = args.seed + index
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print("seed %d failed:\n%s" % (seed, proc.stderr[-2000:]))
            return 1
        for key in END_TO_END:
            values[key].append(result["metrics"][key]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (key, result["metrics"][key]["value"])
            for key in END_TO_END)), flush=True)
    print("%-28s %10s %10s %10s %8s %8s"
          % ("metric", "q1", "median", "q3", "iqr/med", "max/min"))
    for key, series in values.items():
        q1, median, q3 = _quartiles(series)
        print("%-28s %10.4g %10.4g %10.4g %8.4f %8.4f"
              % (key, q1, median, q3, (q3 - q1) / median if median else 0,
                 max(series) / min(series) if min(series) else 0))
    return 0


def _definition_error():
    """BENCHMARK.json and the benchmark must name the same metrics."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
    except (OSError, ValueError) as exc:
        return "cannot read BENCHMARK.json: %s" % exc
    per_layer = {key: unit for key, (unit, __) in layers.PER_LAYER.items()}
    for section, expected in (("end_to_end", END_TO_END),
                              ("per_layer", per_layer)):
        names = {entry["name"]: entry["unit"]
                 for entry in declared.get(section, [])}
        if names != expected:
            return "BENCHMARK.json %s does not match perfbench" % section
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run --trace 0 on N seeds and print spreads")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print("error: simulator sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    error = _definition_error()
    if error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.steady:
        return _steady(args)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK)
    try:
        if args.trace:
            return _traced(args, work)
        return _timed(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
