#!/usr/bin/env python
"""Build ``BENCH_core.json`` (fast vs reference core throughput) or run
the CI smoke check.

Two modes:

``python scripts/bench_core.py --out BENCH_core.json``
    Full bench matrix (see :func:`repro.experiments.profiling.bench_document`):
    MEM-heavy Figure 4 cells under the fast and reference cores at the
    paper's memory latency and at the far-memory stress latency with
    per-cell speedups.  Takes several minutes on the paper machine
    config.

``python scripts/bench_core.py --check``
    CI smoke, two legs.  First one MEM-heavy Figure 4 cell (art-mcf
    under FLUSH) at the stress latency on a trimmed window, asserting
    the fast core's KIPS is at least the reference core's — that cell's
    true speedup is ~2x, so the >= 1.0 gate has a wide margin against
    CI-runner noise.  Then the smoke-scale OFF-LINE and RAND-HILL
    learners run with their trial epochs in-process (``jobs=1``) and on
    two worker processes (``jobs=2``), asserting the canonical JSON of
    every epoch is identical.  Exits 1 with a diagnostic on failure.
"""

import argparse
import dataclasses
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.experiments.profiling import (  # noqa: E402
    STRESS_MEM_LATENCY,
    bench_document,
)


def run_check(epochs, warmup):
    """One stress cell under both cores, then learner identity across
    trial job counts."""
    document = bench_document(epochs=epochs, warmup=warmup,
                              cells=(("art-mcf", "FLUSH"),),
                              mem_latencies=(STRESS_MEM_LATENCY,),
                              progress=lambda line: print("[bench] " + line))
    cell = document["cells"][0]
    fast, reference = cell["fast"], cell["reference"]
    print("[bench] fast %.1f KIPS (skip ratio %.3f) vs reference %.1f KIPS"
          % (fast["kips"], fast["skip_ratio"], reference["kips"]))
    if fast["committed"] != reference["committed"] \
            or fast["cycles"] != reference["cycles"]:
        print("error: cores disagree on simulated work: fast %r "
              "vs reference %r"
              % ((fast["cycles"], fast["committed"]),
                 (reference["cycles"], reference["committed"])),
              file=sys.stderr)
        return 1
    if fast["kips"] < reference["kips"]:
        print("error: fast core slower than reference "
              "(%.1f < %.1f KIPS) on art-mcf/FLUSH @ mem=%d"
              % (fast["kips"], reference["kips"], STRESS_MEM_LATENCY),
              file=sys.stderr)
        return 1
    print("[bench] OK: fast-core speedup %.2fx" % cell["speedup"])
    # Leg two: parallel learner trials must not change a single byte.
    serial, parallel = learner_json(jobs=1), learner_json(jobs=2)
    if serial != parallel:
        print("error: learner results differ between jobs=1 and jobs=2",
              file=sys.stderr)
        return 1
    print("[bench] OK: OFF-LINE and RAND-HILL identical at jobs=1 and "
          "jobs=2 (%d bytes)" % len(serial))
    return 0


def learner_json(jobs):
    """Canonical JSON of smoke-scale OFF-LINE (art-mcf) and RAND-HILL
    (art-mcf, art-mcf-swim-twolf) runs with ``jobs`` trial workers."""
    from repro.experiments.figures import run_offline, run_rand_hill
    from repro.experiments.runner import ExperimentScale
    from repro.workloads.mixes import get_workload

    scale = ExperimentScale.smoke().with_overrides(epochs=3)
    runs = [("OFF-LINE", "art-mcf", run_offline),
            ("RAND-HILL", "art-mcf", run_rand_hill),
            ("RAND-HILL", "art-mcf-swim-twolf", run_rand_hill)]
    document = {}
    for unit, name, run in runs:
        learner = run(get_workload(name), scale, jobs=jobs)
        document["%s/%s" % (name, unit)] = {
            "epochs": [dataclasses.asdict(epoch) for epoch in learner.epochs],
            "ipcs": learner.overall_ipcs(),
        }
    return json.dumps(document, sort_keys=True)


def run_full(out, epochs, warmup):
    document = bench_document(epochs=epochs, warmup=warmup,
                              progress=lambda line: print("[bench] " + line))
    with open(out, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    best = max(document["cells"], key=lambda cell: cell["speedup"])
    print("[bench] %d cells written to %s; best speedup %.2fx "
          "(%s/%s @ mem=%d, skip ratio %.3f)"
          % (len(document["cells"]), out, best["speedup"],
             best["workload"], best["policy"], best["mem_latency"],
             best["fast"]["skip_ratio"]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_core.json"),
                        metavar="FILE", help="where to write the document")
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: one stress cell, assert fast KIPS "
                             ">= reference KIPS; then learner identity "
                             "at trial jobs=1 and jobs=2")
    parser.add_argument("--epochs", type=int, default=None,
                        help="measured epochs per run (default: 2 full, "
                             "1 for --check)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup cycles per run (default: 10000 full, "
                             "5000 for --check)")
    args = parser.parse_args(argv)
    if args.check:
        return run_check(epochs=args.epochs or 1,
                         warmup=args.warmup if args.warmup is not None
                         else 5000)
    return run_full(args.out, epochs=args.epochs or 2,
                    warmup=args.warmup if args.warmup is not None
                    else 10000)


if __name__ == "__main__":
    sys.exit(main())
