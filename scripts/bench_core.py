#!/usr/bin/env python
"""Build ``BENCH_core.json`` (fast vs reference core throughput) or run
the CI smoke check.

Two modes:

``python scripts/bench_core.py --out BENCH_core.json``
    Full bench matrix (see :func:`repro.experiments.profiling.bench_document`):
    MEM-heavy Figure 4 cells under the fast and reference cores at the
    paper's memory latency and at the far-memory stress latency with
    per-cell speedups, plus the ``"grid"`` section — a fig4-style sweep
    grid timed end to end under the three lanes (per-cell hermetic fast,
    per-cell shared-cache fast, lockstep batched; see
    :func:`repro.experiments.profiling.bench_grid`).  Takes several
    minutes on the paper machine config.

``python scripts/bench_core.py --check``
    CI smoke, three legs.  First one MEM-heavy Figure 4 cell (art-mcf
    under FLUSH) at the stress latency on a trimmed window, asserting
    the fast core's KIPS is at least the reference core's — that cell's
    true speedup is ~2x, so the >= 1.0 gate has a wide margin against
    CI-runner noise.  Then a four-cell MEM2 grid through all three
    lanes, asserting the lanes stayed byte-identical (bench_grid raises
    otherwise) and the batched pack's aggregate KIPS is at least the
    hermetic fast lane's.  Finally the same grid as one *supervised*
    pack (the PackSupervisor path of ``repro sweep --batch-cells``),
    asserting supervision overhead does not surrender the pack's
    throughput win over hermetic fast.  A last leg runs the smoke-scale
    OFF-LINE and RAND-HILL learners with their trial epochs in-process
    (``jobs=1``) and on two worker processes (``jobs=2``) and asserts the
    canonical JSON of every epoch is identical.  Exits 1 with a
    diagnostic on failure.
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
    bench_grid,
)


def run_check(epochs, warmup):
    """One stress cell, both cores, then a small three-lane grid."""
    document = bench_document(epochs=epochs, warmup=warmup,
                              cells=(("art-mcf", "FLUSH"),),
                              mem_latencies=(STRESS_MEM_LATENCY,),
                              progress=lambda line: print("[bench] " + line),
                              grid=False)
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
    # Leg two: the batched lane on a small MEM-bound grid.  bench_grid
    # raises if the lanes' results diverge, so reaching the KIPS gate
    # already proves byte-identity.
    grid = bench_grid(epochs=epochs, warmup=warmup, groups=("MEM2",),
                      policies=("ICOUNT", "FLUSH"), workloads_per_group=2,
                      progress=lambda line: print("[bench] " + line))
    fast_lane, batched = grid["lanes"]["fast"], grid["lanes"]["batched"]
    print("[bench] grid (%d cells): fast %.1f KIPS vs batched %.1f KIPS"
          % (grid["cells"], fast_lane["kips"], batched["kips"]))
    if batched["kips"] < fast_lane["kips"]:
        print("error: batched lane slower than hermetic fast "
              "(%.1f < %.1f aggregate KIPS) on the MEM2 smoke grid"
              % (batched["kips"], fast_lane["kips"]), file=sys.stderr)
        return 1
    print("[bench] OK: batched-lane speedup %.2fx"
          % batched["speedup_vs_fast"])
    # Leg three: the same grid through the supervised batched lane (the
    # PackSupervisor path `repro sweep --batch-cells` now always takes).
    # Supervision must not eat the pack's throughput win.
    supervised = supervised_batched_kips(epochs=epochs, warmup=warmup)
    print("[bench] grid (%d cells): supervised-batched %.1f KIPS"
          % (grid["cells"], supervised["kips"]))
    if supervised["committed"] != batched["committed"]:
        print("error: supervised-batched lane disagrees on simulated "
              "work: %d committed vs %d"
              % (supervised["committed"], batched["committed"]),
              file=sys.stderr)
        return 1
    if supervised["kips"] < fast_lane["kips"]:
        print("error: supervised-batched lane slower than hermetic fast "
              "(%.1f < %.1f aggregate KIPS) on the MEM2 smoke grid"
              % (supervised["kips"], fast_lane["kips"]), file=sys.stderr)
        return 1
    print("[bench] OK: supervised-batched keeps the pack win "
          "(%.2fx the hermetic fast lane)"
          % (supervised["kips"] / fast_lane["kips"]))
    # Leg four: parallel learner trials must not change a single byte.
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


def supervised_batched_kips(epochs, warmup):
    """Aggregate KIPS for the CI grid under a supervised one-pack sweep.

    Mirrors bench_grid's batched lane, but through SweepEngine with
    supervision on (jobs=1, no timeout: the in-process PackSupervisor
    path), cache off so every cell simulates.
    """
    import time

    from repro.experiments.parallel import SweepEngine, grid_cells
    from repro.experiments.profiling import _bench_scale
    from repro.experiments.runner import ExperimentScale, clear_solo_cache
    from repro.reliability.supervisor import Supervision

    base = ExperimentScale.full()
    scale = _bench_scale(base, base.config.mem_latency, epochs, warmup)
    cells = grid_cells(groups=("MEM2",), policies=("ICOUNT", "FLUSH"),
                       workloads_per_group=2)
    engine = SweepEngine(scale, jobs=1, use_cache=False,
                         supervision=Supervision(seed=scale.seed),
                         batch_cells=len(cells))
    clear_solo_cache()
    start = time.perf_counter()  # repro: allow-nondeterminism[ND101] (throughput measurement, not results)
    results = engine.run_cells(cells)
    wall = time.perf_counter() - start  # repro: allow-nondeterminism[ND101] (throughput measurement, not results)
    clear_solo_cache()
    committed = sum(sum(result.committed) for result in results)
    return {"wall_s": wall, "committed": committed,
            "kips": committed / 1000.0 / wall if wall > 0 else 0.0}


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
    grid = document["grid"]
    print("[bench] grid (%d cells @ mem=%d): batched %.2fx, "
          "fast-serial %.2fx over hermetic fast"
          % (grid["cells"], grid["mem_latency"],
             grid["lanes"]["batched"]["speedup_vs_fast"],
             grid["lanes"]["fast-serial"]["speedup_vs_fast"]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_core.json"),
                        metavar="FILE", help="where to write the document")
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: one stress cell, assert fast KIPS "
                             ">= reference KIPS")
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
