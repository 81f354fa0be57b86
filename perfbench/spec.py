"""What the benchmark runs: workloads, scales, named cells and paper
values.  Why each workload was chosen, which layers it stresses and
bypasses, and the layer -> end-to-end prediction map are recorded in
BENCHMARK.json and perfbench/README.md.

Every workload runs at the repository's ``bench`` scale with a trimmed
epoch count; the seed given to the benchmark is the simulation seed, so
the same seed gives the same inputs.
"""

#: Policies of the two sweep workloads (the Fig. 9 set).
SWEEP_POLICIES = ("ICOUNT", "FLUSH", "DCRA", "HILL")

#: Worker processes of the timed ``repro sweep`` runs.
SWEEP_JOBS = 2

WORKLOADS = {
    "sweep-ilp": {
        "kind": "sweep",
        # One ILP2 and one ILP4 workload sharing their benchmarks, so the
        # per-worker SingleIPC solos overlap the way a full grid's do.
        "workloads": ("fma3d-gcc", "apsi-eon-fma3d-gcc"),
        "epochs": 2,
        "learner": "HILL",
        "probe_cell": "fma3d-gcc/FLUSH",
    },
    "sweep-mem": {
        "kind": "sweep",
        "workloads": ("art-mcf", "art-mcf-swim-twolf"),
        "epochs": 4,
        "learner": "HILL",
        "probe_cell": "art-mcf/FLUSH",
    },
    "learn-offline": {
        "kind": "learn",
        "workloads": ("art-mcf", "lucas-crafty"),
        "epochs": 1,
        "learner": "OFF-LINE",
        "probe_cell": "art-mcf/DCRA",
    },
}

#: learn-offline: the 2-thread workloads (MEM2, MIX2), the policy cells
#: run on each, and the workloads that also get a RAND-HILL run (its
#: 33 restores per epoch make it the costliest learner).
LEARN_WORKLOADS = WORKLOADS["learn-offline"]["workloads"]
LEARN_CELLS = ("DCRA", "ICOUNT")
LEARN_RAND_HILL = ("art-mcf",)

#: Paper values (mean weighted-IPC gain, %) printed beside the modelled
#: ones, keyed "LEARNER/BASELINE".  The repository's own full bench-scale
#: run measures HILL vs DCRA at -3.0% (known deviation 1).
PAPER_GAINS_PCT = {
    "HILL/ICOUNT": 12.4,      # Fig. 9, 42 workloads
    "HILL/DCRA": 2.4,         # Fig. 9
    "OFF-LINE/DCRA": 7.6,     # Fig. 4, 2-thread workloads
}

#: A baseline is measured on the seeds passed with ``--seed``; later
#: claims confirm on this held-back seed, which tuning never uses.
HELD_BACK_SEED = 104729


def bench_scale(seed, epochs):
    from repro.experiments.runner import ExperimentScale

    return ExperimentScale.bench().with_overrides(epochs=epochs, seed=seed)


def learn_scale(seed):
    return bench_scale(seed, WORKLOADS["learn-offline"]["epochs"])
