"""Ablation studies over the design choices DESIGN.md calls out.

* Epoch size (Section 3.1.1: the paper settled on 64K cycles).
* Hill-climbing Delta (Figure 8 uses 4).
* SingleIPC sampling period (Section 4.2 uses 40 epochs).
* Software-cost stall (the paper charges 200 cycles per invocation).
* OFF-LINE search stride (search resolution vs quality).

Every sweep takes ``jobs``: with ``jobs > 1`` the ablation points run in
parallel worker processes via :func:`repro.experiments.parallel.pool_map`
(each point is an independent simulation; results keep point order).
"""

from repro.core.hill_climbing import HillClimbingPolicy
from repro.core.metrics import WeightedIPC
from repro.experiments.parallel import pool_map
from repro.experiments.runner import run_policy, solo_ipcs
from repro.workloads.mixes import get_workload


def _hill_point(workload_name, scale, kwargs):
    """One hill-climbing ablation point (top-level for the process pool)."""
    result = run_policy(get_workload(workload_name),
                        HillClimbingPolicy(**kwargs), scale)
    return result.weighted_ipc


def _offline_point(workload_name, scale, stride, trial_jobs):
    """One OFF-LINE ablation point (top-level for the process pool)."""
    from repro.experiments.figures import run_offline

    workload = get_workload(workload_name)
    metric = WeightedIPC()
    learner = run_offline(workload, scale.with_overrides(stride=stride),
                          metric, jobs=trial_jobs)
    singles = solo_ipcs(workload, scale)
    return metric.value(learner.overall_ipcs(), singles)


def epoch_size_sweep(workload, scale, epoch_sizes=(1024, 2048, 4096, 8192),
                     jobs=None):
    """Hill-climbing weighted IPC as a function of epoch size.

    Total simulated cycles are held constant across points so the
    comparison is adaptivity, not run length.
    """
    budget = scale.epoch_size * scale.epochs
    tasks = [
        (workload.name,
         scale.with_overrides(epoch_size=epoch_size,
                              epochs=max(4, budget // epoch_size)),
         {})
        for epoch_size in epoch_sizes
    ]
    values = pool_map(_hill_point, tasks, jobs=jobs)
    return list(zip(epoch_sizes, values))


def delta_sweep(workload, scale, deltas=(1, 2, 4, 8, 16), jobs=None):
    """Hill-climbing weighted IPC as a function of the step size Delta."""
    tasks = [(workload.name, scale, {"delta": delta}) for delta in deltas]
    values = pool_map(_hill_point, tasks, jobs=jobs)
    return list(zip(deltas, values))


def sample_period_sweep(workload, scale, periods=(10, 20, 40, 80, None),
                        jobs=None):
    """Weighted IPC vs the SingleIPC sampling period (None disables
    sampling, leaving the 1.0 default estimates)."""
    tasks = [(workload.name, scale, {"sample_period": period})
             for period in periods]
    values = pool_map(_hill_point, tasks, jobs=jobs)
    return list(zip(periods, values))


def software_cost_sweep(workload, scale, costs=(0, 200, 1000, 5000),
                        jobs=None):
    """Weighted IPC vs the per-invocation software stall charged."""
    tasks = [(workload.name, scale, {"software_cost": cost})
             for cost in costs]
    values = pool_map(_hill_point, tasks, jobs=jobs)
    return list(zip(costs, values))


def offline_stride_sweep(workload, scale, strides=(32, 16, 8), jobs=None):
    """OFF-LINE weighted IPC vs search stride (finer = closer to ideal).

    The points fan out over ``jobs`` processes, or else each point's
    trial epochs use the usable CPUs — never both at once.
    """
    trial_jobs = 1 if jobs and jobs > 1 else None
    tasks = [(workload.name, scale, stride, trial_jobs) for stride in strides]
    values = pool_map(_offline_point, tasks, jobs=jobs)
    return list(zip(strides, values))
