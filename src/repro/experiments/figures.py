"""Per-figure experiment drivers.

Each ``figN_*`` function reproduces (at the given scale) the measurement
behind the corresponding figure of the paper and returns a structured
result: the rows/series the paper reports, plus the summary gains.  The
``benchmarks/`` harness calls these and prints them via
:mod:`repro.experiments.report`.
"""

from repro.analysis.behavior import classify_behavior
from repro.analysis.hill_width import hill_widths
from repro.analysis.surface import distribution_surface
from repro.core.hill_climbing import HillClimbingPolicy
from repro.core.metrics import (
    AvgIPC,
    HarmonicMeanWeightedIPC,
    WeightedIPC,
)
from repro.core.offline import OfflineExhaustiveLearner
from repro.core.phase_hill import PhaseHillPolicy
from repro.core.rand_hill import RandHillLearner
from repro.experiments.runner import (
    baseline_factories,
    compare_policies,
    make_processor,
    run_policy,
    select_workloads,
    solo_ipcs,
)
from repro.experiments.sync import synchronized_timeline
from repro.experiments.report import mean, pct_gain, summarize_gains
from repro.pipeline.processor import SMTProcessor
from repro.policies.static_partition import StaticPartitionPolicy
from repro.workloads.mixes import get_workload
from repro.workloads.spec2000 import get_profile

TWO_THREAD_GROUPS = ("ILP2", "MIX2", "MEM2")
FOUR_THREAD_GROUPS = ("ILP4", "MIX4", "MEM4")
ALL_GROUPS = TWO_THREAD_GROUPS + FOUR_THREAD_GROUPS


def _hill_factory(metric=None, scale=None):
    """Hill-climbing factory with overheads scaled to the experiment."""
    def factory():
        kwargs = {}
        if scale is not None:
            kwargs["software_cost"] = scale.hill_software_cost
            kwargs["sample_period"] = scale.hill_sample_period
        return HillClimbingPolicy(metric=metric, **kwargs)
    return factory


def run_offline(workload, scale, metric=None, epochs=None, jobs=None):
    """Run the OFF-LINE learner end to end; returns (learner, RunResult-like
    weighted value helpers).  ``jobs``: trial worker processes (see
    :mod:`repro.core.trials`)."""
    metric = metric or WeightedIPC()
    singles = solo_ipcs(workload, scale) if metric.needs_single_ipc else None
    proc = make_processor(workload, StaticPartitionPolicy(), scale)
    learner = OfflineExhaustiveLearner(
        proc, scale.epoch_size, metric=metric, single_ipcs=singles,
        stride=scale.stride, jobs=jobs,
    )
    learner.run(epochs if epochs is not None else scale.epochs)
    return learner


def run_rand_hill(workload, scale, metric=None, epochs=None, jobs=None):
    """Run the RAND-HILL learner end to end.  ``jobs``: trial worker
    processes (see :mod:`repro.core.trials`)."""
    metric = metric or WeightedIPC()
    singles = solo_ipcs(workload, scale) if metric.needs_single_ipc else None
    proc = make_processor(workload, StaticPartitionPolicy(), scale)
    learner = RandHillLearner(
        proc, scale.epoch_size, metric=metric, single_ipcs=singles,
        budget=scale.rand_hill_budget, seed=scale.seed, jobs=jobs,
    )
    learner.run(epochs if epochs is not None else scale.epochs)
    return learner


def _metric_of(ipcs, singles, metric):
    if metric.needs_single_ipc:
        return metric.value(ipcs, singles)
    return metric.value(ipcs)


def _prefetch(engine, workloads, policy_names):
    """Warm a sweep engine with a driver's whole (workload x policy) grid
    in one parallel pass; the per-workload ``compare_policies`` calls
    below then resolve from the engine's cache."""
    if engine is not None:
        engine.prefetch(workloads, list(policy_names))


# ---------------------------------------------------------------------------
# Figure 2 — IPC surface over the 3-thread distribution space
# ---------------------------------------------------------------------------

def fig2_surface(scale, benchmarks=("mesa", "vortex", "fma3d"), interval=None):
    """The motivating hill: IPC of three co-scheduled threads as the
    resource split varies (paper: a 32K-cycle interval)."""
    profiles = [get_profile(name) for name in benchmarks]
    proc = SMTProcessor(scale.config, profiles, seed=scale.seed,
                        policy=StaticPartitionPolicy())
    proc.run(scale.warmup)
    surface = distribution_surface(
        proc, interval or scale.epoch_size, step=scale.stride
    )
    return surface


# ---------------------------------------------------------------------------
# Figure 4 — OFF-LINE limit study vs ICOUNT / FLUSH / DCRA (2-thread)
# ---------------------------------------------------------------------------

def fig4_offline_limit(scale, groups=TWO_THREAD_GROUPS, workloads=None,
                       engine=None):
    """Weighted IPC of OFF-LINE vs the baselines on the 2-thread workloads.

    Returns {"rows": [(workload, group, {policy: wipc})], "gains": {...}}.
    """
    metric = WeightedIPC()
    selected = workloads or select_workloads(groups, scale)
    _prefetch(engine, selected, baseline_factories())
    rows = []
    values_by_workload = {}
    for workload in selected:
        results = compare_policies(workload, baseline_factories(), scale,
                                   engine=engine)
        values = {
            name: result.weighted_ipc for name, result in results.items()
        }
        learner = run_offline(workload, scale, metric)
        singles = solo_ipcs(workload, scale)
        values["OFF-LINE"] = metric.value(learner.overall_ipcs(), singles)
        rows.append((workload.name, workload.group, values))
        values_by_workload[workload.name] = values
    gains = summarize_gains(values_by_workload, "OFF-LINE",
                            ("ICOUNT", "FLUSH", "DCRA"))
    return {"rows": rows, "gains": gains}


# ---------------------------------------------------------------------------
# Figure 5 — synchronized time-varying performance
# ---------------------------------------------------------------------------

def fig5_sync_timeline(scale, workload_name="art-mcf"):
    """Per-epoch weighted IPC of OFF-LINE/DCRA/FLUSH/ICOUNT from common
    per-epoch checkpoints, plus the epoch-win-rate statistics."""
    workload = get_workload(workload_name)
    timeline = synchronized_timeline(
        workload, baseline_factories(), scale
    )
    win_rates = {
        name: timeline.epoch_win_rate(name)
        for name in ("ICOUNT", "FLUSH", "DCRA")
    }
    return {"timeline": timeline, "offline_win_rates": win_rates}


# ---------------------------------------------------------------------------
# Figures 6 and 7 — hill-width analysis
# ---------------------------------------------------------------------------

def fig6_hill_width_demo(scale, workload_name="art-mcf", epoch_index=None):
    """One epoch's performance-vs-partitioning curve with its hill-widths
    (the Figure 6 illustration, on real data)."""
    workload = get_workload(workload_name)
    learner = run_offline(workload, scale, epochs=max(3, scale.epochs // 4))
    epochs = learner.epochs
    index = epoch_index if epoch_index is not None else len(epochs) // 2
    curve = epochs[index].curve_over_first_share()
    return {
        "workload": workload_name,
        "epoch": index,
        "curve": curve,
        "widths": hill_widths(curve),
        "total": scale.config.rename_int,
    }


def fig7_hill_widths(scale, groups=TWO_THREAD_GROUPS, workloads=None,
                     levels=(0.99, 0.98, 0.97, 0.95, 0.90)):
    """Per-workload hill-widths averaged over epochs (sharp vs dull peaks)."""
    selected = workloads or select_workloads(groups, scale)
    rows = []
    # Hill widths average over epochs; a shorter window already yields
    # stable means, so cap the per-workload OFF-LINE cost.
    width_epochs = min(scale.epochs, 20)
    for workload in selected:
        learner = run_offline(workload, scale, epochs=width_epochs)
        accumulator = {level: [] for level in levels}
        for epoch in learner.epochs:
            widths = hill_widths(epoch.curve_over_first_share(), levels)
            for level, width in widths.items():
                accumulator[level].append(width)
        rows.append((
            workload.name,
            workload.group,
            {level: mean(values) for level, values in accumulator.items()},
        ))
    return {"rows": rows, "total": scale.config.rename_int, "levels": levels}


# ---------------------------------------------------------------------------
# Figure 9 — hill-climbing vs baselines on all 42 workloads
# ---------------------------------------------------------------------------

def fig9_hill_vs_baselines(scale, groups=ALL_GROUPS, workloads=None,
                           engine=None):
    """Weighted IPC of HILL-WIPC vs ICOUNT/FLUSH/DCRA."""
    selected = workloads or select_workloads(groups, scale)
    _prefetch(engine, selected, list(baseline_factories()) + ["HILL"])
    rows = []
    values_by_workload = {}
    group_values = {}
    for workload in selected:
        factories = dict(baseline_factories())
        factories["HILL"] = _hill_factory(WeightedIPC(), scale)
        results = compare_policies(workload, factories, scale, engine=engine)
        values = {name: result.weighted_ipc for name, result in results.items()}
        rows.append((workload.name, workload.group, values))
        values_by_workload[workload.name] = values
        group_values.setdefault(workload.group, []).append(values)
    gains = summarize_gains(values_by_workload, "HILL",
                            ("ICOUNT", "FLUSH", "DCRA"))
    group_gains = {
        group: summarize_gains(
            {str(i): values for i, values in enumerate(entries)},
            "HILL", ("ICOUNT", "FLUSH", "DCRA"),
        )
        for group, entries in group_values.items()
    }
    return {"rows": rows, "gains": gains, "group_gains": group_gains}


# ---------------------------------------------------------------------------
# Figure 10 — metric-matched learning
# ---------------------------------------------------------------------------

def fig10_metric_goals(scale, groups=ALL_GROUPS, workloads=None,
                       engine=None):
    """Hill-climbing with each feedback metric, evaluated under all three
    metrics; the paper's claim is that matched metric > mismatched."""
    eval_metrics = {
        "weighted_ipc": WeightedIPC(),
        "avg_ipc": AvgIPC(),
        "harmonic_weighted_ipc": HarmonicMeanWeightedIPC(),
    }
    learners = {
        "HILL-IPC": _hill_factory(AvgIPC(), scale),
        "HILL-WIPC": _hill_factory(WeightedIPC(), scale),
        "HILL-HWIPC": _hill_factory(HarmonicMeanWeightedIPC(), scale),
    }
    factories = dict(baseline_factories())
    factories.update(learners)
    selected = workloads or select_workloads(groups, scale)
    _prefetch(engine, selected, factories)
    # scores[eval_metric][policy] = list of values across workloads
    scores = {name: {} for name in eval_metrics}
    for workload in selected:
        results = compare_policies(workload, factories, scale, engine=engine)
        for metric_name, metric in eval_metrics.items():
            for policy_name, result in results.items():
                scores[metric_name].setdefault(policy_name, []).append(
                    result.metric_value(metric)
                )
    summary = {
        metric_name: {policy: mean(values) for policy, values in per_policy.items()}
        for metric_name, per_policy in scores.items()
    }
    matched = mean([
        summary["avg_ipc"]["HILL-IPC"] / max(1e-9, _best_mismatched(summary, "avg_ipc", "HILL-IPC")),
        summary["weighted_ipc"]["HILL-WIPC"] / max(1e-9, _best_mismatched(summary, "weighted_ipc", "HILL-WIPC")),
        summary["harmonic_weighted_ipc"]["HILL-HWIPC"] / max(1e-9, _best_mismatched(summary, "harmonic_weighted_ipc", "HILL-HWIPC")),
    ])
    return {"summary": summary, "matched_over_mismatched": matched}


def _best_mismatched(summary, metric_name, matched_policy):
    others = [
        value for policy, value in summary[metric_name].items()
        if policy.startswith("HILL-") and policy != matched_policy
    ]
    return max(others) if others else 0.0


# ---------------------------------------------------------------------------
# Figure 11 — hill-climbing vs the ideal learners
# ---------------------------------------------------------------------------

def fig11_vs_ideal(scale, two_thread=True, four_thread=True, workloads2=None,
                   workloads4=None):
    """2-thread: HILL-WIPC vs OFF-LINE; 4-thread: DCRA vs HILL-WIPC vs
    RAND-HILL; each row carries the workload's SM/LG label."""
    from repro.analysis.characteristics import workload_label

    metric = WeightedIPC()
    rows2 = []
    rows4 = []
    if two_thread:
        for workload in (workloads2 or select_workloads(TWO_THREAD_GROUPS, scale)):
            singles = solo_ipcs(workload, scale)
            hill = run_policy(workload, _hill_factory(WeightedIPC(), scale)(), scale)
            learner = run_offline(workload, scale)
            values = {
                "HILL": hill.weighted_ipc,
                "OFF-LINE": metric.value(learner.overall_ipcs(), singles),
            }
            behavior = classify_behavior(
                learner.epochs, scale.config.rename_int
            ).value if len(learner.epochs) >= 3 else "?"
            rows2.append((workload.name, workload.group, values,
                          workload_label(workload), behavior))
    if four_thread:
        for workload in (workloads4 or select_workloads(FOUR_THREAD_GROUPS, scale)):
            singles = solo_ipcs(workload, scale)
            hill = run_policy(workload, _hill_factory(WeightedIPC(), scale)(), scale)
            dcra_result = compare_policies(
                workload, {"DCRA": baseline_factories()["DCRA"]}, scale
            )["DCRA"]
            learner = run_rand_hill(workload, scale)
            values = {
                "DCRA": dcra_result.weighted_ipc,
                "HILL": hill.weighted_ipc,
                "RAND-HILL": metric.value(learner.overall_ipcs(), singles),
            }
            rows4.append((workload.name, workload.group, values,
                          workload_label(workload)))
    fraction_of_ideal_2t = mean([
        values["HILL"] / max(1e-9, values["OFF-LINE"])
        for __, __, values, __, __ in rows2
    ]) if rows2 else None
    fraction_of_ideal_4t = mean([
        values["HILL"] / max(1e-9, values["RAND-HILL"])
        for __, __, values, __ in rows4
    ]) if rows4 else None
    rand_vs_dcra = mean([
        pct_gain(values["RAND-HILL"], values["DCRA"])
        for __, __, values, __ in rows4
    ]) if rows4 else None
    return {
        "rows2": rows2,
        "rows4": rows4,
        "hill_fraction_of_offline": fraction_of_ideal_2t,
        "hill_fraction_of_rand_hill": fraction_of_ideal_4t,
        "rand_hill_gain_over_dcra": rand_vs_dcra,
    }


# ---------------------------------------------------------------------------
# Figure 12 — time-varying behaviours
# ---------------------------------------------------------------------------

def fig12_behaviors(scale, workloads=None):
    """Classify each workload's time-varying behaviour and return the
    HILL-vs-OFF-LINE series (the Figure 12 panels).

    Per the paper's Section 4.4, OFF-LINE is synchronized *to* the
    continuously learning hill climber: the climber's machine advances
    normally while OFF-LINE's exhaustive sweep replays every epoch from
    its checkpoints, yielding the gray-scale curve, the per-epoch best
    partitioning, and the climber's own trajectory.
    """
    from repro.experiments.sync import policy_synchronized_timeline

    selected = workloads or select_workloads(TWO_THREAD_GROUPS, scale)
    rows = []
    for workload in selected:
        timeline = policy_synchronized_timeline(
            workload, _hill_factory(WeightedIPC(), scale), scale
        )
        behavior = classify_behavior(
            timeline.offline_epochs, scale.config.rename_int
        )
        best_series = [
            epoch.best_shares[0] for epoch in timeline.offline_epochs
        ]
        rows.append({
            "workload": workload.name,
            "behavior": behavior.value,
            "series": timeline.series,
            "offline_best_shares": best_series,
            "hill_shares": timeline.policy_shares,
            "offline_epochs": timeline.offline_epochs,
            "hill_fraction": mean(timeline.series["HILL"]) /
                max(1e-9, mean(timeline.series["OFF-LINE"])),
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# Section 5 — phase detection/prediction extension
# ---------------------------------------------------------------------------

def sec5_phase_hill(scale, groups=ALL_GROUPS, workloads=None, engine=None):
    """HILL vs PHASE-HILL; the paper reports a small overall boost
    concentrated in temporally-limited workloads."""
    selected = workloads or select_workloads(groups, scale)
    _prefetch(engine, selected, ["HILL", "PHASE-HILL"])
    rows = []
    for workload in selected:
        factories = {
            "HILL": _hill_factory(WeightedIPC(), scale),
            "PHASE-HILL": lambda: PhaseHillPolicy(
                metric=WeightedIPC(),
                software_cost=scale.hill_software_cost,
                sample_period=scale.hill_sample_period,
            ),
        }
        results = compare_policies(workload, factories, scale, engine=engine)
        rows.append((
            workload.name,
            workload.group,
            {name: result.weighted_ipc for name, result in results.items()},
        ))
    overall = mean([
        pct_gain(values["PHASE-HILL"], values["HILL"])
        for __, __, values in rows
    ])
    return {"rows": rows, "overall_boost_pct": overall}
