"""Per-layer metrics from the span files of one traced run.

Self time is summed per layer: a span's duration minus what its child
spans and hot calls cover, plus the self time of the hot calls aggregated
into each span.  Counts come from the tracer's counters and call tallies.
"""

import glob
import json
import os
from collections import defaultdict

#: Per-layer metrics: name -> (unit, better).  Printed under ``--trace 1``
#: for every workload; a layer a workload bypasses reads 0.
PER_LAYER = {
    "workloads.instructions": ("count", "higher"),
    "workloads.self_s": ("s", "lower"),
    "workloads.ns_per_instruction": ("ns", "lower"),
    "workloads.instructions_per_cycle": ("1/cycle", "higher"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.cycles_executed": ("count", "lower"),
    "pipeline.cycles_skipped": ("count", "higher"),
    "pipeline.skip_ratio": ("fraction", "higher"),
    "pipeline.ns_per_executed_cycle": ("ns", "lower"),
    "pipeline.stage_active.fetch": ("count", "higher"),
    "pipeline.stage_active.dispatch": ("count", "higher"),
    "pipeline.stage_active.issue": ("count", "higher"),
    "pipeline.stage_active.complete": ("count", "higher"),
    "pipeline.stage_active.commit": ("count", "higher"),
    "pipeline.stage_active.detect": ("count", "higher"),
    "pipeline.stage_active.idle": ("count", "lower"),
    "pipeline.useful_ratio": ("fraction", "higher"),
    "pipeline.fast_vs_reference": ("x", "higher"),
    "fastpath.horizon_calls": ("count", "lower"),
    "fastpath.horizon_hit_ratio": ("fraction", "higher"),
    "fastpath.self_s": ("s", "lower"),
    "memory.accesses": ("count", "lower"),
    "memory.self_s": ("s", "lower"),
    "memory.il1_miss_rate": ("fraction", "lower"),
    "memory.dl1_miss_rate": ("fraction", "lower"),
    "memory.ul2_miss_rate": ("fraction", "lower"),
    "branch.predictions": ("count", "lower"),
    "branch.self_s": ("s", "lower"),
    "branch.mispredict_rate": ("fraction", "lower"),
    "policies.hook_calls": ("count", "lower"),
    "policies.self_s": ("s", "lower"),
    "core.epochs": ("count", "higher"),
    "core.self_s": ("s", "lower"),
    "core.trial_epochs": ("count", "lower"),
    "core.charged_ratio": ("fraction", "higher"),
    "core.checkpoint.saves": ("count", "lower"),
    "core.checkpoint.restores": ("count", "lower"),
    "core.checkpoint.self_s": ("s", "lower"),
    "core.checkpoint.bytes": ("B", "lower"),
    "core.rand_hill_vs_dcra": ("x", "higher"),
    "runner.solo.requests": ("count", "lower"),
    "runner.solo.derived": ("count", "lower"),
    "runner.solo.hit_ratio": ("fraction", "higher"),
    "runner.solo_s": ("s", "lower"),
    "runner.make_processor_s": ("s", "lower"),
    "parallel.fingerprint_s": ("s", "lower"),
    "parallel.cache_key_s": ("s", "lower"),
    "parallel.cache.gets": ("count", "lower"),
    "parallel.cache.get_s": ("s", "lower"),
    "parallel.cache.puts": ("count", "lower"),
    "parallel.cache.put_s": ("s", "lower"),
    "parallel.cache.bytes": ("B", "lower"),
    "parallel.cache.warm_rerun_s": ("s", "lower"),
    "parallel.merge_s": ("s", "lower"),
    "parallel.supervisor_s": ("s", "lower"),
    "parallel.pool.busy_ratio": ("fraction", "higher"),
    "parallel.pool.tail_s": ("s", "lower"),
    "trace.overhead_ratio": ("x", "lower"),
}

_NS = 1e-9


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def load_spans(spans_dir):
    """Every process's dump of one traced run."""
    dumps = []
    for path in sorted(glob.glob(os.path.join(spans_dir, "spans-*.json"))):
        with open(path) as handle:
            dumps.append(json.load(handle))
    return dumps


def span_records(dumps):
    """Flat span records (dicts) across processes, ids made unique by
    pid: what a trace viewer or a later analysis reads."""
    records = []
    for dump in dumps:
        pid = dump["pid"]
        for (span_id, parent, cell, name, layer, start, end, self_ns,
             __) in dump["spans"]:
            records.append({"id": "%d:%d" % (pid, span_id),
                            "parent": "%d:%d" % (pid, parent) if parent
                            else None,
                            "cell": cell, "name": name, "layer": layer,
                            "start_ns": start, "end_ns": end,
                            "self_ns": self_ns})
    return records


def layer_metrics(dumps):
    """Per-layer metrics derivable from the spans alone."""
    layer_self = defaultdict(int)
    name_calls = defaultdict(int)
    name_self = defaultdict(int)
    name_total = defaultdict(int)
    counters = defaultdict(int)
    derived_solo_ns = 0

    def add_agg(agg):
        for name, (layer, calls, self_ns) in agg.items():
            layer_self[layer] += self_ns
            name_calls[name] += calls
            name_self[name] += self_ns

    for dump in dumps:
        for name, value in dump["counters"].items():
            counters[name] += value
        add_agg(dump["root_agg"])
        parents = {span[1] for span in dump["spans"]}
        for (span_id, __, __, name, layer, start, end, self_ns,
             agg) in dump["spans"]:
            layer_self[layer] += self_ns
            name_calls[name] += 1
            name_self[name] += self_ns
            name_total[name] += end - start
            if name == "runner.solo" and span_id in parents:
                derived_solo_ns += end - start
            add_agg(agg)

    instructions = name_calls["workloads.next_instruction"]
    cycles = counters["pipeline.cycles"]
    skipped = counters["pipeline.cycles_skipped"]
    executed = cycles - skipped
    horizon_calls = name_calls["fastpath.quiescent_horizon"]
    accesses = sum(name_calls["memory." + op]
                   for op in ("load", "store", "ifetch"))
    committed = counters["pipeline.committed"]
    charged = name_calls["core.epoch"] + name_calls["core.learner_epoch"]
    trials = counters["core.trial_epochs"] + name_calls["core.trial"]
    solo_requests = counters["runner.solo.requests"]
    metrics = {
        "workloads.instructions": instructions,
        "workloads.self_s": layer_self["workloads"] * _NS,
        "workloads.ns_per_instruction":
            _ratio(layer_self["workloads"], instructions),
        "workloads.instructions_per_cycle": _ratio(instructions, cycles),
        "pipeline.self_s": layer_self["pipeline"] * _NS,
        "pipeline.cycles_executed": executed,
        "pipeline.cycles_skipped": skipped,
        "pipeline.skip_ratio": _ratio(skipped, cycles),
        "pipeline.ns_per_executed_cycle":
            _ratio(layer_self["pipeline"], executed),
        "pipeline.useful_ratio":
            _ratio(committed, committed + counters["pipeline.squashed"]),
        "fastpath.horizon_calls": horizon_calls,
        "fastpath.horizon_hit_ratio":
            _ratio(counters["fastpath.horizon_hits"], horizon_calls),
        "fastpath.self_s": layer_self["fastpath"] * _NS,
        "memory.accesses": accesses,
        "memory.self_s": layer_self["memory"] * _NS,
        "branch.predictions": name_calls["branch.predict"],
        "branch.self_s": layer_self["branch"] * _NS,
        "branch.mispredict_rate": _ratio(counters["branch.mispredicts"],
                                         counters["branch.resolved"]),
        "policies.hook_calls": sum(calls for name, calls
                                   in name_calls.items()
                                   if name.startswith("policies.")),
        "policies.self_s": layer_self["policies"] * _NS,
        "core.epochs": charged,
        "core.self_s": layer_self["core"] * _NS,
        "core.trial_epochs": trials,
        "core.charged_ratio": _ratio(charged, charged + trials),
        "core.checkpoint.saves": name_calls["core.checkpoint.save"],
        "core.checkpoint.restores": name_calls["core.checkpoint.restore"],
        "core.checkpoint.self_s": layer_self["checkpoint"] * _NS,
        "core.checkpoint.bytes": counters["core.checkpoint.bytes"],
        "runner.solo.requests": solo_requests,
        "runner.solo.derived": counters["runner.solo.derived"],
        "runner.solo.hit_ratio":
            _ratio(solo_requests - counters["runner.solo.derived"],
                   solo_requests),
        "runner.solo_s": derived_solo_ns * _NS,
        "runner.make_processor_s":
            name_total["runner.make_processor"] * _NS,
        "parallel.fingerprint_s": name_self["parallel.fingerprint"] * _NS,
        "parallel.cache_key_s": name_self["parallel.cache_key"] * _NS,
        "parallel.cache.gets": name_calls["parallel.cache.get"],
        "parallel.cache.get_s": name_total["parallel.cache.get"] * _NS,
        "parallel.cache.puts": name_calls["parallel.cache.put"],
        "parallel.cache.put_s": name_total["parallel.cache.put"] * _NS,
        "parallel.cache.bytes": counters["parallel.cache.bytes"],
        "parallel.merge_s": name_total["parallel.merge"] * _NS,
        "parallel.supervisor_s": name_self["parallel.supervisor"] * _NS,
    }
    for label in ("il1", "dl1", "ul2"):
        metrics["memory.%s_miss_rate" % label] = _ratio(
            counters["memory.%s.misses" % label],
            counters["memory.%s.accesses" % label])
    return metrics
