"""Inert span recorder wrapped around the public functions of each layer.

The wrappers are installed from outside the program: they replace class
attributes and module-level names with thin timing shims that call the
original and return its result untouched.  Nothing is stored on simulator
objects, so checkpoints, stats and merged results stay byte-identical (the
benchmark's identity gate proves it on every traced run).

Two kinds of wrapper:

* a *span* (per epoch, per solo run, per checkpoint, per cell ...) records
  name, layer, start, end, parent span id and the cell id it ran under;
* a *hot* wrapper (per instruction, per cache access, per policy hook) is
  counted and timed per call, but aggregated into its enclosing span
  instead of getting a span of its own.

Self time of a span or hot call is its duration minus the time its child
spans and hot calls cover.  Spans are kept in memory and written once, as
one JSON file per process, when the process ends.
"""

import atexit
import functools
import importlib
import json
import multiprocessing.util as mp_util
import os
import sys
import time

_clock = time.perf_counter_ns


class Tracer:
    """Span and counter store of one process."""

    def __init__(self):
        self.out_dir = None
        self.reset()

    def reset(self):
        #: Finished spans: (id, parent, cell, name, layer, start_ns,
        #: end_ns, self_ns, agg) with agg = {name: [layer, calls, self_ns]}.
        self.spans = []
        self.counters = {}
        self.cell = None
        self._next_id = 1
        # Frames: [span id, child ns, agg dict of the enclosing span, layer].
        self.stack = [[0, 0, {}, None]]

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self):
        """Write this process's spans and counters (once, at exit)."""
        if self.out_dir is None:
            return
        root_agg = self.stack[0][2]
        document = {
            "pid": os.getpid(),
            "spans": self.spans,
            "root_agg": root_agg,
            "counters": self.counters,
        }
        path = os.path.join(self.out_dir, "spans-%d.json" % os.getpid())
        with open(path, "w") as handle:
            json.dump(document, handle)
        self.out_dir = None


TRACER = Tracer()


def _span(layer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        token = before(args, kwargs) if before is not None else None
        stack = tracer.stack
        parent = stack[-1]
        span_id = tracer._next_id
        tracer._next_id = span_id + 1
        frame = [span_id, 0, {}, layer]
        stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            parent[1] += duration
            tracer.spans.append((span_id, parent[0], tracer.cell, name,
                                 layer, start, end, duration - frame[1],
                                 frame[2]))
        if after is not None:
            after(token, args, result)
        return result
    return wrapper


def _hot(layer, name, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = TRACER.stack
        parent = stack[-1]
        agg = parent[2]
        frame = [parent[0], 0, agg, layer]
        stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = _clock() - start
            stack.pop()
            parent[1] += duration
            entry = agg.get(name)
            if entry is None:
                entry = agg[name] = [layer, 0, 0]
            # A hook that calls its superclass's version is one call.
            if parent[3] != layer:
                entry[1] += 1
            entry[2] += duration - frame[1]
        if note is not None:
            note(result)
        return result
    return wrapper


def _replace_everywhere(original, wrapper):
    """Point every ``repro`` module-level alias of ``original`` at
    ``wrapper`` (so ``from x import f`` call sites see it too)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(module_name, func_name, make):
    module = importlib.import_module(module_name)
    original = getattr(module, func_name)
    _replace_everywhere(original, make(original))


def _wrap_method(cls, method_name, make):
    original = cls.__dict__[method_name]
    setattr(cls, method_name, make(original))


# -- per-layer harvesting hooks -------------------------------------------


def _proc_snapshot(args, kwargs):
    proc = args[0]
    stats = proc.stats
    hierarchy = proc.hierarchy
    return (sum(stats.committed), sum(stats.squashed),
            sum(stats.mispredicts), sum(stats.branches),
            [(cache.stats.accesses, cache.stats.misses)
             for cache in (hierarchy.il1, hierarchy.dl1, hierarchy.ul2)],
            kwargs)


def _proc_harvest(token, args, result):
    proc, kwargs = args[0], token[-1]
    num_cycles = args[1] if len(args) > 1 else kwargs.get("num_cycles", 0)
    committed, squashed, mispredicts, branches, caches, __ = token
    stats = proc.stats
    hierarchy = proc.hierarchy
    count = TRACER.count
    count("pipeline.cycles", num_cycles)
    count("pipeline.committed", sum(stats.committed) - committed)
    count("pipeline.squashed", sum(stats.squashed) - squashed)
    count("branch.mispredicts", sum(stats.mispredicts) - mispredicts)
    count("branch.resolved", sum(stats.branches) - branches)
    for label, cache, (accesses, misses) in zip(
            ("il1", "dl1", "ul2"),
            (hierarchy.il1, hierarchy.dl1, hierarchy.ul2), caches):
        count("memory.%s.accesses" % label, cache.stats.accesses - accesses)
        count("memory.%s.misses" % label, cache.stats.misses - misses)


def _note_horizon(result):
    TRACER.count("fastpath.horizon_hits", result is not None)


def _note_skip(result):
    TRACER.count("pipeline.cycles_skipped", result or 0)


def _solo_before(args, kwargs):
    from repro.experiments import runner

    return runner._SOLO_CACHE.misses


def _solo_after(token, args, result):
    from repro.experiments import runner

    TRACER.count("runner.solo.requests")
    if runner._SOLO_CACHE.misses != token:
        TRACER.count("runner.solo.derived")


def _checkpoint_saved(token, args, result):
    TRACER.count("core.checkpoint.bytes", args[0].size_bytes)


def _curve_done(token, args, result):
    TRACER.count("core.trial_epochs", len(result[0]))


def _cache_put_done(token, args, result):
    cache, key = args[0], args[1]
    try:
        TRACER.count("parallel.cache.bytes",
                     os.path.getsize(cache._path(key)))
    except OSError:
        pass


def _cell_before(args, kwargs):
    previous = TRACER.cell
    TRACER.cell = args[0].label
    return previous


def _cell_after(token, args, result):
    TRACER.cell = token


_POLICY_HOOKS = ("fetch_priority", "on_cycle", "on_l2_miss_detected",
                 "on_load_complete", "on_squash", "on_epoch_end",
                 "plan_epoch", "quiescent_wake", "on_quiesce")


def _all_subclasses(cls):
    found = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def install(out_dir):
    """Wrap every layer's public functions; spans go to ``out_dir``."""
    # Import everything a run can reach first, so module-level aliases
    # exist before they are re-pointed at the wrappers.
    for module_name in ("repro.cli", "repro.policies",
                        "repro.core.hill_climbing", "repro.core.phase_hill",
                        "repro.core.offline", "repro.core.rand_hill",
                        "repro.policies.static_partition",
                        "repro.experiments.figures",
                        "repro.experiments.parallel",
                        "repro.reliability.supervisor"):
        importlib.import_module(module_name)
    from repro.branch.btb import BranchTargetBuffer
    from repro.branch.hybrid import HybridPredictor
    from repro.core.controller import EpochController
    from repro.core.offline import OfflineExhaustiveLearner
    from repro.core.rand_hill import RandHillLearner
    from repro.experiments.parallel import ResultCache, SweepEngine
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.pipeline.checkpoint import Checkpoint
    from repro.pipeline.processor import SMTProcessor
    from repro.policies.base import ResourcePolicy
    from repro.reliability.supervisor import CellSupervisor
    from repro.workloads.generator import SyntheticStream

    def hot(layer, name, note=None):
        return lambda fn: _hot(layer, name, fn, note)

    def span(layer, name, before=None, after=None):
        return lambda fn: _span(layer, name, fn, before, after)

    _wrap_method(SyntheticStream, "next_instruction",
                 hot("workloads", "workloads.next_instruction"))
    _wrap_method(SMTProcessor, "run",
                 span("pipeline", "pipeline.run", _proc_snapshot,
                      _proc_harvest))
    _wrap_function("repro.pipeline.fastpath", "quiescent_horizon",
                   hot("fastpath", "fastpath.quiescent_horizon",
                       _note_horizon))
    _wrap_function("repro.pipeline.fastpath", "apply_skip",
                   hot("fastpath", "fastpath.apply_skip", _note_skip))
    for method in ("load", "store", "ifetch"):
        _wrap_method(MemoryHierarchy, method,
                     hot("memory", "memory." + method))
    _wrap_method(HybridPredictor, "predict", hot("branch", "branch.predict"))
    _wrap_method(HybridPredictor, "update", hot("branch", "branch.update"))
    _wrap_method(BranchTargetBuffer, "lookup",
                 hot("branch", "branch.btb_lookup"))
    _wrap_method(BranchTargetBuffer, "insert",
                 hot("branch", "branch.btb_insert"))
    for cls in _all_subclasses(ResourcePolicy):
        for hook in _POLICY_HOOKS:
            if hook in cls.__dict__:
                _wrap_method(cls, hook, hot("policies", "policies." + hook))
    _wrap_method(EpochController, "run_epoch", span("core", "core.epoch"))
    _wrap_method(EpochController, "begin_epoch",
                 hot("core", "core.begin_epoch"))
    _wrap_method(EpochController, "finish_epoch",
                 hot("core", "core.finish_epoch"))
    _wrap_method(OfflineExhaustiveLearner, "run_epoch",
                 span("core", "core.learner_epoch"))
    _wrap_method(RandHillLearner, "run_epoch",
                 span("core", "core.learner_epoch"))
    _wrap_method(RandHillLearner, "_evaluate", span("core", "core.trial"))
    _wrap_function("repro.core.offline", "exhaustive_curve",
                   span("core", "core.exhaustive_curve",
                        after=_curve_done))
    _wrap_method(Checkpoint, "__init__",
                 span("checkpoint", "core.checkpoint.save",
                      after=_checkpoint_saved))
    _wrap_method(Checkpoint, "materialize",
                 span("checkpoint", "core.checkpoint.restore"))
    _wrap_function("repro.experiments.runner", "solo_ipc",
                   span("runner", "runner.solo", _solo_before, _solo_after))
    _wrap_function("repro.experiments.runner", "make_processor",
                   span("runner", "runner.make_processor"))
    _wrap_function("repro.experiments.parallel", "code_fingerprint",
                   span("parallel", "parallel.fingerprint"))
    _wrap_function("repro.experiments.parallel", "cache_key",
                   span("parallel", "parallel.cache_key"))
    _wrap_function("repro.experiments.parallel", "merged_json",
                   span("parallel", "parallel.merge"))
    _wrap_function("repro.experiments.parallel", "_execute_cell",
                   span("parallel", "parallel.cell", _cell_before,
                        _cell_after))
    _wrap_method(ResultCache, "get", span("parallel", "parallel.cache.get"))
    _wrap_method(ResultCache, "put",
                 span("parallel", "parallel.cache.put",
                      after=_cache_put_done))
    _wrap_method(SweepEngine, "run_cells",
                 span("parallel", "parallel.run_cells"))
    _wrap_method(CellSupervisor, "run",
                 span("parallel", "parallel.supervisor"))

    TRACER.out_dir = out_dir
    os.makedirs(out_dir, exist_ok=True)
    atexit.register(TRACER.dump)
    # Pool workers are forked from this process: each starts with empty
    # spans and writes its own file when the worker exits.
    mp_util.register_after_fork(TRACER, _after_fork)


def _after_fork(tracer):
    out_dir = tracer.out_dir
    tracer.reset()
    tracer.out_dir = out_dir
    mp_util.Finalize(tracer, tracer.dump, exitpriority=100)
