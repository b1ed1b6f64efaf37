"""Per-layer spans for the traced pass, recorded from outside ``src/``.

:func:`install` wraps public functions of each layer's module with
timing wrappers.  Spans nest: a span's self time is its duration minus
the time of the spans it encloses, so the self times of all spans sum
to the time the wrapped calls cover.  Spans are kept in memory.

Forked pool workers inherit the wrappers.  Each worker resets its
recorder at fork and, after every shard, rewrites one small JSON file
with its cumulative totals (pool workers are terminated, not exited,
so nothing can be written at their end).
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter


class Recorder:
    """In-memory span totals of one process."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.worker = False
        #: Sink of the metrics registry the traced pass installs.
        self.metrics_records = []
        self.milp_wrapped = False
        self.reset()

    def reset(self) -> None:
        self.inclusive = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.shard_seconds = []
        self._stack = []

    def enter_worker(self) -> None:
        self.reset()
        self.worker = True

    def span(self, name: str, function, count=None):
        """``function`` wrapped in a span named ``layer.call``;
        ``count(recorder, result, args)`` adds work counts."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = recorder._stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                enclosed = stack.pop()
                recorder.inclusive[name] += elapsed
                recorder.self_seconds[name] += elapsed - enclosed
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(recorder, result, args)
            return result

        return wrapper

    def snapshot(self) -> dict:
        from repro.metrics.registry import current_metrics

        current_metrics().flush()
        counters = {}
        if self.metrics_records:
            counters = self.metrics_records[-1]["counters"]
            self.metrics_records.clear()
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_seconds),
            "counts": dict(self.counts),
            "shard_seconds": list(self.shard_seconds),
            "counters": counters,
        }

    def dump(self) -> None:
        path = os.path.join(self.dump_dir, "worker-%d.json" % os.getpid())
        with open(path + ".tmp", "w") as stream:
            json.dump(self.snapshot(), stream)
        os.replace(path + ".tmp", path)


def _patch(owner, attribute: str, recorder: Recorder, name: str, count=None):
    setattr(owner, attribute, recorder.span(name, getattr(owner, attribute), count))


def install(recorder: Recorder) -> None:
    """Wrap every layer's public entry points and enable the counters
    the program exports through ``repro.metrics``."""
    import repro.batchsim
    import repro.pipeline.pipeline as pipeline_module
    import repro.synthesis.solvers as solvers_module
    import repro.synthesis.synthesizer as synthesizer_module
    from repro.attacker.base import Attacker
    from repro.contracts.compiled import CompiledTemplate
    from repro.evaluation.backends import ShardManifest
    from repro.evaluation.backends.base import ShardEvaluator
    from repro.evaluation.evaluator import TestCaseEvaluator
    from repro.evaluation.results import EvaluationDataset
    from repro.metrics.registry import Metrics, install_metrics
    from repro.synthesis.solvers import ScipyMilpSolver
    from repro.synthesis.synthesizer import ContractSynthesizer
    from repro.testgen.strategies import RandomStrategy
    from repro.trace.tracer import Tracer
    from repro.uarch.core import Core

    def add(key: str, amount) -> None:
        recorder.counts[key] += amount

    def cases(rec, _result, _args):
        add("testgen.cases", 1)

    def batch(rec, result, args):
        add("batchsim.programs", len(args[1]))
        add("batchsim.retired_instrs", int(result.execution.counts.sum()))

    def scalar(rec, result, _args):
        add("uarch.retired_instrs", result.retired_instructions)

    def nodes(rec, result, _args):
        add("synthesis.milp_nodes", int(getattr(result, "mip_node_count", 0) or 0))

    _patch(RandomStrategy, "generate_case", recorder, "testgen.generate", cases)
    _patch(repro.batchsim, "run_batch", recorder, "batchsim.simulate", batch)
    _patch(repro.batchsim, "batch_distinguishing_atoms", recorder, "batchsim.extract")
    _patch(Core, "simulate", recorder, "uarch.simulate", scalar)
    _patch(CompiledTemplate, "distinguishing_atoms", recorder, "contracts.extract")
    _patch(Attacker, "distinguishes", recorder, "attacker.distinguish")
    _patch(TestCaseEvaluator, "evaluate_many", recorder, "evaluation.evaluate")
    _patch(pipeline_module, "evaluate_parallel", recorder, "backends.evaluate")
    _patch(ShardEvaluator, "evaluate", recorder, "backends.shard")
    _patch(ShardManifest, "append", recorder, "checkpoint.append")
    _patch(EvaluationDataset, "save", recorder, "checkpoint.save")
    _patch(ContractSynthesizer, "synthesize", recorder, "synthesis.synthesize")
    _patch(synthesizer_module, "build_ilp_instance", recorder, "synthesis.build")
    untraced_solve = ScipyMilpSolver.solve

    def solve(self, instance):
        # The solve imports scipy.optimize lazily; wrap its milp at that
        # point, so the traced run pays the import where an untraced
        # run does (inside the timed synthesize phase).
        import scipy.optimize

        if not recorder.milp_wrapped:
            _patch(scipy.optimize, "milp", recorder, "synthesis.milp", nodes)
            recorder.milp_wrapped = True
        return untraced_solve(self, instance)

    ScipyMilpSolver.solve = recorder.span("synthesis.solve", solve)
    _patch(
        solvers_module, "eliminate_redundant_atoms", recorder, "synthesis.redundancy"
    )
    _patch(
        pipeline_module, "check_dataset_satisfaction", recorder, "verification.check"
    )

    # Per-shard busy time on top of the shard span; workers then
    # rewrite their dump, so it holds every shard they finished.
    timed_shard = ShardEvaluator.evaluate

    def evaluate_shard(self, shard_range):
        start = perf_counter()
        try:
            return timed_shard(self, shard_range)
        finally:
            recorder.shard_seconds.append(perf_counter() - start)
            if recorder.worker:
                recorder.dump()

    ShardEvaluator.evaluate = evaluate_shard
    os.register_at_fork(after_in_child=recorder.enter_worker)
    sink = Tracer(None, source="perfbench", collector=recorder.metrics_records)
    install_metrics(Metrics(sink))


def worker_totals(dump_dir: str) -> dict:
    """Sum the per-worker dumps written during the traced pass."""
    totals = {
        "inclusive": defaultdict(float),
        "self": defaultdict(float),
        "counts": defaultdict(int),
        "shard_seconds": [],
        "counters": defaultdict(int),
    }
    for entry in sorted(os.listdir(dump_dir)):
        if not (entry.startswith("worker-") and entry.endswith(".json")):
            continue
        with open(os.path.join(dump_dir, entry)) as stream:
            dump = json.load(stream)
        for key in ("inclusive", "self", "counts"):
            for name, value in dump[key].items():
                totals[key][name] += value
        totals["shard_seconds"].extend(dump["shard_seconds"])
        for name, value in dump["counters"].items():
            # Workers inherit the parent's counts at fork; only the
            # batch engine's counters are incremented in workers.
            if name.startswith("batchsim."):
                totals["counters"][name] += value
    return totals
