"""Output checks applied to every synthesized contract.

Each check is a pure function of the pipeline's result and the
instance's (workload, seed).  A check returns a list of failure
strings; an empty list means the output is correct.  The checks that
compare runs with each other (dataset bytes, contract atoms) live in
``run.py``, which sees every run of the instance.
"""

from __future__ import annotations

import hashlib
import os
from typing import List


def dataset_digest(dataset) -> str:
    """SHA-256 of the dataset's serialized bytes."""
    return hashlib.sha256(dataset.to_json().encode()).hexdigest()


def reference_mismatches(workload, seed: int, dataset, test_ids) -> List[str]:
    """Regenerate ``test_ids`` and re-evaluate them through the
    ``reference`` fast path; every row must equal the dataset's."""
    from repro.attacker import ATTACKER_REGISTRY
    from repro.contracts.riscv_template import TEMPLATE_REGISTRY
    from repro.evaluation.evaluator import TestCaseEvaluator
    from repro.testgen.strategies import GENERATOR_REGISTRY
    from repro.uarch import CORE_REGISTRY

    template = TEMPLATE_REGISTRY.create(workload.template)
    generator = GENERATOR_REGISTRY.create("random", template, seed=seed)
    evaluator = TestCaseEvaluator(
        CORE_REGISTRY.create(workload.core),
        template,
        attacker=ATTACKER_REGISTRY.create(workload.attacker),
        use_fastpath="reference",
    )
    expected = evaluator.evaluate_batch([generator.generate_case(i) for i in test_ids])
    rows = {result.test_id: result for result in dataset}
    return [
        "reference mismatch at test id %d" % result.test_id
        for result in expected
        if rows.get(result.test_id) != result
    ]


def recount_mismatches(result) -> List[str]:
    """Recount the contract's false positives and coverage from the
    dataset alone, independently of the ILP instance."""
    selected = result.synthesis.contract.atom_ids
    false_positives = 0
    uncovered = 0
    for row in result.dataset:
        hit = not selected.isdisjoint(row.distinguishing_atom_ids)
        if row.attacker_distinguishable:
            if row.distinguishing_atom_ids and not hit:
                uncovered += 1
        elif hit:
            false_positives += 1
    failures = []
    if false_positives != result.synthesis.false_positives:
        failures.append(
            "recounted %d false positives, pipeline reported %d"
            % (false_positives, result.synthesis.false_positives)
        )
    if uncovered:
        failures.append("%d coverable distinguishable cases uncovered" % uncovered)
    return failures


def solver_mismatches(result) -> List[str]:
    """The MILP solve is proven optimal and no worse than greedy."""
    from repro.synthesis.solvers import GreedySolver

    solver_result = result.synthesis.solver_result
    failures = []
    if not solver_result.optimal:
        failures.append("solver result not proven optimal")
    greedy = GreedySolver().solve(result.synthesis.instance)
    if solver_result.false_positives > greedy.false_positives:
        failures.append(
            "MILP false positives %d exceed greedy's %d"
            % (solver_result.false_positives, greedy.false_positives)
        )
    return failures


def live_children() -> List[int]:
    """Pids of this process's live child processes."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open("/proc/self/task/%s/children" % task) as stream:
                pids.extend(int(pid) for pid in stream.read().split())
        except OSError:
            continue
    return pids


def state_mismatches(result) -> List[str]:
    """Fresh state: no cache hit, no resumed or quarantined shard, no
    failure record and no worker left alive after the run."""
    timings = result.timings
    failures = []
    if timings.cache_hit:
        failures.append("dataset served from the cache")
    if timings.shards_resumed:
        failures.append("%d shards resumed" % timings.shards_resumed)
    if timings.shards_quarantined or result.failures:
        failures.append("%d failure records" % len(result.failures))
    children = live_children()
    if children:
        failures.append("worker processes outlived the run: %s" % children)
    return failures
