"""One benchmark client process: synthesize and check one contract.

Started by ``run.py`` with one JSON argument::

    {"workload": name, "seed": n, "spawn": t, "traced": bool,
     "tmp": dir, "budget": n | null, "corrupt": null | "atoms" | "bit"}

Every instance runs in a fresh process, so no cache of an earlier
instance can serve it.  ``spawn`` is ``time.monotonic()`` in the parent
just before this process was started, so ``setup_s`` covers
interpreter start, imports, registry resolution and the pipeline's
``setup`` phase, less the calibration that runs between imports and
the pipeline (``calibration_s``, see :func:`calibrate`).  The instance
is checked after its timed run.  The last line of standard output is
one JSON object: the instance record, with raw seconds.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from statistics import quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, reference_sample  # noqa: E402

#: Layers whose parent-side self times account for ``contract_s``.
LAYERS = (
    "testgen",
    "batchsim",
    "uarch",
    "contracts",
    "attacker",
    "evaluation",
    "backends",
    "checkpoint",
    "synthesis",
    "verification",
)


#: One calibration round: about 0.08 s on the development machine.
CALIBRATION_ITERATIONS = 400_000
#: Rounds per calibration, spread evenly over this process's CPUs.
CALIBRATION_ROUNDS = 4


def calibrate() -> float:
    """Mean seconds of a fixed pure-Python kernel, run on each CPU in
    turn just before the timed run: the host's current speed.  It runs
    no program code, so no change to ``src/`` can move it."""
    cpus = sorted(os.sched_getaffinity(0))
    rounds = []
    try:
        for index in range(CALIBRATION_ROUNDS):
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            start = time.perf_counter()
            total, table = 0, {}
            for i in range(CALIBRATION_ITERATIONS):
                total += i * i % 7
                table[i & 1023] = total
            rounds.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(rounds) / len(rounds)


def peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped children (pool workers)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def corrupt(dataset, test_id: int, how: str) -> None:
    """Self-test sabotage: change one row's atom set or verdict."""
    for index, row in enumerate(dataset.results):
        if row.test_id != test_id:
            continue
        if how == "atoms":
            row = replace(
                row, distinguishing_atom_ids=row.distinguishing_atom_ids ^ {0}
            )
        else:
            row = replace(
                row, attacker_distinguishable=not row.attacker_distinguishable
            )
        dataset.results[index] = row
        return


def layer_metrics(snapshot, workers, result, contract_s, shard_times, processes):
    """The per-layer metrics of one traced instance."""
    inclusive = dict(snapshot["inclusive"])
    counts = dict(snapshot["counts"])
    for name, value in workers["inclusive"].items():
        inclusive[name] = inclusive.get(name, 0.0) + value
    for name, value in workers["counts"].items():
        counts[name] = counts.get(name, 0) + value
    counters = dict(snapshot["counters"])
    for name, value in workers["counters"].items():
        counters[name] = counters.get(name, 0) + value

    timings = result.timings
    synthesis = result.synthesis
    dataset = result.dataset
    evaluate_s = timings.evaluation_seconds
    simulate_s = inclusive.get("batchsim.simulate", 0.0)
    retired = counts.get("batchsim.retired_instrs", 0)
    feeding = sum(
        1
        for row in dataset
        if row.attacker_distinguishable and row.distinguishing_atom_ids
    )
    shard_seconds = workers["shard_seconds"]
    if len(shard_seconds) >= 2:
        deciles = quantiles(shard_seconds, n=10)
        shard_p50, shard_p90 = deciles[4], deciles[8]
    else:
        shard_p50 = shard_p90 = sum(shard_seconds)
    merge_s = 0.0
    if shard_times:
        phase_end = shard_times["start"] + timings.setup_seconds + evaluate_s
        merge_s = max(0.0, phase_end - shard_times["last"])
    checkpoint_bytes = 0
    manifest = shard_times.get("manifest") if shard_times else None
    if manifest and os.path.exists(manifest):
        checkpoint_bytes = os.path.getsize(manifest)

    metrics = {
        "testgen.generate_s": inclusive.get("testgen.generate", 0.0),
        "testgen.cases": counts.get("testgen.cases", 0),
        "batchsim.simulate_s": simulate_s,
        "batchsim.extract_s": inclusive.get("batchsim.extract", 0.0),
        "batchsim.programs": counts.get("batchsim.programs", 0),
        "batchsim.retired_instrs": retired,
        "batchsim.instrs_per_s": retired / simulate_s if simulate_s else 0.0,
        "uarch.simulate_s": inclusive.get("uarch.simulate", 0.0),
        "uarch.retired_instrs": counts.get("uarch.retired_instrs", 0),
        "contracts.extract_s": inclusive.get("contracts.extract", 0.0),
        "attacker.distinguish_s": inclusive.get("attacker.distinguish", 0.0),
        "attacker.distinguishable_frac": feeding / len(dataset),
        "attacker.cases": len(dataset),
        "evaluation.evaluate_s": evaluate_s,
        "evaluation.cases_per_s": len(dataset) / evaluate_s if evaluate_s else 0.0,
        "backends.shards": len(shard_seconds),
        "backends.shard_p50_s": shard_p50,
        "backends.shard_p90_s": shard_p90,
        "backends.utilization": (
            sum(shard_seconds) / (processes * evaluate_s)
            if processes and evaluate_s
            else 0.0
        ),
        "backends.merge_s": merge_s,
        "checkpoint.append_s": inclusive.get("checkpoint.append", 0.0),
        "checkpoint.save_s": inclusive.get("checkpoint.save", 0.0),
        "checkpoint.bytes": checkpoint_bytes,
        "synthesis.build_s": inclusive.get("synthesis.build", 0.0),
        "synthesis.solve_s": inclusive.get("synthesis.solve", 0.0),
        "synthesis.redundancy_s": inclusive.get("synthesis.redundancy", 0.0),
        "synthesis.candidate_atoms": synthesis.instance.atom_count,
        "synthesis.cover_sets": len(synthesis.instance.cover_sets),
        "synthesis.fp_sets": len(synthesis.instance.fp_sets),
        "synthesis.variables": synthesis.solver_result.stats.get("variables", 0),
        "synthesis.constraints": synthesis.solver_result.stats.get("constraints", 0),
        "synthesis.milp_nodes": counts.get("synthesis.milp_nodes", 0),
        "verification.check_s": inclusive.get("verification.check", 0.0),
    }
    attributed = 0.0
    for layer in LAYERS:
        self_s = sum(
            value
            for name, value in snapshot["self"].items()
            if name.split(".")[0] == layer
        )
        metrics["self.%s_s" % layer] = self_s
        attributed += self_s
    metrics["pipeline.contract_s"] = contract_s
    metrics["pipeline.unattributed_s"] = contract_s - attributed
    metrics["pipeline.unattributed_frac"] = (contract_s - attributed) / contract_s
    for name in (
        "solver.cold_solves",
        "solver.warm_starts",
        "batchsim.fallback.memory_ops",
        "batchsim.fallback.dcache_ops",
        "dataset.cache.hits",
        "dataset.cache.misses",
    ):
        metrics[name] = counters.get(name, 0)
    return metrics


def run_instance(workload, seed, spec, recorder):
    """Run, time and check one instance; returns its record."""
    budget = spec["budget"] or workload.budget
    tmp = spec["tmp"]
    calibration_start = time.monotonic()
    calibration = calibrate()
    calibration_wall = time.monotonic() - calibration_start
    cache_dir = tempfile.mkdtemp(dir=tmp) if workload.processes else None
    pipeline = workload.pipeline(seed, cache_dir, spec["budget"])
    shard_times = None
    if recorder is not None and workload.processes:
        shard_times = {"manifest": pipeline.manifest_path()}

        def on_shard(_event):
            shard_times["last"] = time.monotonic()

        pipeline.on_shard(on_shard)
    start = time.monotonic()
    if shard_times is not None:
        shard_times["start"] = start
    result = pipeline.run()
    end = time.monotonic()
    setup = result.timings.setup_seconds
    record = {
        "seed": seed,
        "setup_s": start + setup - spec["spawn"] - calibration_wall,
        "contract_s": end - start - setup,
        "calibration_s": calibration,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        record["layers"] = layer_metrics(
            recorder.snapshot(),
            layers.worker_totals(tmp),
            result,
            record["contract_s"],
            shard_times,
            workload.processes,
        )
    sample = reference_sample(workload, seed, budget)
    if spec["corrupt"]:
        corrupt(result.dataset, sample[0], spec["corrupt"])
    failures = checks.state_mismatches(result)
    failures += checks.recount_mismatches(result)
    failures += checks.solver_mismatches(result)
    failures += checks.reference_mismatches(workload, seed, result.dataset, sample)
    if len(result.dataset) != budget:
        failures.append(
            "dataset has %d rows, budget %d" % (len(result.dataset), budget)
        )
    record.update(
        contract_fp=result.synthesis.false_positives,
        atoms=sorted(result.synthesis.contract.atom_ids),
        digest=checks.dataset_digest(result.dataset),
        failures=failures,
    )
    if cache_dir is not None:
        shutil.rmtree(cache_dir)
    return record


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    recorder = None
    if spec["traced"]:
        recorder = layers.Recorder(spec["tmp"])
        layers.install(recorder)
    try:
        record = run_instance(workload, spec["seed"], spec, recorder)
    except Exception as error:  # a raising run is a failed run
        record = {"seed": spec["seed"], "failures": ["raised %r" % (error,)]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
