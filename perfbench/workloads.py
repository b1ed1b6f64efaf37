"""The benchmark's workloads and how one run derives its inputs.

A workload is one pipeline configuration.  A run of a workload
synthesizes several contracts in a row (a closed loop: one pipeline at
a time, from a single client), each from its own pipeline seed derived
from the run's ``--seed``.  The seed is the only input the program
receives, through ``SynthesisPipeline.budget(n, seed=...)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

#: Pipeline seeds of one run are ``seed * SEED_STRIDE + k``.
SEED_STRIDE = 1000

#: Fewest instances a run synthesizes.
MIN_INSTANCES = 5

#: Test ids per instance re-evaluated through the reference fast path.
REFERENCE_SAMPLE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    core: str
    attacker: str
    template: str
    #: Fast-path mode: ``"batch"`` (columnar engine) or ``"compiled"``
    #: (scalar simulator plus compiled extraction).
    fastpath: str
    budget: int
    #: Approximate wall seconds of one instance on a 2-vCPU machine,
    #: client start and output checks included.  It only sizes how many
    #: instances a run of ``--seconds`` plans, so the plan stays a pure
    #: function of (workload, seed, seconds).
    nominal_seconds: float
    #: ``processes`` for the ``multiprocess`` executor; ``None`` runs
    #: the evaluation in-process.
    processes: Optional[int] = None

    def pipeline(self, seed: int, cache_dir: Optional[str] = None, budget=None):
        """The configured :class:`SynthesisPipeline` for one instance.

        ``budget`` overrides the workload's (the self-test's tiny runs);
        sharded runs then use four shards, so both workers get work."""
        from repro.pipeline.pipeline import SynthesisPipeline

        pipeline = (
            SynthesisPipeline()
            .core(self.core)
            .attacker(self.attacker)
            .template(self.template)
            .fastpath(self.fastpath)
            .budget(self.budget if budget is None else budget, seed=seed)
        )
        if self.processes is not None:
            shard_size = None if budget is None else max(1, budget // 4)
            pipeline = (
                pipeline.executor(
                    "multiprocess", processes=self.processes, shard_size=shard_size
                )
                .cache_dir(cache_dir)
                .resume(True)
            )
        return pipeline


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="ibex-mem-sharded",
            core="ibex",
            attacker="retirement-timing",
            template="riscv-mem",
            fastpath="batch",
            budget=12000,
            nominal_seconds=2.6,
            processes=2,
        ),
        Workload(
            name="ibex-mem-batch",
            core="ibex",
            attacker="retirement-timing",
            template="riscv-mem",
            fastpath="batch",
            budget=8000,
            nominal_seconds=2.8,
        ),
        Workload(
            name="dcache-scalar",
            core="ibex-dcache",
            attacker="cache-state",
            template="riscv-mem",
            fastpath="compiled",
            budget=8000,
            nominal_seconds=3.0,
        ),
    )
}


def instance_seeds(workload: Workload, seed: int, seconds: float) -> List[int]:
    """The distinct pipeline seeds one run synthesizes contracts for."""
    planned = round(seconds / workload.nominal_seconds)
    count = max(MIN_INSTANCES, min(SEED_STRIDE, planned))
    return [seed * SEED_STRIDE + k for k in range(count)]


def reference_sample(workload: Workload, seed: int, budget: int) -> List[int]:
    """Test ids of one instance to re-evaluate through the reference
    fast path: a pure function of (workload, pipeline seed)."""
    rng = random.Random("%s:%d" % (workload.name, seed))
    return sorted(rng.sample(range(budget), min(REFERENCE_SAMPLE, budget)))
