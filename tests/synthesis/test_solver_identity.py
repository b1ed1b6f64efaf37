"""The default solver's pure-Python first stage against the HiGHS path
on real datasets: the contracts must be identical, and the corpus must
reach all three outcomes of ``prove_unique_optimum``."""

import pytest

from repro.pipeline.pipeline import SynthesisPipeline
from repro.synthesis.ilp import build_ilp_instance
from repro.synthesis.solvers import ScipyMilpSolver, prove_unique_optimum

#: (core, attacker, template, restriction, budget, seed, outcome)
CORPUS = [
    ("ibex", "retirement-timing", "riscv-mem", None, 300, 0, "unique"),
    ("ibex-dcache", "cache-state", "riscv-mem", None, 300, 0, "unique"),
    ("ibex", "retirement-timing", "riscv-rv32im", None, 300, 0, "tie"),
    ("cva6", "retirement-timing", "riscv-rv32im", None, 300, 0, "limit"),
    ("ibex", "retirement-timing", "riscv-rv32im", "base", 300, 2, "unique"),
    ("ibex", "retirement-timing", "riscv-rv32im", "base", 300, 0, "tie"),
]


def corpus_instance(core, attacker, template, restriction, budget, seed):
    pipeline = (
        SynthesisPipeline()
        .core(core)
        .attacker(attacker)
        .template(template)
        .restrict(restriction)
        .budget(budget, seed=seed)
    )
    _label, allowed = pipeline.resolve_restriction(pipeline.resolve_template())
    return build_ilp_instance(pipeline.evaluate(), allowed)


@pytest.mark.parametrize(
    "core, attacker, template, restriction, budget, seed, outcome",
    CORPUS,
    ids=["-".join(str(part) for part in entry[:6]) for entry in CORPUS],
)
def test_default_solver_matches_highs(
    core, attacker, template, restriction, budget, seed, outcome
):
    instance = corpus_instance(core, attacker, template, restriction, budget, seed)
    assert prove_unique_optimum(instance).status == outcome
    solver = ScipyMilpSolver()
    result = solver.solve(instance)
    highs = solver._solve_highs(instance)
    assert result.selected_atom_ids == highs.selected_atom_ids
    assert result.false_positives == highs.false_positives
    assert result.optimal == highs.optimal
