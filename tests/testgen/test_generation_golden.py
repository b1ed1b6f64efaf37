"""Golden pins of the generated test-case bytes.

A test case is a pure function of ``(seed, test_id, strategy state)``
through the generator's RNG stream, and datasets, resume manifests and
``ContractStore`` prefixes all rely on that.  The digests below were
recorded once and must never move: adding, removing, reordering or
re-parameterizing a single draw changes them, and so does an
interpreter whose ``random`` module draws differently from the
generator's inlined copy of its algorithms.

Each digest covers ids ``0 .. COUNT-1`` of one (template, seed,
strategy) stream.  Every generated instruction is also rebuilt through
the validating :class:`Instruction` constructor, here and for every
atom of every registered template, so the generator's unvalidated fast
construction can never emit an instruction that validation would
reject.
"""

import hashlib
import json
import random

import pytest

from repro.contracts.riscv_template import TEMPLATE_REGISTRY
from repro.isa.instructions import Instruction
from repro.testgen import CoverageStrategy, MutateStrategy, RandomStrategy
from repro.testgen.generator import TestCaseGenerator
from repro.testgen.strategies import _case_to_dict

COUNT = 3000
TEMPLATES = ("riscv-rv32im", "riscv-mem")
SEEDS = (4, 77, 1000)

#: Ids of the random cases restored as the mutate strategy's parents
#: (disjoint from the digested range).
PARENT_IDS = range(100_000, 100_032)

#: (template, seed, strategy) -> SHA-256 of the cases' canonical JSON.
#: ``foreign-rng`` is the caller-owned-RNG path; its seed is unused.
GOLDEN = {
    ("riscv-rv32im", 4, "random"): "2e75289428930a8a342dd6a91c0bb6307fdb31660f9706f17bd8d9e93e5028a3",
    ("riscv-rv32im", 4, "coverage"): "2a6f6b5245332475f0babac4b19d96af3985e0b46befec668909a14f5d17a6fa",
    ("riscv-rv32im", 4, "mutate"): "c069782656c4b5f722477ae2533c24f9c5ce01160ea8b228b31e85e2fe1dd28e",
    ("riscv-rv32im", 77, "random"): "98e629c45c1be3787a3ebd8aa66d4ea9eebf31cb7d0ce5b4edaa5bf63b9ebeaf",
    ("riscv-rv32im", 77, "coverage"): "08eea76cc6aaaf7e297ce8bc6cc54821402c39e12d385d28e5bcb7d392cf1a1b",
    ("riscv-rv32im", 77, "mutate"): "8a014c24780c98a09f65ca45c11e005917e89da7abffafdc3685b045b6d69923",
    ("riscv-rv32im", 1000, "random"): "eb1c0315e64069083fe06bbfa9aba3487f16e3ec8e330139b6e2efbb9f3c201c",
    ("riscv-rv32im", 1000, "coverage"): "35eee78de19d95e137156dce42eed7b18ef561b60183f87ce4cb2ac5de5d90c2",
    ("riscv-rv32im", 1000, "mutate"): "6a691ae2077d588ec5ac3b3d3392545eb9e0e739fdefbe5a56e58d08a9a6a63c",
    ("riscv-mem", 4, "random"): "5e7242a29725393c02bd8c98e4df51ea2fef7b9bdb0ab04cb6cfb69e62fd3f6a",
    ("riscv-mem", 4, "coverage"): "a5f44211c0b1da46cdd2e9ce8a22504516b36f6a3a4ee595b40e7d5e7e14cf1b",
    ("riscv-mem", 4, "mutate"): "59fad2ffcdd9045cdf08b147fd68286ad70b2703a49fef5daa2ac3542e921a3d",
    ("riscv-mem", 77, "random"): "84f71e67af8ac4cb47d1b9d43920fe83d1dfe9468d91109ad113be3f666f0b8c",
    ("riscv-mem", 77, "coverage"): "cc83698cc1f2765ec0c91c11f114901a42f91a3e88ae0bcc42dad42d95f13ab3",
    ("riscv-mem", 77, "mutate"): "7048685d07dba29ce724f6c38b42d8e2a6defb119cfed4eaf6c4262a30481cd9",
    ("riscv-mem", 1000, "random"): "9a0b34af25c5406a8d4676b8d8518e1325e56975d7eed71e5f25d27c1935c2cc",
    ("riscv-mem", 1000, "coverage"): "ebaaaef6516a5e465b4be35dbd9257272a02576f6ed3c844d4cfb795583feb96",
    ("riscv-mem", 1000, "mutate"): "5949cb634e169960d216e3df003220bcc15b9aff6ecd64cedb9aac8492840576",
    ("riscv-rv32im", 17, "foreign-rng"): "8d5d77d9210c705fba2b0a5327c5c6b482d454d3b37aa474218561b496d90636",
    ("riscv-mem", 17, "foreign-rng"): "b3c8c91e566ee0ec68a80906f3e5c7b2597b4e205ebeef929bea6f4c9769a970",
}


def _instructions(program):
    return [
        [instruction.opcode.name, instruction.rd, instruction.rs1,
         instruction.rs2, instruction.imm]
        for instruction in program.instructions
    ]


def _digest(cases) -> str:
    """SHA-256 over one canonical JSON line per case."""
    digest = hashlib.sha256()
    for case in cases:
        assert len(case.initial_state.memory) == 0
        record = [
            case.test_id,
            case.targeted_atom_id,
            case.program_a.base_address,
            case.initial_state.pc,
            case.initial_state.regs,
            _instructions(case.program_a),
            _instructions(case.program_b),
        ]
        digest.update(json.dumps(record, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _strategy(name, template, seed):
    if name == "random":
        return RandomStrategy(template, seed=seed)
    if name == "coverage":
        strategy = CoverageStrategy(template, seed=seed)
        # Uneven, fixed counts exercise the weighted atom draw.
        strategy.restore(
            {"counts": {str(atom.atom_id): atom.atom_id % 5 for atom in template}}
        )
        return strategy
    if name == "mutate":
        parents = RandomStrategy(template, seed=seed)
        strategy = MutateStrategy(template, seed=seed)
        strategy.restore(
            {"parents": [_case_to_dict(parents.generate_case(i)) for i in PARENT_IDS]}
        )
        return strategy
    raise LookupError(name)


def _foreign_rng_cases(template, seed):
    """The micro-bench corpus shape: one caller-owned RNG shared by
    every case, driving ``generate_for_atom`` directly."""
    generator = TestCaseGenerator(template, seed=seed)
    rng = random.Random(0)
    atoms = list(template)
    return [
        generator.generate_for_atom(atoms[rng.randrange(len(atoms))], test_id, rng)
        for test_id in range(COUNT)
    ]


def _generate(template_name, seed, strategy):
    template = TEMPLATE_REGISTRY.create(template_name)
    if strategy == "foreign-rng":
        return _foreign_rng_cases(template, seed)
    return _strategy(strategy, template, seed).generate(COUNT)


def _assert_revalidates(cases):
    for case in cases:
        for program in (case.program_a, case.program_b):
            for instruction in program.instructions:
                rebuilt = Instruction(
                    instruction.opcode,
                    rd=instruction.rd,
                    rs1=instruction.rs1,
                    rs2=instruction.rs2,
                    imm=instruction.imm,
                )
                assert rebuilt == instruction


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda key: "-".join(map(str, key)))
def test_generated_bytes_match_golden_digest(key):
    cases = _generate(*key)
    assert [case.test_id for case in cases] == list(range(COUNT))
    assert _digest(cases) == GOLDEN[key]
    _assert_revalidates(cases)


@pytest.mark.parametrize("template_name", sorted(TEMPLATE_REGISTRY.names()))
def test_every_atom_generates_valid_instructions(template_name):
    """Each variation strategy, including ones a random sample rarely
    draws, emits only instructions validation accepts."""
    template = TEMPLATE_REGISTRY.create(template_name)
    generator = TestCaseGenerator(template, seed=0)
    _assert_revalidates(
        generator.generate_for_atom(atom, trial, random.Random(trial))
        for atom in template
        for trial in range(3)
    )
