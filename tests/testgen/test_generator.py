"""Tests for the atom-targeted test-case generator."""

import random

import pytest

from repro.contracts.observations import distinguishing_atoms
from repro.contracts.riscv_template import build_riscv_template
from repro.isa.executor import execute_program
from repro.isa.instructions import InstructionCategory, Opcode, OPCODE_INFO
from repro.testgen.generator import GeneratorConfig, TestCaseGenerator
from repro.testgen.testcase import TestCase


@pytest.fixture(scope="module")
def template():
    return build_riscv_template()


@pytest.fixture(scope="module")
def generator(template):
    return TestCaseGenerator(template, seed=1234)


def run_both(test_case):
    records_a = execute_program(test_case.program_a, test_case.initial_state.copy())
    records_b = execute_program(test_case.program_b, test_case.initial_state.copy())
    return records_a, records_b


def atom_by_name(template, name):
    for atom in template:
        if atom.name == name:
            return atom
    raise LookupError(name)


def test_deterministic_in_seed(template):
    a = TestCaseGenerator(template, seed=7).generate(10)
    b = TestCaseGenerator(template, seed=7).generate(10)
    for case_a, case_b in zip(a, b):
        assert case_a.program_a == case_b.program_a
        assert case_a.program_b == case_b.program_b
        assert case_a.initial_state.regs == case_b.initial_state.regs


def test_different_seeds_differ(template):
    a = TestCaseGenerator(template, seed=1).generate(10)
    b = TestCaseGenerator(template, seed=2).generate(10)
    assert any(
        case_a.program_a != case_b.program_a for case_a, case_b in zip(a, b)
    )


def test_programs_share_prefix_and_suffix_structure(generator):
    for test_case in generator.generate(50):
        assert len(test_case.program_a) == len(test_case.program_b)
        assert test_case.differing_positions, "programs must differ somewhere"


def test_programs_terminate(generator):
    for test_case in generator.generate(100):
        records_a, records_b = run_both(test_case)
        assert 1 <= len(records_a) <= len(test_case.program_a)
        assert 1 <= len(records_b) <= len(test_case.program_b)


def test_initial_state_registers_random_but_x0_zero(generator):
    test_case = generator.generate(1)[0]
    assert test_case.initial_state.regs[0] == 0
    assert any(value != 0 for value in test_case.initial_state.regs[1:])


@pytest.mark.parametrize(
    "atom_name",
    [
        "div:REG_RS2",
        "div:REG_RS1",
        "add:OP",
        "addi:IMM",
        "slli:IMM",
        "sll:REG_RS2",
        "lw:IS_WORD_ALIGNED",
        "lh:IS_HALF_ALIGNED",
        "lw:MEM_R_ADDR",
        "lw:MEM_R_DATA",
        "lw:REG_RD",
        "sw:MEM_W_ADDR",
        "sw:MEM_W_DATA",
        "beq:BRANCH_TAKEN",
        "bge:BRANCH_TAKEN",
        "beq:NEW_PC",
        "jal:NEW_PC",
        "mul:RAW_RS1_1",
        "mul:RAW_RS2_3",
        "add:RAW_RD_2",
        "add:WAW_1",
        "add:RD",
        "add:RS1",
        "sub:RS2",
        "lui:IMM",
        "jalr:NEW_PC",
        "jalr:RD",
    ],
)
def test_targeted_atom_actually_distinguishes(template, atom_name):
    """The strategy must make the targeted atom distinguish the pair in
    the (large) majority of generated cases."""
    atom = atom_by_name(template, atom_name)
    generator = TestCaseGenerator(template, seed=99)
    hits = 0
    trials = 12
    for trial in range(trials):
        rng = random.Random(1000 + trial)
        test_case = generator.generate_for_atom(atom, trial, rng)
        records_a, records_b = run_both(test_case)
        if atom.atom_id in distinguishing_atoms(template, records_a, records_b):
            hits += 1
    assert hits >= trials * 3 // 4, "only %d/%d hits for %s" % (hits, trials, atom_name)


def test_dependency_variation_preserves_architecture(template, generator):
    """RAW/WAW variations must leave the final architectural state
    identical — only the dependency structure may differ."""
    atom = atom_by_name(template, "mul:RAW_RS1_2")
    for trial in range(10):
        rng = random.Random(trial)
        test_case = generator.generate_for_atom(atom, trial, rng)
        state_a = test_case.initial_state.copy()
        state_b = test_case.initial_state.copy()
        execute_program(test_case.program_a, state_a)
        execute_program(test_case.program_b, state_b)
        assert state_a.regs == state_b.regs


def test_every_targeted_opcode_appears(generator, template):
    """Sampling many cases covers a broad range of instruction types."""
    opcodes = set()
    for test_case in generator.generate(300):
        atom = template.atom(test_case.targeted_atom_id)
        opcodes.add(atom.opcode)
    assert len(opcodes) > 25


def test_branch_targets_stay_inside_program(generator, template):
    for test_case in generator.generate(200):
        for program in (test_case.program_a, test_case.program_b):
            for index, instruction in enumerate(program):
                info = OPCODE_INFO[instruction.opcode]
                if info.category in (
                    InstructionCategory.BRANCH,
                    InstructionCategory.JUMP,
                ) and instruction.opcode is not Opcode.JALR:
                    target = program.address_of(index) + instruction.imm
                    assert program.base_address <= target <= program.end_address


def test_generate_iter_matches_generate(template):
    generator = TestCaseGenerator(template, seed=5)
    eager = generator.generate(5)
    lazy = list(generator.iter_generate(5))
    assert [case.program_a for case in eager] == [case.program_a for case in lazy]


def test_start_id_offsets_ids(template):
    generator = TestCaseGenerator(template, seed=5)
    cases = generator.generate(3, start_id=100)
    assert [case.test_id for case in cases] == [100, 101, 102]


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(min_prelude=3, max_prelude=1)
    with pytest.raises(ValueError):
        GeneratorConfig(min_suffix=0, max_suffix=0)


@pytest.mark.parametrize(
    "fields",
    [
        {"min_prelude": -1},
        {"address_like_probability": -0.1},
        {"address_like_probability": 1.5},
        {"address_like_probability": float("nan")},
    ],
)
def test_config_rejects_out_of_range_values(fields):
    with pytest.raises(ValueError):
        GeneratorConfig(**fields)


def test_config_accepts_boundary_values():
    GeneratorConfig(min_prelude=0, max_prelude=0)
    GeneratorConfig(address_like_probability=0.0)
    GeneratorConfig(address_like_probability=1.0)


def test_testcase_base_address_mismatch(template):
    generator = TestCaseGenerator(template, seed=0)
    case = generator.generate(1)[0]
    from repro.isa.program import Program

    with pytest.raises(ValueError):
        TestCase(
            test_id=0,
            program_a=case.program_a,
            program_b=Program(list(case.program_b), base_address=0x4000),
            initial_state=case.initial_state,
        )
