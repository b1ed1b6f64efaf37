"""Tests for the instruction model and opcode metadata."""

import pytest

from repro.isa.instructions import (
    Instruction,
    InstructionCategory,
    InstructionFormat,
    MEMORY_ACCESS_WIDTH,
    Opcode,
    OPCODE_INFO,
    SHIFT_IMMEDIATE_OPCODES,
)


def test_every_opcode_has_info():
    assert set(OPCODE_INFO) == set(Opcode)


def test_info_opcode_field_consistent():
    for opcode, info in OPCODE_INFO.items():
        assert info.opcode is opcode


def test_category_partition():
    categories = {
        InstructionCategory.ARITHMETIC: 21,   # LUI, AUIPC, 9 OP-IMM, 10 OP
        InstructionCategory.MULTIPLICATION: 4,
        InstructionCategory.DIVISION: 4,
        InstructionCategory.LOAD: 5,
        InstructionCategory.STORE: 3,
        InstructionCategory.BRANCH: 6,
        InstructionCategory.JUMP: 2,
        InstructionCategory.SYSTEM: 3,
    }
    for category, expected in categories.items():
        actual = sum(1 for info in OPCODE_INFO.values() if info.category is category)
        assert actual == expected, category


def test_r_type_operand_flags():
    info = OPCODE_INFO[Opcode.ADD]
    assert info.has_rd and info.has_rs1 and info.has_rs2 and not info.has_imm
    assert info.fmt is InstructionFormat.R


def test_store_has_no_rd():
    for opcode in (Opcode.SB, Opcode.SH, Opcode.SW):
        info = OPCODE_INFO[opcode]
        assert not info.has_rd
        assert info.has_rs1 and info.has_rs2 and info.has_imm
        assert info.is_memory


def test_branch_flags():
    info = OPCODE_INFO[Opcode.BEQ]
    assert info.is_control and not info.has_rd


def test_memory_widths():
    assert MEMORY_ACCESS_WIDTH[Opcode.LW] == 4
    assert MEMORY_ACCESS_WIDTH[Opcode.SH] == 2
    assert Instruction(Opcode.LB, rd=1, rs1=2, imm=0).memory_width == 1
    assert Instruction(Opcode.ADD).memory_width is None


def test_register_range_validation():
    with pytest.raises(ValueError):
        Instruction(Opcode.ADD, rd=32)
    with pytest.raises(ValueError):
        Instruction(Opcode.ADD, rs1=-1)


def test_immediate_range_i_type():
    Instruction(Opcode.ADDI, rd=1, rs1=1, imm=2047)
    Instruction(Opcode.ADDI, rd=1, rs1=1, imm=-2048)
    with pytest.raises(ValueError):
        Instruction(Opcode.ADDI, rd=1, rs1=1, imm=2048)
    with pytest.raises(ValueError):
        Instruction(Opcode.ADDI, rd=1, rs1=1, imm=-2049)


def test_shift_immediate_range():
    for opcode in SHIFT_IMMEDIATE_OPCODES:
        Instruction(opcode, rd=1, rs1=1, imm=31)
        with pytest.raises(ValueError):
            Instruction(opcode, rd=1, rs1=1, imm=32)
        with pytest.raises(ValueError):
            Instruction(opcode, rd=1, rs1=1, imm=-1)


def test_branch_offset_must_be_even():
    Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=4)
    with pytest.raises(ValueError):
        Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=3)


def test_jump_offset_range():
    Instruction(Opcode.JAL, rd=1, imm=-1048576)
    Instruction(Opcode.JAL, rd=1, imm=1048574)
    with pytest.raises(ValueError):
        Instruction(Opcode.JAL, rd=1, imm=1048575)


def test_u_type_immediate_unsigned():
    Instruction(Opcode.LUI, rd=1, imm=0xFFFFF)
    with pytest.raises(ValueError):
        Instruction(Opcode.LUI, rd=1, imm=-1)


def test_reads_and_writes():
    add = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
    assert add.reads(1) and add.reads(2) and not add.reads(3)
    assert add.writes(3) and not add.writes(1)
    assert add.written_register == 3


def test_x0_never_read_or_written():
    add = Instruction(Opcode.ADD, rd=0, rs1=0, rs2=0)
    assert not add.reads(0)
    assert not add.writes(0)
    assert add.written_register is None


def test_store_written_register_none():
    store = Instruction(Opcode.SW, rs1=1, rs2=2, imm=0)
    assert store.written_register is None
    assert store.reads(1) and store.reads(2)


def test_instruction_is_hashable_and_frozen():
    a = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
    b = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.rd = 5


def test_str_uses_disassembler():
    assert str(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)) == "add ra, sp, gp"


@pytest.mark.parametrize(
    "opcode, fields",
    [
        (Opcode.ADD, {"imm": 5}),
        (Opcode.LUI, {"rs1": 3}),
        (Opcode.JAL, {"rs2": 1}),
        (Opcode.SW, {"rd": 1}),
        (Opcode.BEQ, {"rd": 7}),
        (Opcode.FENCE, {"rd": 1}),
        (Opcode.ECALL, {"imm": 1}),
    ],
)
def test_non_applicable_fields_must_be_zero(opcode, fields):
    """``ADD imm=5`` would encode like ``ADD`` yet compare unequal."""
    (field_name,) = fields
    with pytest.raises(ValueError, match=field_name):
        Instruction(opcode, **fields)


def test_trusted_constructor_builds_an_equal_instruction():
    trusted = Instruction._trusted(Opcode.SRAI, 3, 4, 0, 31)
    validated = Instruction(Opcode.SRAI, rd=3, rs1=4, imm=31)
    assert trusted == validated and hash(trusted) == hash(validated)
    assert type(trusted) is Instruction
    with pytest.raises(AttributeError):
        trusted.rd = 5
