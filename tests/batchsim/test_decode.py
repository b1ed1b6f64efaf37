"""``decode_batch`` against a plain per-instruction lowering.

The batch decode memoizes each program's columns on the program and
lowers every miss of a batch with one ``np.array`` call; these tests
pin its output to the obvious element-by-element lowering for any mix
of fresh, memoized and repeated programs.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.batchsim.decode import OPCODE_ORDER, decode_batch
from repro.isa.instructions import (
    Instruction,
    InstructionFormat,
    Opcode,
    OPCODE_INFO,
    SHIFT_IMMEDIATE_OPCODES,
)
from repro.isa.program import Program


def reference_decode(programs):
    """Padded ``(op, rd, rs1, rs2, imm, base, code_limit)``, one element
    at a time."""
    lanes = len(programs)
    max_len = max((len(program) for program in programs), default=0)
    columns = [np.zeros((lanes, max_len), dtype=np.int64) for _ in range(5)]
    for lane, program in enumerate(programs):
        for position, instruction in enumerate(program.instructions):
            columns[0][lane, position] = OPCODE_ORDER.index(instruction.opcode)
            columns[1][lane, position] = instruction.rd
            columns[2][lane, position] = instruction.rs1
            columns[3][lane, position] = instruction.rs2
            columns[4][lane, position] = instruction.imm
    base = np.array([program.base_address for program in programs], dtype=np.int64)
    code_limit = np.array([4 * len(program) for program in programs], dtype=np.int64)
    return (*columns, base, code_limit)


def assert_decodes_like_reference(programs):
    decoded = decode_batch(programs)
    expected = reference_decode(programs)
    assert len(decoded) == len(expected)
    for got, want in zip(decoded, expected):
        assert got.dtype == np.int64
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def _immediate(opcode, bits):
    info = OPCODE_INFO[opcode]
    if not info.has_imm:
        return 0
    if opcode in SHIFT_IMMEDIATE_OPCODES:
        return bits % 32
    if info.fmt in (InstructionFormat.I, InstructionFormat.S):
        return bits % 4096 - 2048
    if info.fmt is InstructionFormat.B:
        return (bits % 4096 - 2048) * 2
    if info.fmt is InstructionFormat.U:
        return bits % (1 << 20)
    return (bits % (1 << 20) - (1 << 19)) * 2  # J


def _build(opcode, rd, rs1, rs2, imm_bits):
    info = OPCODE_INFO[opcode]
    return Instruction(
        opcode,
        rd=rd if info.has_rd else 0,
        rs1=rs1 if info.has_rs1 else 0,
        rs2=rs2 if info.has_rs2 else 0,
        imm=_immediate(opcode, imm_bits),
    )


instructions = st.builds(
    _build,
    st.sampled_from(OPCODE_ORDER),
    st.integers(0, 31),
    st.integers(0, 31),
    st.integers(0, 31),
    st.integers(0, (1 << 21) - 1),
)
programs = st.builds(
    Program,
    st.lists(instructions, min_size=0, max_size=12),
    st.integers(0, 1 << 20).map(lambda word: 4 * word),
)


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(programs, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), max_size=12),
    warm=st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_decode_batch_matches_reference(pool, picks, warm):
    # Pre-decode part of the pool, so the batch mixes memoized and
    # fresh programs; ``picks`` repeats program objects within it.
    warmed = [program for program, hot in zip(pool, warm) if hot]
    decode_batch(warmed)
    batch = [pool[index % len(pool)] for index in picks]
    assert_decodes_like_reference(batch)

    # A second call lowers nothing again: every memo is kept as is.
    memos = [program._columns for program in batch]
    assert all(memo is not None for memo in memos)
    assert_decodes_like_reference(batch)
    assert all(program._columns is memo for program, memo in zip(batch, memos))


def test_empty_batch():
    op, rd, rs1, rs2, imm, base, code_limit = decode_batch([])
    for column in (op, rd, rs1, rs2, imm):
        assert column.shape == (0, 0)
    assert base.shape == code_limit.shape == (0,)


def test_length_one_programs_and_repeats():
    single = Program([Instruction(Opcode.ADDI, rd=1, rs1=2, imm=-7)])
    other = Program([Instruction(Opcode.LUI, rd=5, imm=0xFFFFF)], 0x2000)
    assert_decodes_like_reference([single, other, single])
    assert_decodes_like_reference([other, single, other])


def test_memo_is_not_part_of_identity():
    body = [
        Instruction(Opcode.SW, rs1=3, rs2=4, imm=-8),
        Instruction(Opcode.BEQ, rs1=1, rs2=1, imm=8),
    ]
    decoded, fresh = Program(body), Program(body)
    decode_batch([decoded])
    assert decoded._columns is not None and fresh._columns is None
    assert decoded == fresh and hash(decoded) == hash(fresh)
    assert not decoded._columns.flags.writeable
    restored = pickle.loads(pickle.dumps(decoded))
    assert restored._columns is None and restored._hash is None
    assert restored == decoded and hash(restored) == hash(decoded)
