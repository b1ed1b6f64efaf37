"""The test-case generation strategy of §IV-B.

Each test case targets one contract atom and consists of two programs
built from three parts:

1. a shared random prelude (register values come from the shared
   random initial state; the prelude adds dependency context),
2. a middle section containing a random instance of the atom's
   instruction type, *varied between the two programs* so that the
   targeted atom is likely to distinguish them (e.g. a different
   immediate for ``IMM``, a producer writing the source register —
   or not — for ``RAW_RS1_n``),
3. a shared random suffix that reads the target's result to surface
   the leakage and guarantee the middle section completes.

The generator only aims; the evaluator computes the *exact* set of
distinguishing atoms for every test case afterwards, so imperfectly
targeted cases are still perfectly valid.

**RNG-stream invariant.**  A test case is a pure function of
``(seed, test_id)`` (plus strategy state), and evaluation datasets,
resumed run manifests and ``ContractStore`` prefixes are all keyed by
that.  Every draw in this module is therefore part of the stored
format: adding, removing, reordering or re-parameterizing a single draw
changes every dataset and breaks resume and the store prefixes.  The
draws are the stdlib ``random.Random`` algorithms inlined over
``rng.getrandbits`` (see :func:`_below`), so they consume exactly the
bits ``randrange``/``randint``/``choice``/``shuffle`` would, minus the
call overhead.  ``tests/testgen/test_generation_golden.py`` pins the
generated bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.contracts.atoms import ContractAtom
from repro.contracts.template import ContractTemplate
from repro.isa.instructions import (
    Instruction,
    InstructionCategory,
    Opcode,
    OPCODE_INFO,
)
from repro.isa.program import DEFAULT_BASE_ADDRESS, Program
from repro.isa.state import ArchState
from repro.testgen.opcodes import (
    BRANCH_VALUE_PAIRS as _BRANCH_VALUE_PAIRS,
    BRANCHES as _BRANCHES,
    FILLER_POOL,
    LOADS as _LOADS,
    SHIFTS_IMM as _SHIFTS_IMM,
    STORE_FOR_LOAD as _STORE_FOR_LOAD,
    UPPER as _UPPER,
    mutation_pool,
)
from repro.testgen.testcase import TestCase

_MASK32 = 0xFFFFFFFF

#: Generator-built instructions are in range by construction and skip
#: validation (``tests/testgen`` re-validates every one they emit).
_make = Instruction._trusted
_NOP = Instruction(Opcode.ADDI)


def _below(rng: random.Random, n: int) -> int:
    """``rng._randbelow(n)`` (``n >= 1``): draw ``n.bit_length()`` bits,
    redraw while the value is ``>= n``.  ``randrange(a, b)`` is
    ``a + _below(rng, b - a)``, ``randint(a, b)`` is
    ``randrange(a, b + 1)`` and ``choice(s)`` is
    ``s[_below(rng, len(s))]``.  The hot loops inline this with
    precomputed ``(n, k)`` pairs."""
    k = n.bit_length()
    value = rng.getrandbits(k)
    while value >= n:
        value = rng.getrandbits(k)
    return value


def _randint(rng: random.Random, low: int, high: int) -> int:
    """``rng.randint(low, high)``."""
    return low + _below(rng, high - low + 1)


#: ``(n, k)`` of the hot constant ranges: ``randint(1, 31)`` (a register
#: index) and ``randrange(0x100, 0x8000)`` (an address-like value).
_REG_N = 31
_REG_K = _REG_N.bit_length()
_ADDRESS_N = 0x8000 - 0x100
_ADDRESS_K = _ADDRESS_N.bit_length()


def _filler_spec(opcode: Opcode):
    """``(opcode, has_rd, has_rs1, has_rs2, imm)`` of one filler opcode;
    ``imm`` is ``(low, n, k)`` of its ``randint`` range, or ``None``."""
    info = OPCODE_INFO[opcode]
    if opcode in _SHIFTS_IMM:
        imm = (0, 32, (32).bit_length())
    elif info.has_imm:
        imm = (-2048, 4096, (4096).bit_length())
    else:
        imm = None
    return opcode, info.has_rd, info.has_rs1, info.has_rs2, imm


_FILLER_SPECS = tuple(_filler_spec(opcode) for opcode in FILLER_POOL)
_FILLER_N = len(_FILLER_SPECS)
_FILLER_K = _FILLER_N.bit_length()
#: ``k`` of ``shuffle``'s ``_below(rng, i + 1)`` for every pool index.
_SHUFFLE_K = tuple((index + 1).bit_length() for index in range(32))


def child_rng(seed: int, test_id: int) -> random.Random:
    """The per-test-id RNG shared by the legacy generator and every
    ``GENERATOR_REGISTRY`` strategy.  A test case is a function of
    ``(seed, test_id, strategy state)`` — this single derivation is
    what makes shard fan-out, budget prefixes, and the random-strategy
    byte-identity sound, so both call sites must use it."""
    return random.Random((seed << 24) ^ test_id)


@dataclass
class GeneratorConfig:
    """Shape parameters of generated test programs."""

    min_prelude: int = 0
    max_prelude: int = 2
    min_suffix: int = 3
    max_suffix: int = 5
    base_address: int = DEFAULT_BASE_ADDRESS
    #: Probability that a random register value is "address-like"
    #: (small, near-aligned) rather than uniformly random.
    address_like_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.min_prelude > self.max_prelude or self.min_suffix > self.max_suffix:
            raise ValueError("min length exceeds max length")
        if self.min_prelude < 0:
            raise ValueError("prelude length must be non-negative")
        if self.min_suffix < 1:
            raise ValueError("suffix must contain at least one instruction")
        if not 0.0 <= self.address_like_probability <= 1.0:
            raise ValueError("address_like_probability must be in [0, 1]")


class TestCaseGenerator:
    """Generates atom-targeted test cases from a contract template."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        template: ContractTemplate,
        seed: int = 0,
        config: Optional[GeneratorConfig] = None,
    ):
        self.template = template
        self.seed = seed
        self.config = config if config is not None else GeneratorConfig()
        self._atoms: Tuple[ContractAtom, ...] = template.atoms

    def generate(self, count: int, start_id: int = 0) -> List[TestCase]:
        """Generate ``count`` test cases (deterministic in ``seed``)."""
        return list(self.iter_generate(count, start_id))

    def iter_generate(self, count: int, start_id: int = 0) -> Iterable[TestCase]:
        for offset in range(count):
            yield self.generate_case(start_id + offset)

    def generate_case(self, test_id: int) -> TestCase:
        """The random case for ``test_id``: a uniformly drawn atom."""
        rng = child_rng(self.seed, test_id)
        atom = self._atoms[_below(rng, len(self._atoms))]
        return self.generate_for_atom(atom, test_id, rng)

    def generate_for_atom(
        self, atom: ContractAtom, test_id: int, rng: random.Random
    ) -> TestCase:
        """Build one test case aimed at ``atom``."""
        config = self.config
        state = self._random_initial_state(rng)
        prelude_length = _randint(rng, config.min_prelude, config.max_prelude)
        suffix_length = _randint(rng, config.min_suffix, config.max_suffix)
        target = self._random_instance(atom.opcode, rng, suffix_length)
        part2_a, part2_b = self._vary(atom, target, rng, state, suffix_length)
        prelude = self._random_fillers(rng, prelude_length, ())
        interesting = self._written_registers(part2_a) | self._written_registers(
            part2_b
        )
        suffix = self._random_fillers(rng, suffix_length, tuple(sorted(interesting)))
        instructions_a = prelude + part2_a + suffix
        instructions_b = prelude + part2_b + suffix
        return TestCase(
            test_id=test_id,
            program_a=Program(instructions_a, self.config.base_address),
            program_b=Program(instructions_b, self.config.base_address),
            initial_state=state,
            targeted_atom_id=atom.atom_id,
        )

    # ------------------------------------------------------------------
    # Random raw material

    def _random_initial_state(self, rng: random.Random) -> ArchState:
        draw = rng.random
        getrandbits = rng.getrandbits
        address_like = self.config.address_like_probability
        regs = [0] * 32
        for index in range(1, 32):
            if draw() < address_like:
                value = getrandbits(_ADDRESS_K)
                while value >= _ADDRESS_N:
                    value = getrandbits(_ADDRESS_K)
                regs[index] = 0x100 + value
            else:
                regs[index] = getrandbits(32)
        return ArchState(pc=self.config.base_address, regs=regs)

    def _random_instance(
        self, opcode: Opcode, rng: random.Random, suffix_length: int
    ) -> Instruction:
        """A random, safe instance of ``opcode``.

        Control-flow targets stay inside the program (forward only).
        """
        info = OPCODE_INFO[opcode]
        rd = 1 + _below(rng, _REG_N) if info.has_rd else 0
        rs1 = 1 + _below(rng, _REG_N) if info.has_rs1 else 0
        rs2 = 1 + _below(rng, _REG_N) if info.has_rs2 else 0
        imm = 0
        if info.has_imm:
            if opcode in _SHIFTS_IMM:
                imm = _randint(rng, 0, 31)
            elif opcode in _BRANCHES or opcode is Opcode.JAL:
                imm = 4 * _randint(rng, 1, max(1, suffix_length))
            elif opcode is Opcode.JALR:
                imm = 8  # paired with an AUIPC base; see _vary
            elif opcode in _UPPER:
                imm = rng.getrandbits(20)
            else:
                imm = _randint(rng, -2048, 2047)
        return _make(opcode, rd, rs1, rs2, imm)

    @staticmethod
    def _random_fillers(
        rng: random.Random, count: int, bias_registers: Sequence[int]
    ) -> List[Instruction]:
        """``count`` random non-control instructions; their sources are
        biased toward ``bias_registers`` to surface leakage of earlier
        results.  Per instruction the draws are: the opcode, ``rd``,
        each source (a coin, then a bias pick or a random register;
        no coin without bias registers), the immediate."""
        draw = rng.random
        getrandbits = rng.getrandbits
        bias_n = len(bias_registers)
        bias_k = bias_n.bit_length()
        fillers = []
        for _ in range(count):
            value = getrandbits(_FILLER_K)
            while value >= _FILLER_N:
                value = getrandbits(_FILLER_K)
            opcode, has_rd, has_rs1, has_rs2, imm_range = _FILLER_SPECS[value]
            rd = rs1 = rs2 = imm = 0
            if has_rd:
                value = getrandbits(_REG_K)
                while value >= _REG_N:
                    value = getrandbits(_REG_K)
                rd = 1 + value
            if has_rs1:
                if bias_n and draw() < 0.5:
                    value = getrandbits(bias_k)
                    while value >= bias_n:
                        value = getrandbits(bias_k)
                    rs1 = bias_registers[value]
                else:
                    value = getrandbits(_REG_K)
                    while value >= _REG_N:
                        value = getrandbits(_REG_K)
                    rs1 = 1 + value
            if has_rs2:
                if bias_n and draw() < 0.5:
                    value = getrandbits(bias_k)
                    while value >= bias_n:
                        value = getrandbits(bias_k)
                    rs2 = bias_registers[value]
                else:
                    value = getrandbits(_REG_K)
                    while value >= _REG_N:
                        value = getrandbits(_REG_K)
                    rs2 = 1 + value
            if imm_range is not None:
                low, imm_n, imm_k = imm_range
                value = getrandbits(imm_k)
                while value >= imm_n:
                    value = getrandbits(imm_k)
                imm = low + value
            fillers.append(_make(opcode, rd, rs1, rs2, imm))
        return fillers

    @staticmethod
    def _written_registers(instructions: Sequence[Instruction]):
        # Non-applicable rd fields are 0, and writes to x0 do not count.
        return {instruction.rd for instruction in instructions} - {0}

    def _scratch_registers(
        self, rng: random.Random, avoid: Sequence[int], count: int
    ) -> List[int]:
        avoid = set(avoid)
        pool = [index for index in range(1, 32) if index not in avoid]
        # rng.shuffle(pool): Fisher-Yates from the end.  The whole pool
        # is shuffled even though only ``count`` entries are kept.
        getrandbits = rng.getrandbits
        for index in range(len(pool) - 1, 0, -1):
            k = _SHUFFLE_K[index]
            other = getrandbits(k)
            while other > index:
                other = getrandbits(k)
            pool[index], pool[other] = pool[other], pool[index]
        return pool[:count]

    # ------------------------------------------------------------------
    # Per-source variation strategies

    def _vary(
        self,
        atom: ContractAtom,
        target: Instruction,
        rng: random.Random,
        state: ArchState,
        suffix_length: int,
    ) -> Tuple[List[Instruction], List[Instruction]]:
        """Build the two middle sections (part 2) for ``atom``."""
        source = atom.source
        if source == "OP":
            return self._vary_opcode(target, rng)
        if source in ("RD", "RS1", "RS2"):
            return self._vary_register_index(target, source, rng)
        if source == "IMM":
            return self._vary_immediate(target, rng, suffix_length)
        if source == "REG_RS1":
            return self._vary_register_value(target, target.rs1, rng)
        if source == "REG_RS2":
            return self._vary_register_value(target, target.rs2, rng)
        if source == "IS_ZERO_RS1":
            return self._vary_zero_value(target, target.rs1, rng)
        if source == "IS_ZERO_RS2":
            return self._vary_zero_value(target, target.rs2, rng)
        if source in ("REG_RD", "MEM_R_DATA"):
            return self._vary_result_value(target, rng)
        if source == "MEM_W_DATA":
            return self._vary_register_value(target, target.rs2, rng)
        if source in ("MEM_R_ADDR", "MEM_W_ADDR"):
            return self._vary_address(target, rng, alignment_delta=0)
        if source == "IS_WORD_ALIGNED":
            return self._vary_address(
                target, rng, alignment_delta=(1, 2, 3)[_below(rng, 3)]
            )
        if source == "IS_HALF_ALIGNED":
            return self._vary_address(target, rng, alignment_delta=3)
        if source == "BRANCH_TAKEN":
            return self._vary_branch_outcome(target, rng)
        if source == "NEW_PC":
            return self._vary_new_pc(target, rng, suffix_length)
        prefix = source.rpartition("_")[0]
        if prefix in ("RAW_RS1", "RAW_RS2", "RAW_RD", "WAW"):
            distance = int(source.rpartition("_")[2])
            return self._vary_dependency(target, prefix, distance, rng)
        raise ValueError("no variation strategy for source %r" % (source,))

    def _finalize_target(self, target: Instruction, rng: random.Random):
        """Wrap targets that need setup (JALR needs an in-program base)."""
        if target.opcode is Opcode.JALR:
            base = self._scratch_registers(rng, (target.rd, 0), 1)[0]
            setup = _make(Opcode.AUIPC, rd=base, imm=0)
            target = _make(Opcode.JALR, rd=target.rd, rs1=base, imm=target.imm)
            return [setup], target
        return [], target

    def _vary_opcode(self, target: Instruction, rng: random.Random):
        pool = mutation_pool(target.opcode)
        alternatives = [opcode for opcode in pool if opcode is not target.opcode]
        setup, target = self._finalize_target(target, rng)
        if not alternatives:
            # JAL/JALR have no same-format sibling: swap in an
            # upper-immediate instruction with a compatible rd.
            mutated = _make(Opcode.AUIPC, rd=max(target.rd, 1), imm=1)
            return setup + [target], setup + [mutated]
        alternative = alternatives[_below(rng, len(alternatives))]
        mutated = self._rebuild(target, alternative)
        return setup + [target], setup + [mutated]

    @staticmethod
    def _rebuild(target: Instruction, opcode: Opcode) -> Instruction:
        """Re-type ``target`` as ``opcode``, clamping the immediate."""
        info = OPCODE_INFO[opcode]
        imm = target.imm
        if opcode in _SHIFTS_IMM:
            imm &= 31
        return _make(
            opcode,
            rd=target.rd if info.has_rd else 0,
            rs1=target.rs1 if info.has_rs1 else 0,
            rs2=target.rs2 if info.has_rs2 else 0,
            imm=imm if info.has_imm else 0,
        )

    def _vary_register_index(self, target: Instruction, field_name: str, rng):
        setup, target = self._finalize_target(target, rng)
        current = getattr(target, field_name.lower())
        if field_name == "RS1" and target.opcode is Opcode.JALR:
            # Re-pointing JALR's base register would jump out of the
            # program; vary the link register instead of the base.
            field_name, current = "RD", target.rd
        replacement = current
        while replacement == current:
            replacement = _randint(rng, 1, 31)
        mutated = _make(
            target.opcode,
            rd=replacement if field_name == "RD" else target.rd,
            rs1=replacement if field_name == "RS1" else target.rs1,
            rs2=replacement if field_name == "RS2" else target.rs2,
            imm=target.imm,
        )
        return setup + [target], setup + [mutated]

    def _vary_immediate(self, target: Instruction, rng, suffix_length: int):
        setup, target = self._finalize_target(target, rng)
        opcode = target.opcode
        if opcode in _SHIFTS_IMM:
            other = target.imm
            while other == target.imm:
                other = _randint(rng, 0, 31)
        elif opcode in _BRANCHES or opcode is Opcode.JAL:
            choices = [4 * k for k in range(1, max(2, suffix_length + 1))]
            choices = [c for c in choices if c != target.imm]
            other = choices[_below(rng, len(choices))]
        elif opcode is Opcode.JALR:
            other = target.imm + 4 if target.imm <= 8 else target.imm - 4
        elif opcode in _UPPER:
            other = target.imm
            while other == target.imm:
                other = rng.getrandbits(20)
        else:
            other = target.imm
            while other == target.imm:
                other = _randint(rng, -2048, 2047)
        mutated = _make(
            opcode, rd=target.rd, rs1=target.rs1, rs2=target.rs2, imm=other
        )
        return setup + [target], setup + [mutated]

    def _loader(self, register: int, value: int, rng) -> List[Instruction]:
        """Instructions setting ``register`` to ``value`` (or to a
        12-bit fragment of it when a single ADDI suffices)."""
        if -2048 <= value <= 2047:
            return [_make(Opcode.ADDI, rd=register, rs1=0, imm=value)]
        upper = (value >> 12) & 0xFFFFF
        lower = value & 0xFFF
        if lower >= 0x800:
            upper = (upper + 1) & 0xFFFFF
            lower -= 0x1000
        sequence = [_make(Opcode.LUI, rd=register, imm=upper)]
        if lower:
            sequence.append(_make(Opcode.ADDI, rd=register, rs1=register, imm=lower))
        return sequence

    def _vary_register_value(self, target: Instruction, register: int, rng):
        setup, target = self._finalize_target(target, rng)
        if register == 0:
            # x0 cannot vary; fall back to an index mutation.
            return self._vary_register_index(target, "RD", rng)
        if (
            target.info.is_memory
            and register == target.rs1
            and rng.random() < 0.5
        ):
            # Vary the base register but compensate in the immediate so
            # the *effective address* stays equal: separates REG_RS1
            # from MEM_R_ADDR leakage (without such cases the two atoms
            # are observationally identical on every test case).
            compensated = self._vary_base_compensated(target, rng, setup)
            if compensated is not None:
                return compensated
        value_a = rng.getrandbits(32) if rng.random() < 0.5 else _below(rng, 4096)
        value_b = value_a
        while value_b == value_a:
            value_b = (
                rng.getrandbits(32) if rng.random() < 0.5 else _below(rng, 4096)
            )
        part_a = self._loader(register, value_a, rng) + setup + [target]
        part_b = self._loader(register, value_b, rng) + setup + [target]
        return self._pad_to_equal_length(part_a, part_b)

    def _vary_base_compensated(self, target: Instruction, rng, setup):
        """Two programs accessing the *same* address through different
        base-register values (immediate compensates the delta)."""
        delta = 4 * _randint(rng, 1, 64)
        if target.imm - delta >= -2048:
            imm_b = target.imm - delta
        elif target.imm + delta <= 2047:
            imm_b, delta = target.imm + delta, -delta
        else:
            return None
        address = 4 * (0x40 + _below(rng, 0x400 - 0x40))
        value_a = (address - target.imm) & _MASK32
        value_b = (address - imm_b) & _MASK32
        mutated = _make(
            target.opcode,
            rd=target.rd,
            rs1=target.rs1,
            rs2=target.rs2,
            imm=imm_b,
        )
        part_a = self._loader(target.rs1, value_a, rng) + setup + [target]
        part_b = self._loader(target.rs1, value_b, rng) + setup + [mutated]
        return self._pad_to_equal_length(part_a, part_b)

    def _vary_zero_value(self, target: Instruction, register: int, rng):
        """Zero vs non-zero operand value (IS_ZERO_RS* refinement)."""
        setup, target = self._finalize_target(target, rng)
        if register == 0:
            return self._vary_register_index(target, "RD", rng)
        nonzero = 1 + _below(rng, 4096 - 1)
        part_a = self._loader(register, 0, rng) + setup + [target]
        part_b = self._loader(register, nonzero, rng) + setup + [target]
        return self._pad_to_equal_length(part_a, part_b)

    def _vary_result_value(self, target: Instruction, rng):
        """Vary the target's *result* (REG_RD / MEM_R_DATA)."""
        opcode = target.opcode
        if opcode in _LOADS:
            # Store different data to the loaded address beforehand.
            scratch = self._scratch_registers(rng, (target.rd, target.rs1), 1)[0]
            store_opcode = _STORE_FOR_LOAD[opcode]
            value_a, value_b = rng.getrandbits(8), rng.getrandbits(8)
            while value_b == value_a:
                value_b = rng.getrandbits(8)
            store = _make(store_opcode, rs1=target.rs1, rs2=scratch, imm=target.imm)
            part_a = self._loader(scratch, value_a, rng) + [store, target]
            part_b = self._loader(scratch, value_b, rng) + [store, target]
            return self._pad_to_equal_length(part_a, part_b)
        info = OPCODE_INFO[opcode]
        if info.has_rs1 and opcode is not Opcode.JALR:
            return self._vary_register_value(target, target.rs1, rng)
        if info.has_imm:
            return self._vary_immediate(target, rng, suffix_length=2)
        return self._vary_register_index(target, "RD", rng)

    def _vary_address(self, target: Instruction, rng, alignment_delta: int):
        """Vary a memory access's address.

        ``alignment_delta == 0`` keeps the alignment equal (pure
        address variation); otherwise the second program's address is
        offset by ``alignment_delta`` bytes.

        Pure address variations on loads are prefixed with a *warming*
        access to the first address: on cores with address-indexed
        state (caches), the first program then reuses warm state while
        the second does not — the reuse pattern that makes address
        leakage observable at all (a cold cache treats every single
        access alike).
        """
        base = 4 * (0x40 + _below(rng, 0x400 - 0x40))
        if alignment_delta == 0:
            address_a, address_b = base, base + 4 * _randint(rng, 1, 64)
        else:
            address_a, address_b = base, base + alignment_delta
        register = target.rs1
        warm: List[Instruction] = []
        if alignment_delta == 0 and target.info.category is InstructionCategory.LOAD:
            warm_base, warm_rd = self._scratch_registers(
                rng, (register, target.rd, target.rs2), 2
            )
            warm = self._loader(warm_base, address_a & ~0x3, rng) + [
                _make(Opcode.LW, rd=warm_rd, rs1=warm_base, imm=0)
            ]
        part_a = self._loader(register, (address_a - target.imm) & _MASK32, rng)
        part_b = self._loader(register, (address_b - target.imm) & _MASK32, rng)
        part_a, part_b = self._pad_to_equal_length(
            warm + part_a + [target], warm + part_b + [target]
        )
        return part_a, part_b

    def _vary_branch_outcome(self, target: Instruction, rng):
        true_pair, false_pair = _BRANCH_VALUE_PAIRS[target.opcode]
        if target.rs1 == target.rs2:
            # Equal registers cannot take different values; re-point rs2.
            rs2 = self._scratch_registers(rng, (target.rs1,), 1)[0]
            target = _make(target.opcode, rs1=target.rs1, rs2=rs2, imm=target.imm)
        taken_first = rng.random() < 0.5
        pair_a = true_pair if taken_first else false_pair
        pair_b = false_pair if taken_first else true_pair
        part_a = (
            self._loader(target.rs1, pair_a[0], rng)
            + self._loader(target.rs2, pair_a[1], rng)
            + [target]
        )
        part_b = (
            self._loader(target.rs1, pair_b[0], rng)
            + self._loader(target.rs2, pair_b[1], rng)
            + [target]
        )
        return self._pad_to_equal_length(part_a, part_b)

    def _vary_new_pc(self, target: Instruction, rng, suffix_length: int):
        opcode = target.opcode
        if opcode in _BRANCHES:
            # Make the branch taken in both programs, vary the target.
            true_pair, _false = _BRANCH_VALUE_PAIRS[opcode]
            if target.rs1 == target.rs2:
                rs2 = self._scratch_registers(rng, (target.rs1,), 1)[0]
                target = _make(opcode, rs1=target.rs1, rs2=rs2, imm=target.imm)
            loaders = self._loader(target.rs1, true_pair[0], rng) + self._loader(
                target.rs2, true_pair[1], rng
            )
            offsets = [4 * k for k in range(1, max(3, suffix_length + 1))]
            offset_a = offsets[_below(rng, len(offsets))]
            offset_b = offset_a
            while offset_b == offset_a:
                offset_b = offsets[_below(rng, len(offsets))]
            taken_a = _make(opcode, rs1=target.rs1, rs2=target.rs2, imm=offset_a)
            taken_b = _make(opcode, rs1=target.rs1, rs2=target.rs2, imm=offset_b)
            return loaders + [taken_a], loaders + [taken_b]
        # JAL / JALR: vary the jump offset.
        setup, target = self._finalize_target(target, rng)
        return self._vary_immediate(target, rng, suffix_length)

    _NEUTRAL_FILLER_BASE = 20

    def _vary_dependency(self, target: Instruction, prefix: str, distance: int, rng):
        """Create / omit a register dependency at exactly ``distance``.

        Both variants leave the architectural state unchanged (the
        producer is a self-move), so ideally *only* dependency atoms
        and the producer's encoding atoms distinguish the programs.
        """
        if prefix == "RAW_RS1":
            register = target.rs1
        elif prefix == "RAW_RS2":
            register = target.rs2
        else:
            register = target.rd
        scratch_pool = self._scratch_registers(
            rng, (register, target.rd, target.rs1, target.rs2), distance + 1
        )
        scratch = scratch_pool[0]
        if register == 0:
            register = scratch  # degenerate; still a valid random case
        if prefix == "RAW_RD":
            # WAR: the producer *reads* the target's destination.
            producer_a = _make(Opcode.AND, rd=scratch, rs1=register, rs2=0)
            producer_b = _make(Opcode.AND, rd=scratch, rs1=scratch, rs2=0)
        else:
            # RAW/WAW: the producer *writes* the relevant register
            # with its own value (architecturally a no-op).
            producer_a = _make(Opcode.ADD, rd=register, rs1=register, rs2=0)
            producer_b = _make(Opcode.ADD, rd=scratch, rs1=scratch, rs2=0)
        fillers = [
            _make(Opcode.ADD, rd=reg, rs1=reg, rs2=0)
            for reg in scratch_pool[1:distance]
        ]
        part_a = [producer_a] + fillers + [target]
        part_b = [producer_b] + fillers + [target]
        return part_a, part_b

    @staticmethod
    def _pad_to_equal_length(part_a, part_b):
        """Pad the shorter part with architectural no-ops so both
        programs have identical instruction counts."""
        while len(part_a) < len(part_b):
            part_a = [_NOP] + part_a
        while len(part_b) < len(part_a):
            part_b = [_NOP] + part_b
        return part_a, part_b
