"""Program container: an instruction sequence placed at a base address.

Programs are the unit of test-case generation; both the ISA executor and
the microarchitectural cores fetch instructions through this container,
so instruction memory is cleanly separated from data memory (the models
do not support self-modifying code, matching the paper's testbench).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction

DEFAULT_BASE_ADDRESS = 0x0000_1000


class Program:
    """An immutable sequence of instructions at a fixed base address."""

    __slots__ = ("_instructions", "base_address", "_hash", "_columns")

    def __init__(
        self,
        instructions: Sequence[Instruction],
        base_address: int = DEFAULT_BASE_ADDRESS,
    ):
        if base_address % 4:
            raise ValueError("base address must be word aligned")
        self._instructions: Tuple[Instruction, ...] = tuple(instructions)
        self.base_address = base_address
        self._hash: Optional[int] = None
        #: Decoded columns, memoized by :mod:`repro.batchsim.decode`.
        #: Like ``_hash`` it is derived state: it takes no part in
        #: equality, hashing or pickling.
        self._columns = None

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return self._instructions

    @property
    def end_address(self) -> int:
        """First address past the program."""
        return self.base_address + 4 * len(self._instructions)

    def fetch(self, pc: int) -> Optional[Instruction]:
        """Return the instruction at ``pc``, or ``None`` outside the program."""
        offset = pc - self.base_address
        if offset < 0 or offset % 4 or offset >= 4 * len(self._instructions):
            return None
        return self._instructions[offset // 4]

    def address_of(self, index: int) -> int:
        """Address of the instruction at position ``index``."""
        if not 0 <= index < len(self._instructions):
            raise IndexError("instruction index out of range: %r" % (index,))
        return self.base_address + 4 * index

    def encoded_words(self) -> List[int]:
        """Machine words of the whole program, in order."""
        from repro.isa.encoding import encode_instruction

        return [encode_instruction(instruction) for instruction in self._instructions]

    def replace(self, index: int, instruction: Instruction) -> "Program":
        """A copy of this program with position ``index`` replaced."""
        instructions = list(self._instructions)
        instructions[index] = instruction
        return Program(instructions, self.base_address)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return (
            self.base_address == other.base_address
            and self._instructions == other._instructions
        )

    def __hash__(self) -> int:
        # Memoized: programs are immutable and hashing re-hashes every
        # instruction.
        if self._hash is None:
            self._hash = hash((self.base_address, self._instructions))
        return self._hash

    def __reduce__(self):
        return Program, (self._instructions, self.base_address)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Program(%d instructions @ 0x%08x)" % (
            len(self._instructions),
            self.base_address,
        )
