"""Basic blocks and functions."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.instructions import Instruction, Terminator
from repro.ir.types import Type


class BasicBlock:
    """A label, a straight-line instruction list, and one terminator."""

    def __init__(self, label: str):
        self.label = label
        self.instructions: List[Instruction] = []
        self.terminator: Optional[Terminator] = None
        #: GoPy source line this block was opened at (filled by the
        #: frontend; hand-built IR leaves it None). Diagnostics only —
        #: never part of execution semantics.
        self.source_line: Optional[int] = None

    def append(self, instruction: Instruction) -> None:
        if self.terminator is not None:
            raise ValueError(f"block {self.label} already terminated")
        self.instructions.append(instruction)

    def terminate(self, terminator: Terminator) -> None:
        if self.terminator is not None:
            raise ValueError(f"block {self.label} already terminated")
        self.terminator = terminator

    @property
    def terminated(self) -> bool:
        return self.terminator is not None

    def __repr__(self):
        return f"BasicBlock({self.label}, {len(self.instructions)} insns)"


class Function:
    """An AbsLLVM function: typed parameters, a return type, and a CFG."""

    def __init__(
        self,
        name: str,
        params: Sequence[Tuple[str, Type]],
        return_type: Type,
    ):
        self.name = name
        self.params: Tuple[Tuple[str, Type], ...] = tuple(params)
        self.return_type = return_type
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry_label: Optional[str] = None
        self._label_counter = 0
        #: The symbolic executor's decoded form of this function, built on
        #: its first execution (:func:`repro.symex.executor.decode_function`).
        #: Whatever rewrites the blocks in place must reset it to None.
        self.decoded = None

    def new_block(self, hint: str = "bb") -> BasicBlock:
        label = f"{hint}{self._label_counter}"
        self._label_counter += 1
        block = BasicBlock(label)
        self.blocks[label] = block
        if self.entry_label is None:
            self.entry_label = label
        return block

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    @property
    def entry(self) -> BasicBlock:
        if self.entry_label is None:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[self.entry_label]

    def param_names(self) -> List[str]:
        return [name for name, _ in self.params]

    def __repr__(self):
        return f"Function({self.name}/{len(self.params)}, {len(self.blocks)} blocks)"
