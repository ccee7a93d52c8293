"""The flexible memory model (paper section 5.1).

Memory is a mapping from block ids to contents, CompCert-style: blocks are
non-overlapping and referenced only through :class:`~repro.symex.values.Pointer`.
A block's content is a scalar slot value, a :class:`StructVal`, or a
:class:`ListVal`. Field access goes through LLVM-style index paths rather
than byte offsets, so individual fields can hold abstract values while their
siblings stay concrete — the partial abstraction the paper needs for
in-production data structures (Figure 3's leaky stack).

Contents are immutable; stores replace a block's content. Forking a path
therefore only shallow-copies the block map.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.symex.errors import SymexError
from repro.symex.values import ListVal, Pointer, StructVal, UNINIT


#: ``_blocks.get`` default that no block content can be.
_DANGLING = object()


class Memory:
    """Block store with copy-on-fork semantics."""

    __slots__ = ("_blocks", "_next_id")

    def __init__(self, blocks: Optional[Dict[int, object]] = None, next_id: int = 1):
        self._blocks = blocks if blocks is not None else {}
        self._next_id = next_id

    def clone(self) -> "Memory":
        return Memory(dict(self._blocks), self._next_id)

    # -- allocation ----------------------------------------------------------

    def alloc(self, content) -> Pointer:
        block_id = self._next_id
        self._next_id += 1
        self._blocks[block_id] = content
        return Pointer(block_id)

    def alloc_slot(self) -> Pointer:
        return self.alloc(UNINIT)

    # -- access ---------------------------------------------------------------

    def content(self, block_id: int):
        try:
            return self._blocks[block_id]
        except KeyError:
            raise SymexError(f"dangling block id {block_id}") from None

    def load(self, ptr: Pointer):
        block_id = ptr.block_id
        if block_id is None:
            raise SymexError("load through nil pointer (missing guard?)")
        content = self._blocks.get(block_id, _DANGLING)
        if content is _DANGLING:
            raise SymexError(f"dangling block id {block_id}")
        if not ptr.path:
            if content is UNINIT:
                raise SymexError(f"load of uninitialised slot b{block_id}")
            if content.__class__ is StructVal or content.__class__ is ListVal:
                raise SymexError("whole-aggregate load is not supported")
            return content
        (index,) = ptr.path
        if content.__class__ is StructVal:
            value = content.fields[index]
        elif content.__class__ is ListVal:
            if index >= len(content.items) or index < 0:
                raise SymexError(
                    f"physical list access out of range: {index} vs {len(content.items)}"
                )
            value = content.items[index]
        else:
            raise SymexError(f"indexed load into scalar block b{block_id}")
        if value is UNINIT:
            raise SymexError(f"load of uninitialised field b{block_id}[{index}]")
        return value

    def store(self, ptr: Pointer, value) -> None:
        block_id = ptr.block_id
        if block_id is None:
            raise SymexError("store through nil pointer (missing guard?)")
        content = self._blocks.get(block_id, _DANGLING)
        if content is _DANGLING:
            raise SymexError(f"dangling block id {block_id}")
        if not ptr.path:
            if content.__class__ is StructVal or content.__class__ is ListVal:
                raise SymexError("whole-aggregate store is not supported")
            self._blocks[block_id] = value
            return
        (index,) = ptr.path
        if content.__class__ is StructVal:
            self._blocks[block_id] = content.with_field(index, value)
        elif content.__class__ is ListVal:
            if index >= len(content.items) or index < 0:
                raise SymexError(
                    f"physical list store out of range: {index} vs {len(content.items)}"
                )
            self._blocks[block_id] = content.with_item(index, value)
        else:
            raise SymexError(f"indexed store into scalar block b{block_id}")

    def replace(self, block_id: int, content) -> None:
        if block_id not in self._blocks:
            raise SymexError(f"dangling block id {block_id}")
        self._blocks[block_id] = content

    # -- introspection (used by summarization and heap decoding) --------------

    def block_ids(self):
        return self._blocks.keys()

    def snapshot(self) -> Dict[int, object]:
        return dict(self._blocks)

    @property
    def next_id(self) -> int:
        return self._next_id

    def __len__(self) -> int:
        return len(self._blocks)
