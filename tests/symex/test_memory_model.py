"""Direct tests of the flexible memory model (section 5.1) and the heap
bridge."""

import pytest

from repro.frontend.runtime import GoStruct
from repro.solver import Solver, SolveResult, eq, iconst, ivar
from repro.symex import (
    HeapLoader,
    ListVal,
    Memory,
    NULL,
    Pointer,
    StructVal,
    SymexError,
    UNINIT,
    concretize_value,
)


class TestMemory:
    def test_alloc_distinct_blocks(self):
        memory = Memory()
        a = memory.alloc(iconst(1))
        b = memory.alloc(iconst(2))
        assert a.block_id != b.block_id

    def test_scalar_slot_roundtrip(self):
        memory = Memory()
        slot = memory.alloc_slot()
        memory.store(slot, iconst(7))
        assert memory.load(slot) == iconst(7)

    def test_uninitialised_load_rejected(self):
        memory = Memory()
        slot = memory.alloc_slot()
        with pytest.raises(SymexError):
            memory.load(slot)

    def test_struct_field_access(self):
        memory = Memory()
        ptr = memory.alloc(StructVal("S", (iconst(1), iconst(2))))
        assert memory.load(ptr.child(1)) == iconst(2)
        memory.store(ptr.child(0), ivar("x"))
        assert memory.load(ptr.child(0)) == ivar("x")

    def test_store_is_functional_update(self):
        # Contents are immutable: a fork sharing the old content must not
        # see later stores.
        memory = Memory()
        ptr = memory.alloc(StructVal("S", (iconst(1),)))
        fork = memory.clone()
        memory.store(ptr.child(0), iconst(9))
        assert memory.load(ptr.child(0)) == iconst(9)
        assert fork.load(ptr.child(0)) == iconst(1)

    def test_nil_access_rejected(self):
        memory = Memory()
        with pytest.raises(SymexError):
            memory.load(NULL)
        with pytest.raises(SymexError):
            memory.store(NULL, iconst(1))

    def test_dangling_block_rejected(self):
        memory = Memory()
        with pytest.raises(SymexError):
            memory.content(12345)

    def test_list_item_access(self):
        memory = Memory()
        ptr = memory.alloc(ListVal.concrete((iconst(10), iconst(20))))
        assert memory.load(ptr.child(1)) == iconst(20)

    def test_list_physical_bounds_guard(self):
        memory = Memory()
        ptr = memory.alloc(ListVal.concrete((iconst(10),)))
        with pytest.raises(SymexError):
            memory.load(ptr.child(5))

    def test_whole_aggregate_load_rejected(self):
        memory = Memory()
        ptr = memory.alloc(StructVal("S", (iconst(1),)))
        with pytest.raises(SymexError):
            memory.load(ptr)


class TestListVal:
    def test_append_concrete(self):
        lst = ListVal.concrete((iconst(1),))
        grown = lst.appended(iconst(2))
        assert len(grown.items) == 2 and grown.length == iconst(2)

    def test_append_symbolic_length_rejected(self):
        lst = ListVal((ivar("a"),), ivar("len"))
        with pytest.raises(ValueError):
            lst.appended(iconst(1))

    def test_partial_abstraction_in_list(self):
        # Mixed concrete/symbolic items in the same block.
        lst = ListVal.concrete((iconst(1), ivar("x")))
        assert lst.items[0].is_const and not lst.items[1].is_const


class _Pair(GoStruct):
    a: int
    b: "_Pair"


class TestHeapBridge:
    def test_shared_objects_share_blocks(self):
        memory = Memory()
        loader = HeapLoader(memory)
        shared = _Pair(a=1)
        left = _Pair(a=2, b=shared)
        right = _Pair(a=3, b=shared)
        lp, rp = loader.load(left), loader.load(right)
        l_content = memory.content(lp.block_id)
        r_content = memory.content(rp.block_id)
        assert l_content.fields[1] == r_content.fields[1]

    def test_distinct_objects_get_distinct_blocks(self):
        memory = Memory()
        loader = HeapLoader(memory)
        pointers = [loader.load(_Pair(a=i)) for i in range(50)]
        assert len({p.block_id for p in pointers}) == 50

    def test_cycle_loading(self):
        memory = Memory()
        loader = HeapLoader(memory)
        node = _Pair(a=1)
        node.b = node
        ptr = loader.load(node)
        content = memory.content(ptr.block_id)
        assert content.fields[1] == ptr

    def test_concretize_struct_with_model(self):
        memory = Memory()
        loader = HeapLoader(memory)
        obj = _Pair(a=0)
        obj.a = ivar("x")
        ptr = loader.load(obj)
        solver = Solver()
        assert solver.check(eq(ivar("x"), 42)) is SolveResult.SAT
        decoded = concretize_value(ptr, memory, solver.model())
        assert decoded["f0"] == 42

    def test_concretize_cycle(self):
        memory = Memory()
        loader = HeapLoader(memory)
        node = _Pair(a=5)
        node.b = node
        ptr = loader.load(node)
        decoded = concretize_value(ptr, memory)
        assert decoded["f1"] is decoded  # cycle preserved

    def test_concretize_symbolic_list_truncates_to_length(self):
        memory = Memory()
        lst = memory.alloc(ListVal((ivar("a"), ivar("b"), ivar("c")), ivar("len")))
        solver = Solver()
        solver.check(eq(ivar("len"), 2), eq(ivar("a"), 1), eq(ivar("b"), 2))
        decoded = concretize_value(lst, memory, solver.model())
        assert decoded == [1, 2]
