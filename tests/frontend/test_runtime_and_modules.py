"""Tests for the GoStruct runtime and compilation of the real engine
modules (the production code path of the frontend)."""

import pytest

from repro.core.pipeline import _compiled, compile_engine_modules
from repro.engine.gopy import nameops, nodestack, rawname, respops, structs
from repro.engine.gopy.structs import NodeStack, Response, RR, TreeNode
from repro.frontend import GoPyError, compile_module, compile_source
from repro.frontend.runtime import GoStruct, is_gopy_struct, struct_fields
from repro.ir import print_module, validate_module
from repro.spec import toplevel


class TestGoStructRuntime:
    def test_zero_values(self):
        node = TreeNode()
        assert node.name == [] and node.left is None
        assert node.is_delegation is False and node.is_apex is False

    def test_fresh_lists_per_instance(self):
        a, b = Response(), Response()
        a.answer.append(1)
        assert b.answer == []

    def test_kwargs_override(self):
        rr = RR(rtype=5, rdata_id=9)
        assert rr.rtype == 5 and rr.rdata_id == 9 and rr.rname == []

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            RR(nope=1)

    def test_struct_fields_order(self):
        assert struct_fields(NodeStack) == ("nodes", "level")

    def test_is_gopy_struct(self):
        assert is_gopy_struct(TreeNode)
        assert not is_gopy_struct(GoStruct)
        assert not is_gopy_struct(int)

    def test_repr(self):
        stack = NodeStack(level=2)
        assert "level=2" in repr(stack)


class _Base(GoStruct):
    count: int
    items: list[int]
    next: "_Base"


class _Derived(_Base):
    flag: bool
    more: list[int]


class TestGoStructLayout:
    """Allocation fills an instance from a per-class layout computed once;
    these pin that it behaves exactly like a per-allocation walk."""

    def test_each_allocation_gets_fresh_lists(self):
        first = _Derived()
        first.items.append(1)
        first.more.append(2)
        second = _Derived()
        assert second.items == [] and second.more == []
        assert second.items is not first.items
        assert second.more is not first.more
        assert _Derived().items == []

    def test_unknown_keyword_raises_type_error_every_time(self):
        _Base()
        for _ in range(2):
            with pytest.raises(TypeError, match="has no field 'flag'"):
                _Base(flag=True)

    def test_subclass_inherits_fields_with_its_own_layout(self):
        base = _Base(count=3)
        derived = _Derived(count=4, flag=True)
        assert (base.count, base.items, base.next) == (3, [], None)
        assert (derived.count, derived.items, derived.next,
                derived.flag, derived.more) == (4, [], None, True, [])
        assert not hasattr(base, "flag")
        with pytest.raises(TypeError):
            _Base(more=[])

    def test_repr_and_struct_fields_keep_declaration_order(self):
        derived = _Derived(count=1)
        assert struct_fields(_Derived) == ("count", "items", "next", "flag", "more")
        assert repr(derived) == (
            "_Derived(count=1, items=[], next=None, flag=False, more=[])"
        )
        assert list(vars(derived)) == list(struct_fields(_Derived))

    def test_layout_stays_out_of_annotations_and_compiled_types(self):
        TreeNode()
        Response()
        for cls in (TreeNode, Response, _Base, _Derived):
            assert not any(name.startswith("_") for name in struct_fields(cls))
        module = compile_module(structs)
        for cls in (TreeNode, Response):
            fields = module.types.get(cls.__name__).fields
            assert tuple(name for name, _ in fields) == struct_fields(cls)


class TestEngineModuleCompilation:
    @pytest.mark.parametrize("version", ["v1.0", "v2.0", "v3.0", "dev", "verified", "v4.0"])
    def test_all_versions_compile_and_validate(self, version):
        modules = compile_engine_modules(version)
        for module in modules:
            validate_module(module)
        names = {name for m in modules for name in m.function_names()}
        assert {"resolve", "find", "tree_search", "rrlookup"} <= names

    def test_shared_library_modules_compile(self):
        for module in (nameops, nodestack, rawname, respops):
            ir_module = _compiled(module)
            validate_module(ir_module)

    def test_toplevel_spec_compiles(self):
        base = [_compiled(nameops), _compiled(nodestack), _compiled(respops)]
        spec_ir = _compiled(toplevel, externs=base)
        assert spec_ir.has_function("rrlookup")
        assert spec_ir.has_function("spec_flatten_alias")

    def test_struct_registry_shared(self):
        modules = compile_engine_modules("verified")
        for name in ("TreeNode", "Response", "RR", "FlatZone", "NodeStack"):
            assert any(name in m.types for m in modules)

    def test_printer_on_real_module(self):
        text = print_module(_compiled(nameops))
        assert "@is_prefix" in text and "panic" in text

    def test_engine_loc_scale(self):
        # The paper's engine is ~2k LoC of Go; each of our versions is a
        # few hundred LoC of GoPy — same order once you account for Go's
        # braces/err-handling overhead. Pin the scale so refactors notice.
        import inspect

        from repro.engine.versions import verified

        loc = len(inspect.getsource(verified).splitlines())
        assert 300 < loc < 700


class TestDiagnostics:
    def test_error_carries_function_and_line(self):
        source = (
            "def good() -> int:\n"
            "    return 1\n"
            "def bad() -> int:\n"
            "    return 'text'\n"
        )
        with pytest.raises(GoPyError) as err:
            compile_source(source)
        assert "bad" in str(err.value)

    def test_void_call_as_value_rejected(self):
        source = (
            "def helper() -> None:\n"
            "    pass\n"
            "def f() -> int:\n"
            "    return helper()\n"
        )
        with pytest.raises(GoPyError):
            compile_source(source)

    def test_pointer_ordering_rejected(self):
        source = (
            "class S(GoStruct):\n"
            "    v: int\n"
            "def f(a: S, b: S) -> bool:\n"
            "    return a < b\n"
        )
        with pytest.raises(GoPyError):
            compile_source(source)

    def test_none_without_annotation_rejected(self):
        source = "def f() -> None:\n    x = None\n"
        with pytest.raises(GoPyError):
            compile_source(source)
