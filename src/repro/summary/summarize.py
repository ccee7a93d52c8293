"""Summary computation and application.

``summarize()`` runs full-path symbolic execution of one module against the
shared concrete heap and converts every explored path into a
:class:`SummaryCase` — the ``{ f'_k(s'_0) if θ'_k(s'_0) }`` set of
section 5.3. The resulting :class:`Summary` plugs into the executor's call
dispatch (via :class:`~repro.symex.bindings.SummaryBinding`), so verifying a
higher layer never re-executes the summarized code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.types import BoolType, IntType, ListType, PointerType
from repro.solver import SolveResult
from repro.solver.terms import (
    BoolExpr,
    IntExpr,
    and_,
    bfalse,
    bvar,
    ivar,
    substitute,
)
from repro.summary.effects import (
    Effect,
    FieldWrite,
    ListAppend,
    NewObject,
    NewTag,
    UnsupportedEffectError,
)
from repro.summary.params import (
    FixedValue,
    ParamSpec,
    ResultStruct,
    SymbolicBool,
    SymbolicInt,
)
from repro.symex.errors import SymexError
from repro.symex.executor import Executor, Outcome, PanicInfo
from repro.symex.state import PathState
from repro.symex.values import ListVal, NULL, Pointer, StructVal


@dataclass(frozen=True)
class SummaryCase:
    """One input–effect pair: condition over symbolic inputs, ordered
    effects, the return value (or a panic)."""

    condition: BoolExpr
    effects: Tuple[Effect, ...]
    ret: object = None
    panic: Optional[PanicInfo] = None

    def describe(self) -> str:
        lines = [f"if {self.condition!r}:"]
        if self.panic is not None:
            lines.append(f"    {self.panic}")
            return "\n".join(lines)
        for effect in self.effects:
            lines.append(f"    {effect!r}")
        if self.ret is not None:
            lines.append(f"    return {self.ret!r}")
        if len(lines) == 1:
            lines.append("    skip")
        return "\n".join(lines)


@dataclass
class _ResultParamInfo:
    struct_name: str
    block_id: int
    scalar_fields: List[Tuple[int, str, str]] = field(default_factory=list)
    # (field_index, field_name, symbol_name)
    list_fields: List[Tuple[int, str, int]] = field(default_factory=list)
    # (field_index, field_name, summary-time list block id)
    field_names: Tuple[str, ...] = ()


class Summary:
    """A summary specification, applicable at call sites.

    Cases are mutually exclusive by construction (they are distinct paths of
    one execution), so application forks the caller's state into exactly the
    feasible cases.
    """

    def __init__(
        self,
        name: str,
        param_specs: Sequence[ParamSpec],
        param_symbols: List,
        cases: List[SummaryCase],
        elapsed_seconds: float,
        paths_explored: int,
    ):
        self.name = name
        self.param_specs = tuple(param_specs)
        self.param_symbols = param_symbols
        self.cases = cases
        self.elapsed_seconds = elapsed_seconds
        self.paths_explored = paths_explored

    def __len__(self) -> int:
        return len(self.cases)

    def describe(self) -> str:
        header = (
            f"summary_spec {self.name}: {len(self.cases)} cases "
            f"({self.paths_explored} paths, {self.elapsed_seconds:.2f}s)"
        )
        return "\n\n".join([header] + [case.describe() for case in self.cases])

    # -- application at a call site ------------------------------------------

    def apply(self, executor: Executor, state: PathState, args) -> List[Outcome]:
        if len(args) != len(self.param_specs):
            raise SymexError(
                f"summary {self.name} expects {len(self.param_specs)} args, "
                f"got {len(args)}"
            )
        subst: Dict[str, object] = {}
        block_map: Dict[int, int] = {}
        for index, (spec, info) in enumerate(zip(self.param_specs, self.param_symbols)):
            actual = args[index]
            if isinstance(spec, (SymbolicInt, SymbolicBool)):
                subst[info] = actual
            elif isinstance(spec, FixedValue):
                if actual != spec.value:
                    raise SymexError(
                        f"summary {self.name}: argument {index} differs from the "
                        f"fixed value it was summarized with"
                    )
            elif isinstance(spec, ResultStruct):
                pointer = _expect_struct_ptr(actual, self.name, index)
                content = state.memory.content(pointer.block_id)
                if not isinstance(content, StructVal):
                    raise SymexError(
                        f"summary {self.name}: argument {index} is not a struct"
                    )
                block_map[info.block_id] = pointer.block_id
                for field_index, _, symbol in info.scalar_fields:
                    subst[symbol] = content.fields[field_index]
                for field_index, _, list_block in info.list_fields:
                    actual_list = content.fields[field_index]
                    lp = _expect_struct_ptr(actual_list, self.name, index)
                    block_map[list_block] = lp.block_id
            else:
                raise SymexError(f"unknown param spec {spec!r}")

        outcomes: List[Outcome] = []
        for case in self.cases:
            condition = substitute(case.condition, subst)
            if condition == bfalse():
                continue
            if executor.solver.check(condition, path=state.pc) is SolveResult.UNSAT:
                continue
            branch = state.fork()
            branch.assume(condition)
            branch.witness = None  # witness may not satisfy the new condition
            if case.panic is not None:
                outcomes.append(Outcome(branch, None, case.panic))
                continue
            tag_blocks: Dict[int, Pointer] = {}

            def convert(value):
                if isinstance(value, (IntExpr, BoolExpr)):
                    return substitute(value, subst)
                if isinstance(value, NewTag):
                    return tag_blocks[value.index]
                if isinstance(value, Pointer):
                    if not value.is_null and value.block_id in block_map:
                        return Pointer(block_map[value.block_id], value.path)
                    return value
                return value

            for effect in case.effects:
                if isinstance(effect, NewObject):
                    values = tuple(convert(v) for v in effect.field_values)
                    if effect.struct_name == "__list__":
                        content = ListVal.concrete(values)
                    else:
                        content = StructVal(effect.struct_name, values)
                    tag_blocks[effect.tag.index] = branch.memory.alloc(content)
                elif isinstance(effect, FieldWrite):
                    target = _expect_struct_ptr(args[effect.param], self.name, effect.param)
                    branch.memory.store(
                        target.child(effect.field_index), convert(effect.value)
                    )
                elif isinstance(effect, ListAppend):
                    base = _expect_struct_ptr(args[effect.param], self.name, effect.param)
                    if effect.field_index is None:
                        list_ptr = base
                    else:
                        list_ptr = branch.memory.load(base.child(effect.field_index))
                    content = branch.memory.content(list_ptr.block_id)
                    branch.memory.replace(
                        list_ptr.block_id, content.appended(convert(effect.value))
                    )
                else:
                    raise SymexError(f"unknown effect {effect!r}")
            outcomes.append(Outcome(branch, convert(case.ret)))
        return outcomes


def _expect_struct_ptr(value, name, index) -> Pointer:
    if not isinstance(value, Pointer) or value.is_null:
        raise SymexError(f"summary {name}: argument {index} must be a non-nil pointer")
    return value


# ---------------------------------------------------------------------------
# Summarization
# ---------------------------------------------------------------------------


def summarize(
    executor: Executor,
    function_name: str,
    param_specs: Sequence[ParamSpec],
    state: Optional[PathState] = None,
    pre: Sequence[BoolExpr] = (),
) -> Summary:
    """Compute the summary specification of ``function_name``.

    ``state`` carries the shared concrete heap (domain tree); ``pre`` the
    global input constraints. The caller's state is not mutated.
    """
    function = executor.lookup_function(function_name)
    if function is None:
        raise SymexError(f"cannot summarize unknown function {function_name!r}")
    if len(param_specs) != len(function.params):
        raise SymexError(
            f"{function_name} has {len(function.params)} params, "
            f"got {len(param_specs)} specs"
        )

    work_state = state.fork() if state is not None else PathState()
    base_pc_len = len(work_state.pc) + len(pre)

    args: List[object] = []
    param_symbols: List[object] = []
    for (pname, ptype), spec in zip(function.params, param_specs):
        if isinstance(spec, SymbolicInt):
            symbol = spec.name or f"{function_name}.{pname}"
            args.append(ivar(symbol))
            param_symbols.append(symbol)
        elif isinstance(spec, SymbolicBool):
            symbol = spec.name or f"{function_name}.{pname}"
            args.append(bvar(symbol))
            param_symbols.append(symbol)
        elif isinstance(spec, FixedValue):
            args.append(spec.value)
            param_symbols.append(None)
        elif isinstance(spec, ResultStruct):
            pointer, info = _make_result_struct(
                executor, work_state, function_name, pname, spec.struct_name
            )
            args.append(pointer)
            param_symbols.append(info)
        else:
            raise SymexError(f"unknown param spec {spec!r}")

    baseline = work_state.memory.snapshot()
    started = time.perf_counter()
    outcomes = executor.run(function_name, args, state=work_state, pre=pre)
    elapsed = time.perf_counter() - started

    tracked_lists = set()
    for info in param_symbols:
        if isinstance(info, _ResultParamInfo):
            tracked_lists.update(lb for _, _, lb in info.list_fields)

    cases = [
        _extract_case(
            outcome, baseline, param_symbols, base_pc_len, tracked_lists
        )
        for outcome in outcomes
    ]
    return Summary(
        function_name, param_specs, param_symbols, cases, elapsed, len(outcomes)
    )


def _make_result_struct(
    executor: Executor, state: PathState, function_name: str, pname: str, struct_name: str
):
    struct = executor.registry.get(struct_name)
    info = _ResultParamInfo(
        struct_name, -1, field_names=tuple(name for name, _ in struct.fields)
    )
    fields = []
    for field_index, (field_name, field_type) in enumerate(struct.fields):
        if isinstance(field_type, IntType):
            symbol = f"{function_name}.{pname}.{field_name}"
            fields.append(ivar(symbol))
            info.scalar_fields.append((field_index, field_name, symbol))
        elif isinstance(field_type, BoolType):
            symbol = f"{function_name}.{pname}.{field_name}"
            fields.append(bvar(symbol))
            info.scalar_fields.append((field_index, field_name, symbol))
        elif isinstance(field_type, PointerType) and isinstance(
            field_type.pointee, ListType
        ):
            pointer = state.memory.alloc(ListVal.concrete(()))
            fields.append(pointer)
            info.list_fields.append((field_index, field_name, pointer.block_id))
        elif isinstance(field_type, PointerType):
            fields.append(NULL)  # write-only pointer fields start nil
        else:
            raise SymexError(
                f"unsupported result field type {field_type!r} in {struct_name}"
            )
    pointer = state.memory.alloc(StructVal(struct_name, tuple(fields)))
    info.block_id = pointer.block_id
    return pointer, info


def _extract_case(
    outcome: Outcome,
    baseline: Dict[int, object],
    param_symbols,
    base_pc_len: int,
    tracked_lists,
) -> SummaryCase:
    condition = and_(*outcome.state.pc[base_pc_len:])
    if outcome.is_panic:
        return SummaryCase(condition, (), None, outcome.panic)

    final = outcome.state.memory
    effects: List[Effect] = []
    new_tags: Dict[int, NewTag] = {}

    def convert(value):
        if isinstance(value, Pointer) and not value.is_null:
            if value.block_id not in baseline:
                return _tag_new_block(value.block_id)
        return value

    def _tag_new_block(block_id: int) -> NewTag:
        if block_id in new_tags:
            return new_tags[block_id]
        tag = NewTag(len(new_tags))
        new_tags[block_id] = tag
        content = final.content(block_id)
        if isinstance(content, StructVal):
            values = tuple(convert(v) for v in content.fields)
            effects.append(NewObject(tag, content.type_name, values))
        elif isinstance(content, ListVal):
            if not content.has_concrete_length:
                raise UnsupportedEffectError(
                    "new list with symbolic length cannot be summarized"
                )
            values = tuple(convert(v) for v in content.items)
            effects.append(NewObject(tag, "__list__", values))
        else:
            raise UnsupportedEffectError(
                f"escaping scalar allocation b{block_id} cannot be summarized"
            )
        return tag

    allowed_writes = set(tracked_lists)
    for info in param_symbols:
        if isinstance(info, _ResultParamInfo):
            allowed_writes.add(info.block_id)

    for param_index, info in enumerate(param_symbols):
        if not isinstance(info, _ResultParamInfo):
            continue
        base_content = baseline[info.block_id]
        final_content = final.content(info.block_id)
        for field_index, (base_value, final_value) in enumerate(
            zip(base_content.fields, final_content.fields)
        ):
            if base_value is final_value or base_value == final_value:
                continue
            field_name = _field_name(info, field_index)
            effects.append(
                FieldWrite(param_index, field_index, field_name, convert(final_value))
            )
        for field_index, field_name, list_block in info.list_fields:
            base_list = baseline[list_block]
            final_list = final.content(list_block)
            if len(final_list.items) < len(base_list.items) or (
                final_list.items[: len(base_list.items)] != base_list.items
            ):
                raise UnsupportedEffectError(
                    f"{field_name}: result list mutated beyond appends"
                )
            for item in final_list.items[len(base_list.items):]:
                effects.append(
                    ListAppend(param_index, field_index, field_name, convert(item))
                )

    # No other pre-existing block may have changed (section 9: modules incur
    # no persistent modifications outside their result holders).
    for block_id, content in final.snapshot().items():
        if block_id in baseline and block_id not in allowed_writes:
            if baseline[block_id] is not content:
                raise UnsupportedEffectError(
                    f"write to non-result block b{block_id} cannot be summarized"
                )

    ret = convert(outcome.value) if outcome.value is not None else None
    return SummaryCase(condition, tuple(effects), ret, None)


def _field_name(info: _ResultParamInfo, field_index: int) -> str:
    if field_index < len(info.field_names):
        return info.field_names[field_index]
    return f"f{field_index}"
