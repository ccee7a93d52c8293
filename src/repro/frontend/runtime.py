"""Runtime support for GoPy modules.

GoPy source files are real Python: the same code that the frontend compiles
to AbsLLVM also runs concretely under CPython. That dual life is what lets
DNS-V validate every symbolic counterexample by concrete re-execution.

:class:`GoStruct` gives GoPy classes Go-struct semantics at runtime:
annotated fields with zero values (``int`` -> 0, ``bool`` -> False, struct
references -> ``None``, lists -> fresh ``[]``), a keyword constructor, and
attribute errors for undeclared fields.
"""

from __future__ import annotations

import typing
from typing import Any, Dict, Tuple


def _zero_value(annotation: Any):
    """The Go zero value for an annotation (evaluated or textual)."""
    if annotation in (int, "int"):
        return 0
    if annotation in (bool, "bool"):
        return False
    text = getattr(annotation, "__name__", None) or str(annotation)
    if text.startswith("list") or text.startswith("typing.List") or text.startswith("List"):
        return []
    origin = typing.get_origin(annotation)
    if origin is list:
        return []
    # Struct references (classes or forward-reference strings) start nil.
    return None


class GoStruct:
    """Base class for GoPy structs.

    Subclasses declare fields with class-level annotations only::

        class TreeNode(GoStruct):
            label: int
            left: "TreeNode"
            down: "TreeNode"

    ``TreeNode()`` zero-initialises every field; keyword arguments override.
    """

    __gopy_struct__ = True

    def __init__(self, **kwargs: Any):
        layout = _layout(type(self))
        # setattr, not a __dict__ update: instances then keep CPython's
        # compact per-class attribute storage (materialising __dict__
        # made tld_zone(20000)'s serving snapshot ~8 MB larger).
        for name, zero in layout.zeros.items():
            setattr(self, name, [] if zero is _FRESH_LIST else zero)
        for name, value in kwargs.items():
            if name not in layout.zeros:
                raise TypeError(
                    f"{type(self).__name__} has no field {name!r}"
                )
            setattr(self, name, value)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{n}={getattr(self, n)!r}" for n in _layout(type(self)).zeros
        )
        return f"{type(self).__name__}({inner})"


#: Stands in a layout for a list field's zero value: each instance gets a
#: fresh ``[]``.
_FRESH_LIST = object()


class _Layout:
    """What allocating one GoStruct class writes: every field's zero value
    in declaration order, :data:`_FRESH_LIST` for list fields."""

    __slots__ = ("zeros",)

    def __init__(self, annotations: Dict[str, Any]):
        self.zeros: Dict[str, Any] = {}
        for name, annotation in annotations.items():
            zero = _zero_value(annotation)
            self.zeros[name] = _FRESH_LIST if isinstance(zero, list) else zero


def _layout(cls: type) -> _Layout:
    """The class's allocation layout, computed on its first allocation and
    kept in the class's own ``__dict__`` (a plain attribute, never an
    annotation, so compiling the class does not see it; each subclass
    gets its own)."""
    layout = cls.__dict__.get("_gostruct_layout")
    if layout is None:
        layout = _Layout(_collect_annotations(cls))
        cls._gostruct_layout = layout
    return layout


def _collect_annotations(cls: type) -> Dict[str, Any]:
    """Annotations across the GoStruct subclass chain, base-first."""
    out: Dict[str, Any] = {}
    for klass in reversed(cls.__mro__):
        out.update(getattr(klass, "__annotations__", {}) or {})
    return out


def is_gopy_struct(obj: Any) -> bool:
    return isinstance(obj, type) and issubclass(obj, GoStruct) and obj is not GoStruct


def struct_fields(cls: type) -> Tuple[str, ...]:
    return tuple(_collect_annotations(cls))
