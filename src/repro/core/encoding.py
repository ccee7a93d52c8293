"""Symbolic query encoding (paper section 5.4).

The query name is a variable-length list encoded as one symbolic integer
per potential label (``n0 .. n<D-1>``) plus a symbolic length ``nameLen``;
the query type is the symbolic integer ``qtype``. The global precondition
boxes every variable: labels range over the interner's valid code space
(so gap values decode to fresh concrete labels) and the length is bounded
by the verification depth — which is what makes every loop in the engine
and the specification finite (section 6.5).
"""

from __future__ import annotations

from typing import List, Optional

from repro.dns.message import Query
from repro.dns.name import DnsName, MAX_NAME_DEPTH
from repro.dns.rtypes import RRType
from repro.engine.encoding import ZoneEncoder
from repro.solver import Solver, SolveResult, ge, ivar, le, ne
from repro.solver.solver import Model
from repro.solver.terms import BoolExpr, IntExpr
from repro.symex.state import PathState
from repro.symex.values import ListVal, Pointer


def encoding_depth(zone, depth: Optional[int] = None) -> int:
    """The number of symbolic labels a query on ``zone`` gets: ``depth``
    when given, else two more than the zone's deepest name, capped at
    the DNS maximum."""
    base = depth if depth is not None else zone.max_name_depth() + 2
    return min(base, MAX_NAME_DEPTH)


class QueryEncoding:
    """The symbolic (qname, qtype) input and its global constraints."""

    def __init__(self, encoder: ZoneEncoder, depth: Optional[int] = None):
        self.encoder = encoder
        self.depth = encoding_depth(encoder.zone, depth)
        self.labels: List[IntExpr] = [ivar(f"n{i}") for i in range(self.depth)]
        self.name_len = ivar("nameLen")
        self.qtype = ivar("qtype")

    def install(self, state: PathState) -> Pointer:
        """Allocate the symbolic qname list in ``state`` and return its
        pointer (the block both the engine and the spec receive)."""
        return state.memory.alloc(ListVal(tuple(self.labels), self.name_len))

    def preconditions(self) -> List[BoolExpr]:
        interner = self.encoder.interner
        pre: List[BoolExpr] = [ge(self.name_len, 1), le(self.name_len, self.depth)]
        for label in self.labels:
            pre.append(ge(label, interner.min_code))
            pre.append(le(label, interner.max_code))
        pre.append(ge(self.qtype, 1))
        pre.append(le(self.qtype, 65535))  # full 16-bit type space (ALIAS is 65280)
        return pre

    # -- decoding models back into concrete queries -----------------------------

    def query_codes(self, model: Model) -> List[int]:
        """The concrete reversed-label-code qname under ``model`` (always
        available; used for native re-execution)."""
        length = model.get_int("nameLen", 1)
        length = max(1, min(length, self.depth))
        return [model.get_int(f"n{i}", self.encoder.interner.min_code)
                for i in range(length)]

    def qtype_code(self, model: Model) -> int:
        return model.get_int("qtype", int(RRType.A))

    def decode_query(self, model: Model) -> Optional[Query]:
        """Decode a model into a runnable :class:`Query`; None when a gap
        label admits no legal spelling (callers may re-solve)."""
        name = self.encoder.interner.decode_name(self.query_codes(model))
        if name is None:
            return None
        qtype_value = self.qtype_code(model)
        try:
            qtype = RRType(qtype_value)
        except ValueError:
            # A synthetic type code: semantically "some type with no data";
            # report it as TXT-like unknown via the nearest queryable type.
            qtype = RRType.TXT
        return Query(name, qtype)

    def refine_model(self, solver: Solver, conditions, model: Model) -> Optional[Model]:
        """Re-solve with undecodable label values excluded, a few times."""
        extra = list(conditions)
        for _ in range(8):
            if self.decode_query(model) is not None:
                return model
            codes = self.query_codes(model)
            for i, code in enumerate(codes):
                if self.encoder.interner.decode(code) is None:
                    extra.append(ne(ivar(f"n{i}"), code))
            if solver.check(*extra) is not SolveResult.SAT:
                return None
            model = solver.model()
        return None
