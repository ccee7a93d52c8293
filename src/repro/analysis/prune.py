"""The panic-pruning pass: elide guards the abstract domains discharge.

The frontend protects every indexing and dereference with a conditional
branch whose panic side the symbolic executor must prove unreachable —
one or two solver feasibility checks per guard, per path (section 4.1).
Many of those guards are decided by the surrounding control flow alone:
``is_prefix`` checks ``len(prefix) > len(name)`` up front, so the
``name[i]`` bounds check inside its loop can never fire. This pass runs
:class:`repro.analysis.domains.GuardDomain` to fixpoint and rewrites
each ``CondBr`` whose panic side is *proved* infeasible into an
:class:`repro.ir.ElidedGuardBr`; the executor then skips the solver
queries while assuming the identical surviving-path condition, keeping
path conditions — and therefore verdicts, models and summaries —
bit-identical to the unpruned run.

Soundness discipline:

- a guard is elided only on a definite abstract proof (the refined edge
  state is bottom); "probably fine" never prunes;
- only the *panic* side may be pruned — an abstractly-infeasible ok side
  means either dead code or a genuine bug, and both are left for the
  executor to witness;
- the rewritten function is re-validated, and debug mode
  (``analysis_check``) re-asks the solver at pruned sites during
  execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import analyze
from repro.analysis.domains import GuardDomain
from repro.analysis.interproc.summaries import SummaryTable
from repro.ir import CondBr, ElidedGuardBr, Panic, validate_function
from repro.ir.function import Function
from repro.ir.module import Module


@dataclass
class FunctionPruneReport:
    """What pruning did to one function."""

    function: str
    guards_total: int = 0
    guards_pruned: int = 0
    panic_blocks_removed: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    bailed: bool = False  # fixpoint did not converge; function left alone

    def to_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "guards_total": self.guards_total,
            "guards_pruned": self.guards_pruned,
            "panic_blocks_removed": self.panic_blocks_removed,
            "by_kind": dict(sorted(self.by_kind.items())),
            "bailed": self.bailed,
        }


@dataclass
class PruneReport:
    """Aggregate over a module (or several)."""

    guards_total: int = 0
    guards_pruned: int = 0
    panic_blocks_removed: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    functions: List[FunctionPruneReport] = field(default_factory=list)

    def absorb(self, fn_report: FunctionPruneReport) -> None:
        self.functions.append(fn_report)
        self.guards_total += fn_report.guards_total
        self.guards_pruned += fn_report.guards_pruned
        self.panic_blocks_removed += fn_report.panic_blocks_removed
        for kind, count in fn_report.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + count

    def merge(self, other: "PruneReport") -> None:
        for fn_report in other.functions:
            self.absorb(fn_report)

    def to_dict(self) -> Dict[str, object]:
        return {
            "guards_total": self.guards_total,
            "guards_pruned": self.guards_pruned,
            "panic_blocks_removed": self.panic_blocks_removed,
            "by_kind": dict(sorted(self.by_kind.items())),
            "functions": [
                f.to_dict() for f in self.functions
                if f.guards_pruned or f.bailed
            ],
        }


def prune_function(function: Function, widen_after: int = 8,
                   max_visits: int = 500,
                   summaries=None) -> FunctionPruneReport:
    """Elide provably-dead panic guards in ``function`` (in place).

    ``summaries`` is an optional interprocedural summary table (see
    :mod:`repro.analysis.interproc`); with it, facts survive call sites
    instead of dying at havoc, so guards whose proofs span a call become
    statically decidable. When ``summaries`` is the
    :class:`~repro.analysis.interproc.summaries.SummaryTable` that
    :func:`~repro.analysis.interproc.compute_summaries` filled, analysing
    this very function with the same ``widen_after``/``max_visits``, its
    fixpoint is reused rather than recomputed; any other table or
    setting analyses the function here."""
    report = FunctionPruneReport(function.name)
    reused = None
    if isinstance(summaries, SummaryTable):
        reused = summaries.take_fixpoint(function, widen_after, max_visits)
    cfg = reused.cfg if reused is not None else CFG(function)
    candidates = []
    for label in cfg.rpo:
        term = function.blocks[label].terminator
        if not isinstance(term, CondBr) or term.then_label == term.else_label:
            continue
        then_panic = _is_panic(function, term.then_label)
        else_panic = _is_panic(function, term.else_label)
        if then_panic == else_panic:
            continue  # not a guard (or a both-sides-panic oddity)
        report.guards_total += 1
        candidates.append((label, term, then_panic))
    if not candidates:
        return report

    if reused is not None:
        result = reused
    else:
        try:
            result = analyze(function, GuardDomain(cfg, summaries=summaries),
                             cfg=cfg, widen_after=widen_after,
                             max_visits=max_visits)
        except RuntimeError:
            report.bailed = True
            return report
    domain = result.domain

    for label, term, panic_on_true in candidates:
        state = result.state_at_terminator(label)
        if state is None:
            continue  # unreachable guard: leave it; never executed anyway
        panic_label = term.then_label if panic_on_true else term.else_label
        ok_label = term.else_label if panic_on_true else term.then_label
        block = function.blocks[label]
        if domain.edge(domain.copy(state), block, panic_label) is not None:
            continue  # panic side not refuted — keep the guard
        if domain.edge(domain.copy(state), block, ok_label) is None:
            # The surviving side is abstractly dead too: dead code or a
            # definite bug. Either way the executor must see it.
            continue
        panic_term = function.blocks[panic_label].terminator
        kind = panic_term.kind
        block.terminator = ElidedGuardBr(
            ok_label, term.cond, panic_on_true, kind,
            message=panic_term.message,
            site=f"{function.name}:{label}",
        )
        report.guards_pruned += 1
        report.by_kind[kind] = report.by_kind.get(kind, 0) + 1

    if report.guards_pruned:
        report.panic_blocks_removed = _sweep_orphan_panics(function)
        validate_function(function)
        function.decoded = None
    return report


def _is_panic(function: Function, label: str) -> bool:
    block = function.blocks.get(label)
    return block is not None and isinstance(block.terminator, Panic)


def _sweep_orphan_panics(function: Function) -> int:
    """Delete panic blocks whose last predecessor a rewrite removed.

    Iterates because (in hand-written IR) a panic block could be reached
    through a dead chain; frontend panic blocks are always leaves so a
    single round suffices there.
    """
    removed = 0
    while True:
        preds = {label: 0 for label in function.blocks}
        for block in function.blocks.values():
            if block.terminator is None:
                continue
            for succ in block.terminator.successors():
                if succ in preds:
                    preds[succ] += 1
        doomed = [
            label
            for label, block in function.blocks.items()
            if isinstance(block.terminator, Panic)
            and block.terminator.kind != "missing-return"
            and label != function.entry_label
            and preds[label] == 0
        ]
        if not doomed:
            return removed
        for label in doomed:
            del function.blocks[label]
            removed += 1


def prune_module(module: Module, widen_after: int = 8,
                 max_visits: int = 500, summaries=None) -> PruneReport:
    """Prune every function in ``module`` (in place); returns the report.

    Function order is the module's insertion order, and every fresh name
    the analysis mints is derived from stable program points, so repeated
    runs produce identical IR — a requirement for bit-identical verdicts
    and counters across runs. Pass ``summaries`` (an interprocedural summary table)
    to let proofs cross call sites.
    """
    report = PruneReport()
    for function in module.functions.values():
        report.absorb(
            prune_function(function, widen_after, max_visits,
                           summaries=summaries)
        )
    return report
