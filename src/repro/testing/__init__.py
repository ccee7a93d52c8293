"""SCALE-style differential testing (paper section 10 related work).

SCALE generates test cases from the formal semantics and cross-checks DNS
implementations; DNS-V subsumes it but keeps a differential tester around
for two jobs: validating symbolic counterexamples by concrete re-execution,
and cheaply smoke-testing new engine versions and random zones before the
(heavier) verification runs.
"""

from repro.testing.differential import (
    DifferentialResult,
    Divergence,
    differential_test,
    enumerate_queries,
)

__all__ = [
    "DifferentialResult",
    "Divergence",
    "differential_test",
    "enumerate_queries",
]
