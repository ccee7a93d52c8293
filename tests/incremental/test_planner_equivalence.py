"""Bit-identity of the equivalence-class planner against the by-label oracle.

The by-label planner is the reference: one restricted symbolic run per
below-apex subtree, every unit against the full zone. The EC planner must
reproduce its *verdicts and bug locations* — same overall verdict, same
set of (version, categories, validated, covering-partition) bug tuples —
while issuing strictly fewer solver checks. Witness queries may differ
(EC verifies projected zones, so models pick among projected labels), so
the comparison key is location-based, exactly what the acceptance bar
demands.

The default run keeps a small corpus (seeded zones × engine versions plus
a short delta sequence). Setting ``EC_MARATHON=1`` — the ec-smoke CI job
does — extends the delta sequence to 50 steps.
"""

import os
import random

import pytest

from repro.core.options import VerifyOptions
from repro.incremental.delta import random_delta
from repro.incremental.engine import IncrementalVerifier
from repro.incremental.planner.by_label import ByLabelPlanner
from repro.zonegen import corpus, generate_zone, tld_zone

MARATHON = os.environ.get("EC_MARATHON") == "1"

_oracle = ByLabelPlanner()


def location_tuples(result, zone):
    """The planner-independent bug signature: what bug, where."""
    out = set()
    for bug in result.bugs:
        location = (
            _oracle.unit_of_name(zone, bug.query.qname)
            if bug.query is not None else None
        )
        out.add(
            (bug.version, tuple(sorted(bug.categories)), bug.validated,
             location)
        )
    return sorted(out)


def run_both(zone, version):
    results = {}
    for planner in ("by-label", "equivalence-class"):
        outcome = IncrementalVerifier(
            zone, version, options=VerifyOptions(planner=planner))
        results[planner] = outcome.verify_current().result
    return results


def assert_equivalent(zone, version, results):
    by_label = results["by-label"]
    ec = results["equivalence-class"]
    assert ec.verdict == by_label.verdict, version
    assert location_tuples(ec, zone) == location_tuples(by_label, zone)


@pytest.mark.parametrize("version", ["v2.0", "v3.0"])
def test_ec_matches_oracle_on_generated_zone(version):
    zone = generate_zone(seed=11)
    results = run_both(zone, version)
    assert_equivalent(zone, version, results)
    assert results["equivalence-class"].solver_checks < \
        results["by-label"].solver_checks


def test_ec_matches_oracle_on_wildcard_synthesis_bug():
    """Regression for the projection blind spot: v3.0 wrongly synthesizes
    the apex wildcard at empty non-terminals, so sub-unit projections must
    carry the wildcard slice or the bug vanishes (and phantom NXDOMAINs
    appear). gen3 has the triggering shape: an apex wildcard plus
    multi-level subtrees whose intermediate names are empty."""
    zone = generate_zone(seed=3)
    results = run_both(zone, "v3.0")
    assert_equivalent(zone, "v3.0", results)


def test_ec_matches_oracle_on_evaluation_zone():
    zone = corpus.evaluation_zone()
    results = run_both(zone, "dev")
    assert_equivalent(zone, "dev", results)


def test_ec_collapses_tld_zone_and_agrees():
    """Calibration at a size where the by-label oracle is still affordable:
    a TLD-shaped zone collapses to a bounded unit count and both planners
    agree, with the EC side issuing far fewer solver checks."""
    zone = tld_zone(64, seed=5)
    by_label_units = len(_oracle.plan(zone))
    from repro.incremental.planner.ec import ECPlanner

    ec_units = len(ECPlanner().plan(zone))
    assert ec_units < by_label_units / 2
    results = run_both(zone, "verified")
    assert_equivalent(zone, "verified", results)
    assert results["equivalence-class"].solver_checks < \
        results["by-label"].solver_checks / 2


def test_delta_sequence_stays_equivalent():
    """Both planners track the same evolving zone; every step's merged
    result must agree. 50 steps under EC_MARATHON (the ec-smoke job),
    a short sequence otherwise."""
    steps = 50 if MARATHON else 4
    zone = generate_zone(seed=5)
    verifiers = {
        planner: IncrementalVerifier(
            zone, "v2.0", options=VerifyOptions(planner=planner))
        for planner in ("by-label", "equivalence-class")
    }
    for verifier in verifiers.values():
        verifier.verify_current()
    rng = random.Random(1234)
    current = zone
    for step in range(steps):
        delta = random_delta(current, rng, ops=2)
        if not delta.changes:
            continue
        new_zone = delta.apply(current)
        outcomes = {
            planner: verifier.diff_to(new_zone)
            for planner, verifier in verifiers.items()
        }
        by_label = outcomes["by-label"].result
        ec = outcomes["equivalence-class"].result
        assert ec.verdict == by_label.verdict, f"step {step}"
        assert location_tuples(ec, new_zone) == \
            location_tuples(by_label, new_zone), f"step {step}"
        current = new_zone
