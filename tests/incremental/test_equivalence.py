"""The incremental correctness bar: incremental results must be
bit-identical to from-scratch verification.

The randomized corpus applies ≥50 seeded delta sequences (drawn with
``random_delta`` over small zones, plus ``repro.zonegen`` snapshots) and
cross-checks :class:`IncrementalVerifier` against a fresh monolithic
session after every step, comparing the *exact* decoded bug tuples —
including the raw interner codes of every counterexample query.
"""

import dataclasses
import random

import pytest

from repro.core.pipeline import verify_engine
from repro.dns.rdata import ARdata
from repro.dns.rtypes import RRType
from repro.dns.zonefile import parse_zone_text
from repro.incremental.cache import SummaryCache
from repro.incremental.delta import (
    RecordChange,
    ZoneDelta,
    closure_tops,
    diff_zones,
    random_delta,
)
from repro.incremental.digest import records_digest, top_label_of, top_labels
from repro.incremental.engine import IncrementalVerifier
from repro.incremental.planner import ByLabelPlanner
from repro.zonegen import GeneratorConfig, ZoneGenerator

BASE_ZONE = """\
$ORIGIN shop.example.
@ IN SOA ns1.shop.example. hostmaster.shop.example. 7 3600 600 86400 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
www IN TXT "storefront"
*.tenants IN A 192.0.2.90
"""


def bug_tuples(result):
    return sorted(
        (
            bug.version,
            bug.categories,
            bug.qname_codes,
            bug.qtype_code,
            bug.description,
            bug.validated,
            None if bug.query is None else bug.query.to_text(),
        )
        for bug in result.bugs
    )


def assert_equivalent(outcome, scratch):
    assert outcome.result.verified == scratch.verified
    assert bug_tuples(outcome.result) == bug_tuples(scratch)
    assert outcome.result.spurious_mismatches == scratch.spurious_mismatches


class TestPartitionedEqualsMonolithic:
    """Cold-cache partitioned runs already match the monolithic session."""

    @pytest.mark.parametrize("version", ["verified", "v1.0"])
    def test_cold_run_matches_scratch(self, version):
        zone = parse_zone_text(BASE_ZONE)
        outcome = IncrementalVerifier(zone, version).verify_current()
        assert_equivalent(outcome, verify_engine(zone, version))


#: BASE_ZONE with a two-record RRset, so a rewrite can reorder it.
INVISIBLE_BASE = BASE_ZONE + "www IN A 192.0.2.81\n"


def _rewrite(zone, record, **fields):
    """The delta replacing ``record`` by a copy with ``fields`` changed."""
    new = dataclasses.replace(record, **fields)
    return ZoneDelta(
        zone.origin, (RecordChange("delete", record), RecordChange("add", new))
    )


def _addresses(zone):
    return sorted((r for r in zone.records if r.rtype is RRType.A),
                  key=lambda r: r.sort_key())


def _unused_address(zone, rng, above=""):
    """An address no record holds whose text sorts after ``above``."""
    used = {r.rdata.to_text() for r in _addresses(zone)}
    texts = [f"192.0.2.{octet}" for octet in range(2, 255)]
    return ARdata(rng.choice(
        [t for t in texts if t not in used and t > above]))


def fresh_address(zone, rng):
    record = rng.choice(_addresses(zone))
    return _rewrite(zone, record, rdata=_unused_address(zone, rng))


def merge_addresses(zone, rng):
    """Rewrite one address to another owner's, so two records share
    their rdata (and their engine-visible payload id)."""
    pairs = [
        (record, other) for record in _addresses(zone)
        for other in _addresses(zone)
        if other.rname != record.rname
        and dataclasses.replace(record, rdata=other.rdata) not in zone.records
    ]
    record, other = rng.choice(pairs)
    return _rewrite(zone, record, rdata=other.rdata)


def split_addresses(zone, rng):
    """Rewrite one of two records sharing an address to an unused one."""
    texts = [r.rdata.to_text() for r in _addresses(zone)]
    shared = [r for r in _addresses(zone) if texts.count(r.rdata.to_text()) > 1]
    return _rewrite(zone, rng.choice(shared), rdata=_unused_address(zone, rng))


def reorder_rrset(zone, rng):
    """Rewrite the first address of www's two-record RRset to one that
    sorts after the second, swapping their encoded order."""
    first, second = [r for r in _addresses(zone) if r.rname.labels[0] == "www"]
    above = second.rdata.to_text()
    return _rewrite(zone, first, rdata=_unused_address(zone, rng, above))


def bump_serial(zone, rng):
    soa = next(r for r in zone.records if r.rtype is RRType.SOA)
    serial = soa.rdata.serial + rng.randint(1, 9)
    return _rewrite(zone, soa, rdata=dataclasses.replace(soa.rdata, serial=serial))


def change_ttl(zone, rng):
    record = rng.choice([r for r in zone.records if r.rtype is not RRType.SOA])
    return _rewrite(zone, record, ttl=record.ttl + rng.randint(1, 86400))


#: Edits the engine cannot see, in an order where each finds what it
#: needs (a split follows a merge). Invisible regardless of what came
#: before: the first address rewrite (INVISIBLE_BASE shares no address),
#: serial bumps and TTL edits.
INVISIBLE_EDITS = [
    (fresh_address, True),
    (merge_addresses, False),
    (split_addresses, False),
    (reorder_rrset, False),
    (bump_serial, True),
    (change_ttl, True),
]


def text_keys(zone):
    """Every by-label unit's verdict key with its closure digested as
    record text (TTL included) rather than as the engine sees it."""
    keys = {}
    for unit in ByLabelPlanner().plan(zone):
        observed = set(closure_tops(zone, unit.part_key))
        records = [r for r in zone.records if r.rname == zone.origin
                   or top_label_of(zone, r.rname) in observed]
        keys[unit.id] = (zone.label_universe(), top_labels(zone),
                         records_digest(records))
    return keys


class TestRandomizedDeltaSequences:
    """≥50 seeded delta sequences, incremental vs scratch after each."""

    @pytest.mark.parametrize(
        "version,seeds",
        [
            ("verified", list(range(0, 30))),
            ("v1.0", list(range(100, 120))),
        ],
    )
    def test_sequences(self, version, seeds):
        cache = SummaryCache(memory_only=True)
        checked = 0
        for seed in seeds:
            rng = random.Random(seed)
            zone = parse_zone_text(BASE_ZONE)
            verifier = IncrementalVerifier(zone, version, cache=cache)
            verifier.verify_current()  # warm the shared cache on the base zone
            steps = 1 + (seed % 2)
            for _ in range(steps):
                delta = random_delta(verifier.zone, rng, ops=1)
                if delta.is_empty:
                    continue
                outcome = verifier.apply(delta)
                scratch = verify_engine(verifier.zone, version)
                assert_equivalent(outcome, scratch)
                checked += 1
        assert checked >= len(seeds), "each sequence must contribute a check"

    @pytest.mark.parametrize("version", ["verified", "v1.0"])
    def test_engine_invisible_edits(self, version):
        """Address rewrites that keep, merge or split the rdata-id
        pattern, an RRset reorder, serial bumps and TTL edits:
        incremental == scratch after each, and the edits the engine never
        sees recompute no unit, for a BUG verdict too."""
        cache = SummaryCache(memory_only=True)
        for seed in range(3):
            rng = random.Random(seed)
            verifier = IncrementalVerifier(
                parse_zone_text(INVISIBLE_BASE), version, cache=cache)
            verifier.verify_current()
            for edit, invisible in INVISIBLE_EDITS:
                outcome = verifier.apply(edit(verifier.zone, rng))
                assert_equivalent(outcome, verify_engine(verifier.zone, version))
                if invisible:
                    assert outcome.reuse.recomputed_keys == (), edit.__name__

    def test_recomputes_only_units_whose_text_closure_changed(self):
        """The engine-level key coarsens the record-text key: a unit is
        recomputed only if its closure's record text (or the label
        universe or top set the key also pins) changed."""
        verifier = IncrementalVerifier(parse_zone_text(INVISIBLE_BASE), "verified")
        verifier.verify_current()
        rng = random.Random(5)
        recomputed = 0
        for step in range(10):
            old = verifier.zone
            if step % 2:
                edit = rng.choice([fresh_address, merge_addresses,
                                   bump_serial, change_ttl])
                delta = edit(old, rng)
            else:
                delta = random_delta(old, rng, ops=1)
            outcome = verifier.apply(delta)
            before, after = text_keys(old), text_keys(verifier.zone)
            changed = {unit for unit in after if before.get(unit) != after[unit]}
            assert set(outcome.reuse.recomputed_keys) <= changed
            recomputed += len(outcome.reuse.recomputed_keys)
        assert recomputed > 0

    def test_reuse_actually_happens(self):
        """The corpus is not vacuous: rdata-only deltas replay partitions."""
        zone = parse_zone_text(BASE_ZONE)
        verifier = IncrementalVerifier(zone, "verified")
        verifier.verify_current()
        rng = random.Random(7)
        reused_total = 0
        for _ in range(6):
            delta = random_delta(verifier.zone, rng, ops=1)
            if delta.is_empty:
                continue
            outcome = verifier.apply(delta)
            reused_total += outcome.reuse.partitions_reused
        assert reused_total > 0


class TestGeneratedZones:
    """zonegen snapshots: diff-driven adoption matches scratch."""

    def test_zonegen_snapshot_stream(self):
        config = GeneratorConfig(
            seed=77, num_hosts=3, num_wildcards=1, num_delegations=1,
            num_cnames=1, num_mx=0, num_srv=0,
        )
        zones = list(ZoneGenerator(config).stream(3))
        first = zones[0]
        verifier = IncrementalVerifier(first, "verified")
        outcome = verifier.verify_current()
        assert_equivalent(outcome, verify_engine(first, "verified"))
        # Morph the snapshot with a random delta and re-check.
        rng = random.Random(3)
        delta = random_delta(verifier.zone, rng, ops=2)
        if not delta.is_empty:
            outcome = verifier.apply(delta)
            assert_equivalent(outcome, verify_engine(verifier.zone, "verified"))

    def test_diff_to_adopts_new_snapshot(self):
        zone = parse_zone_text(BASE_ZONE)
        new = random_delta(zone, random.Random(5), ops=2).apply(zone)
        verifier = IncrementalVerifier(zone, "verified")
        verifier.verify_current()
        outcome = verifier.diff_to(new)
        assert outcome.reuse.records_changed == len(diff_zones(zone, new))
        assert_equivalent(outcome, verify_engine(new, "verified"))
