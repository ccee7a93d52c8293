"""ZoneDelta semantics and the documented invalidation rules."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.name import DnsName
from repro.dns.rdata import ARdata, TXTRdata
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RRType
from repro.dns.zone import ZoneValidationError
from repro.dns.zonefile import parse_zone_text
from repro.incremental.delta import (
    RecordChange,
    ZoneDelta,
    delta_impact,
    diff_zones,
    random_delta,
)
from repro.incremental.planner import ByLabelPlanner

ZONE_TEXT = """\
$ORIGIN shop.example.
@ IN SOA ns1.shop.example. hostmaster.shop.example. 7 3600 600 86400 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
www IN TXT "storefront"
*.tenants IN A 192.0.2.90
sub IN NS ns1.sub
ns1.sub IN A 192.0.2.53
"""


@pytest.fixture()
def zone():
    return parse_zone_text(ZONE_TEXT)


def name(text):
    return DnsName(tuple(text.rstrip(".").split(".")))


def unit_keys(zone):
    return [unit.part_key for unit in ByLabelPlanner().plan(zone)]


def unit_of_name(zone, qname):
    return ByLabelPlanner().unit_of_name(zone, qname)


def affected(old, new):
    planner = ByLabelPlanner()
    planner.plan(old)
    return planner.affected(diff_zones(old, new))


def add(rname, rtype=RRType.A, rdata=None):
    rdata = rdata if rdata is not None else ARdata("192.0.2.200")
    return RecordChange("add", ResourceRecord(rname, rtype, rdata))


class TestZoneDelta:
    def test_apply_add_delete_roundtrip(self, zone):
        rec = ResourceRecord(name("new.www.shop.example"), RRType.A, ARdata("192.0.2.7"))
        added = ZoneDelta(zone.origin, (RecordChange("add", rec),)).apply(zone)
        assert rec in added.records
        removed = ZoneDelta(zone.origin, (RecordChange("delete", rec),)).apply(added)
        assert sorted(r.to_text() for r in removed.records) == sorted(
            r.to_text() for r in zone.records
        )

    def test_apply_rejects_missing_delete(self, zone):
        rec = ResourceRecord(name("ghost.shop.example"), RRType.A, ARdata("192.0.2.9"))
        with pytest.raises(ZoneValidationError):
            ZoneDelta(zone.origin, (RecordChange("delete", rec),)).apply(zone)

    def test_apply_rejects_duplicate_add(self, zone):
        rec = zone.records[2]
        with pytest.raises(ZoneValidationError):
            ZoneDelta(zone.origin, (RecordChange("add", rec),)).apply(zone)

    def test_apply_rejects_wrong_origin(self, zone):
        delta = ZoneDelta(name("other.example"), ())
        with pytest.raises(ZoneValidationError):
            delta.apply(zone)

    def test_diff_zones_inverts_apply(self, zone):
        rng = random.Random(11)
        for _ in range(20):
            delta = random_delta(zone, rng, ops=2)
            new = delta.apply(zone)
            rediff = diff_zones(zone, new)
            assert sorted(r.to_text() for r in rediff.apply(zone).records) == sorted(
                r.to_text() for r in new.records
            )

    def test_describe_mentions_every_change(self, zone):
        rec = ResourceRecord(name("x.shop.example"), RRType.A, ARdata("192.0.2.4"))
        delta = ZoneDelta(
            zone.origin,
            (RecordChange("add", rec), RecordChange("delete", zone.records[2])),
        )
        text = delta.describe()
        assert "2 change(s)" in text and "+ x.shop.example." in text


class TestPartitions:
    def test_partition_keys(self, zone):
        keys = unit_keys(zone)
        assert keys == [
            "apex", "outside", "miss", "sub:ns1", "sub:sub", "sub:tenants", "sub:www",
        ]

    def test_wildcard_label_has_no_sub_partition(self, zone):
        assert "sub:*" not in unit_keys(zone)

    def test_partition_of_name(self, zone):
        assert unit_of_name(zone, zone.origin) == "apex"
        assert unit_of_name(zone, name("www.shop.example")) == "sub:www"
        assert unit_of_name(zone, name("deep.www.shop.example")) == "sub:www"
        assert unit_of_name(zone, name("nope.shop.example")) == "miss"
        assert unit_of_name(zone, name("a.tenants.shop.example")) == "sub:tenants"
        assert unit_of_name(zone, name("other.example")) == "outside"


class TestInvalidation:
    """Each delta invalidates exactly the documented subtree set."""

    def test_plain_update_invalidates_only_its_subtree(self, zone):
        new = ZoneDelta(zone.origin, (add(name("extra.www.shop.example")),)).apply(zone)
        assert affected(zone, new) == ["sub:www"]

    def test_delete_under_wildcard_invalidates_wildcard_subtree(self, zone):
        # *.tenants covers the whole tenants slice: deleting the wildcard
        # invalidates sub:tenants as a unit (not just the wildcard node).
        base = ZoneDelta(
            zone.origin, (add(name("static.tenants.shop.example")),)
        ).apply(zone)
        wc = next(r for r in base.records if "*" in r.rname.labels)
        new = ZoneDelta(base.origin, (RecordChange("delete", wc),)).apply(base)
        assert affected(base, new) == ["sub:tenants"]

    def test_delete_last_record_of_subtree_moves_space_to_miss(self, zone):
        # Deleting the only record under a top label removes the partition
        # itself; its query space falls back into the NXDOMAIN partition.
        wc = next(r for r in zone.records if "*" in r.rname.labels)
        new = ZoneDelta(zone.origin, (RecordChange("delete", wc),)).apply(zone)
        assert affected(zone, new) == ["miss"]
        assert "sub:tenants" not in unit_keys(new)

    def test_delete_under_delegation_invalidates_delegated_subtree(self, zone):
        # Removing the cut's NS record changes referral behaviour for the
        # whole delegated subtree, not just the cut node.
        ns = next(r for r in zone.records if r.rname == name("sub.shop.example"))
        new = ZoneDelta(zone.origin, (RecordChange("delete", ns),)).apply(zone)
        assert affected(zone, new) == ["sub:sub"]

    def test_apex_change_invalidates_everything(self, zone):
        new = ZoneDelta(
            zone.origin, (add(zone.origin, RRType.TXT, TXTRdata("hello")),)
        ).apply(zone)
        assert set(affected(zone, new)) == set(unit_keys(zone))

    def test_new_top_label_invalidates_miss_space(self, zone):
        new = ZoneDelta(zone.origin, (add(name("fresh.shop.example")),)).apply(zone)
        changed = affected(zone, new)
        # The new child gets its own partition and the NXDOMAIN boundary moves.
        assert "sub:fresh" in changed and "miss" in changed

    def test_rdata_chase_invalidates_dependents(self, zone):
        # Apex NS targets ns1: a change in ns1's subtree invalidates every
        # partition whose closure chases the apex NS glue.
        new = ZoneDelta(zone.origin, (add(name("x.ns1.shop.example")),)).apply(zone)
        changed = affected(zone, new)
        assert "sub:ns1" in changed and "apex" in changed

    def test_cname_target_chase(self):
        zone = parse_zone_text(
            """\
$ORIGIN z.example.
@ IN SOA ns.z.example. admin.z.example. 1 3600 600 86400 300
@ IN NS ns
ns IN A 192.0.2.1
alias IN CNAME target.z.example.
target IN A 192.0.2.2
"""
        )
        # A second address at the target is an edit the engine sees (an
        # address rewrite is not; see test_engine_invisible_edits).
        new = ZoneDelta(
            zone.origin, (add(name("target.z.example"), rdata=ARdata("192.0.2.3")),)
        ).apply(zone)
        assert "sub:alias" in affected(zone, new)

    def test_chase_pins_absent_targets(self):
        # alias points at a nonexistent subtree; *adding* the target later
        # must invalidate alias's partition even though no shared record
        # existed before.
        base = parse_zone_text(
            """\
$ORIGIN z.example.
@ IN SOA ns.z.example. admin.z.example. 1 3600 600 86400 300
@ IN NS ns
ns IN A 192.0.2.1
alias IN CNAME missing.z.example.
"""
        )
        new = ZoneDelta(base.origin, (add(name("missing.z.example")),)).apply(base)
        assert "sub:alias" in affected(base, new)

    def test_delta_impact_layers(self, zone):
        # A second TXT record at an existing owner keeps the tree shape:
        # TreeSearch survives.
        new = ZoneDelta(
            zone.origin, (add(name("www.shop.example"), RRType.TXT, TXTRdata("other")),)
        ).apply(zone)
        impact = delta_impact(zone, new)
        assert impact.affected_layers == ("Find",)
        assert impact.affected_partitions == ("sub:www",)
        # Adding a new owner name changes the shape: both layers invalidated.
        new2 = ZoneDelta(zone.origin, (add(name("n.www.shop.example")),)).apply(zone)
        assert delta_impact(zone, new2).affected_layers == ("TreeSearch", "Find")

    def test_no_change_no_invalidation(self, zone):
        assert affected(zone, zone) == []
        impact = delta_impact(zone, zone)
        assert impact.affected_partitions == ()
        assert impact.affected_layers == ()
        assert set(impact.reusable_partitions) == set(unit_keys(zone))


class TestDeltaAlgebra:
    """Hypothesis-driven delta algebra over generated record edits."""

    labels = st.sampled_from(["www", "ns1", "tenants", "alpha", "beta", "deep"])

    @given(
        st.lists(
            st.tuples(labels, st.integers(min_value=1, max_value=250)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_diff_apply_roundtrip(self, zone_spec):
        base = parse_zone_text(ZONE_TEXT)
        records = list(base.records)
        for label, octet in zone_spec:
            rec = ResourceRecord(
                base.origin.prepend(label).prepend(f"h{octet}"),
                RRType.A,
                ARdata(f"192.0.2.{octet}"),
            )
            if rec not in records:
                records.append(rec)
        new = type(base)(base.origin, tuple(records))
        delta = diff_zones(base, new)
        assert sorted(r.to_text() for r in delta.apply(base).records) == sorted(
            r.to_text() for r in new.records
        )
        # Every changed owner maps into an affected partition.
        impact = delta_impact(base, new)
        for change in delta:
            key = unit_of_name(new, change.record.rname)
            assert key in impact.affected_partitions

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_delta_preserves_validity(self, seed):
        base = parse_zone_text(ZONE_TEXT)
        rng = random.Random(seed)
        delta = random_delta(base, rng, ops=3)
        new = delta.apply(base)  # Zone() revalidates; no exception
        assert new.origin == base.origin
