"""JSON round-trips for bug reports and verification results."""

import pytest

from repro.core.pipeline import verify_engine
from repro.dns.zonefile import parse_zone_text
from repro.incremental.serialize import (
    bug_from_json,
    bug_to_json,
    result_from_json,
    result_to_json,
)

ZONE_TEXT = """\
$ORIGIN shop.example.
@ IN SOA ns1.shop.example. hostmaster.shop.example. 7 3600 600 86400 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
*.tenants IN A 192.0.2.90
"""


@pytest.fixture(scope="module")
def zone():
    return parse_zone_text(ZONE_TEXT)


class TestBugAndResult:
    def test_bug_roundtrip(self, zone):
        result = verify_engine(zone, "v1.0")
        assert result.bugs, "v1.0 must produce bugs on this zone"
        for bug in result.bugs:
            restored = bug_from_json(bug_to_json(bug))
            assert restored == bug

    def test_result_roundtrip(self, zone):
        result = verify_engine(zone, "v1.0")
        payload = result_to_json(result, cache_stats={"hits": 1, "misses": 2})
        assert payload["cache"] == {"hits": 1, "misses": 2}
        restored = result_from_json(payload)
        assert restored.verified == result.verified
        assert restored.solver_checks == result.solver_checks
        assert restored.bugs == result.bugs
        assert [layer.name for layer in restored.layers] == [
            layer.name for layer in result.layers
        ]
