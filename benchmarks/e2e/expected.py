"""Known answers the benchmark checks the program's outputs against.

Verdicts are written out by hand from the paper's Table 2 rather than
imported from ``repro.reporting``, so a change to the program's own
tables cannot silently change what counts as correct. Served answers are
checked against ``repro.spec.reference_resolve``, the resolver written
independently of the engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: The six engine versions a release run verifies, in the order it runs them.
RELEASES = ("v1.0", "v2.0", "v3.0", "v4.0", "dev", "verified")

#: Verdict of each version on the evaluation zone.
VERDICTS: Dict[str, str] = {
    "v1.0": "BUG",
    "v2.0": "BUG",
    "v3.0": "BUG",
    "v4.0": "VERIFIED",
    "dev": "BUG",
    "verified": "VERIFIED",
}

#: Paper Table 2: (row, version, categories the verifier must report).
TABLE2_ROWS: Tuple[Tuple[int, str, Tuple[str, ...]], ...] = (
    (1, "v1.0", ("Wrong Flag",)),
    (2, "v1.0", ("Wrong Authority",)),
    (3, "v1.0", ("Wrong Answer",)),
    (4, "v2.0", ("Wrong Additional",)),
    (5, "v2.0", ("Wrong Additional",)),
    (6, "v2.0", ("Wrong Answer", "Wrong rcode")),
    (7, "v2.0", ("Wrong Additional",)),
    (8, "v3.0", ("Wrong Answer", "Wrong rcode")),
    (9, "dev", ("Runtime Error",)),
)


def verdict_problems(version: str, verdict: str,
                     categories: Sequence[str]) -> List[str]:
    """Why a ``repro verify --json`` outcome is wrong (empty when right)."""
    problems = []
    want = VERDICTS[version]
    if verdict != want:
        problems.append(f"{version}: verdict {verdict}, expected {want}")
    found = set(categories)
    if want == "VERIFIED" and found:
        problems.append(f"{version}: VERIFIED run reported {sorted(found)}")
    for row, row_version, row_categories in TABLE2_ROWS:
        if row_version != version:
            continue
        missing = [c for c in row_categories if c not in found]
        if missing:
            problems.append(f"{version}: Table 2 row {row} missing {missing}")
    return problems


class Oracle:
    """Reference answers for one zone, each computed once."""

    def __init__(self, zone) -> None:
        self.zone = zone
        self._answers: Dict[Tuple, object] = {}

    def problem(self, labels: Sequence[str], qtype: int,
                reply: Optional[bytes]) -> Optional[str]:
        """Why ``reply`` is not the reference answer to (labels, qtype)."""
        from repro.dns.message import Query
        from repro.dns.name import DnsName
        from repro.dns.rtypes import RRType
        from repro.dns.wire import WireError, parse_response
        from repro.spec import reference_resolve

        query = Query(DnsName(tuple(labels)), RRType(qtype))
        if reply is None:
            return f"{query.to_text()}: no reply"
        try:
            _, got = parse_response(reply)
        except (WireError, ValueError) as exc:
            return f"{query.to_text()}: unparseable reply ({exc})"
        key = (tuple(labels), qtype)
        want = self._answers.get(key)
        if want is None:
            want = self._answers[key] = reference_resolve(self.zone, query)
        if not got.semantically_equal(want):
            return (f"{query.to_text()}: got {got.rcode.name} "
                    f"{len(got.answer)}/{len(got.authority)}/{len(got.additional)}, "
                    f"reference {want.rcode.name} {len(want.answer)}/"
                    f"{len(want.authority)}/{len(want.additional)}")
        return None
