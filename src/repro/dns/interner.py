"""Order-preserving label interning.

Section 6.3 of the paper maps domain-name labels to integers so that the
abstract name comparison (``compareAbs``, Figure 10) reduces to linear
integer arithmetic, the only theory the automated reasoning needs. Two
properties make the mapping usable:

1. **Order preservation.** The integer order of codes equals the canonical
   (byte-wise, case-folded) order of labels, so the engine's left/right
   domain-tree walk translates to ``<`` / ``>`` on codes.
2. **Gap decodability.** Codes are spaced out so that a solver model that
   lands *between* two interned codes can be decoded back into a fresh
   concrete label lying strictly between the two neighbouring labels. This
   is how a symbolic counterexample becomes a concrete, runnable query even
   when it requires a qname label that appears nowhere in the zone.

The wildcard label ``*`` always interns to the smallest code (it sorts below
every legal hostname character), so queries naming the wildcard literally
remain expressible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.dns.name import DnsName, MAX_LABEL_LENGTH

#: Distance between consecutive interned codes. Large enough that random
#: models rarely exhaust a gap's decodable labels.
LABEL_SPACING = 1 << 16

#: The code of the wildcard label '*'.
WILDCARD_CODE = 1

_CANDIDATE_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


class LabelInterner:
    """Bidirectional, order-preserving label/integer mapping for one zone."""

    def __init__(self, labels: Iterable[str]):
        universe = sorted({lab.lower() for lab in labels} - {"*"})
        self._labels: Tuple[str, ...] = tuple(universe)
        self._code_of: Dict[str, int] = {"*": WILDCARD_CODE}
        self._label_of: Dict[int, str] = {WILDCARD_CODE: "*"}
        for rank, label in enumerate(self._labels):
            code = (rank + 1) * LABEL_SPACING
            self._code_of[label] = code
            self._label_of[code] = label

    @classmethod
    def for_zone(cls, zone) -> "LabelInterner":
        """Interner over every label the zone mentions (owner names and
        rdata-embedded names)."""
        return cls(zone.label_universe())

    # -- basic mapping ------------------------------------------------------

    @property
    def universe(self) -> Tuple[str, ...]:
        return self._labels

    @property
    def min_code(self) -> int:
        return WILDCARD_CODE

    @property
    def max_code(self) -> int:
        """Largest valid code; values above the last interned label remain
        decodable up to this bound."""
        return (len(self._labels) + 1) * LABEL_SPACING - 1

    def has(self, label: str) -> bool:
        return label.lower() in self._code_of

    def code(self, label: str) -> int:
        try:
            return self._code_of[label.lower()]
        except KeyError:
            raise KeyError(f"label {label!r} not interned") from None

    def interned_label(self, code: int) -> Optional[str]:
        """The label interned at exactly ``code``; None for a gap code
        (no synthesis, unlike :meth:`decode`)."""
        return self._label_of.get(code)

    def interned_codes(self) -> List[int]:
        return sorted(self._label_of)

    # -- decoding, including gap values --------------------------------------

    def decode(self, code: int) -> Optional[str]:
        """Turn any code in ``[min_code, max_code]`` into a concrete label.

        Interned codes map back exactly; gap codes synthesise a fresh label
        lying strictly between the neighbouring interned labels (and strictly
        ordered against them byte-wise), preserving the model's ordering
        facts. Returns None when the gap admits no legal label (callers
        then re-solve with the offending value excluded).
        """
        if code in self._label_of:
            return self._label_of[code]
        if code < self.min_code or code > self.max_code:
            return None
        rank = code // LABEL_SPACING  # 0 => below first label, n => above last
        lo = self._labels[rank - 1] if rank >= 1 else None
        hi = self._labels[rank] if rank < len(self._labels) else None
        if rank == 0:
            # Between '*' and the first interned label.
            lo = None
        return _label_between(lo, hi)

    # -- whole names ----------------------------------------------------------

    def encode_name(self, name: DnsName) -> Tuple[int, ...]:
        """Codes of the name's labels in significance order (Figure 10's
        reversed representation: ``www.example.com.`` ->
        ``(code(com), code(example), code(www))``)."""
        return tuple(self.code(lab) for lab in name.reversed_labels)

    def decode_name(self, codes: Iterable[int]) -> Optional[DnsName]:
        """Inverse of :meth:`encode_name`, accepting gap codes."""
        reversed_labels: List[str] = []
        for code in codes:
            label = self.decode(code)
            if label is None:
                return None
            reversed_labels.append(label)
        return DnsName(tuple(reversed(reversed_labels)))

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:
        return f"LabelInterner({len(self._labels)} labels, spacing {LABEL_SPACING})"


def _label_between(lo: Optional[str], hi: Optional[str]) -> Optional[str]:
    """A legal label strictly between ``lo`` and ``hi`` byte-wise (None
    bounds are open)."""
    if lo is None:
        # "0" is the smallest legal label; nothing legal sorts below it.
        if hi is None or "0" < hi:
            return "0"
        return None

    # lo given: extensions of lo sort just above lo. lo+"0" is the smallest
    # clean extension; if hi blocks it, descend through '-' runs which sort
    # below any digit/letter continuation.
    for suffix_base in ("", "-", "--", "---", "----"):
        for ch in _CANDIDATE_CHARS:
            candidate = lo + suffix_base + ch
            if len(candidate) > MAX_LABEL_LENGTH:
                return None
            if candidate > lo and (hi is None or candidate < hi):
                return candidate
    return None
