"""Shared corpus of representative clock values for the canonical-codec tests.

The golden fixture ``golden_clock_encodings.json`` pins the byte-level output
of the canonical encoder (and the wire value codec) for every case built here.
It was generated from the pre-refactor encoders — before the memoizing
canonical-bytes layer existed — so the tests asserting against it prove the
refactor changed *where* bytes are computed, never *which* bytes.

Three deliberate format changes since, all to the ``wire`` column only.
``WIRE_VERSION`` 2 took the correctness oracle off the wire, so the ``wire``
hex of exactly two cases — ``sibling`` and ``context`` — lost its embedded
causal history (a context is key + mechanism context + mechanism name).  ``WIRE_VERSION`` 3 made clocks and
siblings length-prefixed records (``tag · varint(body length) · body``, bodies
unchanged; the ``E`` nested in ``dotted_vve`` stays unprefixed) and the
sibling's writer a bare string, so the ``wire`` hex of the 13 cases holding a
``V W E X H`` or ``G`` moved — every case but the two ``dvvset_*`` ones, whose
values are plain strings.  ``WIRE_VERSION`` 4 made a sibling value + origin
dot, dropping its writer and uid, so only the ``sibling`` case's ``wire`` hex
moved.  Every ``serialization`` hex is still the pre-refactor capture.

Regenerate (only when the wire format deliberately changes, never to make a
refactor pass) with::

    PYTHONPATH=src python tests/core/canonical_cases.py --write
"""

from __future__ import annotations

import json
import pathlib

from repro.clocks.interface import Sibling
from repro.clocks.vve import DottedVVE, VersionVectorWithExceptions
from repro.core import CausalHistory, DVVSet, Dot, DottedVersionVector, VersionVector
from repro.kvstore.context import CausalContext

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_clock_encodings.json"

#: Cases the core serialization codec (`repro.core.serialization.encode`)
#: must reproduce byte for byte.
SERIALIZATION_KINDS = ("version_vector", "dvv", "causal_history", "dvvset")


def build_cases():
    """``[(name, kind, value)]`` — deterministic, no auto-assigned ids."""
    vv = VersionVector({"A": 3, "B": 1, "node-with-a-longer-id": 12})
    big_vv = VersionVector({f"client-{i}": i + 1 for i in range(40)})
    history = CausalHistory(
        Dot("A", 4), [Dot("A", 1), Dot("A", 2), Dot("B", 1), Dot("C", 7)]
    )
    sibling = Sibling(
        value="shopping-cart",
        origin_dot=Dot("B", 2),
    )
    return [
        ("vv_empty", "version_vector", VersionVector.empty()),
        ("vv_small", "version_vector", vv),
        ("vv_unicode", "version_vector", VersionVector({"nœud-β": 9})),
        ("vv_large", "version_vector", big_vv),
        ("dvv_plain", "dvv", DottedVersionVector(Dot("A", 6), vv)),
        ("dvv_gap", "dvv",
         DottedVersionVector(Dot("A", 3), VersionVector({"A": 1}))),
        ("ch_empty", "causal_history", CausalHistory.empty()),
        ("ch_no_event", "causal_history",
         CausalHistory(None, [Dot("A", 1), Dot("B", 2)])),
        ("ch_with_event", "causal_history", history),
        ("dvvset_empty", "dvvset", DVVSet.empty()),
        ("dvvset_values", "dvvset",
         DVVSet((("A", 3, ("v3", "v2")), ("B", 1, ("w1",))), ("anon",))),
        ("vve_plain", "vve",
         VersionVectorWithExceptions({"A": 5, "B": 2}, [Dot("A", 2), Dot("A", 4)])),
        ("dotted_vve", "dotted_vve",
         DottedVVE(Dot("C", 3),
                   VersionVectorWithExceptions({"A": 2}, [Dot("A", 1)]))),
        ("sibling", "sibling", sibling),
        ("context", "context",
         CausalContext(key="cart", mechanism_context=vv,
                       mechanism_name="dvv")),
    ]


def encode_all():
    """Hex encodings of every case under both codecs (None where unsupported)."""
    from repro.core import serialization
    from repro.network import wire

    out = {}
    for name, kind, value in build_cases():
        entry = {"kind": kind}
        if kind in SERIALIZATION_KINDS:
            entry["serialization"] = serialization.encode(value).hex()
        buf = bytearray()
        wire._encode_value(value, buf)
        entry["wire"] = bytes(buf).hex()
        out[name] = entry
    return out


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        raise SystemExit("pass --write to regenerate the golden fixture")
    GOLDEN_PATH.write_text(json.dumps(encode_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
