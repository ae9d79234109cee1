"""Messages whose frames ``golden_frames.json`` pins byte for byte.

The fixture holds ``frame_message(message).hex()`` for every case built here,
**generated on the commit before the dispatch-table codec** (the ``isinstance``
chain encoder).  The tests asserting against it therefore prove that rewriting
the codec changed how frames are produced, never which bytes: ``WIRE_VERSION``
stays 3.

Together the cases hold one message of every ``MessageType``, every wire tag,
the clocks of all six mechanisms, a 30-sibling ``REPLICA_PUT`` state, a
``DVVSet`` with anonymous values, a sibling whose value is a list, negative /
zero / beyond-64-bit integers, floats, empty and 128-byte-plus strings,
``request_id`` present and absent, and (``wide``) a multi-byte varint in every
position that holds one.

Regenerate (only when the wire format deliberately changes, never to make a
refactor pass) with::

    PYTHONPATH=src python tests/network/golden_frame_cases.py --write
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Tuple

from repro.clocks import create
from repro.clocks.interface import Sibling
from repro.clocks.vve import DottedVVE, VersionVectorWithExceptions
from repro.core import CausalHistory, DVVSet, Dot, DottedVersionVector, VersionVector
from repro.kvstore.context import CausalContext
from repro.network.message import Message, MessageType

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_frames.json"

MECHANISMS = ("causal_history", "client_vv", "dotted_vve", "dvv", "dvvset",
              "server_vv")

#: A 200-character id: every string length written from it is a 2-byte varint.
LONG = "n" * 200
BIG = 1 << 20           # a counter / id whose varint is three bytes


def _state(mechanism_name: str, writes: int, blind: bool, uid_base: int):
    """A state ``writes`` writes deep, and the context a read of it returns."""
    mechanism = create(mechanism_name)
    state = mechanism.empty_state()
    for index in range(1, writes + 1):
        context = (mechanism.empty_context() if blind
                   else mechanism.read(state).context)
        sibling = Sibling(value=f"value-{index:02d}", origin_dot=Dot("c1", index),
                          writer="c1", uid=uid_base + index)
        state = mechanism.write(state, context, sibling, "AB"[index % 2], "c1")
    return state, CausalContext(key="cart",
                                mechanism_context=mechanism.read(state).context,
                                mechanism_name=mechanism_name)


def _wide_payload() -> Dict[Any, Any]:
    """A multi-byte varint in every varint position the value codec has."""
    many = [f"client-{index:03d}" for index in range(130)]
    vv = VersionVector({**{actor: BIG for actor in many}, LONG: BIG})
    vve = VersionVectorWithExceptions(
        {LONG: BIG, "A": 400},
        [Dot(LONG, BIG - 1)] + [Dot("A", counter) for counter in range(1, 131)])
    history = CausalHistory(
        Dot(LONG, BIG), [Dot(LONG, BIG - 1)] + [Dot(a, BIG) for a in many])
    sibling = Sibling(value="x" * 300, origin_dot=Dot(LONG, BIG), writer=LONG,
                      uid=BIG)
    return {
        "int": BIG, "negative": -BIG, "text": "é" * 100, "blob": b"\x00\xff" * 100,
        "list": list(range(130)), "tuple": tuple(range(130)),
        "set": frozenset(range(130)), "dict": {index: None for index in range(130)},
        "dot": Dot(LONG, BIG), "vv": vv,
        "dvv": DottedVersionVector(Dot(LONG, BIG + 1), vv), "vve": vve,
        "dotted_vve": DottedVVE(Dot(LONG, BIG + 1), vve), "history": history,
        "sibling": sibling,
        "dvvset": DVVSet([(LONG, BIG, tuple(many))] + [(a, 1, ()) for a in many],
                         many),
        "context": CausalContext(key=LONG, mechanism_context=vv,
                                 mechanism_name=LONG),
    }


def build_cases() -> List[Tuple[str, Message]]:
    """``[(name, message)]`` — deterministic: no auto-assigned msg id or uid."""
    payloads: Dict[str, Tuple[MessageType, Dict[Any, Any]]] = {}
    for index, name in enumerate(MECHANISMS):
        state, context = _state(name, 3, blind=False, uid_base=100 * index)
        payloads[f"state_{name}"] = (
            MessageType.REPLICA_GET_REPLY,
            {"key": "cart", "state": state, "context": context})
    hot, hot_context = _state("dvv", 30, blind=True, uid_base=1000)
    assert len(hot) == 30
    listed = Sibling(value=["milk", 2, None, {"eggs": 12.5}],
                     origin_dot=Dot("c2", 1), writer=None, uid=7)
    anonymous = DVVSet([("A", 2, (listed,)), ("B", 1, ())],
                       (Sibling(value="anon", origin_dot=Dot("c3", 1), uid=8),
                        "bare-string"))
    dots = tuple(Dot("c1", index) for index in range(1, 31))
    digest = bytes(range(32))
    payloads.update({
        "coordinate_get": (MessageType.COORDINATE_GET,
                           {"key": "cart", "client_id": "c1"}),
        "coordinate_put": (MessageType.COORDINATE_PUT,
                           {"key": "cart", "sibling": hot[0][1],
                            "context": hot_context, "client_id": "c1"}),
        "get_reply": (MessageType.GET_REPLY,
                      {"key": "cart", "coordinator": "A",
                       "siblings": [pair[1] for pair in hot[:3]],
                       "context": hot_context, "context_bytes": 41}),
        "put_reply": (MessageType.PUT_REPLY,
                      {"key": "cart", "coordinator": "A",
                       "mechanism_context": hot_context.mechanism_context,
                       "read_dots": dots, "context_bytes": 41}),
        "error_reply": (MessageType.ERROR_REPLY,
                        {"key": "cart", "error": "quorum unreachable",
                         "text": "", "long": "e" * 128, "acks": 0}),
        "replica_get": (MessageType.REPLICA_GET, {"key": "cart"}),
        "replica_put_hot": (MessageType.REPLICA_PUT,
                            {"key": "cart", "state": hot, "hint_for": None}),
        "replica_put_ack": (MessageType.REPLICA_PUT_ACK,
                            {"key": "cart", "ok": True, "stale": False}),
        "read_repair": (MessageType.READ_REPAIR,
                        {"states": {"cart": hot[:2], "inv": anonymous}}),
        "merkle_partition_digests": (MessageType.MERKLE_PARTITION_DIGESTS,
                                     {"session": 3, "digests": {0: digest,
                                                                7: digest[::-1]}}),
        "merkle_partition_diff": (MessageType.MERKLE_PARTITION_DIFF,
                                  {"session": 3,
                                   "partitions": frozenset({7, 0, 3})}),
        "merkle_sync_request": (MessageType.MERKLE_SYNC_REQUEST,
                                {"session": 3, "partition": 7,
                                 "path": (0, 1, 1), "level": 2}),
        "merkle_sync_response": (MessageType.MERKLE_SYNC_RESPONSE,
                                 {"session": 3, "children": [digest, b""],
                                  "leaf": False}),
        "merkle_key_states": (MessageType.MERKLE_KEY_STATES,
                              {"session": 3, "states": {"cart": hot[:1]},
                               "want": ["inv"], "final": True}),
        "hint_replay": (MessageType.HINT_REPLAY,
                        {"key": "cart", "state": hot[:1], "hint_id": 12}),
        "hint_ack": (MessageType.HINT_ACK, {"hint_id": 12}),
        "key_handoff": (MessageType.KEY_HANDOFF,
                        {"states": {"inv": anonymous}, "from": "A"}),
        "ping": (MessageType.PING, {}),
        "pong": (MessageType.PONG,
                 {"ints": [0, -1, 1, 63, -64, 64, (1 << 63) + 5, -(1 << 63),
                           (1 << 64) + 1],
                  "floats": [0.0, -2.5, 1e300, float("inf")],
                  "none": None, "raw": bytearray(b"abc")}),
        "wide": (MessageType.REPLICA_PUT, _wide_payload()),
    })
    assert {msg_type for msg_type, _ in payloads.values()} == set(MessageType)

    cases = []
    for index, (name, (msg_type, payload)) in enumerate(sorted(payloads.items())):
        wide = name == "wide"
        cases.append((name, Message(
            sender=LONG if wide else "A",
            receiver=LONG if wide else "client:c1",
            msg_type=msg_type, payload=payload,
            size_bytes=BIG if wide else 100 + index,
            # Every third case is a message nobody waits for.
            request_id=BIG if wide else (None if index % 3 == 0 else index + 1),
            msg_id=BIG if wide else index + 1)))
    return cases


def encode_all() -> Dict[str, str]:
    from repro.network.wire import frame_message

    return {name: frame_message(message).hex() for name, message in build_cases()}


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        raise SystemExit("pass --write to regenerate the golden fixture")
    GOLDEN_PATH.write_text(json.dumps(encode_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
