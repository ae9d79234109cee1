"""Unit tests for :mod:`repro.core.serialization`."""

from __future__ import annotations

import pytest

from repro.core import (
    CausalHistory,
    DVVSet,
    Dot,
    DottedVersionVector,
    SerializationError,
    VersionVector,
    decode,
    encode,
    encoded_size,
    entry_count,
)


SAMPLE_CLOCKS = [
    VersionVector.empty(),
    VersionVector({"A": 3, "B": 1, "server-with-long-name": 250}),
    DottedVersionVector(Dot("A", 3), VersionVector({"A": 1, "B": 7})),
    DottedVersionVector(Dot("node-1", 1), VersionVector()),
    CausalHistory.empty(),
    CausalHistory(Dot("A", 2), [Dot("A", 1), Dot("B", 5)]),
    DVVSet([("A", 3, ("v3", "v2")), ("B", 1, ())], ("anon",)),
    DVVSet.empty(),
]


class TestBinaryRoundTrip:
    @pytest.mark.parametrize("clock", SAMPLE_CLOCKS, ids=lambda c: type(c).__name__ + repr(c)[:30])
    def test_round_trip(self, clock):
        assert decode(encode(clock)) == clock

    def test_empty_input_rejected(self):
        with pytest.raises(SerializationError):
            decode(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            decode(b"Zjunk")

    def test_trailing_bytes_rejected(self):
        data = encode(VersionVector({"A": 1})) + b"extra"
        with pytest.raises(SerializationError):
            decode(data)

    def test_truncated_input_rejected(self):
        data = encode(VersionVector({"A": 1, "B": 2}))
        with pytest.raises(SerializationError):
            decode(data[:-1])

    def test_unencodable_type_rejected(self):
        with pytest.raises(SerializationError):
            encode("not a clock")  # type: ignore[arg-type]


class TestSizeAccounting:
    def test_vv_size_grows_with_entries(self):
        small = VersionVector({"A": 1})
        big = VersionVector({f"client-{i}": i + 1 for i in range(50)})
        assert encoded_size(big) > encoded_size(small)
        assert entry_count(small) == 1
        assert entry_count(big) == 50

    def test_dvv_entry_count_includes_dot(self):
        clock = DottedVersionVector(Dot("A", 3), VersionVector({"A": 1, "B": 2}))
        assert entry_count(clock) == 3

    def test_dvv_smaller_than_equivalent_client_vv(self):
        """The core size claim: DVV metadata bounded by #servers, client VV by #clients."""
        servers = ["S1", "S2", "S3"]
        dvv_clock = DottedVersionVector(Dot("S1", 40), VersionVector({s: 39 for s in servers}))
        client_vv = VersionVector({f"client-{i}": 1 for i in range(40)})
        assert encoded_size(dvv_clock) < encoded_size(client_vv)
        assert entry_count(dvv_clock) < entry_count(client_vv)

    def test_causal_history_entry_count_is_event_count(self):
        history = CausalHistory(Dot("A", 3), [Dot("A", 1), Dot("A", 2)])
        assert entry_count(history) == 3

    def test_varint_encoding_handles_large_counters(self):
        clock = VersionVector({"A": 2 ** 40})
        assert decode(encode(clock)) == clock
