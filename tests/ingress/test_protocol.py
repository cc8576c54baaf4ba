"""The ingress wire protocol: framing, handshake, request/response codecs.

Everything here is pure bytes — no sockets, no farm — so these tests pin
the exact wire format: a frame that round-trips today must round-trip
forever (or bump ``PROTOCOL_VERSION``).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.errors import IngressProtocolError
from repro.ingress import protocol


def _payload(frame: bytes) -> bytes:
    """Strip the length prefix off a complete encoded frame."""
    frames, rest = protocol.split_frames(frame)
    assert len(frames) == 1 and rest == b""
    return frames[0]


class TestFraming:
    def test_encode_prefixes_length(self):
        assert protocol.encode_frame(b"abc") == b"\x00\x00\x00\x03abc"

    def test_split_frames_handles_arbitrary_segmentation(self):
        wire = (
            protocol.encode_frame(b"one")
            + protocol.encode_frame(b"")
            + protocol.encode_frame(b"three")
        )
        # Feed the stream byte by byte — worst-case TCP segmentation.
        got, buffer = [], b""
        for i in range(len(wire)):
            buffer += wire[i : i + 1]
            frames, buffer = protocol.split_frames(buffer)
            got.extend(frames)
        assert got == [b"one", b"", b"three"]
        assert buffer == b""

    def test_split_frames_keeps_partial_tail(self):
        wire = protocol.encode_frame(b"done") + b"\x00\x00\x00\x09part"
        frames, rest = protocol.split_frames(wire)
        assert frames == [b"done"]
        assert rest == b"\x00\x00\x00\x09part"

    def test_oversized_length_prefix_is_rejected(self):
        huge = struct.pack("!I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(IngressProtocolError, match="cap"):
            protocol.split_frames(huge)
        with pytest.raises(IngressProtocolError, match="cap"):
            protocol.decode_frame_length(huge)

    def test_oversized_payload_is_rejected_on_encode(self):
        class FakeLen(bytes):
            def __len__(self):
                return protocol.MAX_FRAME_BYTES + 1

        with pytest.raises(IngressProtocolError, match="cap"):
            protocol.encode_frame(FakeLen())

    def test_decode_frame_length_wants_exact_header(self):
        with pytest.raises(IngressProtocolError, match="header"):
            protocol.decode_frame_length(b"\x00\x00")


class TestHandshake:
    def test_round_trip_carries_shard_count(self):
        payload = _payload(protocol.encode_handshake(shards=5))
        assert protocol.decode_handshake(payload) == 5

    def test_client_handshake_is_zero_shards(self):
        assert protocol.decode_handshake(
            _payload(protocol.encode_handshake())
        ) == 0

    def test_bad_magic_is_loud(self):
        payload = struct.pack("!4sHH", b"HTTP", protocol.PROTOCOL_VERSION, 0)
        with pytest.raises(IngressProtocolError, match="magic"):
            protocol.decode_handshake(payload)

    def test_version_mismatch_is_loud(self):
        payload = struct.pack(
            "!4sHH",
            protocol.HANDSHAKE_MAGIC,
            protocol.PROTOCOL_VERSION + 1,
            0,
        )
        with pytest.raises(IngressProtocolError, match="version"):
            protocol.decode_handshake(payload)

    def test_truncated_handshake_is_loud(self):
        with pytest.raises(IngressProtocolError, match="bytes"):
            protocol.decode_handshake(b"RK")


class TestRequestCodec:
    def test_ping_and_metrics_round_trip(self):
        for op in (protocol.OP_PING, protocol.OP_METRICS):
            request = protocol.decode_request(
                _payload(protocol.encode_request(op, 42))
            )
            assert request.op == op
            assert request.request_id == 42
            assert request.sources == ()

    def test_serve_round_trip(self):
        frame = protocol.encode_request(
            protocol.OP_SERVE, 7, key="tenant-a", sources=[3], targets=[901]
        )
        request = protocol.decode_request(_payload(frame))
        assert request.key == "tenant-a"
        assert request.sources.tolist() == [3]
        assert request.targets.tolist() == [901]
        assert request.deadline == 0.0

    def test_serve_batch_round_trip_with_deadline(self):
        frame = protocol.encode_request(
            protocol.OP_SERVE_BATCH,
            0xFFFF_FFFF,
            key="k",
            sources=[1, 2, 3],
            targets=[9, 8, 7],
            deadline=0.25,
        )
        request = protocol.decode_request(_payload(frame))
        assert request.request_id == 0xFFFF_FFFF
        assert request.sources.tolist() == [1, 2, 3]
        assert request.targets.tolist() == [9, 8, 7]
        assert request.deadline == pytest.approx(0.25)

    def test_unicode_key_round_trips(self):
        frame = protocol.encode_request(
            protocol.OP_SERVE_BATCH, 1, key="clé-λ", sources=[1], targets=[2]
        )
        assert protocol.decode_request(_payload(frame)).key == "clé-λ"

    def test_mismatched_batch_lengths_rejected(self):
        with pytest.raises(IngressProtocolError, match="equal length"):
            protocol.encode_request(
                protocol.OP_SERVE_BATCH, 1, key="k",
                sources=[1, 2], targets=[3],
            )

    def test_serve_wants_exactly_one_pair(self):
        with pytest.raises(IngressProtocolError, match="exactly one"):
            protocol.encode_request(
                protocol.OP_SERVE, 1, key="k",
                sources=[1, 2], targets=[3, 4],
            )

    def test_oversized_key_rejected(self):
        with pytest.raises(IngressProtocolError, match="key cap"):
            protocol.encode_request(
                protocol.OP_SERVE, 1, key="x" * 70_000,
                sources=[1], targets=[2],
            )

    def test_unknown_opcode_rejected_both_ways(self):
        with pytest.raises(IngressProtocolError, match="opcode"):
            protocol.encode_request(99, 1)
        payload = struct.pack("!IBd", 1, 99, 0.0)
        with pytest.raises(IngressProtocolError, match="opcode"):
            protocol.decode_request(payload)

    def test_decoded_batch_pairs_are_read_only_arrays(self):
        sources = [1, 2, 3, 0xFFFF_FFFF]
        targets = [9, 8, 7, 0]
        payload = _payload(
            protocol.encode_request(
                protocol.OP_SERVE_BATCH, 5, key="k",
                sources=sources, targets=targets,
            )
        )
        # A mutable payload must not make the views writable either.
        for buffer in (payload, bytearray(payload)):
            request = protocol.decode_request(buffer)
            assert isinstance(request.sources, np.ndarray)
            assert request.sources.tolist() == sources
            assert request.targets.tolist() == targets
            for view in (request.sources, request.targets):
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0] = 1

    def test_encoded_bytes_are_pinned(self):
        """Golden bytes: the wire form of a SERVE and a SERVE_BATCH."""
        serve = protocol.encode_request(
            protocol.OP_SERVE, 7, key="ab", sources=[3], targets=[0x0102_0304]
        )
        assert serve == bytes.fromhex(
            "00000019"  # payload length 25
            "00000007" "02" "0000000000000000"  # id, SERVE, deadline 0.0
            "0002" "6162"  # key "ab"
            "00000003" "01020304"  # the pair
        )
        batch = protocol.encode_request(
            protocol.OP_SERVE_BATCH,
            0x0A0B0C0D,
            key="k",
            sources=np.array([1, 2], dtype=np.int64),
            targets=(5, 0xFFFF_FFFF),
            deadline=0.5,
        )
        assert batch == bytes.fromhex(
            "00000024"  # payload length 36
            "0a0b0c0d" "03" "3fe0000000000000"  # id, SERVE_BATCH, 0.5
            "0001" "6b"  # key "k"
            "00000002"  # two pairs, interleaved u v u v
            "00000001" "00000005" "00000002" "ffffffff"
        )

    @pytest.mark.parametrize("bad", [-1, 2**32, 1.5, "3", None])
    def test_node_id_outside_u32_is_a_protocol_error(self, bad):
        for op, sources, targets in (
            (protocol.OP_SERVE, [bad], [1]),
            (protocol.OP_SERVE_BATCH, [1, 2], [3, bad]),
        ):
            with pytest.raises(IngressProtocolError, match="node ids"):
                protocol.encode_request(
                    op, 1, key="k", sources=sources, targets=targets
                )

    def test_non_utf8_key_is_a_protocol_error(self):
        for op, body in (
            (protocol.OP_SERVE, struct.pack("!II", 1, 2)),
            (protocol.OP_SERVE_BATCH, struct.pack("!III", 1, 1, 2)),
        ):
            payload = (
                struct.pack("!IBd", 1, op, 0.0)
                + struct.pack("!H", 1)
                + b"\xff"
                + body
            )
            with pytest.raises(IngressProtocolError, match="UTF-8"):
                protocol.decode_request(payload)

    def test_truncated_request_is_loud(self):
        frame = protocol.encode_request(
            protocol.OP_SERVE_BATCH, 1, key="k",
            sources=[1, 2], targets=[3, 4],
        )
        payload = _payload(frame)
        for cut in (2, len(payload) - 3):
            with pytest.raises(IngressProtocolError):
                protocol.decode_request(payload[:cut])


class TestResponseCodec:
    def test_bare_ok_round_trip(self):
        response = protocol.decode_response(
            _payload(protocol.encode_response(3, protocol.STATUS_OK))
        )
        assert response.status == protocol.STATUS_OK
        assert response.totals is None
        assert response.metrics is None

    def test_totals_round_trip(self):
        totals = (12, 345, 67, 2**40)  # links outgrow u32 on long streams
        response = protocol.decode_response(
            _payload(
                protocol.encode_response(
                    9, protocol.STATUS_OK, totals=totals
                )
            )
        )
        assert response.totals == totals

    def test_metrics_round_trip(self):
        metrics = {
            "requests": 100,
            "total_routing": 400,
            "total_rotations": 200,
            "total_links_changed": 900,
            "admitted": 101,
            "served": 99,
            "overloaded": 1,
            "errors": 1,
            "latency_p50_seconds": 0.001,
            "latency_p99_seconds": 0.01,
            "shards": [
                {
                    "shard": 0,
                    "pid": 4242,
                    "health": "healthy",
                    "breaker": "closed",
                    "breaker_opens": 0,
                    "recoveries": 0,
                },
                {
                    "shard": 1,
                    "pid": 4243,
                    "health": "recovering",
                    "breaker": "half_open",
                    "breaker_opens": 3,
                    "recoveries": 2,
                },
            ],
        }
        response = protocol.decode_response(
            _payload(
                protocol.encode_response(
                    5, protocol.STATUS_OK, metrics=metrics
                )
            )
        )
        assert response.metrics == metrics

    def test_metrics_without_shards_round_trips_empty_list(self):
        metrics = {
            "requests": 10,
            "total_routing": 40,
            "total_rotations": 20,
            "total_links_changed": 90,
            "admitted": 10,
            "served": 10,
            "overloaded": 0,
            "errors": 0,
            "latency_p50_seconds": 0.0,
            "latency_p99_seconds": 0.0,
        }
        response = protocol.decode_response(
            _payload(
                protocol.encode_response(
                    6, protocol.STATUS_OK, metrics=metrics
                )
            )
        )
        assert response.metrics == {**metrics, "shards": []}

    def test_overload_carries_retry_after_hint(self):
        response = protocol.decode_response(
            _payload(
                protocol.encode_response(
                    4,
                    protocol.STATUS_OVERLOAD,
                    message="breaker open",
                    retry_after=0.75,
                )
            )
        )
        assert response.status == protocol.STATUS_OVERLOAD
        assert response.message == "breaker open"
        assert response.retry_after == pytest.approx(0.75)

    def test_error_and_overload_carry_message(self):
        for status in (protocol.STATUS_ERROR, protocol.STATUS_OVERLOAD):
            response = protocol.decode_response(
                _payload(
                    protocol.encode_response(8, status, message="why not")
                )
            )
            assert response.status == status
            assert response.message == "why not"

    def test_unknown_status_rejected_both_ways(self):
        with pytest.raises(IngressProtocolError, match="status"):
            protocol.encode_response(1, 9)
        with pytest.raises(IngressProtocolError, match="status"):
            protocol.decode_response(struct.pack("!IB", 1, 9))

    def test_unrecognized_ok_body_is_loud(self):
        payload = struct.pack("!IB", 1, protocol.STATUS_OK) + b"\x00" * 7
        with pytest.raises(IngressProtocolError, match="shape"):
            protocol.decode_response(payload)

    def test_request_id_echo_discipline(self):
        # The id a client packs is the id it gets back — the contract
        # that lets one connection pipeline and match out of order.
        for rid in (0, 1, 2**31, 0xFFFF_FFFF):
            frame = protocol.encode_response(rid, protocol.STATUS_OK)
            assert protocol.decode_response(_payload(frame)).request_id == rid
