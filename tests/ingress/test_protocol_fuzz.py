"""Total wire decoding: any byte string decodes or raises the typed error.

Every decoder the gateway and its clients run on bytes from a peer —
:func:`~repro.ingress.protocol.split_frames`, ``decode_handshake``,
``decode_request`` and ``decode_response`` — is fed arbitrary bytes and
valid frames that were truncated or had a byte flipped.  The only allowed
outcomes are a decoded value or
:class:`~repro.errors.IngressProtocolError`: anything else
(``UnicodeDecodeError``, ``struct.error``, ``ValueError`` from NumPy)
would escape the server's connection handler.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IngressProtocolError
from repro.ingress import protocol

FUZZ = settings(max_examples=1000, deadline=None)

DECODERS = (
    protocol.split_frames,
    protocol.decode_handshake,
    protocol.decode_request,
    protocol.decode_response,
)


def _decodes_or_refuses(data: bytes) -> None:
    for decode in DECODERS:
        try:
            decode(data)
        except IngressProtocolError:
            pass


u32 = st.integers(min_value=0, max_value=0xFFFF_FFFF)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
keys = st.text(max_size=12)
pair_lists = st.integers(min_value=0, max_value=6).flatmap(
    lambda m: st.tuples(
        st.lists(u32, min_size=m, max_size=m),
        st.lists(u32, min_size=m, max_size=m),
    )
)

requests = st.one_of(
    st.builds(
        protocol.encode_request,
        st.sampled_from((protocol.OP_PING, protocol.OP_METRICS)),
        u32,
    ),
    st.builds(
        lambda rid, key, u, v, deadline: protocol.encode_request(
            protocol.OP_SERVE, rid, key=key, sources=[u], targets=[v],
            deadline=deadline,
        ),
        u32, keys, u32, u32, st.floats(0, 10),
    ),
    st.builds(
        lambda rid, key, pairs: protocol.encode_request(
            protocol.OP_SERVE_BATCH, rid, key=key,
            sources=pairs[0], targets=pairs[1],
        ),
        u32, keys, pair_lists,
    ),
)

shard_rows = st.lists(
    st.fixed_dictionaries(
        {
            "pid": u32,
            "health": st.sampled_from(("healthy", "suspect", "down")),
            "breaker": st.sampled_from(("closed", "open", "half_open")),
            "breaker_opens": u32,
            "recoveries": u32,
        }
    ),
    max_size=3,
)

responses = st.one_of(
    st.builds(protocol.encode_response, u32, st.just(protocol.STATUS_OK)),
    st.builds(
        lambda rid, totals: protocol.encode_response(
            rid, protocol.STATUS_OK, totals=totals
        ),
        u32, st.tuples(u64, u64, u64, u64),
    ),
    st.builds(
        lambda rid, requests_, shards: protocol.encode_response(
            rid, protocol.STATUS_OK,
            metrics={"requests": requests_, "shards": shards},
        ),
        u32, u64, shard_rows,
    ),
    st.builds(
        lambda rid, status, message, retry: protocol.encode_response(
            rid, status, message=message, retry_after=retry
        ),
        u32,
        st.sampled_from((protocol.STATUS_ERROR, protocol.STATUS_OVERLOAD)),
        st.text(max_size=20),
        st.floats(0, 5),
    ),
)

frames = st.one_of(
    requests,
    responses,
    st.builds(
        lambda shards: protocol.encode_handshake(shards=shards),
        st.integers(0, 0xFFFF),
    ),
)


@FUZZ
@given(st.binary(max_size=256))
def test_arbitrary_bytes_decode_or_refuse(data):
    _decodes_or_refuses(data)


@FUZZ
@given(frames, st.data())
def test_truncated_frames_decode_or_refuse(frame, data):
    cut = data.draw(st.integers(0, len(frame)))
    _decodes_or_refuses(frame[:cut])
    # The payload alone, truncated, as the decoders after framing see it.
    _decodes_or_refuses(frame[protocol.FRAME_HEADER_SIZE : cut])


@FUZZ
@given(frames, st.data())
def test_byte_flipped_frames_decode_or_refuse(frame, data):
    at = data.draw(st.integers(0, len(frame) - 1))
    flip = data.draw(st.integers(1, 255))
    mutated = frame[:at] + bytes([frame[at] ^ flip]) + frame[at + 1 :]
    _decodes_or_refuses(mutated)
    _decodes_or_refuses(mutated[protocol.FRAME_HEADER_SIZE :])


@FUZZ
@given(requests)
def test_valid_requests_round_trip(frame):
    [payload], rest = protocol.split_frames(frame)
    assert rest == b""
    request = protocol.decode_request(payload)
    again = protocol.encode_request(
        request.op,
        request.request_id,
        key=request.key,
        sources=request.sources,
        targets=request.targets,
        deadline=request.deadline,
    )
    assert again == frame
