"""Wire protocol of the ingress gateway: length-prefixed binary frames.

The gateway speaks a deliberately tiny binary protocol — ``struct``-packed,
no serialization library — so a client in any language (or a 20-line
script) can drive a serve farm over a socket:

* every frame is ``!I`` (payload byte length, big-endian u32) followed by
  the payload; the length prefix is the only framing, so frames survive
  arbitrary TCP segmentation;
* the first frame each way is a **handshake**: magic ``b"RKSN"`` + the
  protocol version (u16).  The server echoes its own handshake plus its
  shard count; a magic or version mismatch is a loud
  :class:`~repro.errors.IngressProtocolError` on both sides, never a
  silently misparsed stream;
* requests carry a client-chosen **request id** (u32) echoed verbatim in
  the response, so one connection can pipeline many requests and match
  answers out of order;
* request ops: ``PING`` (liveness), ``SERVE`` (one keyed request),
  ``SERVE_BATCH`` (one key's request batch), ``METRICS`` (aggregate farm
  counters plus a per-shard health/breaker trailer).  Responses are
  ``OK``, ``ERROR`` (message text) or ``OVERLOAD`` (explicit load-shed —
  admission control, a tripped circuit breaker or an expired deadline;
  the request was not served).  ``ERROR``/``OVERLOAD`` bodies lead with
  a **retry-after hint** (f64 seconds, 0 = none): how long the server
  suggests waiting before resubmitting (e.g. a breaker's remaining open
  window);
* serve requests carry a **deadline budget** (f64 seconds, 0 = none):
  the server sheds the request with ``OVERLOAD`` instead of serving it
  late when it has queued past its budget.

Integers are unsigned big-endian throughout; keys are UTF-8 text (u16
length prefix); node ids are u32; cost totals are u64 (they are sums of
per-request costs and outgrow u32 on long streams).

A serve request's pairs travel interleaved (``u0 v0 u1 v1 ...``).  The
decoder does not unpack them one by one: :attr:`Request.sources` and
:attr:`Request.targets` are read-only strided ``>u4`` views of one
:func:`numpy.frombuffer` over the payload, which the gateway hands to the
serve farm without copying them into Python ints.

Decoding is total: any byte string decodes to a value or raises
:class:`~repro.errors.IngressProtocolError` (invalid UTF-8 in a key
included), so a hostile peer can end its own connection but never crash
the handler.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import IngressProtocolError

__all__ = [
    "FRAME_HEADER_SIZE",
    "HANDSHAKE_MAGIC",
    "PROTOCOL_VERSION",
    "OP_PING",
    "OP_SERVE",
    "OP_SERVE_BATCH",
    "OP_METRICS",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_OVERLOAD",
    "MAX_FRAME_BYTES",
    "Request",
    "Response",
    "decode_frame_length",
    "encode_frame",
    "split_frames",
    "encode_handshake",
    "decode_handshake",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
]

#: Both sides send this before anything else; anything other than an
#: exact match is not this protocol.
HANDSHAKE_MAGIC = b"RKSN"

#: Bumped on any wire-incompatible change; the handshake rejects
#: mismatches explicitly instead of misparsing frames.
#: v2: retry-after hint on ERROR/OVERLOAD, per-shard health/breaker
#: trailer (and served/errors counters) on METRICS.
PROTOCOL_VERSION = 2

OP_PING = 1
OP_SERVE = 2
OP_SERVE_BATCH = 3
OP_METRICS = 4
_OPS = (OP_PING, OP_SERVE, OP_SERVE_BATCH, OP_METRICS)

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_OVERLOAD = 2
_STATUSES = (STATUS_OK, STATUS_ERROR, STATUS_OVERLOAD)

#: Upper bound on one frame's payload, enforced by both decoders: a
#: corrupt length prefix must fail fast, not allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct("!I")
_HANDSHAKE = struct.Struct("!4sHH")  # magic, version, shards (0 = client)
_REQ_HEAD = struct.Struct("!IBd")  # request id, opcode, deadline seconds
_RESP_HEAD = struct.Struct("!IB")  # request id, status
_KEY_LEN = struct.Struct("!H")
_PAIR = struct.Struct("!II")
_BATCH_LEN = struct.Struct("!I")
_SERVE_TOTALS = struct.Struct("!QQQQ")  # m, routing, rotations, links
_METRICS_BODY = struct.Struct("!QQQQQQQQdd")
# requests, routing, rotations, links, admitted, served, overloaded,
# errors, p50, p99 — followed by one _SHARD_TRAILER per shard
_SHARD_TRAILER = struct.Struct("!IBBII")
# pid, health code, breaker code, breaker opens, recoveries
_RETRY_AFTER = struct.Struct("!d")
_MSG_LEN = struct.Struct("!I")

#: Health states on the wire (order matches escalation severity).
_HEALTH_CODES = {"healthy": 0, "suspect": 1, "down": 2, "recovering": 3}
_HEALTH_NAMES = {code: name for name, code in _HEALTH_CODES.items()}
#: Circuit-breaker states on the wire.
_BREAKER_CODES = {"closed": 0, "open": 1, "half_open": 2}
_BREAKER_NAMES = {code: name for name, code in _BREAKER_CODES.items()}


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
FRAME_HEADER_SIZE = _LEN.size


def decode_frame_length(head: bytes) -> int:
    """Decode a frame's length prefix, enforcing the payload cap."""
    if len(head) != _LEN.size:
        raise IngressProtocolError(
            f"frame header is {len(head)} bytes, expected {_LEN.size}"
        )
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise IngressProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
            " (corrupt or desynced stream)"
        )
    return length


def encode_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its length — the complete wire form."""
    if len(payload) > MAX_FRAME_BYTES:
        raise IngressProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte cap"
        )
    return _LEN.pack(len(payload)) + payload


def split_frames(buffer: bytes) -> tuple[list[bytes], bytes]:
    """Split a byte buffer into complete frame payloads + the remainder.

    The incremental decoder both endpoints share: feed it everything read
    so far, get back every complete payload and the unconsumed tail
    (which may hold a partial frame).  A length prefix past
    :data:`MAX_FRAME_BYTES` raises — a desynced or corrupt stream must
    not look like a frame that merely has not finished arriving.
    """
    frames: list[bytes] = []
    offset = 0
    total = len(buffer)
    while total - offset >= _LEN.size:
        (length,) = _LEN.unpack_from(buffer, offset)
        if length > MAX_FRAME_BYTES:
            raise IngressProtocolError(
                f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte"
                " cap (corrupt or desynced stream)"
            )
        if total - offset - _LEN.size < length:
            break
        start = offset + _LEN.size
        frames.append(bytes(buffer[start : start + length]))
        offset = start + length
    return frames, bytes(buffer[offset:])


# ----------------------------------------------------------------------
# handshake
# ----------------------------------------------------------------------
def encode_handshake(*, shards: int = 0) -> bytes:
    """The handshake frame (client sends ``shards=0``; server its count)."""
    return encode_frame(
        _HANDSHAKE.pack(HANDSHAKE_MAGIC, PROTOCOL_VERSION, shards)
    )


def decode_handshake(payload: bytes) -> int:
    """Validate a handshake payload; returns the peer's shard count."""
    if len(payload) != _HANDSHAKE.size:
        raise IngressProtocolError(
            f"handshake frame is {len(payload)} bytes,"
            f" expected {_HANDSHAKE.size}"
        )
    magic, version, shards = _HANDSHAKE.unpack(payload)
    if magic != HANDSHAKE_MAGIC:
        raise IngressProtocolError(
            f"bad handshake magic {magic!r} (not an ingress endpoint)"
        )
    if version != PROTOCOL_VERSION:
        raise IngressProtocolError(
            f"protocol version mismatch: peer speaks {version},"
            f" this side speaks {PROTOCOL_VERSION}"
        )
    return shards


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Request:
    """One decoded client request frame.

    For ``SERVE``/``SERVE_BATCH`` the pairs are read-only ``>u4`` array
    views into the frame payload (``sources`` the even slots, ``targets``
    the odd ones); ``PING``/``METRICS`` carry none (empty tuples).
    """

    op: int
    request_id: int
    key: str = ""
    sources: Sequence[int] = ()
    targets: Sequence[int] = ()
    #: Seconds the client allows this request to spend queued server-side
    #: before it would rather be load-shed; 0.0 = no deadline.
    deadline: float = 0.0


@dataclass(frozen=True)
class Response:
    """One decoded server response frame."""

    request_id: int
    status: int
    #: SERVE / SERVE_BATCH totals (m, routing, rotations, links).
    totals: Optional[tuple[int, int, int, int]] = None
    #: METRICS body (see :func:`encode_response`).
    metrics: Optional[dict] = None
    #: ERROR / OVERLOAD explanation.
    message: str = ""
    #: Server's suggested resubmission delay in seconds (ERROR/OVERLOAD
    #: only; 0.0 = no hint).
    retry_after: float = 0.0


def _pack_key(key: str) -> bytes:
    data = key.encode("utf-8")
    if len(data) > 0xFFFF:
        raise IngressProtocolError(
            f"session key of {len(data)} UTF-8 bytes exceeds the 65535-byte"
            " key cap"
        )
    return _KEY_LEN.pack(len(data)) + data


def _unpack_key(payload: bytes, offset: int) -> tuple[str, int]:
    if len(payload) - offset < _KEY_LEN.size:
        raise IngressProtocolError("frame ends inside a key length")
    (length,) = _KEY_LEN.unpack_from(payload, offset)
    offset += _KEY_LEN.size
    if len(payload) - offset < length:
        raise IngressProtocolError("frame ends inside a key")
    try:
        key = payload[offset : offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngressProtocolError(
            f"session key is not UTF-8: {exc}"
        ) from None
    return key, offset + length


def _pack_text(text: str) -> bytes:
    data = text.encode("utf-8")[: 0xFFFF_FFFF]
    return _MSG_LEN.pack(len(data)) + data


def _unpack_text(payload: bytes, offset: int) -> tuple[str, int]:
    if len(payload) - offset < _MSG_LEN.size:
        raise IngressProtocolError("frame ends inside a message length")
    (length,) = _MSG_LEN.unpack_from(payload, offset)
    offset += _MSG_LEN.size
    if len(payload) - offset < length:
        raise IngressProtocolError("frame ends inside a message")
    return (
        payload[offset : offset + length].decode("utf-8", "replace"),
        offset + length,
    )


def encode_request(
    op: int,
    request_id: int,
    *,
    key: str = "",
    sources: Sequence[int] = (),
    targets: Sequence[int] = (),
    deadline: float = 0.0,
) -> bytes:
    """Encode one request as a complete frame (length prefix included)."""
    if op not in _OPS:
        raise IngressProtocolError(f"unknown request opcode {op}")
    head = _REQ_HEAD.pack(request_id & 0xFFFF_FFFF, op, max(0.0, deadline))
    if op in (OP_PING, OP_METRICS):
        return encode_frame(head)
    if len(sources) != len(targets):
        raise IngressProtocolError(
            "serve sources and targets must be equal length"
        )
    m = len(sources)
    if op == OP_SERVE and m != 1:
        raise IngressProtocolError("SERVE carries exactly one request")
    pairs = [0] * (2 * m)
    pairs[0::2] = sources
    pairs[1::2] = targets
    try:
        body = struct.pack(f"!{2 * m}I", *pairs)
    except struct.error as exc:
        raise IngressProtocolError(
            f"node ids must be integers in 0..{0xFFFF_FFFF}: {exc}"
        ) from None
    if op == OP_SERVE:
        return encode_frame(head + _pack_key(key) + body)
    return encode_frame(head + _pack_key(key) + _BATCH_LEN.pack(m) + body)


def decode_request(payload: bytes) -> Request:
    """Decode one request payload (no length prefix)."""
    if len(payload) < _REQ_HEAD.size:
        raise IngressProtocolError(
            f"request frame of {len(payload)} bytes is shorter than the"
            f" {_REQ_HEAD.size}-byte header"
        )
    request_id, op, deadline = _REQ_HEAD.unpack_from(payload, 0)
    if op not in _OPS:
        raise IngressProtocolError(f"unknown request opcode {op}")
    offset = _REQ_HEAD.size
    if op in (OP_PING, OP_METRICS):
        return Request(op=op, request_id=request_id, deadline=deadline)
    key, offset = _unpack_key(payload, offset)
    if op == OP_SERVE:
        m = 1
    else:
        if len(payload) - offset < _BATCH_LEN.size:
            raise IngressProtocolError("frame ends inside a batch length")
        (m,) = _BATCH_LEN.unpack_from(payload, offset)
        offset += _BATCH_LEN.size
    if len(payload) - offset != m * _PAIR.size:
        if op == OP_SERVE:
            raise IngressProtocolError("SERVE frame has a malformed pair")
        raise IngressProtocolError(
            f"SERVE_BATCH declares {m} pairs but carries"
            f" {(len(payload) - offset) // _PAIR.size}"
        )
    if not isinstance(payload, bytes):
        # Views into a mutable buffer would be writable.
        payload = bytes(payload)
    pairs = np.frombuffer(payload, ">u4", count=2 * m, offset=offset)
    return Request(
        op=op,
        request_id=request_id,
        key=key,
        sources=pairs[0::2],
        targets=pairs[1::2],
        deadline=deadline,
    )


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
def encode_response(
    request_id: int,
    status: int,
    *,
    totals: Optional[tuple[int, int, int, int]] = None,
    metrics: Optional[dict] = None,
    message: str = "",
    retry_after: float = 0.0,
) -> bytes:
    """Encode one response as a complete frame (length prefix included)."""
    if status not in _STATUSES:
        raise IngressProtocolError(f"unknown response status {status}")
    head = _RESP_HEAD.pack(request_id & 0xFFFF_FFFF, status)
    if status != STATUS_OK:
        return encode_frame(
            head
            + _RETRY_AFTER.pack(max(0.0, retry_after))
            + _pack_text(message)
        )
    if metrics is not None:
        body = _METRICS_BODY.pack(
            metrics.get("requests", 0),
            metrics.get("total_routing", 0),
            metrics.get("total_rotations", 0),
            metrics.get("total_links_changed", 0),
            metrics.get("admitted", 0),
            metrics.get("served", 0),
            metrics.get("overloaded", 0),
            metrics.get("errors", 0),
            metrics.get("latency_p50_seconds", 0.0),
            metrics.get("latency_p99_seconds", 0.0),
        )
        trailer = b"".join(
            _SHARD_TRAILER.pack(
                int(entry.get("pid") or 0) & 0xFFFF_FFFF,
                _HEALTH_CODES.get(entry.get("health", "healthy"), 0),
                _BREAKER_CODES.get(entry.get("breaker", "closed"), 0),
                int(entry.get("breaker_opens", 0)) & 0xFFFF_FFFF,
                int(entry.get("recoveries", 0)) & 0xFFFF_FFFF,
            )
            for entry in metrics.get("shards", ())
        )
        return encode_frame(head + body + trailer)
    if totals is not None:
        return encode_frame(head + _SERVE_TOTALS.pack(*totals))
    return encode_frame(head)  # PING: bare OK


def decode_response(payload: bytes) -> Response:
    """Decode one response payload (no length prefix).

    Body shape is inferred from length: bare OK (ping), serve totals, or
    the metrics block — the three OK bodies have distinct fixed sizes.
    """
    if len(payload) < _RESP_HEAD.size:
        raise IngressProtocolError(
            f"response frame of {len(payload)} bytes is shorter than the"
            f" {_RESP_HEAD.size}-byte header"
        )
    request_id, status = _RESP_HEAD.unpack_from(payload, 0)
    if status not in _STATUSES:
        raise IngressProtocolError(f"unknown response status {status}")
    body = payload[_RESP_HEAD.size :]
    if status != STATUS_OK:
        if len(body) < _RETRY_AFTER.size:
            raise IngressProtocolError(
                "frame ends inside a retry-after hint"
            )
        (retry_after,) = _RETRY_AFTER.unpack_from(body, 0)
        message, _ = _unpack_text(
            payload, _RESP_HEAD.size + _RETRY_AFTER.size
        )
        return Response(
            request_id=request_id,
            status=status,
            message=message,
            retry_after=max(0.0, retry_after),
        )
    if not body:
        return Response(request_id=request_id, status=status)
    if len(body) == _SERVE_TOTALS.size:
        return Response(
            request_id=request_id,
            status=status,
            totals=_SERVE_TOTALS.unpack(body),
        )
    extra = len(body) - _METRICS_BODY.size
    if extra >= 0 and extra % _SHARD_TRAILER.size == 0:
        (
            requests,
            routing,
            rotations,
            links,
            admitted,
            served,
            overloaded,
            errors,
            p50,
            p99,
        ) = _METRICS_BODY.unpack_from(body, 0)
        shards = []
        for offset in range(
            _METRICS_BODY.size, len(body), _SHARD_TRAILER.size
        ):
            pid, health, breaker, opens, recoveries = (
                _SHARD_TRAILER.unpack_from(body, offset)
            )
            shards.append(
                {
                    "shard": len(shards),
                    "pid": pid,
                    "health": _HEALTH_NAMES.get(health, "healthy"),
                    "breaker": _BREAKER_NAMES.get(breaker, "closed"),
                    "breaker_opens": opens,
                    "recoveries": recoveries,
                }
            )
        return Response(
            request_id=request_id,
            status=status,
            metrics={
                "requests": requests,
                "total_routing": routing,
                "total_rotations": rotations,
                "total_links_changed": links,
                "admitted": admitted,
                "served": served,
                "overloaded": overloaded,
                "errors": errors,
                "latency_p50_seconds": p50,
                "latency_p99_seconds": p99,
                "shards": shards,
            },
        )
    raise IngressProtocolError(
        f"OK response body of {len(body)} bytes matches no known shape"
    )
