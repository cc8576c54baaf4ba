"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidTreeError",
    "RotationError",
    "RoutingError",
    "WorkloadError",
    "OptimizationError",
    "ExperimentError",
    "EngineError",
    "ReliabilityError",
    "RejectedRequestError",
    "FaultInjected",
    "IngressError",
    "IngressProtocolError",
    "IngressConnectionError",
    "IngressOverload",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class InvalidTreeError(ReproError):
    """A k-ary search tree network violates a structural invariant.

    Raised by :meth:`repro.core.tree.KAryTreeNetwork.validate` and by
    constructors that receive inconsistent node wiring.
    """


class RotationError(ReproError):
    """A rotation was requested on nodes where it is not applicable.

    Examples: ``k-semi-splay`` on nodes that are not in a parent/child
    relation, or ``k-splay`` on fewer than three chained nodes.
    """


class RoutingError(ReproError):
    """Greedy local routing failed to make progress toward the target."""


class WorkloadError(ReproError):
    """A trace or demand matrix is malformed (bad ids, self-loops, shape)."""


class OptimizationError(ReproError):
    """An offline optimization (DP) received infeasible input."""


class ExperimentError(ReproError):
    """An experiment configuration is inconsistent."""


class EngineError(ReproError):
    """An unknown or unsupported tree-engine backend was requested."""


class ReliabilityError(ReproError):
    """A fault-tolerance guarantee could not be upheld.

    Raised by the reliability layer (:mod:`repro.reliability`) when
    recovery is impossible or corruption is detected: a task exceeded its
    retry budget or timeout, the worker pool kept dying across respawns,
    a restored checkpoint failed its post-restore audit, or a resume was
    requested without a readable campaign record.
    """


class RejectedRequestError(ReliabilityError):
    """A serve-farm dispatch was refused before any of it was served.

    Raised by :class:`repro.serving.ServeFarm` when a dispatch holds a
    pair no session can serve (``u != v`` with an id outside ``1..n``).
    Nothing of the dispatch was served or journaled.  :attr:`entries`
    lists the indices of the offending ``(key, sources, targets)``
    entries, so a caller that coalesced many clients' frames (the
    ingress gateway) can answer those frames alone and serve the rest.
    A :class:`ReliabilityError`, as every failed farm dispatch is.
    """

    def __init__(self, message: str = "", *, entries=()):
        super().__init__(message)
        self.entries = tuple(entries)


class IngressError(ReproError):
    """Base class for the socket ingress gateway (:mod:`repro.ingress`)."""


class IngressProtocolError(IngressError):
    """A malformed, truncated or version-mismatched wire frame.

    Raised on either side of the connection when the length-prefixed
    framing cannot be decoded: bad magic, unsupported protocol version,
    unknown opcode/status, or a frame that ends mid-field.
    """


class IngressConnectionError(IngressError):
    """The gateway connection failed (refused, reset, or closed mid-reply).

    The *retryable* ingress failure: :class:`repro.ingress.IngressClient`
    reconnects and re-sends under its
    :class:`~repro.reliability.retry.RetryPolicy` when it sees this.
    """


class IngressOverload(IngressError):
    """The server load-shed this request (explicit ``OVERLOAD`` response).

    Sent when admission control rejects a request (too many in flight),
    a shard's circuit breaker is open, or its deadline expired while
    queued — never a silent drop.  The request was *not* served; the
    caller may back off and resend.  :attr:`retry_after` carries the
    server's suggested resubmission delay in seconds (0.0 = no hint,
    e.g. for draining/admission sheds).
    """

    def __init__(self, message: str = "", *, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class FaultInjected(ReliabilityError):
    """Marker raised by a deterministic injected fault (never organically).

    The fault-injection harness (:mod:`repro.reliability.faults`) raises
    this from its named injection points so tests and CI can tell an
    injected failure apart from a real one.  Production code treats it as
    any other transient failure — retry/recovery paths must absorb it.
    """
