"""Typed error taxonomy for the compile service.

Every failure a caller can see -- on either side of the wire -- maps to
one class in this hierarchy, and every class carries a stable ``code``
string (what travels in the ``error_type`` field of an ``ok: false``
reply) and a conventional ``exit_code`` (what ``repro-tdm`` exits with
when the error escapes a CLI verb):

========================  ==============  =========
class                     code            exit code
========================  ==============  =========
:class:`ServiceError`     service_error   69
:class:`ServerError`      server_error    69
:class:`ProtocolError`    protocol        65
:class:`ServiceTimeout`   timeout         124
:class:`Overloaded`       overloaded      75
:class:`TransportError`   transport       69
:class:`CircuitOpen`      circuit_open    75
:class:`EpochConflict`    epoch_conflict  75
:class:`WrongShard`       wrong_shard     75
:class:`StaleEpoch`       stale_epoch     75
========================  ==============  =========

:class:`ServiceTimeout` also subclasses the builtin ``TimeoutError``
and :class:`ProtocolError` subclasses ``ValueError``, so existing
``except TimeoutError`` / ``except ValueError`` call sites keep
working.  :func:`error_fields` (server side) and :func:`reply_error`
(client side) convert between exceptions and reply fields.
"""

from __future__ import annotations

from typing import Any

#: EX_DATAERR / EX_UNAVAILABLE / EX_TEMPFAIL from sysexits.h plus the
#: shell convention for timeouts; reused so scripts can branch on them.
EX_DATAERR = 65
EX_UNAVAILABLE = 69
EX_TEMPFAIL = 75
EX_TIMEOUT = 124


class ServiceError(RuntimeError):
    """Base of every typed compile-service failure."""

    code = "service_error"
    exit_code = EX_UNAVAILABLE
    #: whether a retry of the same (idempotent) request can succeed.
    retryable = False


class ServerError(ServiceError):
    """The server answered ``ok: false`` with a non-specific error.

    Deterministic server-side failures (a scheduler bug, an unknown
    pattern) land here; retrying the same request would fail the same
    way, so it is not retryable.
    """

    code = "server_error"


class ProtocolError(ServerError, ValueError):
    """A request or reply that violates the wire protocol.

    Covers malformed JSON, oversized frames, unknown ops and bad
    field shapes -- on either side.  Subclasses :class:`ServerError`
    (a typed ``ok: false`` reply is still a server answer) *and*
    ``ValueError`` (pre-existing parse-error call sites).
    """

    code = "protocol"
    exit_code = EX_DATAERR


class ServiceTimeout(ServiceError, TimeoutError):
    """A deadline expired (client connect/reply timeout or server budget)."""

    code = "timeout"
    exit_code = EX_TIMEOUT
    retryable = True


class Overloaded(ServiceError):
    """The server shed this request; retry after ``retry_after`` seconds."""

    code = "overloaded"
    exit_code = EX_TEMPFAIL
    retryable = True

    def __init__(self, message: str = "overloaded", *, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class TransportError(ServiceError, ConnectionError):
    """The connection died mid-request (reset, broken pipe, refusal)."""

    code = "transport"
    retryable = True


class EpochConflict(ServiceError):
    """An amend targeted a stale epoch (optimistic concurrency failure).

    The reply carries ``current_epoch`` and ``current_digest`` (the
    digest the stream is actually at); the caller must rebase its
    update onto the current schedule and resend against that epoch.
    ``current_digest`` lets a caller racing a failover distinguish "I
    lost the race" (the digest extends the chain it knows) from a fork
    (it does not) without another round trip.
    Not retryable as-is -- replaying the identical request loses again.
    """

    code = "epoch_conflict"
    exit_code = EX_TEMPFAIL

    def __init__(
        self,
        message: str = "amend epoch conflict",
        *,
        current_epoch: int = 0,
        current_digest: str = "",
    ):
        super().__init__(message)
        self.current_epoch = int(current_epoch)
        self.current_digest = str(current_digest)


class WrongShard(ServiceError):
    """A farm node refused a request it does not own (shard redirect).

    The reply carries the node's current ``shard_map`` document and the
    ``owners`` it computed for the request's digest, so the caller can
    adopt the newer map and resend to the right node.  Not blindly
    retryable -- replaying against the same node loses again; the farm
    client handles it as a redirect instead.
    """

    code = "wrong_shard"
    exit_code = EX_TEMPFAIL

    def __init__(
        self,
        message: str = "request routed to a non-owning shard",
        *,
        shard_map: dict[str, Any] | None = None,
        owners: list[str] | None = None,
    ):
        super().__init__(message)
        self.shard_map = shard_map
        self.owners = list(owners) if owners is not None else []


class StaleEpoch(ServiceError):
    """A map push (or drain) carried a deposed leader's epoch.

    The shard map's fencing token is ``(epoch, version)`` -- the leader
    incarnation epoch dominates the version -- so a deposed leader that
    keeps bumping its own map version can never overwrite the map a
    promoted standby published under a higher epoch.  The reply carries
    the receiver's ``current_epoch``/``current_version`` so the sender
    can prove to itself it was deposed.  Not retryable: replaying the
    same stale map loses again, by design.
    """

    code = "stale_epoch"
    exit_code = EX_TEMPFAIL

    def __init__(
        self,
        message: str = "shard map epoch is stale (deposed leader)",
        *,
        current_epoch: int = 0,
        current_version: int = 0,
    ):
        super().__init__(message)
        self.current_epoch = int(current_epoch)
        self.current_version = int(current_version)


class CircuitOpen(ServiceError):
    """The client's circuit breaker is open: fast-fail without I/O."""

    code = "circuit_open"
    exit_code = EX_TEMPFAIL


#: ``error_type`` string -> exception class, for the client side.
CODE_TO_ERROR: dict[str, type[ServiceError]] = {
    cls.code: cls
    for cls in (
        ServiceError, ServerError, ProtocolError, ServiceTimeout,
        Overloaded, TransportError, CircuitOpen, EpochConflict,
        WrongShard, StaleEpoch,
    )
}


def error_fields(exc: BaseException) -> dict[str, Any]:
    """Reply fields (``error``/``error_type``/...) for an exception.

    Server side: anything outside the hierarchy is reported as the
    generic ``server_error`` so a buggy scheduler can never crash the
    reply path; :class:`Overloaded` additionally carries its
    ``retry_after`` hint.
    """
    if isinstance(exc, Overloaded):
        return {
            "error": str(exc) or exc.code,
            "error_type": exc.code,
            "retry_after": exc.retry_after,
        }
    if isinstance(exc, EpochConflict):
        out = {
            "error": str(exc) or exc.code,
            "error_type": exc.code,
            "current_epoch": exc.current_epoch,
        }
        if exc.current_digest:
            out["current_digest"] = exc.current_digest
        return out
    if isinstance(exc, StaleEpoch):
        return {
            "error": str(exc) or exc.code,
            "error_type": exc.code,
            "current_epoch": exc.current_epoch,
            "current_version": exc.current_version,
        }
    if isinstance(exc, WrongShard):
        out: dict[str, Any] = {
            "error": str(exc) or exc.code,
            "error_type": exc.code,
            "owners": exc.owners,
        }
        if exc.shard_map is not None:
            out["shard_map"] = exc.shard_map
        return out
    if isinstance(exc, ServiceError):
        return {"error": f"{type(exc).__name__}: {exc}", "error_type": exc.code}
    if isinstance(exc, ValueError):
        # Bad request data (unknown spec, malformed fields): the
        # caller's fault, typed as a protocol error.
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "error_type": ProtocolError.code,
        }
    return {
        "error": f"{type(exc).__name__}: {exc}",
        "error_type": ServerError.code,
    }


def reply_error(reply: dict[str, Any]) -> ServiceError:
    """The typed exception encoded by an ``ok: false`` reply."""
    cls = CODE_TO_ERROR.get(reply.get("error_type", ""), ServerError)
    message = str(reply.get("error", "unknown server error"))
    if cls is Overloaded:
        return Overloaded(message, retry_after=float(reply.get("retry_after", 0.0)))
    if cls is EpochConflict:
        return EpochConflict(
            message,
            current_epoch=int(reply.get("current_epoch", 0)),
            current_digest=str(reply.get("current_digest", "")),
        )
    if cls is StaleEpoch:
        return StaleEpoch(
            message,
            current_epoch=int(reply.get("current_epoch", 0)),
            current_version=int(reply.get("current_version", 0)),
        )
    if cls is WrongShard:
        return WrongShard(
            message,
            shard_map=reply.get("shard_map"),
            owners=list(reply.get("owners", [])),
        )
    return cls(message)
