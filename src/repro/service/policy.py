"""Resilience policies shared by the compile clients and server.

Three small, independently testable pieces:

* :class:`RetryPolicy` -- exponential backoff with **full jitter**
  (delay drawn uniformly from ``[0, min(cap, base * 2**attempt)]``,
  the AWS-architecture-blog variant that decorrelates retry storms),
  bounded both by an attempt count and a wall-clock budget, honouring
  the server's ``retry_after`` hint as a floor;
* :class:`CircuitBreaker` -- the classic closed / open / half-open
  state machine: N consecutive failures open it, opens fast-fail
  without touching the socket, and after ``reset_timeout`` seconds one
  probe request is let through (half-open) to decide whether to close;
* :class:`ServerPolicy` -- the server's knobs: per-request deadline,
  admission high-water mark, shed hint, and the maximum frame size.

Everything takes an injectable clock / RNG so the tests are
deterministic and instant.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Callable

from repro.service.errors import CircuitOpen, Overloaded, ServiceError

#: Stream line-length ceiling, both directions.  A serialized 8x8
#: all-to-all schedule with registers is a few hundred KiB on one line,
#: well past asyncio's 64 KiB default.
MAX_LINE_BYTES = 64 * 1024 * 1024


def request_digest(req: dict[str, Any]) -> str:
    """Content key of a request (``id``/``idem`` excluded).

    The client sends it as the ``idem`` field and the server echoes its
    *own* recomputation over the bytes it received -- a mismatch proves
    the request was altered in flight, so a resilient client treats it
    as a transport fault and retries.  Two requests with the same
    digest are interchangeable (the server answers both from the same
    artifact), which is what makes blind retries of half-delivered
    requests idempotent-safe.
    """
    body = {k: v for k, v in req.items() if k not in ("id", "idem")}
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter plus a retry budget."""

    #: total tries (first attempt included); ``1`` disables retries.
    attempts: int = 4
    #: backoff base in seconds (attempt ``k`` caps at ``base * 2**k``).
    base_delay: float = 0.05
    #: per-delay ceiling in seconds.
    max_delay: float = 2.0
    #: total seconds of *sleeping* the whole retry loop may spend.
    budget_seconds: float = 30.0

    def retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth retrying (transient, idempotent-safe)."""
        return isinstance(exc, ServiceError) and exc.retryable

    def delay(
        self,
        attempt: int,
        *,
        retry_after: float = 0.0,
        rng: Callable[[], float] = random.random,
    ) -> float:
        """Sleep before retry number ``attempt`` (0-based).

        Full jitter over the exponential cap, floored at the server's
        ``retry_after`` hint so a shed request never comes back early.
        """
        cap = min(self.max_delay, self.base_delay * (2 ** attempt))
        return max(float(retry_after), rng() * cap)

    def plan(self, exc: BaseException, attempt: int, slept: float,
             rng: Callable[[], float] = random.random) -> float | None:
        """One retry decision: seconds to sleep, or ``None`` = give up.

        ``attempt`` is the 0-based index of the attempt that just
        failed with ``exc``; ``slept`` is the total back-off already
        spent for this request (the budget).
        """
        if attempt + 1 >= self.attempts or not self.retryable(exc):
            return None
        retry_after = exc.retry_after if isinstance(exc, Overloaded) else 0.0
        pause = self.delay(attempt, retry_after=retry_after, rng=rng)
        if slept + pause > self.budget_seconds:
            return None
        return pause


#: Breaker states (plain strings; they travel into stats dicts).
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


@dataclass
class CircuitBreaker:
    """Fast-fail after consecutive failures; half-open on a timer.

    Not thread-safe by design: each blocking client owns one, and the
    async client mutates it only from the event loop.  A breaker may be
    *shared* between clients in one thread/loop to pool their view of
    server health.
    """

    #: consecutive failures that trip the breaker open.
    failure_threshold: int = 5
    #: seconds the breaker stays open before allowing one probe.
    reset_timeout: float = 5.0
    clock: Callable[[], float] = monotonic

    state: str = field(default=CLOSED, init=False)
    failures: int = field(default=0, init=False)
    opened_at: float = field(default=0.0, init=False)
    #: lifetime count of requests fast-failed while open.
    rejected: int = field(default=0, init=False)
    #: lifetime count of closed->open transitions.
    trips: int = field(default=0, init=False)

    def check(self) -> None:
        """Gate one request: raise :class:`CircuitOpen` or let it pass.

        An open breaker whose reset timer has expired moves to
        half-open and lets exactly this request through as the probe.
        """
        if self.state == OPEN:
            if self.clock() - self.opened_at >= self.reset_timeout:
                self.state = HALF_OPEN
                return
            self.rejected += 1
            raise CircuitOpen(
                f"circuit open after {self.failures} consecutive failures"
            )

    def record_success(self) -> None:
        self.failures = 0
        self.state = CLOSED

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.failure_threshold:
            if self.state != OPEN:
                self.trips += 1
            self.state = OPEN
            self.opened_at = self.clock()

    def as_dict(self) -> dict[str, float | str]:
        return {
            "state": self.state,
            "failures": self.failures,
            "rejected": self.rejected,
            "trips": self.trips,
        }


@dataclass(frozen=True)
class ServerPolicy:
    """Admission and deadline knobs of one :class:`CompileServer`.

    ``max_pending`` bounds the number of compile requests allowed in
    the house at once (queued on the pool, running, or following an
    in-flight leader); past it the server sheds with an ``overloaded``
    reply carrying ``retry_after``.  ``request_deadline`` is the
    per-request wall-clock budget: a compile that exceeds it is
    cancelled (hung pool workers are killed and the pool restarted) and
    answered with a ``timeout`` error.
    """

    #: seconds one compile request may spend server-side; ``None`` = no limit.
    request_deadline: float | None = 60.0
    #: compile requests admitted concurrently before shedding starts.
    max_pending: int = 64
    #: back-off hint sent with ``overloaded`` replies.
    retry_after: float = 0.25
    #: hard per-line ceiling on request frames.
    max_frame_bytes: int = MAX_LINE_BYTES
