"""Async micro-batching front end over a :class:`QueryEngine`.

Thousands of concurrent "who is similar to node v?" requests are
individually tiny — a single-row matmul plus Python call overhead — but
the engine's batched scan amortises one corpus pass over the whole batch.
:class:`BatchingServer` bridges the two: concurrent single-node awaits are
coalesced into one vectorized ``top_k`` call under a max-latency /
max-batch window:

* the first request to arrive opens a window of ``max_delay`` seconds,
* requests landing inside the window join the batch,
* the batch is flushed early the moment it reaches ``max_batch`` rows,
* the vectorized call runs in the default executor, so the event loop
  keeps accepting (and queueing) new requests while numpy works.

Requests that ask for a different ``(k, metric)`` than the batch being
assembled stay queued and flush as their own group — every engine call
serves one homogeneous batch.  The engine (and its preallocated
workspace) is owned by the server's single flush loop; never share one
engine between a running server and direct callers.

Failure envelope.  A production front end must bound every bad outcome,
so the server carries three opt-in guards, each a typed error:

* **deadlines** — ``request_timeout`` (or a per-call ``timeout=``) bounds
  how long one request may wait end-to-end.  Each request carries its
  absolute deadline, and one loop timer per server is armed at the
  earliest deadline of any live (queued or in-flight) request.  When it
  fires it fails every due request with
  :class:`~repro.exceptions.ServerTimeoutError` and re-arms; the flush
  loop skips done futures, so an expired row is never computed;
* **backpressure** — ``max_pending`` bounds the queue; requests beyond it
  fast-fail with :class:`~repro.exceptions.ServerOverloadedError` instead
  of growing an unbounded backlog.  Only a queue whose length reaches the
  bound is counted, after dropping its expired or cancelled entries;
* **circuit breaker** — ``breaker_threshold`` consecutive engine failures
  open the breaker: new requests fast-fail with
  :class:`~repro.exceptions.CircuitOpenError` until ``breaker_reset``
  seconds pass, after which the breaker half-opens and the next batch
  probes the engine (success closes it, failure re-opens it).

Admission is O(1) with every guard on; the timer scans the live requests
only when it fires (see DESIGN.md, "Deadlines: one timer per server").

``stop(drain_timeout=...)`` bounds shutdown: waiters that cannot be
served in time receive :class:`~repro.exceptions.ServerClosedError`
rather than hanging forever, and the deadline timer is cancelled.  All
guards default to off.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from ..exceptions import (
    CircuitOpenError,
    ConfigurationError,
    ServerClosedError,
    ServerOverloadedError,
    ServerTimeoutError,
)
from .engine import QueryEngine

__all__ = ["BatchingServer", "ServerStats"]

#: distinguishes "argument omitted" from an explicit ``None`` override
_UNSET: Any = object()


@dataclass
class ServerStats:
    """Counters of one server lifetime (reset on ``start``)."""

    requests: int = 0
    batches: int = 0
    #: requests that shared their engine call with at least one other
    coalesced_requests: int = 0
    max_batch_size: int = 0
    #: requests whose deadline expired before their batch was served
    timeouts: int = 0
    #: requests fast-failed because the pending queue was full
    rejected_overload: int = 0
    #: requests fast-failed because the circuit breaker was open
    rejected_open: int = 0
    #: engine calls that raised (each fails its whole batch)
    engine_failures: int = 0
    #: closed/half-open -> open breaker transitions
    breaker_opened: int = 0
    #: waiters abandoned by a deadline-bounded ``stop``
    abandoned: int = 0
    breaker_state: str = "closed"

    @property
    def mean_batch_size(self) -> float:
        """Average rows per engine call (0.0 before the first flush)."""
        return self.requests / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """JSON-able summary (used by the serving benchmark artifacts)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": self.mean_batch_size,
        }

    def health(self) -> dict:
        """The full operational snapshot: throughput + failure counters."""
        return {
            **self.to_dict(),
            "timeouts": self.timeouts,
            "rejected_overload": self.rejected_overload,
            "rejected_open": self.rejected_open,
            "engine_failures": self.engine_failures,
            "breaker_opened": self.breaker_opened,
            "abandoned": self.abandoned,
            "breaker_state": self.breaker_state,
        }


class _CircuitBreaker:
    """Consecutive-failure breaker; state transitions mirrored into stats.

    ``open -> half_open`` happens lazily when the state is next observed
    after ``reset_after`` seconds — no timer task to manage.  In
    ``half_open`` requests are admitted so the next batch probes the
    engine: one success closes the breaker, one failure re-opens it.
    """

    def __init__(
        self, threshold: int | None, reset_after: float, stats: ServerStats
    ) -> None:
        self.threshold = threshold
        self.reset_after = reset_after
        self._stats = stats
        self._state = "closed"
        self._consecutive = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        if (
            self._state == "open"
            and time.monotonic() - self._opened_at >= self.reset_after
        ):
            self._set("half_open")
        return self._state

    def _set(self, state: str) -> None:
        self._state = state
        self._stats.breaker_state = state

    def allows(self) -> bool:
        return self.threshold is None or self.state != "open"

    def record_success(self) -> None:
        self._consecutive = 0
        if self.threshold is not None and self._state != "closed":
            self._set("closed")

    def record_failure(self) -> None:
        if self.threshold is None:
            return
        self._consecutive += 1
        if self.state == "half_open" or self._consecutive >= self.threshold:
            if self._state != "open":
                self._stats.breaker_opened += 1
            self._set("open")
            self._opened_at = time.monotonic()


class BatchingServer:
    """Coalesce concurrent top-k requests into vectorized engine calls.

    Parameters
    ----------
    engine:
        The :class:`QueryEngine` to serve from (exclusively owned while
        the server runs).
    max_batch:
        Flush as soon as this many compatible requests are pending.
        Defaults to the engine's ``max_batch``.
    max_delay:
        Seconds the first request of a batch waits for company before the
        batch is flushed anyway — the latency ceiling added by batching.
    default_k / metric / exclude_self:
        Per-request defaults; ``top_k`` callers may override ``k`` and
        ``metric`` per request.
    request_timeout:
        Default end-to-end deadline per request in seconds (``None`` =
        no deadline); ``top_k(..., timeout=...)`` overrides per call.
    max_pending:
        Pending-queue bound; beyond it requests raise
        :class:`~repro.exceptions.ServerOverloadedError` immediately.
    breaker_threshold / breaker_reset:
        Consecutive engine failures that open the circuit breaker, and
        seconds before an open breaker half-opens for a probe.
        ``breaker_threshold=None`` disables the breaker.
    drain_timeout:
        Default bound on ``stop``'s drain in seconds (``None`` = drain
        fully, however long it takes).

    Use as an async context manager, or call ``start`` / ``stop``::

        async with BatchingServer(engine, max_delay=0.002) as server:
            ids, scores = await server.top_k(42, k=10)
    """

    def __init__(self, engine: QueryEngine, *, max_batch: int | None = None,
                 max_delay: float = 0.002, default_k: int = 10,
                 metric: str = "cosine", exclude_self: bool = True,
                 request_timeout: float | None = None,
                 max_pending: int | None = None,
                 breaker_threshold: int | None = None,
                 breaker_reset: float = 1.0,
                 drain_timeout: float | None = None) -> None:
        if max_delay < 0:
            raise ConfigurationError(f"max_delay must be >= 0, got {max_delay}")
        self.engine = engine
        self.max_batch = int(max_batch) if max_batch is not None else engine.max_batch
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")
        self.max_delay = float(max_delay)
        self.default_k = int(default_k)
        self.metric = metric
        self.exclude_self = bool(exclude_self)
        if request_timeout is not None and request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be positive, got {request_timeout}"
            )
        if max_pending is not None and int(max_pending) < 1:
            raise ConfigurationError(f"max_pending must be >= 1, got {max_pending}")
        if breaker_threshold is not None and int(breaker_threshold) < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        if breaker_reset <= 0:
            raise ConfigurationError(
                f"breaker_reset must be positive, got {breaker_reset}"
            )
        if drain_timeout is not None and drain_timeout < 0:
            raise ConfigurationError(
                f"drain_timeout must be >= 0, got {drain_timeout}"
            )
        self.request_timeout = request_timeout
        self.max_pending = int(max_pending) if max_pending is not None else None
        self.breaker_threshold = (
            int(breaker_threshold) if breaker_threshold is not None else None
        )
        self.breaker_reset = float(breaker_reset)
        self.drain_timeout = drain_timeout
        self.stats = ServerStats()
        self._breaker = _CircuitBreaker(
            self.breaker_threshold, self.breaker_reset, self.stats
        )
        #: queued requests: ``(node, k, metric, deadline, limit, future)``
        self._pending: deque = deque()
        #: the requests of the batch the engine is computing
        self._in_flight: list[tuple] = []
        #: the one deadline timer, armed at the earliest live deadline
        self._timer: asyncio.TimerHandle | None = None
        self._wakeup: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closing = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "BatchingServer":
        """Start the flush loop (idempotent start is an error)."""
        if self._task is not None:
            raise RuntimeError("BatchingServer is already running")
        self._closing = False
        self.stats = ServerStats()
        self._breaker = _CircuitBreaker(
            self.breaker_threshold, self.breaker_reset, self.stats
        )
        self._wakeup = asyncio.Event()
        self._task = asyncio.create_task(self._run())
        return self

    async def stop(self, drain_timeout: float | None = _UNSET) -> None:
        """Drain pending requests, then stop the flush loop.

        With a ``drain_timeout`` (argument, or the constructor default)
        the drain is bounded: when the deadline passes, the loop is
        cancelled and every unserved waiter — in flight or still queued —
        receives :class:`~repro.exceptions.ServerClosedError` instead of
        hanging on a future nobody will complete.
        """
        if self._task is None:
            return
        limit = self.drain_timeout if drain_timeout is _UNSET else drain_timeout
        self._closing = True
        self._wakeup.set()
        task = self._task
        try:
            if limit is None:
                await task
            else:
                try:
                    await asyncio.wait_for(asyncio.shield(task), limit)
                except asyncio.TimeoutError:
                    task.cancel()
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass
                    self._abandon_waiters()
        finally:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._task = None
            self._wakeup = None

    def _abandon_waiters(self) -> None:
        """Fail every unserved waiter with ``ServerClosedError``."""
        exc = ServerClosedError(
            "server stopped before the request could be served"
        )
        for *_, future in chain(self._in_flight, self._pending):
            if not future.done():
                future.set_exception(exc)
                self.stats.abandoned += 1
        self._in_flight = []
        self._pending.clear()

    async def __aenter__(self) -> "BatchingServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def is_running(self) -> bool:
        return self._task is not None and not self._closing

    # ------------------------------------------------------------------ #
    # the request surface
    # ------------------------------------------------------------------ #
    async def top_k(self, node: int, k: int | None = None, *,
                    metric: str | None = None,
                    timeout: float | None = _UNSET) -> tuple[np.ndarray, np.ndarray]:
        """Await the top-k neighbours of one node: ``(ids, scores)`` 1-D.

        ``timeout`` overrides the server's ``request_timeout`` for this
        call (``None`` = wait without a deadline).
        """
        if not self.is_running:
            raise RuntimeError("BatchingServer is not running; use 'async with' or start()")
        if not self._breaker.allows():
            self.stats.rejected_open += 1
            raise CircuitOpenError(
                "circuit breaker is open after repeated engine failures; "
                f"retry after {self.breaker_reset}s"
            )
        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            # the queue may still hold requests that expired or were
            # cancelled while queued: drop them before refusing anyone
            self._pending = deque(item for item in self._pending if not item[-1].done())
            if len(self._pending) >= self.max_pending:
                self.stats.rejected_overload += 1
                raise ServerOverloadedError(
                    f"pending queue is full ({len(self._pending)} waiting >= "
                    f"max_pending={self.max_pending}); retry later"
                )
        request_k = self.default_k if k is None else int(k)
        request_metric = self.metric if metric is None else metric
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        limit = self.request_timeout if timeout is _UNSET else timeout
        if limit is None:
            deadline = math.inf
        else:
            deadline = loop.time() + limit
            if self._timer is None or deadline < self._timer.when():
                self._arm(loop, deadline)
        self._pending.append(
            (int(node), request_k, request_metric, deadline, limit, future)
        )
        self._wakeup.set()
        return await future

    def _arm(self, loop: asyncio.AbstractEventLoop, deadline: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = loop.call_at(deadline, self._expire_due)

    def _expire_due(self) -> None:
        """Timer callback: fail every live request that is due, re-arm."""
        loop = asyncio.get_running_loop()
        # the loop may run a timer a clock tick early; everything due by the
        # time it was armed for has expired
        now = max(loop.time(), self._timer.when())
        self._timer = None
        earliest = math.inf
        for _, _, _, deadline, limit, future in chain(self._in_flight, self._pending):
            if future.done():
                continue
            if deadline <= now:
                future.set_exception(ServerTimeoutError(
                    f"top_k deadline of {limit}s expired before the batch was served"
                ))
                self.stats.timeouts += 1
            elif deadline < earliest:
                earliest = deadline
        if earliest < math.inf:
            self._arm(loop, earliest)

    # ------------------------------------------------------------------ #
    # the flush loop
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if self._closing:
                    return
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            # first pending request opens the coalescing window
            deadline = loop.time() + self.max_delay
            while len(self._pending) < self.max_batch and not self._closing:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    await asyncio.wait_for(self._wakeup.wait(), remaining)
                except asyncio.TimeoutError:
                    break
                self._wakeup.clear()
            await self._flush_one_group(loop)

    async def _flush_one_group(self, loop: asyncio.AbstractEventLoop) -> None:
        """Serve the head-of-queue group of compatible requests."""
        batch = []
        skipped: deque = deque()
        head: tuple[int, str] | None = None
        while self._pending and len(batch) < self.max_batch:
            item = self._pending.popleft()
            if item[-1].done():  # deadline expired while queued — drop the row
                continue
            if head is None:
                head = (item[1], item[2])
            if (item[1], item[2]) == head:
                batch.append(item)
            else:
                skipped.append(item)
        skipped.extend(self._pending)
        self._pending = skipped
        if not batch:
            return
        head_k, head_metric = head

        nodes = np.array([node for node, *_ in batch], dtype=np.int64)
        self._in_flight = batch
        try:
            result = await loop.run_in_executor(
                None,
                lambda: self.engine.top_k(
                    nodes, head_k, metric=head_metric, exclude_self=self.exclude_self
                ),
            )
        except asyncio.CancelledError:
            # a deadline-bounded stop() cancelled the loop mid-call: the
            # executor thread finishes on its own, but these waiters will
            # never get a result — fail them now, then let the cancel win
            self._abandon_waiters()
            raise
        except Exception as exc:  # deliver the failure to every waiter
            self.stats.engine_failures += 1
            self._breaker.record_failure()
            for *_, future in batch:
                if not future.done():
                    future.set_exception(exc)
            self._in_flight = []
            return
        self._in_flight = []
        self._breaker.record_success()
        self.stats.requests += len(batch)
        self.stats.batches += 1
        self.stats.max_batch_size = max(self.stats.max_batch_size, len(batch))
        if len(batch) > 1:
            self.stats.coalesced_requests += len(batch)
        for row, (*_, future) in enumerate(batch):
            if not future.done():
                future.set_result((result.ids[row], result.scores[row]))
