"""The fleet frontend: sharding requests across worker machines.

A :class:`FleetFrontend` is the load balancer in front of N worker
Machines.  It is host-side (the workers' guests never see it), fully
deterministic for a fixed seed, and enforces *backpressure*: each
worker has a bounded queue, a request that finds its chosen worker full
spills to the next routable worker in deterministic order, and a
request that finds every queue full is dropped and counted — never
buffered unboundedly.

Routing policies
----------------
``round_robin``
    Requests take workers in arrival order modulo fleet size.
``least_loaded``
    Each request goes to the worker with the shortest queue (ties break
    by fewest queued bytes, then worker order).
``hash``
    Consistent hashing: workers are placed on a ring at positions
    derived from ``sha256(seed, worker, replica)``; a request maps to
    the first worker clockwise of ``sha256(seed, key)`` where ``key``
    defaults to the payload bytes but can be an explicit *affinity key*
    (``submit(request, key=...)``) — the serving layer routes every
    request of one session by the same key, so keep-alive sessions
    stick to one worker.  Ejecting a worker only remaps the requests
    that hashed to it.  The ring holds only *routable* workers' points
    (a worker's replicas leave it the moment it drains, retires or is
    ejected), so a lookup is one ``bisect`` plus a walk over live
    workers, however many have come and gone.

Worker lifecycle (used by the autoscaler in :mod:`repro.serve`).
Drain, retire and eject are one-way: no worker ever becomes routable
again, so the frontend keeps its live sets (:attr:`routable_ids`,
:attr:`healthy_ids`) in step at these four methods alone, and every
per-request cost depends on live workers only:

* :meth:`add_worker` joins a new worker to the rotation mid-run (its
  ring replicas derive from the same seed, so placement is
  deterministic no matter when it joined).
* :meth:`drain` marks a worker unroutable while leaving its queue
  intact — it finishes what it has, takes nothing new.
* :meth:`retire` removes a drained worker whose queue has emptied.
* :meth:`eject` removes a worker that failed (alerted or faulted in a
  mode that could not recover) and hands back its queued requests so
  the driver can re-route them to the survivors.

:meth:`depths` exposes the per-worker queue snapshot (queued requests,
queued bytes, health/drain state) — the non-private view the
autoscaler and the observability layer key off.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.fleet.wire import TaggedMessage, WireFormatError
from repro.resil.transient import RetryPolicy

ROUTING_POLICIES = ("round_robin", "least_loaded", "hash")

#: Ring positions per worker for the consistent-hash policy.
HASH_REPLICAS = 64

#: Anything with a ``payload`` bytes attribute routes like a
#: TaggedMessage (the serve layer queues its richer request records
#: directly); plain bytes route as themselves.
Request = Union[bytes, TaggedMessage]


def _payload_of(request: Request) -> bytes:
    if isinstance(request, (bytes, bytearray)):
        return bytes(request)
    return request.payload


def _hash64(*parts: bytes) -> int:
    digest = hashlib.sha256(b"\x00".join(parts)).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class WorkerSlot:
    """Frontend-side view of one worker: its queue and health."""

    worker_id: str
    capacity: Optional[int] = None
    queue: List[Request] = field(default_factory=list)
    healthy: bool = True
    #: Draining workers serve out their queue but take nothing new.
    draining: bool = False
    #: Requests routed here (including ones later handed back on eject).
    assigned: int = 0
    ejected_reason: str = ""

    @property
    def queued_bytes(self) -> int:
        """Total payload bytes waiting in the queue."""
        return sum(len(_payload_of(r)) for r in self.queue)

    @property
    def has_room(self) -> bool:
        """True while the bounded queue can take another request."""
        return self.capacity is None or len(self.queue) < self.capacity

    @property
    def routable(self) -> bool:
        """True while new requests may be routed to this worker."""
        return self.healthy and not self.draining


class FleetFrontend:
    """Deterministic request router over a set of worker slots."""

    def __init__(self, worker_ids: Sequence[str], *,
                 policy: str = "round_robin", seed: int = 0,
                 queue_capacity: Optional[int] = None,
                 shed_limit: Optional[int] = None) -> None:
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; "
                f"choose from {ROUTING_POLICIES}")
        if not worker_ids:
            raise ValueError("a fleet needs at least one worker")
        if len(set(worker_ids)) != len(worker_ids):
            raise ValueError("worker ids must be unique")
        if shed_limit is not None and shed_limit < 1:
            raise ValueError("shed_limit must be positive when set")
        self.policy = policy
        self.seed = seed
        self.queue_capacity = queue_capacity
        #: Admission-control depth bound: submissions arriving while
        #: this many requests are already queued fleet-wide are refused
        #: outright with an explicit 503-style rejection (graceful
        #: degradation under sustained failure or recovery backlog).
        self.shed_limit = shed_limit
        self.slots: Dict[str, WorkerSlot] = {
            wid: WorkerSlot(wid, capacity=queue_capacity)
            for wid in worker_ids
        }
        self.order: List[str] = list(worker_ids)
        #: Requests refused because every routable queue was full.
        self.dropped = 0
        #: Requests that spilled past their first-choice worker.
        self.spilled = 0
        #: Requests refused by admission control (503-style shedding).
        self.rejected = 0
        #: Corrupt/truncated frames refused by :meth:`receive_frame`.
        self.frame_rejects = 0
        #: Frames that never arrived (dropped on the wire).
        self.frames_lost = 0
        #: Retransmission requests issued after a bad/lost frame.
        self.retransmits = 0
        self._rr_next = 0
        self._seed_key = str(seed).encode()
        #: Live workers in join order — the only ones any per-request
        #: or per-tick scan visits.  Read-only outside the lifecycle
        #: methods.  ``order``/``slots`` keep every worker ever known.
        self.routable_ids: List[str] = list(worker_ids)
        #: Workers still in rotation, draining ones included.
        self.healthy_ids: List[str] = list(worker_ids)
        #: The consistent-hash ring over routable workers: sorted
        #: ``(position, worker)`` points and their positions alone (the
        #: ``bisect`` key).
        self._ring: List[Tuple[int, str]] = []
        self._ring_pos: List[int] = []
        for wid in worker_ids:
            self._ring_add(wid)

    def _ring_add(self, worker_id: str) -> None:
        for replica in range(HASH_REPLICAS):
            point = (_hash64(self._seed_key, worker_id.encode(),
                             str(replica).encode()), worker_id)
            i = bisect.bisect_left(self._ring, point)
            self._ring.insert(i, point)
            self._ring_pos.insert(i, point[0])

    def _leave(self, worker_id: str) -> None:
        """Drop a worker from the live sets its flags no longer allow."""
        slot = self.slots[worker_id]
        if not slot.routable and worker_id in self.routable_ids:
            self.routable_ids.remove(worker_id)
            self._ring = [p for p in self._ring if p[1] != worker_id]
            self._ring_pos = [pos for pos, _wid in self._ring]
        if not slot.healthy and worker_id in self.healthy_ids:
            self.healthy_ids.remove(worker_id)

    # -- candidate ordering ---------------------------------------------

    def _candidates(self, request: Request,
                    key: Optional[bytes] = None) -> List[str]:
        """Worker ids in routing-preference order for one request."""
        routable = self.routable_ids
        if not routable:
            return []
        if self.policy == "round_robin":
            start = self._rr_next % len(routable)
            self._rr_next += 1
            return routable[start:] + routable[:start]
        if self.policy == "least_loaded":
            slots = self.slots
            ranked = sorted(
                (len(slots[wid].queue), slots[wid].queued_bytes, i, wid)
                for i, wid in enumerate(routable))
            return [wid for *_rank, wid in ranked]
        # Consistent hash: walk the ring clockwise from the key's
        # position; every point belongs to a routable worker, so only
        # repeats are skipped.
        point = _hash64(self._seed_key,
                        key if key is not None else _payload_of(request))
        ring = self._ring
        start = bisect.bisect_left(self._ring_pos, point)
        ordered: List[str] = []
        for i in range(len(ring)):
            wid = ring[(start + i) % len(ring)][1]
            if wid not in ordered:
                ordered.append(wid)
                if len(ordered) == len(routable):
                    break
        return ordered

    # -- routing ---------------------------------------------------------

    def submit(self, request: Request,
               key: Optional[bytes] = None) -> Optional[str]:
        """Route one request; returns the worker id, or None if dropped.

        The first candidate with queue room takes it; candidates past
        the first count as spill (backpressure at the preferred worker).
        ``key`` overrides the bytes hashed by the ``hash`` policy — the
        session-affinity key of the serving layer.

        Admission control runs first: when :attr:`shed_limit` is set
        and that many requests are already queued fleet-wide, the
        request is *rejected* (counted in :attr:`rejected`) without
        touching any queue — the 503-style explicit refusal that keeps
        a degraded fleet inside its depth bound instead of silently
        absorbing a backlog it cannot serve.
        """
        if (self.shed_limit is not None
                and self.total_queued >= self.shed_limit):
            self.rejected += 1
            return None
        for rank, wid in enumerate(self._candidates(request, key)):
            slot = self.slots[wid]
            if slot.has_room:
                slot.queue.append(request)
                slot.assigned += 1
                if rank > 0:
                    self.spilled += 1
                return wid
        self.dropped += 1
        return None

    def submit_all(self, requests: Sequence[Request]) -> Dict[str, int]:
        """Route a batch; returns per-worker routed counts."""
        for request in requests:
            self.submit(request)
        return {wid: len(slot.queue) for wid, slot in self.slots.items()}

    # -- wire ingress ----------------------------------------------------

    def receive_frame(self, channel: Callable[[int], Optional[bytes]],
                      *, retry: Optional[RetryPolicy] = None):
        """Receive one wire frame, retransmitting on loss or corruption.

        ``channel(attempt)`` models one delivery attempt: it returns the
        frame bytes as they arrived (possibly corrupted in flight) or
        ``None`` when the frame was dropped on the wire.  A frame that
        fails :meth:`TaggedMessage.from_bytes` (bad magic, short frame,
        CRC mismatch) counts in :attr:`frame_rejects`; a dropped frame
        counts in :attr:`frames_lost`; each follow-up attempt counts in
        :attr:`retransmits` and pays ``retry.backoff(attempt)`` cycles.

        Returns ``(message, backoff_cycles)`` on success.  Raises
        :class:`WireFormatError` only once the retry budget is
        exhausted — the caller may then eject the sender, but a
        transient bit-flip no longer kills a healthy worker.
        """
        policy = retry if retry is not None else RetryPolicy()
        backoff_cycles = 0.0
        last_error: Optional[WireFormatError] = None
        for attempt in range(policy.limit + 1):
            if attempt > 0:
                self.retransmits += 1
                backoff_cycles += policy.backoff(attempt - 1)
            raw = channel(attempt)
            if raw is None:
                self.frames_lost += 1
                last_error = WireFormatError("frame lost on the wire")
                continue
            try:
                message = TaggedMessage.from_bytes(raw)
            except WireFormatError as exc:
                self.frame_rejects += 1
                last_error = exc
                continue
            return message, backoff_cycles
        raise WireFormatError(
            f"frame unrecoverable after {policy.limit} retransmit(s): "
            f"{last_error}")

    # -- worker lifecycle ------------------------------------------------

    def add_worker(self, worker_id: str,
                   capacity: Optional[int] = None) -> WorkerSlot:
        """Join a new worker to the rotation (autoscaler scale-up).

        The worker's ring replicas derive from the frontend seed, so a
        worker added mid-run lands exactly where it would have at
        construction time — consistent-hash placement stays stable.
        ``capacity`` defaults to the frontend-wide queue bound.
        """
        if worker_id in self.slots:
            raise ValueError(f"worker {worker_id!r} already exists")
        slot = WorkerSlot(
            worker_id,
            capacity=self.queue_capacity if capacity is None else capacity)
        self.slots[worker_id] = slot
        self.order.append(worker_id)
        self.routable_ids.append(worker_id)
        self.healthy_ids.append(worker_id)
        self._ring_add(worker_id)
        return slot

    def drain(self, worker_id: str) -> None:
        """Stop routing to a worker; it serves out its queue (scale-down)."""
        self.slots[worker_id].draining = True
        self._leave(worker_id)

    def retire(self, worker_id: str) -> None:
        """Remove a drained worker whose queue has emptied."""
        slot = self.slots[worker_id]
        if slot.queue:
            raise ValueError(
                f"worker {worker_id!r} still has {len(slot.queue)} "
                "queued request(s); drain must empty before retire")
        slot.healthy = False
        slot.draining = False
        slot.ejected_reason = "retired"
        self._leave(worker_id)

    def eject(self, worker_id: str, reason: str = "") -> List[Request]:
        """Remove a worker from rotation; hand back its queued requests."""
        slot = self.slots[worker_id]
        slot.healthy = False
        slot.draining = False
        slot.ejected_reason = reason or "ejected"
        self._leave(worker_id)
        orphans = list(slot.queue)
        slot.queue.clear()
        return orphans

    # -- observation -----------------------------------------------------

    def depths(self) -> Dict[str, Dict[str, object]]:
        """Per-worker queue-depth snapshot (the autoscaler's input).

        Every worker ever known appears, including drained and ejected
        ones, each with its queued request/byte counts and lifecycle
        flags — the public view the autoscaler and the obs layer use
        instead of reaching into :attr:`slots`.
        """
        return {
            wid: {
                "queued": len(slot.queue),
                "queued_bytes": slot.queued_bytes,
                "healthy": slot.healthy,
                "draining": slot.draining,
                "routable": slot.routable,
            }
            for wid, slot in self.slots.items()
        }

    @property
    def total_queued(self) -> int:
        """Requests waiting across every healthy worker queue."""
        return sum(len(self.slots[wid].queue) for wid in self.healthy_ids)

    @property
    def healthy_count(self) -> int:
        """Workers still in rotation (draining workers included)."""
        return len(self.healthy_ids)

    @property
    def routable_count(self) -> int:
        """Workers accepting new requests (healthy and not draining)."""
        return len(self.routable_ids)
